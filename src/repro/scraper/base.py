"""Polite scraping base: pacing, retries, rate limits and captcha walls.

Implements the methodology items verbatim: (i) limit the request rate,
(ii) defeat captchas with 2Captcha, (iii) mimic human behaviour (jittered
think time), (iv) handle and react to exceptions such as
``NoSuchElementException`` and ``TimeoutException``.

Resilience wiring (all optional, used by the pipeline): a shared per-host
:class:`~repro.core.resilience.CircuitBreakerRegistry` so a dead host fails
fast across every scraper, one :class:`~repro.core.resilience.RetryPolicy`
for transient backoff, a per-stage :class:`~repro.core.resilience.RetryBudget`,
and a ``fault_sink`` callback reporting transport failures for the
pipeline's fault ledger.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.web.browser import (
    Browser,
    By,
    NoSuchElementException,
    TimeoutException,
    WebDriverException,
    WebElement,
)
from repro.web.captcha import CaptchaError, InsufficientBalanceError, TwoCaptchaClient
from repro.web.http import Response
from repro.web.network import VirtualInternet

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids a core<->scraper cycle
    from repro.core.resilience import CircuitBreakerRegistry, RetryBudget, RetryPolicy

#: ``fault_sink(host, error)`` — invoked for transport-level failures.
FaultSink = Callable[[str, BaseException], None]


class RobotsDisallowedError(WebDriverException):
    """The target path is disallowed by the host's robots.txt."""


class CaptchaBudgetExhaustedError(WebDriverException):
    """The captcha-solving account ran out of funds mid-crawl."""


@dataclass
class ScrapeStats:
    """Counters for auditing a crawl."""

    pages_fetched: int = 0
    rate_limited: int = 0
    captchas_seen: int = 0
    captchas_solved: int = 0
    transient_retries: int = 0
    timeouts: int = 0
    element_misses: int = 0
    malformed_retry_after: int = 0
    circuit_short_circuits: int = 0
    retries_denied: int = 0
    faults_absorbed: int = 0


@dataclass
class ScraperConfig:
    """Pacing and retry policy."""

    min_think_time: float = 0.4
    max_think_time: float = 1.6
    page_load_timeout: float = 10.0
    max_captcha_attempts: int = 3
    max_transient_retries: int = 3
    retry_backoff: float = 2.0
    seed: int = 99
    #: Fetch each host's robots.txt once and honour Crawl-delay/Disallow.
    respect_robots: bool = True


class PoliteScraper:
    """Shared machinery for all site-specific scrapers."""

    def __init__(
        self,
        internet: VirtualInternet,
        solver: TwoCaptchaClient | None = None,
        config: ScraperConfig | None = None,
        client_id: str = "measurement-scraper",
        breakers: "CircuitBreakerRegistry | None" = None,
        retry_policy: "RetryPolicy | None" = None,
        retry_budget: "RetryBudget | None" = None,
        fault_sink: FaultSink | None = None,
    ) -> None:
        self.internet = internet
        self.config = config or ScraperConfig()
        self.browser = Browser(internet, client_id=client_id, page_load_timeout=self.config.page_load_timeout)
        self.solver = solver
        self.stats = ScrapeStats()
        self.breakers = breakers
        self.retry_budget = retry_budget
        self.fault_sink = fault_sink
        if retry_policy is None:
            from repro.core.resilience import RetryPolicy

            retry_policy = RetryPolicy(
                max_attempts=self.config.max_transient_retries,
                base_delay=self.config.retry_backoff,
                multiplier=2.0,
                jitter=0.2,
            )
        self.retry_policy = retry_policy
        self._rng = random.Random(self.config.seed)
        from repro.scraper.robots import RobotsCache

        #: Keyed per host; journal trackers capture it separately from
        #: :meth:`state_dict`, one inserted host at a time.
        self.robots = RobotsCache()

    # -- resume support --------------------------------------------------------

    def state_dict(self) -> dict:
        """Order-coupled scraper state (think-time RNG, stats, cookies) for
        journal capture.  The solver and breakers are shared objects, and
        :attr:`robots` a keyed cache, all captured separately by the tracker."""
        from repro.web.network import rng_state

        return {
            "rng": rng_state(self._rng),
            "stats": vars(self.stats).copy(),
            "cookies": self.browser.client.cookies.state_dict(),
            "requests_sent": self.browser.client.requests_sent,
            "generation": self.browser._generation,
        }

    def restore_state(self, state: dict) -> None:
        from repro.web.network import restore_rng

        restore_rng(self._rng, state["rng"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)  # in place: CrawlResult may hold a reference
        self.browser.client.cookies.restore_state(state["cookies"])
        self.browser.client.requests_sent = state["requests_sent"]
        self.browser._generation = state["generation"]

    # -- fetching --------------------------------------------------------------

    def fetch(self, url: str) -> Response:
        """Politely fetch ``url``, absorbing rate limits, captchas and 5xx.

        Raises :class:`TimeoutException` for slow pages (callers classify
        those), :class:`RobotsDisallowedError` for paths the host's
        robots.txt forbids, :class:`~repro.core.resilience.CircuitOpenError`
        when the host's shared circuit is open, and
        :class:`WebDriverException` for unrecoverable failures.
        """
        from repro.web.http import Url

        parsed = Url.parse(url)
        host = parsed.host
        if self.breakers is not None and parsed.is_absolute:
            self._await_circuit(host)
        extra_delay = 0.0
        if self.config.respect_robots and parsed.is_absolute:
            policy = self.robots.policy_for(self.browser.client, host)
            if not policy.allows(parsed.path):
                raise RobotsDisallowedError(f"robots.txt disallows {parsed.path} on {host}")
            extra_delay = policy.crawl_delay
        self._think(extra_delay)
        response = self._navigate(url, host)
        transient_attempt = 0
        for _ in range(self.config.max_transient_retries + self.config.max_captcha_attempts):
            if response.status == 429:
                self.stats.rate_limited += 1
                retry_after = self._retry_after_seconds(response)
                if not self._spend_retry():
                    break
                self.internet.clock.sleep(retry_after + 0.1)
                response = self._navigate(url, host)
            elif response.status == 403 and self._looks_like_captcha():
                if not self._spend_retry():
                    break
                response = self._clear_captcha(url)
            elif response.status in (502, 503, 504):
                self.stats.transient_retries += 1
                if not self._spend_retry():
                    break
                self.internet.clock.sleep(self.retry_policy.delay(transient_attempt, self._rng))
                transient_attempt += 1
                response = self._navigate(url, host)
            else:
                break
        self.stats.pages_fetched += 1
        return response

    def _await_circuit(self, host: str) -> None:
        """Wait out an open circuit on the virtual clock, budget permitting.

        A polite scraper pauses while a host is down rather than burning
        through its work list; skipping instantly would consume the whole
        crawl in near-zero virtual time while the outage window is still
        open.  Once the retry budget is gone (or the host stays dead), the
        :class:`~repro.core.resilience.CircuitOpenError` propagates so the
        caller can skip and account the bot.
        """
        from repro.core.resilience import CircuitOpenError

        for _ in range(3):
            try:
                self.breakers.check(host)
                return
            except CircuitOpenError as error:
                if not self._spend_retry():
                    self.stats.circuit_short_circuits += 1
                    raise
                wait = max(error.retry_at - self.internet.clock.now(), 0.0) + self.retry_policy.base_delay
                self.internet.clock.sleep(wait)
        try:
            self.breakers.check(host)
        except CircuitOpenError:
            self.stats.circuit_short_circuits += 1
            raise

    def _retry_after_seconds(self, response: Response) -> float:
        """Parse ``Retry-After``, falling back on garbage or absent values.

        Real hosts send junk here; ``float("a while")`` must degrade to the
        configured backoff, not kill the crawl with a ``ValueError``.
        """
        raw = response.headers.get("Retry-After")
        if raw is None or not raw.strip():
            return self.config.retry_backoff
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value < 0:
            self.stats.malformed_retry_after += 1
            return self.config.retry_backoff
        return value

    def _spend_retry(self) -> bool:
        """Consume stage retry budget; False means stop retrying this fetch."""
        if self.retry_budget is None:
            return True
        if self.retry_budget.spend():
            return True
        self.stats.retries_denied += 1
        return False

    def _navigate(self, url: str, host: str | None = None) -> Response:
        if host is None:
            from repro.web.http import Url

            host = Url.parse(url).host
        try:
            response = self.browser.get(url)
        except TimeoutException:
            # Slow, not dead: timeouts are a *classification* outcome (the
            # paper's slow-redirect invites), so they never trip breakers.
            self.stats.timeouts += 1
            raise
        except WebDriverException as error:
            self._note_transport_failure(host, error)
            raise
        if self.breakers is not None and host:
            self.breakers.record_success(host)
        return response

    def _note_transport_failure(self, host: str, error: BaseException) -> None:
        self.stats.faults_absorbed += 1
        if self.breakers is not None and host:
            self.breakers.record_failure(host)
        if self.fault_sink is not None:
            self.fault_sink(host or "<unknown>", error)

    def _think(self, minimum: float = 0.0) -> None:
        """Human-like pause between page loads (at least ``minimum``)."""
        delay = self._rng.uniform(self.config.min_think_time, self.config.max_think_time)
        self.internet.clock.sleep(max(delay, minimum))

    # -- captcha handling ---------------------------------------------------------

    def _looks_like_captcha(self) -> bool:
        try:
            self.browser.find_element(By.ID, "captcha-challenge")
            return True
        except NoSuchElementException:
            return False

    def _clear_captcha(self, url: str) -> Response:
        """Extract the challenge, solve it with 2Captcha, retry the URL."""
        self.stats.captchas_seen += 1
        if self.solver is None:
            raise WebDriverException("hit a captcha wall with no solver configured")
        element = self.browser.find_element(By.ID, "captcha-challenge")
        challenge_id = element.get_attribute("data-challenge-id") or ""
        prompt = element.find_element(By.CSS_SELECTOR, "p.prompt").text
        try:
            answer = self.solver.solve_with_retries(prompt, attempts=self.config.max_captcha_attempts)
        except InsufficientBalanceError as error:
            raise CaptchaBudgetExhaustedError(f"captcha budget exhausted: {error}") from error
        except CaptchaError as error:
            raise WebDriverException(f"captcha solving failed: {error}") from error
        self.stats.captchas_solved += 1
        from repro.web.http import Url

        retry_url = Url.parse(url).with_params(captcha_id=challenge_id, captcha_answer=answer)
        return self._navigate(str(retry_url))


def try_locators(browser_or_element, locators: list[tuple[str, str]]) -> WebElement | None:
    """Return the first element matched by any locator, else ``None``.

    This is how the scraper copes with the varying page structures: try the
    variant-A locator, fall back to variant B, treat total absence as "the
    attribute is not on this page".
    """
    for by, value in locators:
        try:
            return browser_or_element.find_element(by, value)
        except NoSuchElementException:
            continue
    return None
