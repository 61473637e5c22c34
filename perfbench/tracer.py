"""Span recorder for the traced pass: per-layer self time and call counts.

The traced pass replaces each function in :data:`TARGETS` with a wrapper
that records one span per call (name, start, end, parent) in memory.  A
span's *self time* is its duration minus the probe time inside it and
minus the time of its child spans; a layer's ``self_share`` is its self
time over the whole traced run, so it does not depend on machine speed.
Counts are exact.

Wrapping happens from the benchmark's own files: the program is not
changed.  A function imported by name into other ``repro`` modules is
replaced there too, so every call goes through the wrapper.  A target
that no longer resolves is reported in :attr:`Installation.missing` and
gets no metric, never a zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: (layer, module, attribute path).  Several targets may share a layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("ecosystem.generate", "repro.ecosystem.stream", "generate_ecosystem"),
    ("ecosystem.stream.bot_at", "repro.ecosystem.stream", "EcosystemStream.bot_at"),
    ("web.dom.parse_html", "repro.web.dom", "parse_html"),
    ("web.dom.select", "repro.web.dom", "select"),
    ("web.network.exchange", "repro.web.network", "VirtualInternet.exchange"),
    ("web.antiscrape", "repro.web.antiscrape", "RateLimitMiddleware.__call__"),
    ("web.antiscrape", "repro.web.antiscrape", "CaptchaWallMiddleware.__call__"),
    ("web.antiscrape", "repro.web.antiscrape", "EmailVerificationMiddleware.__call__"),
    ("web.antiscrape", "repro.web.antiscrape", "FlakyMiddleware.__call__"),
    ("web.captcha.solve", "repro.web.captcha", "TwoCaptchaClient.solve"),
    ("scraper.fetch", "repro.scraper.base", "PoliteScraper.fetch"),
    ("scraper.topgg.scrape_bot", "repro.scraper.topgg", "TopGGScraper.scrape_bot"),
    ("scraper.website.fetch_policy", "repro.scraper.website", "WebsiteScraper.fetch_policy"),
    ("scraper.github.fetch_repo", "repro.scraper.github", "GitHubScraper.fetch_repo"),
    ("traceability.analyze", "repro.traceability.analyzer", "TraceabilityAnalyzer.analyze"),
    ("codeanalysis.analyze_repo", "repro.codeanalysis.analyzer", "CodeAnalyzer.analyze_repo"),
    ("honeypot.run", "repro.honeypot.experiment", "HoneypotExperiment.run"),
    ("discordsim.gateway.dispatch", "repro.discordsim.gateway", "EventBus.dispatch"),
    ("core.supervision.run", "repro.core.supervision", "BotSupervisor.run"),
    ("core.journal.append", "repro.core.journal", "WriteAheadJournal.append"),
    ("core.journal.begin_unit", "repro.core.journal", "UnitTracker.begin_unit"),
    ("core.journal.finish_unit", "repro.core.journal", "UnitTracker.finish_unit"),
    ("core.spill.append", "repro.core.spill", "SpillList.append"),
    ("core.storage.atomic_write_json", "repro.core.storage", "atomic_write_json"),
    ("core.storage.sync", "repro.core.storage", "DurableAppendFile.sync"),
    ("core.checkpoint.save", "repro.core.checkpoint", "PipelineCheckpoint.save"),
    ("core.parallel.run", "repro.core.parallel", "ProcessShardRunner.run"),
    ("core.sharding.merge", "repro.core.sharding", "merge_in_order"),
    ("core.sharding.merge", "repro.core.sharding", "merge_honeypot_reports"),
    ("core.sharding.merge", "repro.core.sharding", "merge_fault_records"),
    ("core.sharding.merge", "repro.core.sharding", "merge_quarantine_records"),
    ("serving.handle", "repro.serving.service", "VettingService.handle"),
    ("vetting.review_static", "repro.core.vetting", "VettingPipeline.review_static"),
    ("vetting.review_code", "repro.core.vetting", "VettingPipeline.review_code"),
    ("vetting.review_dynamic", "repro.core.vetting", "VettingPipeline.review_dynamic"),
)

#: Name of the span around a whole traced process; its self time is the
#: work no target covers.
ROOT = "untraced"


class SpanRecorder:
    """Keeps every span in memory; aggregates self time and calls per layer.

    ``probe`` is a :class:`~probe.ProbeSampler` (or None); probe time that
    lands inside a span is removed from it.
    """

    def __init__(self, probe=None) -> None:
        self.probe = probe
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.root_seconds = 0.0
        #: core.parallel.run wall minus the slowest shard's reported wall.
        self.pool_overhead_seconds = 0.0
        self._stack: list[int] = []
        self._child: list[float] = []

    def _probe_total(self) -> float:
        return self.probe.total if self.probe is not None else 0.0

    def enter(self, name: str) -> tuple[int, float]:
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, start, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self._child.append(0.0)
        return index, self._probe_total()

    def leave(self, index: int, probe_start: float) -> float:
        """Close span ``index``; return its work seconds (probe time removed)."""
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        children = self._child.pop()
        work = (end - span[1]) - (self._probe_total() - probe_start)
        name = span[0]
        self.self_seconds[name] += work - children
        self.calls[name] += 1
        if self._child:
            self._child[-1] += work
        else:
            self.root_seconds += work
        return work

    def wrap(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index, probe_start = recorder.enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                work = recorder.leave(index, probe_start)
            if name == "core.parallel.run":
                recorder.pool_overhead_seconds += work - max(
                    (payload["wall_seconds"] for payload in result), default=0.0
                )
            return result

        return traced

    def export(self) -> dict:
        """Aggregates only (spans stay here): what a worker ships back."""
        return {
            "calls": dict(self.calls),
            "self_seconds": dict(self.self_seconds),
            "root_seconds": self.root_seconds,
            "pool_overhead_seconds": self.pool_overhead_seconds,
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def merge_exports(exports: list[dict]) -> dict:
    """Sum several processes' :meth:`SpanRecorder.export` aggregates."""
    merged = {"calls": defaultdict(int), "self_seconds": defaultdict(float), "root_seconds": 0.0,
              "pool_overhead_seconds": 0.0, "spans": 0}
    for export in exports:
        for name, count in export["calls"].items():
            merged["calls"][name] += count
        for name, seconds in export["self_seconds"].items():
            merged["self_seconds"][name] += seconds
        for key in ("root_seconds", "pool_overhead_seconds", "spans"):
            merged[key] += export[key]
    return merged


class Installation:
    """The wrappers put in place by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self.layers: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for ``module:path``, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if not callable(function):
        return None
    return owner, attribute, function


def install(wrap, targets=TARGETS) -> Installation:
    """Replace every target with ``wrap(layer, function)``.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name.
    """
    installation = Installation()
    for layer, module_name, path in targets:
        resolved = _resolve(module_name, path)
        if resolved is None:
            installation.missing.append(f"{layer} ({module_name}:{path})")
            continue
        owner, attribute, function = resolved
        wrapper = wrap(layer, function)
        installation.layers.add(layer)
        owners = [owner]
        if not isinstance(owner, type):
            owners += [
                module
                for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner and getattr(module, attribute, None) is function
            ]
        for each in owners:
            installation._undo.append((each, attribute, function))
            setattr(each, attribute, wrapper)
    return installation
