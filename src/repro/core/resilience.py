"""Pipeline-wide resilience primitives: circuit breakers, retries, the ledger.

The paper's scraper survives a hostile measurement substrate — rate limits,
captchas, flaky elements, timeouts, dead hosts — because every failure mode
has a bounded, explicit reaction.  This module centralises those reactions
so all three scrapers, the HTTP client and the honeypot share one
vocabulary:

- :class:`CircuitBreaker` / :class:`CircuitBreakerRegistry` — per-host
  closed → open → half-open breakers on the *virtual* clock, so a dead host
  stops burning retry budget across thousands of bots.
- :class:`RetryPolicy` / :class:`RetryBudget` — one jittered-exponential
  backoff definition replacing the ad-hoc retry loops, plus per-stage retry
  budgets so a degraded stage fails fast instead of retrying forever.
- :class:`FaultLedger` — the structured record of everything a run lost:
  which stage, which host, which error class, at what virtual time, and how
  many bots were skipped because of it.  A resilient run always *completes*;
  the ledger is how it stays honest about partial coverage.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum

from repro.web.network import NetworkError, VirtualClock


class CircuitOpenError(NetworkError):
    """The per-host circuit is open: fail fast instead of contacting it."""

    def __init__(self, host: str, retry_at: float) -> None:
        super().__init__(f"circuit open for {host} until t={retry_at:.1f}")
        self.host = host
        self.retry_at = retry_at


class CircuitState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Classic three-state breaker driven by the virtual clock.

    CLOSED counts consecutive failures; at ``failure_threshold`` it trips
    OPEN and every :meth:`check` raises :class:`CircuitOpenError` without
    touching the host.  After ``recovery_time`` seconds the next check
    transitions to HALF_OPEN, letting probe traffic through;
    ``half_open_successes`` consecutive successes close the circuit again,
    while any failure re-opens it for another full recovery period.
    """

    def __init__(
        self,
        clock: VirtualClock,
        failure_threshold: int = 5,
        recovery_time: float = 300.0,
        half_open_successes: int = 2,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time <= 0:
            raise ValueError("recovery_time must be positive")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_successes = half_open_successes
        self._state = CircuitState.CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self.times_opened = 0
        self.short_circuits = 0

    @property
    def state(self) -> CircuitState:
        return self._state

    @property
    def retry_at(self) -> float:
        return self._opened_at + self.recovery_time

    def check(self, host: str = "host") -> None:
        """Raise :class:`CircuitOpenError` unless a request may proceed."""
        if self._state is CircuitState.OPEN:
            if self.clock.now() >= self.retry_at:
                self._state = CircuitState.HALF_OPEN
                self._probe_successes = 0
            else:
                self.short_circuits += 1
                raise CircuitOpenError(host, self.retry_at)

    def record_success(self) -> None:
        if self._state is CircuitState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_successes:
                self._state = CircuitState.CLOSED
                self._consecutive_failures = 0
        else:
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        if self._state is CircuitState.HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if self._state is CircuitState.CLOSED and self._consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = CircuitState.OPEN
        self._opened_at = self.clock.now()
        self._consecutive_failures = 0
        self.times_opened += 1

    def state_dict(self) -> dict:
        return {
            "state": self._state.value,
            "failures": self._consecutive_failures,
            "probes": self._probe_successes,
            "opened_at": self._opened_at,
            "times_opened": self.times_opened,
            "short_circuits": self.short_circuits,
        }

    def restore_state(self, state: dict) -> None:
        self._state = CircuitState(state["state"])
        self._consecutive_failures = state["failures"]
        self._probe_successes = state["probes"]
        self._opened_at = state["opened_at"]
        self.times_opened = state["times_opened"]
        self.short_circuits = state["short_circuits"]


class CircuitBreakerRegistry:
    """Per-host breakers, shared by every scraper in a pipeline run."""

    def __init__(
        self,
        clock: VirtualClock,
        failure_threshold: int = 5,
        recovery_time: float = 300.0,
        half_open_successes: int = 2,
    ) -> None:
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_successes = half_open_successes
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Hosts whose breaker was handed out (and so may have changed)
        #: since a journal tracker last drained the set; ``None`` while
        #: nothing tracks them.  Short-circuits count here too: they
        #: change a breaker without any exchange taking place.
        self.touched: set[str] | None = None

    def breaker(self, host: str) -> CircuitBreaker:
        key = host.lower()
        if self.touched is not None:
            self.touched.add(key)
        found = self._breakers.get(key)
        if found is None:
            found = CircuitBreaker(
                self.clock,
                failure_threshold=self.failure_threshold,
                recovery_time=self.recovery_time,
                half_open_successes=self.half_open_successes,
            )
            self._breakers[key] = found
        return found

    def check(self, host: str) -> None:
        self.breaker(host).check(host)

    def record_success(self, host: str) -> None:
        self.breaker(host).record_success()

    def record_failure(self, host: str) -> None:
        self.breaker(host).record_failure()

    def open_hosts(self) -> list[str]:
        return sorted(host for host, breaker in self._breakers.items() if breaker.state is CircuitState.OPEN)

    def state_dict(self) -> dict:
        return {host: breaker.state_dict() for host, breaker in self._breakers.items()}

    def breaker_state(self, host: str) -> dict | None:
        """One host's breaker state (None if it never had a breaker)."""
        found = self._breakers.get(host)
        return found.state_dict() if found is not None else None

    def restore_state(self, state: dict) -> None:
        """Merge per-host breaker states; hosts not named keep theirs."""
        for host, payload in state.items():
            self.breaker(host).restore_state(payload)

    @property
    def short_circuits(self) -> int:
        return sum(breaker.short_circuits for breaker in self._breakers.values())


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff: the one retry definition for the repo.

    ``delay(attempt)`` returns the pause before retry number ``attempt``
    (0-based).  With a seeded ``rng`` the jitter is deterministic; with
    ``jitter=0`` the schedule is exactly ``base_delay * multiplier**attempt``
    capped at ``max_delay`` — the behaviour the old ad-hoc loops had.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.0

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        raw = min(self.base_delay * self.multiplier ** max(attempt, 0), self.max_delay)
        if rng is not None and self.jitter > 0:
            raw *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(raw, 0.0)

    def should_retry(self, attempt: int) -> bool:
        """Whether retry number ``attempt`` (0-based) is within the policy."""
        return attempt < self.max_attempts


class RetryBudget:
    """A per-stage cap on total retries, shared across a stage's fetches.

    Individual fetches still obey their :class:`RetryPolicy`; the budget
    bounds the *aggregate* so a stage degrading under faults fails fast
    instead of spending hours of virtual time re-trying a dead substrate.
    """

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.budget = budget
        self.spent = 0
        self.denied = 0

    @property
    def remaining(self) -> int:
        return max(self.budget - self.spent, 0)

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.budget

    def state_dict(self) -> dict:
        return {"spent": self.spent, "denied": self.denied}

    def restore_state(self, state: dict) -> None:
        self.spent = state["spent"]
        self.denied = state["denied"]

    def spend(self) -> bool:
        """Consume one retry; False (and counted) once the budget is gone."""
        if self.spent < self.budget:
            self.spent += 1
            return True
        self.denied += 1
        return False


class StageStatus(Enum):
    """How a pipeline stage ended."""

    COMPLETED = "completed"
    DEGRADED = "degraded"  # finished, but the ledger recorded faults
    FAILED = "failed"  # produced no output at all
    SKIPPED = "skipped"  # disabled by configuration
    RESUMED = "resumed"  # restored from a PipelineCheckpoint


def root_error_class(error: BaseException) -> str:
    """The innermost cause's class name (what actually went wrong)."""
    cause: BaseException = error
    while cause.__cause__ is not None:
        cause = cause.__cause__
    return type(cause).__name__


@dataclass(frozen=True)
class FaultRecord:
    """One absorbed fault: where, what, when, and what it cost."""

    stage: str
    host: str
    error_class: str
    virtual_time: float
    bots_skipped: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "host": self.host,
            "error_class": self.error_class,
            "virtual_time": self.virtual_time,
            "bots_skipped": self.bots_skipped,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultRecord":
        return cls(
            stage=payload["stage"],
            host=payload["host"],
            error_class=payload["error_class"],
            virtual_time=payload["virtual_time"],
            bots_skipped=payload.get("bots_skipped", 0),
            detail=payload.get("detail", ""),
        )


@dataclass
class FaultLedger:
    """Append-only account of every fault a run absorbed.

    Records are kept in occurrence order; with a seeded world the order is
    deterministic, so :meth:`to_json` of two same-seed runs is byte-identical
    — the property the chaos benchmarks assert.

    Batch runs keep the ledger unbounded (``max_records=None``) so resume
    slicing stays index-stable.  Long-lived serving ledgers pass a bound:
    the ledger becomes a ring that drops its oldest records and counts the
    drops, so a multi-epoch service run has bounded RSS without silently
    forgetting that it forgot.
    """

    records: list[FaultRecord] = field(default_factory=list)
    #: When set, keep at most this many records (oldest dropped first).
    max_records: int | None = None
    #: Records evicted by the ring bound.  Includes drops inherited from
    #: merged ledgers (:meth:`extend`), so it reports *how much was ever
    #: forgotten* — it is NOT an index offset into this ledger's history.
    dropped: int = 0
    #: How many records have left ``self.records`` *from the front of this
    #: ledger specifically*.  ``drop_offset + len(records)`` is a stable
    #: absolute position: a mark taken before a trim still resolves to the
    #: same records afterwards.  Unlike ``dropped`` this never counts drops
    #: merged in from another ledger.
    drop_offset: int = 0

    def record(
        self,
        stage: str,
        host: str,
        error: BaseException | str,
        virtual_time: float,
        bots_skipped: int = 0,
        detail: str = "",
    ) -> FaultRecord:
        error_class = error if isinstance(error, str) else root_error_class(error)
        entry = FaultRecord(
            stage=stage,
            host=host,
            error_class=error_class,
            virtual_time=round(virtual_time, 6),
            bots_skipped=bots_skipped,
            detail=detail,
        )
        self.records.append(entry)
        self._trim()
        return entry

    def extend(self, other: "FaultLedger") -> None:
        self.records.extend(other.records)
        self.dropped += other.dropped
        self._trim()

    def _trim(self) -> None:
        if self.max_records is not None and len(self.records) > self.max_records:
            excess = len(self.records) - self.max_records
            del self.records[:excess]
            self.dropped += excess
            self.drop_offset += excess

    def mark(self) -> int:
        """An absolute position in this ledger's append history.

        Stable across :meth:`_trim`: resolve it with :meth:`records_since`
        instead of slicing ``records`` directly, which shifts under a
        bounded ring.
        """
        return self.drop_offset + len(self.records)

    def records_since(self, mark: int) -> list[FaultRecord]:
        """Records appended after ``mark``, however many were trimmed since.

        Records appended after the mark but already evicted by the ring are
        gone (the ledger forgot them and counted the forgetting); the slice
        then starts at the oldest retained record rather than resurfacing
        unrelated older ones.
        """
        return self.records[max(mark - self.drop_offset, 0):]

    def __len__(self) -> int:
        return len(self.records)

    def count(self, stage: str | None = None) -> int:
        if stage is None:
            return len(self.records)
        return sum(1 for record in self.records if record.stage == stage)

    def bots_skipped(self, stage: str | None = None) -> int:
        return sum(record.bots_skipped for record in self.records if stage is None or record.stage == stage)

    def quarantine_records(self, stage: str | None = None) -> list[FaultRecord]:
        """The subset of records written by the supervision layer.

        Quarantines live in the ledger (with their root cause) *and* in the
        pipeline's :class:`~repro.core.supervision.QuarantineLog`; the
        detail prefix lets ledger-only consumers tell them apart from
        ordinary skips.
        """
        from repro.core.supervision import QUARANTINE_DETAIL_PREFIX

        return [
            record
            for record in self.records
            if record.detail.startswith(QUARANTINE_DETAIL_PREFIX) and (stage is None or record.stage == stage)
        ]

    @property
    def total_bots_skipped(self) -> int:
        return self.bots_skipped()

    def by_stage(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.stage] = counts.get(record.stage, 0) + 1
        return counts

    def by_error_class(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.error_class] = counts.get(record.error_class, 0) + 1
        return counts

    def to_dict(self) -> dict:
        payload: dict = {"records": [record.to_dict() for record in self.records]}
        if self.max_records is not None:
            payload["max_records"] = self.max_records
            payload["dropped"] = self.dropped
            payload["drop_offset"] = self.drop_offset
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultLedger":
        return cls(
            records=[FaultRecord.from_dict(entry) for entry in payload.get("records", [])],
            max_records=payload.get("max_records"),
            dropped=payload.get("dropped", 0),
            drop_offset=payload.get("drop_offset", 0),
        )

    def to_json(self) -> str:
        """Canonical serialization (sorted keys) for byte-wise comparison."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def summary_line(self) -> str:
        stages = ", ".join(f"{stage}: {count}" for stage, count in sorted(self.by_stage().items()))
        return (
            f"Absorbed {len(self.records)} faults ({stages or 'none'}); "
            f"{self.total_bots_skipped} bots skipped."
        )
