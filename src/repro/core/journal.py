"""Intra-stage write-ahead journal: lose at most one bot, never a stage.

The per-stage checkpoint (:mod:`repro.core.checkpoint`) makes stage
*boundaries* durable; a crash mid-stage still used to lose every bot since
the previous boundary.  This module closes that gap with an append-only
JSONL journal that stages write to after every completed unit of work (one
bot for traceability/code analysis, one page for the crawl) and replay from
on resume.

Why a JSONL WAL beside the JSON snapshot: the snapshot is a random-access
document rewritten atomically per stage — cheap to load, expensive to
update, and all-or-nothing on a crash.  The journal is the opposite: an
append-only sequence of small records, each one durable the moment it is
flushed, where a crash can only ever damage the final record.  Torn-tail
tolerance is the contract: replay accepts the **maximal valid prefix** —
records are consumed in order until the first line that fails to parse, has
a wrong checksum, carries a non-consecutive sequence number, or is missing
its terminating newline — and everything after that point is discarded and
counted, never trusted.

Each unit record carries two things:

1. the unit's *result* (a serialized verdict / analysis / page of bots);
2. the *world-state delta* the unit caused — virtual clock, RNG streams,
   chaos schedule, circuit breakers, captcha accounts, server-side
   middleware, robots policies — captured by :class:`UnitTracker` in
   proportion to what the unit touched: small components only when they
   changed since the previous record, keyed components (hosts, breakers,
   robots) only for the keys the unit marked, and Mersenne-Twister streams
   as a position unless their key vector changed.

Replaying a record therefore both re-emits the unit's result *and*
fast-forwards the simulation to the exact state it held after that unit, so
the first live unit after replay sees a world byte-identical to the one the
crashed process saw.  Clock values are stored absolutely (and restored with
:meth:`~repro.web.network.VirtualClock.restore`) because accumulating float
deltas could drift a chaos-window boundary.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.core.crashpoints import crashpoint
from repro.core.resilience import FaultLedger, FaultRecord
from repro.core.storage import DurableAppendFile
from repro.core.supervision import QuarantineLog, QuarantineRecord
from repro.web.captcha import SolveRecord


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(seq: int, stage: str, key: str, body_text: str) -> str:
    """sha256 of the canonical ``{"body", "key", "seq", "stage"}`` object,
    spliced from an already-canonical body (keys in sorted order)."""
    blob = f'{{"body":{body_text},"key":{_canonical(key)},"seq":{seq},"stage":{_canonical(stage)}}}'
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _encode_line(seq: int, stage: str, key: str, body: dict) -> bytes:
    """The record's canonical JSONL line, serializing ``body`` exactly once.

    Byte-identical to ``_canonical({...payload, "sha": ...}) + "\n"``: the
    sorted key order is body, key, seq, sha, stage.
    """
    body_text = _canonical(body)
    sha = _digest(seq, stage, key, body_text)
    line = f'{{"body":{body_text},"key":{_canonical(key)},"seq":{seq},"sha":"{sha}","stage":{_canonical(stage)}}}\n'
    return line.encode("utf-8")


@dataclass(frozen=True)
class JournalRecord:
    """One validated journal record."""

    seq: int
    stage: str
    key: str
    body: dict


@dataclass
class JournalStats:
    """Counters surfaced through ``--metrics``."""

    appended: int = 0
    replayed: int = 0
    discarded: int = 0  # records dropped: torn tail, corruption, stale keys

    def to_dict(self) -> dict:
        return {"appended": self.appended, "replayed": self.replayed, "discarded": self.discarded}

    def merge(self, other: "JournalStats") -> None:
        self.appended += other.appended
        self.replayed += other.replayed
        self.discarded += other.discarded


class WriteAheadJournal:
    """Append-only, per-record-checksummed JSONL journal.

    Records carry a global 1-based sequence number; on open, the existing
    file is scanned once and the maximal valid prefix becomes the replayable
    record set.  The first append physically truncates any invalid tail so
    a journal can survive repeated crash/resume cycles without garbage
    accumulating mid-file.

    The scan keeps no records, only an index of each valid record's
    ``(seq, offset, length)`` per stage (24 bytes a record), extended by
    every append; :meth:`pending` reads back and re-verifies just the lines
    of the stage it is asked for.

    Durability rides through :class:`~repro.core.storage.DurableAppendFile`
    with a configurable fsync cadence.  ``fsync_every=1`` (the default)
    makes every record durable before ``append`` returns — the journal's
    acknowledgement is then worth exactly one record.  ``fsync_every=N``
    batches fsyncs for throughput (the 10^5-scale journal-overhead rung)
    at the price of a **widened torn-tail window**: a crash — or a power
    loss behind an lying disk cache — can drop up to ``N-1`` acknowledged
    records off the tail, which replay then treats exactly like a torn
    tail (the stage redoes those units deterministically).  ``0`` never
    fsyncs implicitly; durability is the caller's explicit ``sync()``.
    """

    def __init__(self, path: str | Path, *, fsync_every: int = 1) -> None:
        self.path = Path(path)
        self.stats = JournalStats()
        self.discard_detail = ""
        self.fsync_every = fsync_every
        self._file = DurableAppendFile(self.path, label="journal", fsync_every=fsync_every)
        self._truncated = False
        self._index: dict[str, array] = {}
        count, self._valid_bytes, dropped = self._scan()
        self._end = self._valid_bytes
        self._next_seq = count + 1
        if dropped:
            self.stats.discarded += dropped
            self.discard_detail = (
                f"discarded {dropped} invalid trailing record(s) after seq {count}"
            )

    # -- reading -----------------------------------------------------------

    def _scan(self) -> tuple[int, int, int]:
        """Index the maximal valid prefix: ``(records, valid_bytes, dropped)``."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return 0, 0, 0
        count = 0
        valid_bytes = 0
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # unterminated line: a torn append — stop here
            record = self._decode(raw[offset:newline], expected_seq=count + 1)
            if record is None:
                break
            count += 1
            self._remember(record.seq, record.stage, offset, newline + 1 - offset)
            offset = newline + 1
            valid_bytes = offset
        remainder = raw[valid_bytes:]
        dropped = sum(1 for piece in remainder.split(b"\n") if piece.strip())
        return count, valid_bytes, dropped

    def _remember(self, seq: int, stage: str, offset: int, length: int) -> None:
        entries = self._index.get(stage)
        if entries is None:
            entries = self._index[stage] = array("q")
        entries.extend((seq, offset, length))

    @staticmethod
    def _decode(line: bytes, expected_seq: int) -> JournalRecord | None:
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            seq = payload["seq"]
            stage = payload["stage"]
            key = payload["key"]
            body = payload["body"]
            sha = payload["sha"]
        except (KeyError, TypeError):
            return None
        if seq != expected_seq or not isinstance(body, dict):
            return None
        if sha != _digest(seq, stage, key, _canonical(body)):
            return None
        return JournalRecord(seq=seq, stage=stage, key=key, body=body)

    def pending(self, stage: str) -> list[JournalRecord]:
        """Replayable records for ``stage``, in append order.

        Reads only the stage's indexed lines (one contiguous read spanning
        them) and re-verifies each, so the cost is the stage's records, not
        the file.  A line that no longer verifies — the disk changed under
        an open journal — ends the stage's replay there, and the records
        from it on are counted as discarded.
        """
        entries = self._index.get(stage)
        if not entries:
            return []
        self._file.flush()
        first = entries[1]
        with open(self.path, "rb") as handle:
            handle.seek(first)
            raw = handle.read(entries[-2] + entries[-1] - first)
        records: list[JournalRecord] = []
        for index in range(0, len(entries), 3):
            seq, offset, length = entries[index : index + 3]
            start = offset - first
            line = raw[start : start + length]
            record = self._decode(line[:-1], expected_seq=seq) if line.endswith(b"\n") else None
            if record is None or record.stage != stage:
                self.stats.discarded += (len(entries) - index) // 3
                break
            records.append(record)
        return records

    # -- writing -----------------------------------------------------------

    def append(self, stage: str, key: str, body: dict) -> JournalRecord:
        """Durably append one record (fsynced per the configured cadence).

        The write is split around the ``journal.mid_append`` crash point so
        the injection harness can manufacture a genuinely torn tail.
        """
        record = JournalRecord(seq=self._next_seq, stage=stage, key=key, body=body)
        line = _encode_line(record.seq, stage, key, body)
        # Truncate the invalid tail exactly once per process: records
        # appended after the first open extend past ``_valid_bytes``
        # and must survive a close/reopen cycle.
        if not self._truncated:
            self._file.truncate_to(self._valid_bytes)
            self._truncated = True
        half = max(len(line) // 2, 1)
        self._file.write(line[:half])
        self._file.flush()
        crashpoint("journal.mid_append")
        self._file.write(line[half:])
        self._file.commit()
        self._remember(record.seq, stage, self._end, len(line))
        self._end += len(line)
        self._next_seq += 1
        self.stats.appended += 1
        return record

    def sync(self) -> None:
        """Force (and verify) durability of every appended record."""
        self._file.sync()

    def close(self) -> None:
        self._file.close()


# ---------------------------------------------------------------------------
# World-state capture
# ---------------------------------------------------------------------------

#: Component name -> (capture, restore) over a small tracked object.
_Component = tuple[Callable[[], dict], Callable[[dict], None]]

#: Words in a Mersenne-Twister key vector (``getstate()[1]`` is the key
#: plus the position index).
_MT_WORDS = 624


@dataclass(frozen=True)
class _Keyed:
    """A per-key component: ``owner.touched`` collects the keys it mutates."""

    owner: Any
    capture: Callable[[str], dict | None]  # one key's state; None: gone
    merge: Callable[[dict], None]  # restore the keys named, keep the rest


def _is_mt_state(value: Any) -> bool:
    """Whether ``value`` is a :func:`~repro.web.network.rng_state` list."""
    return (
        isinstance(value, list)
        and len(value) == 3
        and isinstance(value[1], list)
        and len(value[1]) == _MT_WORDS + 1
    )


class UnitTracker:
    """Captures the world-state delta one unit of stage work produces.

    The cost of a unit is proportional to what it touched, not to the size
    of the world:

    * **Small components** (transport counters, chaos schedule, retry
      budget, captcha account, scraper stats and cookies) are diffed
      against their previous capture and stored whole when they changed.
    * **Keyed components** — the internet's hosts, the circuit breakers
      and the scraper's robots cache — grow with every host a run meets.
      Each marks the keys it mutates in its ``touched`` set, and a record
      stores only those keys (a host that left the registry, such as a
      dynamic-host LRU eviction, as ``None``).  Replay merges them into the
      existing state.
    * **RNG streams** (every ``rng`` entry of either kind of state) are
      stored as position deltas: while the 624-word Mersenne-Twister key
      equals the previous record's, a record holds only ``{"pos",
      "gauss"}``.  The full key is stored after a twist or a reseed, and
      the first time a keyed entry's stream is captured in a stage.
    * **Append-only components** (captcha solve history, fault ledger,
      quarantine log) are stored as the records appended during the unit.

    Both the writing and the replaying tracker start from the same
    stage-start world, so both seed the small components' baselines (and
    their RNG keys) from a capture at construction; keyed components are
    never captured whole.
    """

    def __init__(
        self,
        clock,
        internet,
        ledger: FaultLedger,
        quarantines: QuarantineLog,
        breakers=None,
        budget=None,
        solver=None,
        scraper=None,
    ) -> None:
        self._clock = clock
        self._ledger = ledger
        self._quarantines = quarantines
        self._solver = solver
        self._components: dict[str, _Component] = {"internet": (internet.state_dict, internet.restore_state)}
        chaos = getattr(internet, "chaos", None)
        if chaos is not None:
            self._components["chaos"] = (chaos.state_dict, chaos.restore_state)
        if budget is not None:
            self._components["budget"] = (budget.state_dict, budget.restore_state)
        if solver is not None:
            self._components["solver"] = (solver.state_dict, solver.restore_state)
        if scraper is not None:
            self._components["scraper"] = (scraper.state_dict, scraper.restore_state)
        # Looked up per call: an internet that never touches a host need not offer host_state.
        hosts = _Keyed(internet, lambda hostname: internet.host_state(hostname), partial(_merge_hosts, internet))
        self._keyed = {"hosts": hosts}
        if breakers is not None:
            self._keyed["breakers"] = _Keyed(breakers, breakers.breaker_state, breakers.restore_state)
        if scraper is not None:
            self._keyed["robots"] = _Keyed(scraper.robots, scraper.robots.policy_state, scraper.robots.restore_state)
        #: RNG path -> (version, key words) last stored or restored.
        self._rng_keys: dict[str, tuple[int, list]] = {}
        #: Small component -> its last packed state (what diffs compare).
        self._last: dict[str, dict] = {}
        for name, (capture, _) in self._components.items():
            state = capture()
            self._pack(name, state)  # learn the stage-start keys first
            self._last[name] = self._pack(name, state)
        self._drain()
        self._marks: dict[str, int] = {}
        self.begin_unit()

    def _drain(self) -> None:
        """Start every keyed component's touched set afresh."""
        for keyed in self._keyed.values():
            keyed.owner.touched = set()

    def begin_unit(self) -> None:
        """Mark the append-only components before a live unit runs.

        Marks are absolute positions (``mark()``), not list indices: a
        bounded ledger's ring trim shifts indices mid-unit, and a raw slice
        would then re-ship records from *before* the unit.
        """
        self._marks = {
            "faults": self._ledger.mark(),
            "quarantines": self._quarantines.mark(),
            "solves": len(self._solver.history) if self._solver is not None else 0,
        }

    def finish_unit(self, result: dict | None) -> dict:
        """Build the journal body for the unit that just ran live."""
        body: dict[str, Any] = {"result": result, "clock": self._clock.now()}
        faults = self._ledger.records_since(self._marks["faults"])
        if faults:
            body["faults"] = [record.to_dict() for record in faults]
        quarantines = self._quarantines.records_since(self._marks["quarantines"])
        if quarantines:
            body["quarantines"] = [record.to_dict() for record in quarantines]
        if self._solver is not None:
            solves = self._solver.history[self._marks["solves"]:]
            if solves:
                body["solves"] = [vars(record).copy() for record in solves]
        changed: dict[str, dict] = {}
        for name, (capture, _) in self._components.items():
            packed = self._pack(name, capture())
            if packed != self._last[name]:
                self._last[name] = changed[name] = packed
        for name, keyed in self._keyed.items():
            touched = keyed.owner.touched
            if touched:
                keyed.owner.touched = set()
                delta = {}
                for key in touched:
                    state = keyed.capture(key)
                    delta[key] = None if state is None else self._pack(f"{name}/{key}", state)
                changed[name] = delta
        if changed:
            body["state"] = changed
        return body

    def apply(self, body: dict) -> None:
        """Fast-forward the world through one replayed unit."""
        self._clock.restore(body["clock"])
        for payload in body.get("faults", ()):
            self._ledger.records.append(FaultRecord.from_dict(payload))
        for payload in body.get("quarantines", ()):
            self._quarantines.records.append(QuarantineRecord.from_dict(payload))
        if self._solver is not None:
            for payload in body.get("solves", ()):
                self._solver.history.append(SolveRecord(**payload))
        for name, payload in body.get("state", {}).items():
            if name in self._components:
                self._components[name][1](self._unpack(name, payload))
                self._last[name] = payload
            elif name in self._keyed:
                self._keyed[name].merge({
                    key: None if state is None else self._unpack(f"{name}/{key}", state)
                    for key, state in payload.items()
                })
        self._drain()  # restores touch what they set; that is not a change
        self.begin_unit()

    # -- RNG position deltas ---------------------------------------------------

    def _pack(self, path: str, state: dict) -> dict:
        """``state`` with each unchanged-key ``rng`` entry as ``{"pos", "gauss"}``.

        Learns every full key it keeps; never mutates ``state``.
        """
        packed = state
        for name, value in state.items():
            if isinstance(value, dict):
                inner = self._pack(f"{path}/{name}", value)
            elif name == "rng" and _is_mt_state(value):
                inner = self._pack_rng(f"{path}/{name}", value)
            else:
                continue
            if inner is not value:
                if packed is state:
                    packed = dict(state)
                packed[name] = inner
        return packed

    def _pack_rng(self, path: str, value: list) -> Any:
        version, words, gauss = value
        key = words[:_MT_WORDS]
        known = self._rng_keys.get(path)
        if known is not None and known[0] == version and known[1] == key:
            return {"pos": words[_MT_WORDS], "gauss": gauss}
        self._rng_keys[path] = (version, key)
        return value

    def _unpack(self, path: str, state: dict) -> dict:
        """Inverse of :meth:`_pack` against the keys learnt so far."""
        unpacked = state
        for name, value in state.items():
            child = f"{path}/{name}"
            if not isinstance(value, dict):
                if name == "rng" and _is_mt_state(value):
                    self._rng_keys[child] = (value[0], value[1][:_MT_WORDS])
                continue
            if name == "rng":
                version, key = self._rng_keys[child]
                inner = [version, key + [value["pos"]], value["gauss"]]
            else:
                inner = self._unpack(child, value)
            if inner is not value:
                if unpacked is state:
                    unpacked = dict(state)
                unpacked[name] = inner
        return unpacked


class StageRecorder:
    """Journal cursor for one stage's unit loop: replay a prefix, then record.

    ``try_replay(key)`` consumes the next pending record when its key
    matches the unit about to run; a key mismatch means the journal was
    written by a different configuration, so the rest of the stage's records
    are discarded rather than trusted.
    """

    def __init__(self, journal: WriteAheadJournal, stage: str, tracker: UnitTracker, ledger: FaultLedger) -> None:
        self.journal = journal
        self.stage = stage
        self.tracker = tracker
        self._ledger = ledger
        self._pending = deque(journal.pending(stage))

    def try_replay(self, key: str) -> tuple[bool, dict | None]:
        """Replay the next record if it belongs to ``key``.

        Returns ``(replayed, result_body)``.
        """
        if self._pending and self._pending[0].key == key:
            record = self._pending.popleft()
            self.tracker.apply(record.body)
            self.journal.stats.replayed += 1
            return True, record.body.get("result")
        if self._pending:
            dropped = len(self._pending)
            self._pending.clear()
            self.journal.stats.discarded += dropped
            record_resume_provenance(
                self._ledger,
                f"stage {self.stage}: discarded {dropped} journal record(s) with stale unit keys",
            )
        return False, None

    def begin_unit(self) -> None:
        self.tracker.begin_unit()

    def commit(self, key: str, result: dict | None) -> JournalRecord:
        return self.journal.append(self.stage, key, self.tracker.finish_unit(result))


def record_resume_provenance(ledger: FaultLedger, detail: str) -> None:
    """Note a journal-level event in the fault ledger.

    These records use the reserved stage name ``journal`` and are stripped
    by :func:`repro.core.serialize.comparable_result` — they describe *this
    process's* recovery, not the measurement campaign, so a resumed run must
    not diverge from its golden run by carrying them.
    """
    ledger.record("journal", "<local>", "JournalRecovery", 0.0, detail=detail)


# ---------------------------------------------------------------------------
# Whole-world snapshots (stage boundaries / honeypot stage-complete records)
# ---------------------------------------------------------------------------


def capture_world_state(clock, internet, solver, breakers) -> dict:
    """Absolute snapshot of the mutable simulation state at a stage boundary.

    Platform internals (guilds, snowflakes, join history) are deliberately
    absent: only the honeypot stage mutates them, and that stage replays
    all-or-nothing, so its inputs are always rebuilt from an exact
    pre-honeypot world.  The bounded exchange-log deque is audit-only and
    likewise excluded.
    """
    payload = {
        "clock": clock.now(),
        "internet": internet.state_dict(include_history=True),
        "solver": solver.state_dict(include_history=True),
        "hosts": _hosts_state(internet),
        "breakers": breakers.state_dict(),
    }
    chaos = getattr(internet, "chaos", None)
    if chaos is not None:
        payload["chaos"] = chaos.state_dict()
    return payload


def restore_world_state(clock, internet, solver, breakers, payload: dict) -> None:
    """Restore a :func:`capture_world_state` snapshot (exact, not additive)."""
    clock.restore(payload["clock"])
    internet.restore_state(payload["internet"])
    solver.restore_state(payload["solver"])
    _merge_hosts(internet, payload.get("hosts", {}))
    breakers.restore_state(payload.get("breakers", {}))
    chaos = getattr(internet, "chaos", None)
    if chaos is not None and "chaos" in payload:
        chaos.restore_state(payload["chaos"])


def _hosts_state(internet) -> dict:
    states: dict[str, dict] = {}
    for hostname in internet.hostnames():
        state = internet.host_state(hostname)
        if state:
            states[hostname] = state
    return states


def _merge_hosts(internet, delta: dict) -> None:
    """Restore the resident hosts named in ``delta``; drop gone (None) ones."""
    for hostname, state in delta.items():
        if state is None:
            internet.unregister(hostname)
        elif internet.knows(hostname):
            internet.host(hostname).restore_state(state)


def solver_history_dollars(state: dict) -> float:
    """Total captcha spend recorded in a captured solver state."""
    return sum(record.get("cost", 0.0) for record in state.get("history", ()))
