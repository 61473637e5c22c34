"""Per-key journal deltas rebuild the live world, and records stay small.

Two properties of :class:`~repro.core.journal.UnitTracker`:

0. **Delta shapes.**  An RNG stream is stored as a position until its key
   changes; a keyed component records only the keys it touched, and
   replay merges them.
1. **Differential soundness.**  At every committed unit of the crawl,
   traceability and code stages, the record's deltas — merged into a
   shadow copy of the stage-start state — must equal a full capture of the
   live world.  The full capture is the whole-component path the tracker
   replaced, kept here as the oracle.  Random seeds, chaos profiles,
   populations, streamed or materialized runs and dynamic-host LRU sizes drive the examples, which
   between them must exercise breaker short-circuits, new robots entries,
   LRU evictions, Mersenne-Twister twists and reseeds.
2. **Linearity.**  Mean bytes per traceability/code record must not grow
   with the population, and no record may carry a full RNG key vector
   that did not change since the previous record.
"""

from __future__ import annotations

import json
import random
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.journal import StageRecorder, UnitTracker
from repro.core.pipeline import AssessmentPipeline
from repro.core.resilience import CircuitBreakerRegistry, FaultLedger
from repro.core.supervision import QuarantineLog
from repro.sites.github import GITHUB_HOSTNAME
from repro.web.network import VirtualClock, VirtualInternet, restore_rng, rng_state

SCALARS = ("internet", "chaos", "budget", "solver", "scraper")
KEYED = ("hosts", "breakers", "robots")
MT_WORDS = 624


class RandomInternet:
    """A stand-in internet whose only state is a Mersenne-Twister stream."""

    chaos = None

    def __init__(self) -> None:
        self.rng = random.Random(5)
        self.rng.random()  # a fresh stream twists on its first draw

    def state_dict(self) -> dict:
        return {"rng": rng_state(self.rng)}

    def restore_state(self, state: dict) -> None:
        restore_rng(self.rng, state["rng"])


def bare_tracker(internet, breakers=None) -> UnitTracker:
    return UnitTracker(VirtualClock(), internet, FaultLedger(), QuarantineLog(), breakers=breakers)


def test_rng_is_stored_as_a_position_until_its_key_changes() -> None:
    live, replayed = RandomInternet(), RandomInternet()
    tracker, replayer = bare_tracker(live), bare_tracker(replayed)
    shapes = []
    for draws, reseed in ((1, False), (5, False), (700, False), (3, False), (0, True), (2, False), (3, False)):
        tracker.begin_unit()
        if reseed:
            live.rng.seed(99)
        for _ in range(draws):
            live.rng.random()
        body = json.loads(json.dumps(tracker.finish_unit(None)))
        rng = body["state"]["internet"]["rng"]
        shapes.append("pos" if isinstance(rng, dict) else "full")
        replayer.apply(body)
        assert replayed.rng.getstate() == live.rng.getstate()
    # 700 draws twist the key, as do a reseed and the first draw after it.
    assert shapes == ["pos", "pos", "full", "pos", "full", "full", "pos"]


def test_keyed_component_records_only_touched_keys_and_merges() -> None:
    breakers = CircuitBreakerRegistry(VirtualClock())
    for index in range(50):
        breakers.record_failure(f"host{index}.sim")
    tracker = bare_tracker(RandomInternet(), breakers)
    tracker.begin_unit()
    assert "state" not in tracker.finish_unit(None)  # nothing touched yet

    tracker.begin_unit()
    breakers.record_failure("host7.sim")
    breakers.record_failure("new.sim")
    body = tracker.finish_unit(None)
    assert sorted(body["state"]["breakers"]) == ["host7.sim", "new.sim"]

    other = CircuitBreakerRegistry(VirtualClock())
    other.record_failure("kept.sim")
    bare_tracker(RandomInternet(), other).apply(body)
    assert other.breaker_state("host7.sim") == breakers.breaker_state("host7.sim")
    assert other.breaker_state("kept.sim")["failures"] == 1  # merged, not replaced


def full_capture(objects: dict) -> dict:
    """Every tracked component captured whole (the pre-delta tracker path)."""
    internet, scraper = objects["internet"], objects["scraper"]
    state = {
        "clock": objects["clock"].now(),
        "internet": internet.state_dict(),
        "hosts": {hostname: internet.host_state(hostname) for hostname in internet.hostnames()},
        "breakers": objects["breakers"].state_dict(),
        "budget": objects["budget"].state_dict(),
        "solver": objects["solver"].state_dict(),
        "scraper": scraper.state_dict(),
        "robots": scraper.robots.state_dict(),
    }
    if internet.chaos is not None:
        state["chaos"] = internet.chaos.state_dict()
    return json.loads(json.dumps(state))  # the JSON view a record round-trips through


def is_mt(value) -> bool:
    return isinstance(value, list) and len(value) == 3 and isinstance(value[1], list) and len(value[1]) == MT_WORDS + 1


def unpack(payload, previous, seen: Counter):
    """Expand a record's RNG position deltas against the shadow's previous state."""
    if not isinstance(payload, dict):
        return payload
    result = {}
    for name, value in payload.items():
        before = previous.get(name) if isinstance(previous, dict) else None
        if name == "rng" and isinstance(value, dict):
            assert is_mt(before), "a position delta needs a known key vector"
            result[name] = [before[0], before[1][:MT_WORDS] + [value["pos"]], value["gauss"]]
        elif name == "rng" and is_mt(value):
            if is_mt(before):
                assert value[1][:MT_WORDS] != before[1][:MT_WORDS], "full RNG key stored unchanged"
                seen["rng_full"] += 1
            result[name] = value
        else:
            result[name] = unpack(value, before, seen)
    return result


def apply_to_shadow(shadow: dict, body: dict, seen: Counter) -> None:
    shadow["clock"] = body["clock"]
    for name, payload in body.get("state", {}).items():
        if name in SCALARS:
            shadow[name] = unpack(payload, shadow[name], seen)
            continue
        assert name in KEYED, name
        entries = shadow[name]
        for key, value in payload.items():
            if value is None:
                seen["eviction"] += 1
                entries.pop(key, None)
                continue
            before = entries.get(key)
            if name == "robots" and before is None:
                seen["robots_insert"] += 1
            if name == "breakers" and before is not None and value["short_circuits"] > before["short_circuits"]:
                seen["short_circuit"] += 1
            entries[key] = unpack(value, before, seen)


def differential_run(
    monkeypatch, seed: int, chaos: str, n_bots: int, chunk_size: int | None, host_limit: int, reseed_at: int
) -> Counter:
    seen: Counter = Counter()
    original_init = UnitTracker.__init__
    original_commit = StageRecorder.commit

    def init(self, clock, internet, ledger, quarantines, breakers=None, budget=None, solver=None, scraper=None):
        original_init(self, clock, internet, ledger, quarantines, breakers, budget, solver, scraper)
        self.oracle = dict(
            clock=clock, internet=internet, breakers=breakers, budget=budget, solver=solver, scraper=scraper
        )
        self.shadow = full_capture(self.oracle)

    def commit(self, key, result):
        record = original_commit(self, key, result)
        tracker = self.tracker
        apply_to_shadow(tracker.shadow, json.loads(json.dumps(record.body)), seen)
        assert tracker.shadow == full_capture(tracker.oracle), f"{self.stage} unit {key}"
        seen["units"] += 1
        if seen["units"] == reseed_at:
            tracker.oracle["scraper"]._rng.seed(seed + 1)  # a reseed between units
            seen["reseed"] += 1
        if self.stage == "code" and not seen["tripped"]:
            # Open GitHub's breaker between units: the next units then
            # short-circuit, changing the breaker with no exchange at all.
            breakers = tracker.oracle["breakers"]
            for _ in range(breakers.failure_threshold):
                breakers.record_failure(GITHUB_HOSTNAME)
            seen["tripped"] += 1
        return record

    monkeypatch.setattr(UnitTracker, "__init__", init)
    monkeypatch.setattr(StageRecorder, "commit", commit)
    monkeypatch.setattr(VirtualInternet, "DEFAULT_DYNAMIC_HOST_LIMIT", host_limit)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            config = PipelineConfig(
                n_bots=n_bots,
                seed=seed,
                run_honeypot=False,
                validation_sample_size=10,
                chaos_profile=chaos,
                chaos_seed=seed,
                stream=chunk_size is not None,
                chunk_size=chunk_size or 2_048,
                checkpoint_path=str(Path(workdir) / "checkpoint.json"),
                journal_path=str(Path(workdir) / "journal.wal"),
            )
            AssessmentPipeline(config).run()
    finally:
        monkeypatch.undo()  # a failing example must not stack patches on the next
    return seen


def test_deltas_rebuild_the_live_world(monkeypatch) -> None:
    seen: Counter = Counter()

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        chaos=st.sampled_from(["calm", "flaky", "hostile"]),
        n_bots=st.integers(60, 150),
        chunk_size=st.sampled_from([None, 16, 64]),  # streamed runs resolve websites on demand
        host_limit=st.sampled_from([4, 16, 1_024]),
        reseed_at=st.integers(1, 60),
    )
    def check(seed, chaos, n_bots, chunk_size, host_limit, reseed_at):
        seen.update(differential_run(monkeypatch, seed, chaos, n_bots, chunk_size, host_limit, reseed_at))

    check()
    for event in ("short_circuit", "robots_insert", "eviction", "rng_full", "reseed"):
        assert seen[event] > 0, f"no example exercised {event}: {dict(seen)}"


# -- linearity ----------------------------------------------------------------


def journal_lines(tmp_path: Path, n_bots: int) -> list[dict]:
    workdir = tmp_path / str(n_bots)
    config = PipelineConfig(
        n_bots=n_bots,
        seed=13,
        run_honeypot=False,
        validation_sample_size=10,
        checkpoint_path=str(workdir / "checkpoint.json"),
        journal_path=str(workdir / "journal.wal"),
    )
    AssessmentPipeline(config).run()
    return (workdir / "journal.wal").read_bytes().splitlines()


def mean_unit_record_bytes(lines: list[bytes]) -> float:
    sizes = [len(line) for line in lines if json.loads(line)["stage"] in ("traceability", "code")]
    return sum(sizes) / len(sizes)


def full_rng_keys(state, path: str = ""):
    """Yield ``(path, key words)`` for every full RNG state inside ``state``."""
    for name, value in state.items():
        if name == "rng" and is_mt(value):
            yield f"{path}/{name}", value[1][:MT_WORDS]
        elif isinstance(value, dict):
            yield from full_rng_keys(value, f"{path}/{name}")


def assert_no_unchanged_rng_keys(lines: list[bytes]) -> None:
    """Within each stage (whose scraper streams are fresh objects), a full
    key must differ from the last one stored at the same path."""
    known: dict[tuple[str, str], list] = {}
    for line in lines:
        record = json.loads(line)
        for name, key in full_rng_keys(record["body"].get("state", {})):
            path = (record["stage"], name)
            assert known.get(path) != key, f"seq {record['seq']} re-stores an unchanged key at {path}"
            known[path] = key


def test_record_bytes_do_not_grow_with_the_population(tmp_path) -> None:
    small = journal_lines(tmp_path, 200)
    large = journal_lines(tmp_path, 400)
    ratio = mean_unit_record_bytes(large) / mean_unit_record_bytes(small)
    assert ratio <= 1.25, f"mean record bytes grew {ratio:.2f}x from 200 to 400 bots"
    assert_no_unchanged_rng_keys(large)
