"""OVERHEAD + RECOVERY: the write-ahead journal must be near-free.

Two acceptance bars from the crash-anywhere work:

1. **Overhead** — journaling every completed honeypot bot unit must
   cost < 10% wall-clock on the honeypot stage at the batched fsync
   cadence (``journal_fsync_every=64``).  The stage's work per unit
   (guild provisioning, feed dispatch, a full observation window)
   dwarfs one JSONL append, so anything above the bar means the
   journal is doing per-unit work it shouldn't.  The per-record
   default (``fsync_every=1``) deliberately pays one disk barrier per
   append for exactly-one-record ack durability; that price is
   measured and tracked separately (here as a printed line, and as
   throughput in ``BENCH_STORAGE.json``) rather than held to the 10%
   bar — it is bounded by the disk, not by the journal.

2. **Recovery proportionality** — a run killed after 99% of the
   traceability stage's units must redo < 5% of them on resume.  Redone
   units are measured directly from the journal: replayed records are
   never re-appended, so the resumed process's appends ARE the redo set.

3. **Per-unit cost independent of the world** — traceability and code
   analysis journal one record per bot, and a record holds only what its
   unit touched, so mean bytes per record at the bench scale must stay
   within 1.25x of the figure at half the scale.  The same runs print the
   two stages' wall journaled vs bare, at ``journal_fsync_every`` 1 and 64.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import repro
from repro.core.checkpoint import STAGE_CODE, STAGE_HONEYPOT, STAGE_TRACEABILITY
from repro.core.config import PipelineConfig
from repro.core.crashpoints import ENV_CRASH_AT, EXIT_CODE
from repro.core.journal import WriteAheadJournal
from repro.core.pipeline import AssessmentPipeline

SRC = Path(repro.__file__).resolve().parents[1]
JOURNAL_BENCH_SCALE = int(os.environ.get("REPRO_BENCH_JOURNAL_SCALE", 600))

#: < 10% relative overhead, with a small absolute floor so the assertion
#: is meaningful on hosts where the whole stage runs in milliseconds.
OVERHEAD_CEILING = 0.10
OVERHEAD_FLOOR_SECONDS = 0.25


def _config(journal_path: str | None, fsync_every: int = 64) -> PipelineConfig:
    return PipelineConfig(
        n_bots=JOURNAL_BENCH_SCALE,
        seed=13,
        honeypot_sample_size=min(120, JOURNAL_BENCH_SCALE),
        validation_sample_size=20,
        journal_path=journal_path,
        journal_fsync_every=fsync_every,
    )


def _honeypot_wall(journal_path: str | None, fsync_every: int = 64) -> float:
    start = time.monotonic()
    result = AssessmentPipeline(_config(journal_path, fsync_every)).run()
    total = time.monotonic() - start
    stage = result.metrics.stage(STAGE_HONEYPOT).wall_seconds
    label = "off" if journal_path is None else f"fsync_every={fsync_every}"
    print(f"journal={label:14s} honeypot={stage:.3f}s total={total:.3f}s")
    return stage


def test_journal_overhead_under_ten_percent(tmp_path) -> None:
    baseline = _honeypot_wall(None)
    journaled = _honeypot_wall(str(tmp_path / "journal.wal"))
    # The per-record-durable default pays the disk's barrier price; print
    # it for the trajectory but hold the 10% bar at the batched cadence.
    _honeypot_wall(str(tmp_path / "journal-durable.wal"), fsync_every=1)
    ceiling = max(baseline * (1.0 + OVERHEAD_CEILING), baseline + OVERHEAD_FLOOR_SECONDS)
    print(f"overhead={(journaled / baseline - 1.0) * 100:+.1f}% (ceiling {OVERHEAD_CEILING * 100:.0f}%)")
    assert journaled <= ceiling, (
        f"journaled honeypot stage took {journaled:.3f}s vs {baseline:.3f}s baseline"
    )


#: Mean traceability/code record bytes at the bench scale over half of it.
RECORD_GROWTH_CEILING = 1.25


def _unit_stages_wall(journal_path: str | None, fsync_every: int = 64, n_bots: int = JOURNAL_BENCH_SCALE) -> float:
    """Traceability + code analysis wall for one run without the honeypot."""
    config = replace(_config(journal_path, fsync_every), n_bots=n_bots, run_honeypot=False)
    result = AssessmentPipeline(config).run()
    return sum(result.metrics.stage(stage).wall_seconds for stage in (STAGE_TRACEABILITY, STAGE_CODE))


def _mean_unit_record_bytes(path: Path) -> float:
    sizes = [
        len(line)
        for line in path.read_bytes().splitlines()
        if json.loads(line)["stage"] in (STAGE_TRACEABILITY, STAGE_CODE)
    ]
    return sum(sizes) / len(sizes)


def test_unit_records_stay_flat_and_cheap(tmp_path) -> None:
    bare = _unit_stages_wall(None)
    durable = _unit_stages_wall(str(tmp_path / "fsync1.wal"), fsync_every=1)
    batched = _unit_stages_wall(str(tmp_path / "fsync64.wal"), fsync_every=64)
    print(
        f"traceability+code at {JOURNAL_BENCH_SCALE} bots: bare={bare:.3f}s "
        f"fsync_every=1 {durable:.3f}s ({durable / bare:.2f}x) "
        f"fsync_every=64 {batched:.3f}s ({batched / bare:.2f}x)"
    )
    half = tmp_path / "half.wal"
    _unit_stages_wall(str(half), n_bots=JOURNAL_BENCH_SCALE // 2)
    small = _mean_unit_record_bytes(half)
    large = _mean_unit_record_bytes(tmp_path / "fsync64.wal")
    print(f"mean record bytes: {small:.0f} at {JOURNAL_BENCH_SCALE // 2} bots, {large:.0f} at {JOURNAL_BENCH_SCALE}")
    assert large <= small * RECORD_GROWTH_CEILING, (
        f"records grew {large / small:.2f}x when the population doubled"
    )


def _run_driver(workdir: Path, config: dict, extra_env: dict | None = None) -> subprocess.CompletedProcess:
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(ENV_CRASH_AT, None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.core.crash_driver", str(config_path), str(workdir / "out.json")],
        env=env, capture_output=True, text=True, timeout=600,
    )


def test_resume_after_99_percent_redoes_under_5_percent(tmp_path) -> None:
    config = {
        "n_bots": 400,
        "seed": 13,
        "run_code_analysis": False,
        "run_honeypot": False,
        "validation_sample_size": 20,
        "journal_path": str(tmp_path / "journal.wal"),
        "checkpoint_path": str(tmp_path / "ckpt.json"),
    }
    # Reference run: learn the stage's unit count, then start fresh.
    reference = _run_driver(tmp_path, config)
    assert reference.returncode == 0, reference.stderr
    units = len(WriteAheadJournal(config["journal_path"]).pending(STAGE_TRACEABILITY))
    assert units >= 100, f"scale too small to measure a 99% kill ({units} units)"
    for name in ("journal.wal", "ckpt.json", "out.json"):
        (tmp_path / name).unlink(missing_ok=True)

    kill_at = math.ceil(units * 0.99)
    crashed = _run_driver(tmp_path, config, {ENV_CRASH_AT: f"traceability.after_bot:{kill_at}"})
    assert crashed.returncode == EXIT_CODE
    survived = len(WriteAheadJournal(config["journal_path"]).pending(STAGE_TRACEABILITY))

    resumed = _run_driver(tmp_path, config)
    assert resumed.returncode == 0, resumed.stderr
    total = len(WriteAheadJournal(config["journal_path"]).pending(STAGE_TRACEABILITY))
    redone = total - survived
    print(f"units={units} survived={survived} redone={redone} "
          f"({redone / total * 100:.2f}% of {total})")
    assert total == units
    assert redone / total < 0.05, f"resume redid {redone}/{total} units"
