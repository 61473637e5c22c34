"""The repository's benchmark: end-to-end and per-layer figures per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload assess-plain --seed 7 --seconds 10 --trace 0

Every pass of a workload runs in a fresh process (``perfbench/worker.py``),
so peak RSS and set-up time are that pass's own.

``--trace 0`` repeats timed passes until ``--seconds`` have elapsed (at
least one), tops set-up samples up to :data:`MIN_SETUPS` with set-up-only
passes, and reports each end-to-end metric as the median over passes.
``--trace 1`` runs one timed pass and one traced pass and reports the
per-layer figures plus the tracing overhead (traced ÷ untraced bots/s).

End-to-end metrics (times in reference seconds, see ``probe.py``):

- ``bots_per_s``: bots assessed per second of the unit of work, from its
  first step to the result: the population for assess-*, verdicts
  returned for serve-mixed.
- ``vet_p50_ms`` / ``vet_p99_ms``: latency of vetting one bot as its
  caller sees it: a client's ``GET /vet/{bot}`` on serve-mixed (p50 is
  mostly verdict-cache hits, p99 the cold path); collecting one bot's
  store listing (``TopGGScraper.scrape_bot``, the dominant crawl unit) on
  assess-*.
- ``setup_s``: process start, before ``repro`` is imported, to ready for
  the first unit (pipeline built; service built and registered).
- ``peak_rss_mib``: ``ru_maxrss`` of the pass's own process.

Every pass is checked (see ``workloads.py``); assess-durable's comparable
result must also equal a fresh assess-plain pass's byte for byte.  A
traced pass must produce the same output as its untraced twin.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds raw
seconds and speed indices beside the normalised figures.  Artifacts and the
traced pass's spans go to ``.perfbench/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("assess-plain", "assess-durable", "serve-mixed", "assess-sharded")
#: Set-up samples per timed run; set-up-only passes fill up to this.
MIN_SETUPS = 3
#: Wall budget of one run; a run that cannot finish in it fails.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("bots_per_s", "1/s"),
    ("vet_p50_ms", "ms"),
    ("vet_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
#: Layers (``tracer.TARGETS`` names) reported with exact call counts.
COUNTED = (
    "ecosystem.stream.bot_at",
    "web.dom.parse_html",
    "web.dom.select",
    "web.network.exchange",
    "web.captcha.solve",
    "scraper.fetch",
    "traceability.analyze",
    "codeanalysis.analyze_repo",
    "discordsim.gateway.dispatch",
    "core.supervision.run",
    "core.journal.append",
    "core.storage.atomic_write_json",
    "core.storage.sync",
    "serving.handle",
)
#: Layers reported with their self time as a share of the traced run.
SHARED = (
    "ecosystem.generate",
    "ecosystem.stream.bot_at",
    "web.dom.parse_html",
    "web.dom.select",
    "web.network.exchange",
    "web.antiscrape",
    "scraper.fetch",
    "scraper.topgg.scrape_bot",
    "scraper.website.fetch_policy",
    "scraper.github.fetch_repo",
    "traceability.analyze",
    "codeanalysis.analyze_repo",
    "honeypot.run",
    "discordsim.gateway.dispatch",
    "core.supervision.run",
    "core.journal.append",
    "core.journal.begin_unit",
    "core.journal.finish_unit",
    "core.spill.append",
    "core.storage.atomic_write_json",
    "core.checkpoint.save",
    "core.parallel.run",
    "core.sharding.merge",
    "serving.handle",
    "vetting.review_static",
    "vetting.review_code",
    "vetting.review_dynamic",
)
PER_LAYER = (
    tuple((f"{layer}.calls", "count") for layer in COUNTED)
    + tuple((f"{layer}.self_share", "share") for layer in SHARED)
    + (
        ("web.exchanges_per_bot", "ratio"),
        ("core.journal.bytes", "B"),
        ("core.journal.record_bytes_p50", "B"),
        ("core.spill.bytes", "B"),
        ("core.storage.artifact_mib", "MiB"),
        ("core.parallel.overhead_share", "share"),
        ("serving.cache.hit_ratio", "ratio"),
        ("serving.admission.shed", "count"),
        ("serving.requests_per_s", "1/s"),
        ("trace.overhead", "ratio"),
        ("trace.untraced_share", "share"),
        ("trace.spans", "count"),
    )
)


class PassFailed(RuntimeError):
    """A worker pass crashed or ran out of the run's time budget."""


class Runner:
    """Spawns worker passes for one workload within the run's wall budget."""

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = ROOT / ".perfbench" / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.passes = 0

    def run(self, mode: str, workload: str | None = None, spans: bool = False) -> dict:
        passdir = self.workdir / f"pass-{self.passes}"
        self.passes += 1
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload or self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--workdir", str(passdir),
        ]
        if self.tiny:
            command.append("--tiny")
        if spans:
            command += ["--spans", str(self.workdir / "spans.json")]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed("out of time before a pass")
        # String hashing follows the seed, so a seed fixes dict and set
        # layouts too and repeated runs of one seed do the same work.
        env = dict(os.environ, PYTHONHASHSEED=str(self.seed % 2**32))
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=remaining, cwd=ROOT, env=env)
        except subprocess.TimeoutExpired as error:
            raise PassFailed(f"{mode} pass of {workload or self.workload} timed out") from error
        finally:
            shutil.rmtree(passdir, ignore_errors=True)
        if done.returncode != 0:
            raise PassFailed(f"{mode} pass of {workload or self.workload} failed:\n{done.stderr[-4000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(entry[key] for entry in passes)


def _bots_per_s(entry: dict) -> float:
    return entry["bots"] / entry["run_s"]


def timed_run(runner: Runner, seconds: float) -> tuple[list[dict], dict, dict]:
    started = time.monotonic()
    passes = [runner.run("timed")]
    while time.monotonic() - started < seconds:
        passes.append(runner.run("timed"))
    setups = passes + [runner.run("setup") for _ in range(MIN_SETUPS - len(passes))]
    metrics = {
        "bots_per_s": statistics.median(_bots_per_s(entry) for entry in passes),
        "vet_p50_ms": _median(passes, "vet_p50_ms"),
        "vet_p99_ms": _median(passes, "vet_p99_ms"),
        "setup_s": _median(setups, "setup_s"),
        "peak_rss_mib": _median(passes, "peak_rss_mib"),
    }
    detail = {
        "passes": len(passes),
        "bots_per_s": [round(_bots_per_s(entry), 3) for entry in passes],
        "vet_samples": [entry["vet_samples"] for entry in passes],
        "speed_index": [round(entry["speed_index"], 4) for entry in passes],
        "vet_p50_ms": [round(entry["vet_p50_ms"], 4) for entry in passes],
        "vet_p99_ms": [round(entry["vet_p99_ms"], 4) for entry in passes],
        "setup_s": [round(entry["setup_s"], 4) for entry in setups],
        "setup_speed_index": [round(entry["setup_speed_index"], 4) for entry in setups],
        "raw": {
            "bots_per_s": statistics.median(entry["bots"] / entry["run_raw_s"] for entry in passes),
            "run_s": _median(passes, "run_raw_s"),
            "vet_p50_ms": _median(passes, "raw_vet_p50_ms"),
            "vet_p99_ms": _median(passes, "raw_vet_p99_ms"),
            "setup_s": _median(setups, "setup_raw_s"),
        },
    }
    return passes, metrics, detail


def traced_run(runner: Runner) -> tuple[list[dict], dict, dict]:
    untraced = runner.run("timed")
    traced = runner.run("traced", spans=True)
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = _bots_per_s(traced) / _bots_per_s(untraced)
    detail = {
        "missing": traced["missing"],
        "speed_index": [round(untraced["speed_index"], 4), round(traced["speed_index"], 4)],
        "raw": {"untraced_run_s": untraced["run_raw_s"], "traced_run_s": traced["run_raw_s"]},
    }
    if traced["digest"] != untraced["digest"]:
        traced["problems"].append("traced pass produced different output from the untraced pass")
    return [untraced, traced], metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few dozen bots / a few hundred requests (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.tiny)
    try:
        if args.trace:
            passes, metrics, detail = traced_run(runner)
        else:
            passes, metrics, detail = timed_run(runner, args.seconds)
        if args.workload == "assess-durable":
            golden = runner.run("timed", workload="assess-plain")
            passes.append(golden)
            for entry in passes[:-1]:
                if entry["digest"] != golden["digest"]:
                    entry["problems"].append("comparable result differs from assess-plain's")
    except PassFailed as error:
        print(error, file=sys.stderr)
        return 1

    problems = [problem for entry in passes for problem in entry["problems"]]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    detail["problems"] = problems
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(entry["attempted"] for entry in passes),
        "failed": sum(entry["failed"] for entry in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
