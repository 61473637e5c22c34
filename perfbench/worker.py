"""One pass of one workload in a fresh process; prints its figures as JSON.

Started by ``perfbench/run.py``, one process per pass, e.g.:

    python3 perfbench/worker.py --workload assess-plain --seed 2022 \\
        --mode timed --workdir .perfbench/assess-plain/pass-0 [--tiny]

Modes:

- ``setup``: build the workload and stop; only set-up time is measured.
- ``timed``: set up, run one unit of work, check it.  Vet latency is
  timed around each call of the workload's latency target.
- ``traced``: like ``timed`` but with every :data:`tracer.TARGETS`
  function wrapped in a span recorder; reports per-layer figures.

The probe is armed before anything from ``repro`` is imported, so
``setup_s`` counts the imports every CLI run pays.  Every time is in
reference seconds (see ``probe.py``); raw seconds and the speed index are
reported beside them.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from probe import ProbeSampler, SpeedMap  # noqa: E402

PROBE = ProbeSampler()
#: The probe had not run at process start.
START = (PROCESS_START, 0.0)


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def time_calls(target: tuple[str, str, str], accept, sink: list[tuple[float, float]]) -> None:
    """Append (start, work seconds) of every accepted call of ``target`` to ``sink``."""
    module, cls_name, attribute = target
    owner = getattr(importlib.import_module(module), cls_name)
    original = owner.__dict__[attribute]

    @functools.wraps(original)
    def timed(*args, **kwargs):
        if not accept(args):
            return original(*args, **kwargs)
        start = PROBE.now()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((start[0], PROBE.work_seconds(start, PROBE.now())))

    setattr(owner, attribute, timed)


def hook_shard_workers(workdir: Path, recorder) -> None:
    """Arm the probe inside each shard worker process and ship its figures back.

    Interval timers are not inherited across fork, so a worker re-arms the
    probe for the length of each task, then writes its probe samples and
    (traced) span aggregates to ``workdir``.
    """
    from repro.core import parallel

    original = parallel.run_shard_task
    parent = os.getpid()

    @functools.wraps(original)
    def run_shard_task(spec):
        if os.getpid() == parent:
            return original(spec)
        PROBE.reset()
        root = None
        if recorder is not None:
            from tracer import ROOT

            recorder.reset()
            root = recorder.enter(ROOT)
        PROBE.arm()
        try:
            return original(spec)
        finally:
            PROBE.disarm()
            if root is not None:
                recorder.leave(*root)
            figures = {
                "probe": PROBE.samples,
                "trace": recorder.export() if recorder is not None else None,
            }
            path = workdir / f"worker-{os.getpid()}-{spec.stage}-{spec.index}.json"
            path.write_text(json.dumps(figures))

    parallel.run_shard_task = run_shard_task


def layer_metrics(trace: dict, installation, bots: int) -> tuple[dict, list[str]]:
    """Per-layer figures from merged span aggregates; missing layers omitted."""
    from tracer import ROOT

    total = trace["root_seconds"]
    metrics = {
        "trace.untraced_share": trace["self_seconds"].get(ROOT, 0.0) / total,
        "trace.spans": trace["spans"],
        "core.parallel.overhead_share": trace["pool_overhead_seconds"] / total,
    }
    for layer in sorted(installation.layers):
        metrics[f"{layer}.calls"] = trace["calls"].get(layer, 0)
        metrics[f"{layer}.self_share"] = trace["self_seconds"].get(layer, 0.0) / total
    if "web.network.exchange" in installation.layers:
        metrics["web.exchanges_per_bot"] = trace["calls"].get("web.network.exchange", 0) / bots
    return metrics, installation.missing


def main() -> int:
    PROBE.arm()
    ref = json.loads((HERE / "calibration.json").read_text())["ref_probe_s"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", type=Path, default=None, help="write the traced pass's spans here")
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)

    recorder = installation = root = None
    if args.mode == "traced":
        from tracer import ROOT, SpanRecorder

        recorder = SpanRecorder(PROBE)
        root = recorder.enter(ROOT)

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if recorder is not None:
        from tracer import install

        installation = install(recorder.wrap)
    state = workload.setup(args.seed, workloads.TINY if args.tiny else workloads.FULL, args.workdir)
    ready = PROBE.now()
    out = {"setup_raw_s": PROBE.work_seconds(START, ready)}

    latencies: list[tuple[float, float]] = []
    if args.mode != "setup":
        if args.mode == "timed":
            time_calls(workload.latency_target, lambda call: workload.is_vet(state, call), latencies)
        hook_shard_workers(args.workdir, recorder)
        start = PROBE.now()
        result = workload.run(state)
        end = PROBE.now()
        out["run_raw_s"] = PROBE.work_seconds(start, end)
    if root is not None:
        recorder.leave(*root)
    PROBE.disarm()
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = SpeedMap(PROBE.samples, PROBE.samples, START[0], ready[0], ref)
    out["setup_s"] = setup.reference_seconds()
    out["setup_speed_index"] = out["setup_s"] / out["setup_raw_s"]
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    # Shard workers' samples join the parent's: their CPUs set the pace of
    # the sharded stages the parent waits on.
    samples = list(PROBE.samples)
    exports = [recorder.export()] if recorder is not None else []
    for path in sorted(args.workdir.glob("worker-*.json")):
        figures = json.loads(path.read_text())
        path.unlink()
        samples += [tuple(sample) for sample in figures["probe"]]
        if figures["trace"] is not None:
            exports.append(figures["trace"])
    speed = SpeedMap(samples, PROBE.samples, start[0], end[0], ref)
    out["run_s"] = speed.reference_seconds()
    out.update(speed_index=out["run_s"] / out["run_raw_s"], probe_samples=len(samples))
    out.update(workload.check(state, result, args.workdir))
    if args.mode == "timed":
        vet_ms = sorted(seconds * speed.factor_at(at) * 1e3 for at, seconds in latencies)
        raw_ms = sorted(seconds * 1e3 for _, seconds in latencies)
        if not vet_ms:
            out["problems"].append("no vet latency samples")
        else:
            out.update(
                vet_samples=len(vet_ms),
                vet_p50_ms=percentile(vet_ms, 0.5),
                vet_p99_ms=percentile(vet_ms, 0.99),
                raw_vet_p50_ms=percentile(raw_ms, 0.5),
                raw_vet_p99_ms=percentile(raw_ms, 0.99),
            )
    if recorder is not None:
        from tracer import merge_exports

        layers, missing = layer_metrics(merge_exports(exports), installation, out["bots"])
        out["layers"].update(layers)
        out["layers"]["serving.requests_per_s"] = out["requests"] / out["run_s"]
        out["missing"] = missing
        if args.spans is not None:
            recorder.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
