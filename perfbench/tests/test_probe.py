"""The speed probe is independent of the program and its time is subtracted."""

import ast
import subprocess
import sys
import time
from pathlib import Path

import probe
from probe import ProbeSampler, SpeedMap, yardstick

PROBE_FILE = Path(probe.__file__)


def test_probe_module_imports_nothing_from_repro():
    tree = ast.parse(PROBE_FILE.read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "repro"]
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, probe; probe.kernel(); print(sorted(m for m in sys.modules if m.startswith('repro')))"],
        cwd=PROBE_FILE.parent, capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "[]"


def test_probe_time_inside_an_interval_is_subtracted():
    sampler = ProbeSampler(interval=0.01).arm()
    try:
        start = sampler.now()
        before = len(sampler.samples)
        deadline = time.perf_counter() + 0.25
        while time.perf_counter() < deadline:
            sum(range(1000))
        end = sampler.now()
    finally:
        sampler.disarm()
    inside = sampler.samples[before:]
    assert len(inside) >= 3, "the timer should have fired inside the interval"
    wall = end[0] - start[0]
    work = ProbeSampler.work_seconds(start, end)
    assert abs((wall - work) - sum(duration for _, duration in inside)) < 1e-9
    assert 0 < work < wall


def test_probe_outside_an_interval_is_not_subtracted():
    sampler = ProbeSampler()
    sampler._sample()
    start = sampler.now()
    end = sampler.now()
    sampler._sample()
    assert ProbeSampler.work_seconds(start, end) == end[0] - start[0]


def test_yardstick_drops_the_tails():
    samples = [1.0] * 8 + [0.0, 100.0]
    assert yardstick(samples) == 1.0


def test_speed_map_normalises_each_window_by_its_own_samples():
    # Two 2-second windows: the machine is twice as slow in the second.
    fast = [(0.1 * step, 0.001) for step in range(20)]
    slow = [(2.0 + 0.1 * step, 0.002) for step in range(20)]
    own = fast[:5]
    speed = SpeedMap(fast + slow, own, 0.0, 4.0, ref=0.001, width=2.0)
    assert speed.factors == [1.0, 0.5]
    assert speed.factor_at(1.0) == 1.0 and speed.factor_at(3.0) == 0.5
    assert abs(speed.reference_seconds() - ((2.0 - 0.005) * 1.0 + 2.0 * 0.5)) < 1e-12


def test_speed_map_falls_back_to_the_whole_interval_when_a_window_is_sparse():
    samples = [(0.1 * step, 0.002) for step in range(30)]
    speed = SpeedMap(samples, [], 0.0, 4.0, ref=0.001, width=2.0)
    assert speed.factors == [0.5, 0.5]
