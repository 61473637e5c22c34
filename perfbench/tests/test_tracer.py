"""The span recorder: today's targets resolve, self time and counts add up."""

import sys
import time
import types

import pytest

import tracer
from tracer import ROOT, SpanRecorder, install


def test_every_target_resolves():
    installation = install(lambda layer, function: function)
    try:
        assert installation.missing == []
        assert installation.layers == {layer for layer, _, _ in tracer.TARGETS}
    finally:
        installation.remove()


def test_a_target_that_no_longer_resolves_is_reported_missing():
    targets = (("gone.layer", "repro.web.dom", "no_such_function"), ("gone.module", "repro.no_such_module", "f"))
    installation = install(lambda layer, function: function, targets)
    assert installation.missing == [
        "gone.layer (repro.web.dom:no_such_function)",
        "gone.module (repro.no_such_module:f)",
    ]
    assert installation.layers == set()


@pytest.fixture
def fake_module():
    module = types.ModuleType("repro_benchfake")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        module.inner()
        module.inner()

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_self_time_excludes_children_and_calls_are_exact(fake_module):
    recorder = SpanRecorder()
    targets = (("fake.outer", fake_module.__name__, "outer"), ("fake.inner", fake_module.__name__, "inner"))
    installation = install(recorder.wrap, targets)
    try:
        root = recorder.enter(ROOT)
        fake_module.outer()
        recorder.leave(*root)
    finally:
        installation.remove()
    assert dict(recorder.calls) == {"fake.outer": 1, "fake.inner": 2, ROOT: 1}
    assert 0.01 <= recorder.self_seconds["fake.outer"] < 0.02
    assert 0.04 <= recorder.self_seconds["fake.inner"] < 0.06
    assert abs(sum(recorder.self_seconds.values()) - recorder.root_seconds) < 1e-9
    names = [span[0] for span in recorder.spans]
    parents = [span[3] for span in recorder.spans]
    assert names == [ROOT, "fake.outer", "fake.inner", "fake.inner"] and parents == [-1, 0, 1, 1]
    assert fake_module.outer.__name__ == "outer"  # removed: the original is back
