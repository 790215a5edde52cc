"""Span self time is duration minus the child spans."""

import itertools
import sys
import types

import pytest

from perfbench.spans import SpanRecorder, Target, install, self_times


def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, -1, "u"),
        ("child", 1.0, 4.0, 0, "u"),
        ("grandchild", 2.0, 3.0, 1, "u"),
        ("child", 5.0, 7.0, 0, "u"),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_recorded_spans_nest_and_carry_the_unit_id():
    ticks = itertools.count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner(), uid=lambda a, k: "unit-1")
    outer()
    spans = recorder.drain()["spans"]
    assert [s[0] for s in spans] == ["outer", "inner"]
    assert spans[1][3] == 0
    assert {s[4] for s in spans} == {"unit-1"}
    outer_self, inner_self = self_times(spans)
    assert inner_self == spans[1][2] - spans[1][1]
    assert outer_self == (spans[0][2] - spans[0][1]) - inner_self


def test_install_patches_every_import_site():
    def work(x):
        return x + 1

    defining = types.ModuleType("repro._perfbench_probe_a")
    importer = types.ModuleType("repro._perfbench_probe_b")
    defining.work = work
    importer.work = work
    sys.modules[defining.__name__] = defining
    sys.modules[importer.__name__] = importer
    try:
        recorder = SpanRecorder()
        patched = install(recorder, [Target(defining.__name__, "work", "probe")])
        assert set(patched) == {f"{defining.__name__}:work", f"{importer.__name__}:work"}
        assert importer.work(1) == defining.work(1) == 2
        assert [s[0] for s in recorder.drain()["spans"]] == ["probe", "probe"]
    finally:
        del sys.modules[defining.__name__], sys.modules[importer.__name__]


def test_drain_refuses_open_spans():
    recorder = SpanRecorder()

    def reenter():
        with pytest.raises(RuntimeError):
            recorder.drain()

    recorder.wrap("open", reenter)()
