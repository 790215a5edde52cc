"""The simulator's WAIT countdowns: one array behind one queue timer.

Production keeps every pending countdown in a float array indexed by
session id and holds a single ``"wake"`` timer at their minimum; a
FREEZE shifts the array in one pass.  These tests pin it, result for
result, against :class:`tests.countdown_oracle.PerSessionWakeSimulator`
(one queue event per session, FREEZE rescheduling each), over static
sessions, trace churn with resizes, faults under every policy, freeze
durations of 0 and 2 s and a one-session conference.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.fleet.compile import CompiledRun, compile_spec
from repro.fleet.spec import RunSpec
from repro.runtime.dynamics import DynamicsSchedule, TraceEvent
from repro.runtime.simulation import ConferencingSimulator, SimulationResult
from tests.countdown_oracle import PerSessionWakeSimulator

CHAOS = {"rate_per_s": 0.1, "mean_duration_s": 10, "severity": 0.5}


def spec(seed: int, **sections) -> RunSpec:
    data = {
        "name": "countdowns",
        "workload": {
            "kind": "prototype",
            "num_sessions": 6,
            "min_session_size": 3,
            "max_session_size": 4,
        },
        "simulation": {"duration_s": 40, "hop_interval_mean_s": 3, "seed": seed},
    }
    for key, value in sections.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    return RunSpec.from_dict(data)


def churn_with_resizes(num_sessions: int, seed: int) -> DynamicsSchedule:
    """A random valid schedule of arrivals, departures and resizes that
    never empties the conference."""
    rng = np.random.default_rng(seed)
    active = {0, 1, 2}
    events = [TraceEvent(0.0, "arrive", sid) for sid in sorted(active)]
    time_s = 0.0
    for _ in range(24):
        time_s += float(rng.exponential(1.5))
        idle = sorted(set(range(num_sessions)) - active)
        roll = rng.random()
        if idle and (roll < 0.4 or len(active) == 1):
            sid = int(rng.choice(idle))
            events.append(TraceEvent(time_s, "arrive", sid))
            active.add(sid)
        elif roll < 0.7:
            sid = int(rng.choice(sorted(active)))
            events.append(TraceEvent(time_s, "resize", sid))
        else:
            sid = int(rng.choice(sorted(active)))
            events.append(TraceEvent(time_s, "depart", sid))
            active.remove(sid)
    return DynamicsSchedule(tuple(events))


def static(seed: int, freeze: float | None = None) -> CompiledRun:
    simulation = {} if freeze is None else {"freeze_duration_s": freeze}
    return compile_spec(spec(seed, simulation=simulation))


def resizing(seed: int, freeze: float | None = None) -> CompiledRun:
    compiled = static(seed, freeze)
    compiled.schedule = churn_with_resizes(compiled.conference.num_sessions, seed)
    return compiled


def faulted(seed: int, policy: str, freeze: float | None = None) -> CompiledRun:
    simulation = {"duration_s": 60} if freeze is None else {
        "duration_s": 60, "freeze_duration_s": freeze
    }
    return compile_spec(
        spec(
            seed,
            workload={"num_sessions": 8},
            churn={
                "initial": 4,
                "trace": {"kind": "poisson", "rate_per_s": 0.3, "mean_holding_s": 20},
            },
            simulation=simulation,
            faults={"policy": policy, "chaos": {**CHAOS, "kinds": ["outage"]}},
        )
    )


def mixed_faults(seed: int) -> CompiledRun:
    """Outage, capacity and latency chaos over static sessions."""
    return compile_spec(spec(seed, faults={"policy": "migrate", "chaos": CHAOS}))


def one_session(seed: int, freeze: float | None = None) -> CompiledRun:
    simulation = {} if freeze is None else {"freeze_duration_s": freeze}
    return compile_spec(spec(seed, workload={"num_sessions": 1}, simulation=simulation))


CASES = {
    "static-s1": lambda: static(1),
    "static-s2": lambda: static(2),
    "static-s3": lambda: static(3),
    "static-freeze0-s4": lambda: static(4, freeze=0.0),
    "static-freeze0-s5": lambda: static(5, freeze=0.0),
    "static-freeze2-s6": lambda: static(6, freeze=2.0),
    "static-freeze2-s7": lambda: static(7, freeze=2.0),
    "resize-s1": lambda: resizing(1),
    "resize-s2": lambda: resizing(2),
    "resize-freeze2-s3": lambda: resizing(3, freeze=2.0),
    "resize-freeze0-s4": lambda: resizing(4, freeze=0.0),
    "migrate-s1": lambda: faulted(1, "migrate"),
    "migrate-s2": lambda: faulted(2, "migrate"),
    "migrate-freeze2-s3": lambda: faulted(3, "migrate", freeze=2.0),
    "drop-s1": lambda: faulted(1, "drop"),
    "drop-s2": lambda: faulted(2, "drop"),
    "drop-s10": lambda: faulted(10, "drop"),
    "drop-freeze2-s4": lambda: faulted(4, "drop", freeze=2.0),
    "none-s1": lambda: faulted(1, "none"),
    "none-freeze0-s2": lambda: faulted(2, "none", freeze=0.0),
    "mixed-faults-s5": lambda: mixed_faults(5),
    "one-session-s1": lambda: one_session(1),
    "one-session-freeze2-s2": lambda: one_session(2, freeze=2.0),
}


def run(cls, compiled: CompiledRun) -> SimulationResult:
    config = dataclasses.replace(compiled.config, track_sessions=(0, 1))
    return cls(
        compiled.evaluator,
        compiled.schedule,
        config,
        noise=compiled.noise,
        faults=compiled.faults,
    ).run()


def assert_same_result(got: SimulationResult, want: SimulationResult) -> None:
    assert got.recorder.names == want.recorder.names
    for name in want.recorder.names:
        got_times, got_values = got.series(name)
        want_times, want_values = want.series(name)
        assert np.array_equal(got_times, want_times), name
        assert np.array_equal(got_values, want_values), name
    assert got.migrations == want.migrations
    assert [m.time_s for m in got.migrations] == [m.time_s for m in want.migrations]
    assert got.hops == want.hops
    assert got.freezes == want.freezes
    assert got.resizes == want.resizes
    assert got.trace_events == want.trace_events
    assert np.array_equal(
        got.final_assignment.user_agent, want.final_assignment.user_agent
    )
    assert np.array_equal(
        got.final_assignment.task_agent, want.final_assignment.task_agent
    )
    assert got.faults_injected == want.faults_injected
    assert got.fault_migrations == want.fault_migrations
    assert got.sessions_dropped == want.sessions_dropped
    assert got.sla_violation_s == want.sla_violation_s
    assert got.recovery_times == want.recovery_times


class TestAgainstPerSessionWakes:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identical_results(self, case):
        want = run(PerSessionWakeSimulator, CASES[case]())
        got = run(ConferencingSimulator, CASES[case]())
        assert_same_result(got, want)
        assert got.hops > 0

    def test_cases_exercise_every_path(self):
        """The grid above really covers freezes, resizes, drops and
        fault migrations (guards against a case silently going idle)."""
        results = {name: run(ConferencingSimulator, build()) for name, build in CASES.items()}
        assert results["static-s1"].freezes > 0
        assert results["static-freeze0-s4"].freezes == 0
        assert results["static-freeze2-s6"].freezes > 0
        assert sum(results[n].resizes for n in CASES if n.startswith("resize")) > 0
        assert all(results[n].sessions_dropped > 0 for n in CASES if n.startswith("drop"))
        assert sum(results[n].fault_migrations for n in CASES if "migrate" in n) > 0
        assert all(results[n].faults_injected > 0 for n in CASES if n.startswith("none"))
        assert results["one-session-s1"].migrations


class _DriftingCountdowns(ConferencingSimulator):
    """Moves every pending countdown right after the timer is armed, as
    a bookkeeping bug would."""

    def _arm_timer(self) -> None:
        super()._arm_timer()
        self._countdowns[np.isfinite(self._countdowns)] += 0.5


class _QueueAudit(ConferencingSimulator):
    """Records the live wake events in the queue at every sample."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.audits: list[tuple[list[float], float]] = []

    def _on_sample(self, now: float) -> None:
        wakes = [
            entry.time_s
            for entry in self._queue._heap
            if entry.handle.kind == "wake" and not entry.handle.cancelled
        ]
        self.audits.append((wakes, float(self._countdowns.min())))
        super()._on_sample(now)


class TestTimerConsistency:
    def test_corrupted_countdowns_raise_at_the_pop(self):
        compiled = static(1)
        simulator = _DriftingCountdowns(
            compiled.evaluator, compiled.schedule, compiled.config
        )
        with pytest.raises(SimulationError, match="wake timer fired"):
            simulator.run()

    def test_one_wake_event_at_the_earliest_countdown(self):
        """However many sessions wait, the queue holds one live wake
        event, at the earliest pending countdown."""
        compiled = static(1)
        simulator = _QueueAudit(compiled.evaluator, compiled.schedule, compiled.config)
        simulator.run()
        assert len(simulator.audits) == 41
        for wakes, earliest in simulator.audits:
            assert wakes == [earliest]
