"""Open-loop timing counts the wait a stall imposes on later requests."""

import pytest

from perfbench.loadgen import run_open_loop


class FakeClock:
    """A clock that only moves when the code under test sleeps or the
    fake server works."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_stall_shows_in_later_requests_latency():
    clock = FakeClock()
    calls = []

    def send(payload: dict) -> dict:
        calls.append(payload)
        clock.now += 0.200 if len(calls) == 3 else 0.001
        return {"status": "ok", "latency_ms": 1.0}

    due = [i * 0.010 for i in range(10)]
    outcomes = run_open_loop(
        send, due, [{"i": i} for i in range(10)], start=0.0,
        clock=clock, sleep=clock.sleep,
    )
    latencies = [o.latency_ms for o in outcomes]
    assert latencies[0] == pytest.approx(1.0)
    assert latencies[1] == pytest.approx(1.0)
    assert latencies[2] >= 200.0
    # Requests due during the stall waited for it: a closed loop would
    # have timed each of them at ~1 ms.
    for i in range(3, 10):
        assert latencies[i] >= 200.0 - 10.0 * (i - 2)
        assert outcomes[i].late_ms > 100.0


def test_transport_failures_are_recorded_not_raised():
    def send(payload: dict) -> dict:
        raise ConnectionRefusedError

    outcomes = run_open_loop(send, [0.0, 0.0], [{}, {}], start=0.0)
    assert [o.status for o in outcomes] == ["http", "http"]


def test_saturating_lane_stops_at_its_deadline():
    clock = FakeClock()

    def send(payload: dict) -> dict:
        clock.now += 0.030
        return {"status": "ok"}

    outcomes = run_open_loop(
        send, [0.0] * 100, [{}] * 100, start=0.0,
        clock=clock, sleep=clock.sleep, until_s=0.3,
    )
    assert len(outcomes) == 10
    assert outcomes[-1].sent < 0.3
