"""Bench: trace-layer throughput — generator and player events/sec.

Three targets: (1) raw generation speed of the seeded Poisson/MMPP
session processes, (2) parse + canonical-sort + validate speed of the
CSV codec into a :class:`~repro.runtime.dynamics.DynamicsSchedule`,
and (3) open-loop batch streaming through
:class:`~repro.runtime.traces.TracePlayer`.  Each asserts a modest
floor (thousands of events/sec) so a quadratic regression in the event
path fails loudly rather than silently slowing fleet sweeps.
"""

from __future__ import annotations

from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.traces import (
    SessionProcess,
    TracePlayer,
    format_trace,
    parse_trace,
)

#: Generated-trace horizon; at rate 2/s this yields ~10k events.
DURATION_S = 2500.0

#: Floor on events/sec for every target (laptop-friendly, ~100x slack).
MIN_EVENTS_PER_S = 5_000.0


def _process(kind: str = "poisson") -> SessionProcess:
    return SessionProcess(
        kind=kind,
        rate_per_s=2.0,
        mean_holding_s=20.0,
        burst_rate_per_s=8.0 if kind == "mmpp" else 0.0,
        initial=4,
        max_sessions=128,
        seed=17,
    )


def test_generate_events_per_sec(benchmark):
    process = _process()

    events = benchmark(lambda: process.trace(DURATION_S))

    assert len(events) > 5_000
    rate = len(events) / benchmark.stats.stats.mean
    print(f"\npoisson generate: {len(events)} events, {rate:,.0f} events/s")
    assert rate > MIN_EVENTS_PER_S


def test_mmpp_generate_events_per_sec(benchmark):
    process = _process("mmpp")

    events = benchmark(lambda: process.trace(DURATION_S))

    assert len(events) > 5_000
    rate = len(events) / benchmark.stats.stats.mean
    print(f"\nmmpp generate: {len(events)} events, {rate:,.0f} events/s")
    assert rate > MIN_EVENTS_PER_S


def test_parse_validate_events_per_sec(benchmark):
    events = _process().trace(DURATION_S)
    text = format_trace(events, fmt="csv")

    def parse_and_validate():
        return DynamicsSchedule(parse_trace(text))

    schedule = benchmark(parse_and_validate)

    total = len(schedule.events)
    rate = total / benchmark.stats.stats.mean
    print(f"\ncsv parse+validate: {total} events, {rate:,.0f} events/s")
    assert rate > MIN_EVENTS_PER_S


def test_player_stream_events_per_sec(benchmark):
    schedule = DynamicsSchedule(_process().trace(DURATION_S))

    def drain():
        player = TracePlayer(schedule)
        count = 0
        while True:
            batch = player.next_batch()
            if not batch:
                return count
            count += len(batch)

    count = benchmark(drain)

    assert count == len(schedule.events) - len(schedule.initial_sids)
    rate = count / benchmark.stats.stats.mean
    print(f"\nplayer stream: {count} events, {rate:,.0f} events/s")
    assert rate > MIN_EVENTS_PER_S
