"""Property/regression suite for session traces, schedules and the player.

Locks the one session-dynamics model — ``TraceEvent`` rows, validated
into a ``DynamicsSchedule`` and batched by the ``TracePlayer`` — and
the stochastic session processes:

* every generated trace is a valid ``DynamicsSchedule`` — canonical
  event order, no double arrivals, the conference never empties —
  across process kinds and seeds;
* seeded generation is bit-for-bit deterministic, and empirical
  inter-arrival / holding statistics converge to the configured means;
* the CSV/JSONL codecs round-trip exactly and name the offending line
  on every malformed input, and a schedule written out reads back as
  the same schedule;
* intra-timestamp ordering is deterministic (arrivals < resizes <
  departures, stable by sid) regardless of construction order — the
  fix for the order-dependent same-``time_s`` behaviour;
* the player hands out the events after the ``t=0`` arrivals one
  timestamp batch at a time, and a horizon ends its feed;
* a schedule read back from its trace file drives the same simulation
  bit-for-bit, and a simulation plays only the events up to its horizon.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.errors import SimulationError, SpecError
from repro.runtime.dynamics import (
    DynamicsSchedule,
    TraceEvent,
    sort_trace,
    validate_trace,
)
from repro.runtime.simulation import ConferencingSimulator, SimulationConfig
from repro.runtime.traces import (
    HOLDING_KINDS,
    PROCESS_KINDS,
    SessionProcess,
    TracePlayer,
    dump_trace,
    format_trace,
    load_trace,
    parse_trace,
)
from repro.workloads.prototype import prototype_conference


def make_process(kind: str = "poisson", seed: int = 0, **overrides) -> SessionProcess:
    params = dict(
        kind=kind,
        rate_per_s=0.2,
        mean_holding_s=25.0,
        initial=2,
        max_sessions=8,
        seed=seed,
    )
    if kind == "mmpp":
        params["burst_rate_per_s"] = 0.8
    params.update(overrides)
    return SessionProcess(**params)


def arrivals_at_t0(*sids: int) -> list[TraceEvent]:
    return [TraceEvent(0.0, "arrive", sid) for sid in sids]


def active_trajectory(events) -> list[int]:
    """Active-session counts after each event (canonical order)."""
    active: set[int] = set()
    counts = []
    for event in sort_trace(events):
        if event.kind == "arrive":
            active.add(event.sid)
        elif event.kind == "depart":
            active.remove(event.sid)
        counts.append(len(active))
    return counts


# --------------------------------------------------------------------- #
# Generated traces are always valid                                     #
# --------------------------------------------------------------------- #


class TestGeneratedTracesAreValid:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_every_generated_trace_lowers_to_a_schedule(self, kind, seed):
        events = make_process(kind, seed=seed).trace(400.0)
        schedule = DynamicsSchedule(events, max_sessions=8)
        assert schedule.initial_sids == (0, 1)
        assert schedule.events == events
        # Events are canonically ordered and within the horizon.
        times = [event.time_s for event in events]
        assert times == sorted(times)
        assert all(0 <= t <= 400.0 for t in times)

    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_never_empties_and_never_double_arrives(self, kind, seed):
        events = make_process(kind, seed=seed, max_sessions=3).trace(600.0)
        counts = active_trajectory(events)  # raises KeyError on bad traces
        assert min(counts) >= 1
        assert max(counts) <= 3

    @pytest.mark.parametrize("holding", HOLDING_KINDS)
    def test_holding_kinds_generate(self, holding):
        events = make_process(holding=holding, holding_sigma=0.9).trace(300.0)
        assert DynamicsSchedule(events)

    def test_pool_exhaustion_blocks_arrivals(self):
        # rate*holding >> pool: the pool saturates, arrivals are blocked.
        events = make_process(
            rate_per_s=2.0, mean_holding_s=500.0, max_sessions=4
        ).trace(400.0)
        counts = active_trajectory(events)
        assert max(counts) == 4
        sids = {event.sid for event in events}
        assert sids <= set(range(4))

    def test_saturated_pool_terminates_at_the_horizon(self):
        """Regression: a saturated pool with holding times far beyond
        the horizon must return promptly (blocked arrivals yield
        nothing, so the generator itself has to stop at the horizon
        instead of spinning through ~rate*holding rejected candidates)."""
        events = SessionProcess(
            rate_per_s=10.0,
            mean_holding_s=1e7,
            initial=2,
            max_sessions=2,
            seed=0,
        ).trace(100.0)
        assert {e.sid for e in events} == {0, 1}
        assert all(e.time_s <= 100.0 for e in events)

    def test_departed_sids_are_reused_lowest_first(self):
        events = make_process(
            rate_per_s=1.0, mean_holding_s=2.0, max_sessions=3, seed=5
        ).trace(500.0)
        arrivals = [e.sid for e in events if e.kind == "arrive"]
        # A tight pool with fast churn must recycle sids.
        assert len(arrivals) > 3 * len(set(arrivals))


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_same_seed_bit_for_bit(self, kind):
        first = make_process(kind, seed=42).trace(500.0)
        second = make_process(kind, seed=42).trace(500.0)
        assert first == second

    def test_different_seeds_differ(self):
        assert make_process(seed=1).trace(300.0) != make_process(seed=2).trace(300.0)

    def test_stream_is_lazy_and_unbounded(self):
        stream = make_process(rate_per_s=1.0, mean_holding_s=5.0).stream()
        horizon = 0.0
        for _ in range(500):
            event = next(stream)
            assert event.time_s >= horizon or event.time_s == 0.0
            horizon = max(horizon, event.time_s)
        assert horizon > 100.0  # far past any materialized default

    def test_trace_prefix_matches_stream(self):
        process = make_process(seed=9)
        materialized = process.trace(200.0)
        streamed = []
        for event in process.stream():
            if event.time_s > 200.0:
                break
            streamed.append(event)
        assert tuple(streamed) == materialized


class TestEmpiricalStatistics:
    def test_poisson_interarrival_mean_converges(self):
        rate = 0.5
        events = make_process(
            rate_per_s=rate, mean_holding_s=4.0, max_sessions=64, seed=11
        ).trace(4000.0)
        arrivals = [e.time_s for e in events if e.kind == "arrive"]
        assert len(arrivals) > 1000
        mean = float(np.mean(np.diff(arrivals)))
        assert mean == pytest.approx(1.0 / rate, rel=0.1)

    @pytest.mark.parametrize("holding", HOLDING_KINDS)
    def test_holding_mean_converges(self, holding):
        mean_holding = 6.0
        events = make_process(
            rate_per_s=0.5,
            mean_holding_s=mean_holding,
            holding=holding,
            holding_sigma=0.5,
            max_sessions=64,
            seed=3,
        ).trace(4000.0)
        arrive_at: dict[int, float] = {}
        holds = []
        for event in events:
            if event.kind == "arrive":
                arrive_at[event.sid] = event.time_s
            elif event.kind == "depart":
                holds.append(event.time_s - arrive_at.pop(event.sid))
        assert len(holds) > 500
        assert float(np.mean(holds)) == pytest.approx(mean_holding, rel=0.15)

    def test_mmpp_is_overdispersed_relative_to_poisson(self):
        """Burstiness shows up as an index of dispersion well above 1."""

        def dispersion(events) -> float:
            arrivals = np.array(
                [e.time_s for e in events if e.kind == "arrive"]
            )
            counts, _ = np.histogram(arrivals, bins=np.arange(0, 4000 + 20, 20))
            return float(np.var(counts) / np.mean(counts))

        poisson = make_process(
            rate_per_s=0.3, mean_holding_s=3.0, max_sessions=64, seed=7
        ).trace(4000.0)
        bursty = make_process(
            "mmpp",
            rate_per_s=0.05,
            burst_rate_per_s=1.0,
            mean_burst_s=30.0,
            mean_calm_s=60.0,
            mean_holding_s=3.0,
            max_sessions=64,
            seed=7,
        ).trace(4000.0)
        assert dispersion(poisson) < 1.5
        assert dispersion(bursty) > 2.0

    def test_diurnal_rate_follows_the_cycle(self):
        period = 200.0
        events = make_process(
            "diurnal",
            rate_per_s=0.5,
            diurnal_amplitude=0.9,
            diurnal_period_s=period,
            mean_holding_s=2.0,
            max_sessions=64,
            seed=13,
        ).trace(4000.0)
        arrivals = np.array([e.time_s for e in events if e.kind == "arrive"])
        phase = np.mod(arrivals, period) / period
        # sin > 0 on the first half-period: more arrivals land there.
        peak_share = float(np.mean(phase < 0.5))
        assert peak_share > 0.6


# --------------------------------------------------------------------- #
# File formats                                                          #
# --------------------------------------------------------------------- #


class TestTraceCodecs:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_round_trip_exact(self, fmt):
        events = make_process(seed=21).trace(300.0)
        assert parse_trace(format_trace(events, fmt=fmt), fmt=fmt) == events

    def test_file_round_trip_by_suffix(self, tmp_path):
        events = make_process(seed=4).trace(200.0)
        for name in ("trace.csv", "trace.jsonl"):
            path = tmp_path / name
            dump_trace(events, path)
            assert load_trace(path) == events

    def test_comments_blanks_and_header_skipped(self):
        text = "# a comment\n\ntime_s,event,sid\n0,arrive,0\n1.5,depart,0\n"
        events = parse_trace(text)
        assert [(e.time_s, e.kind, e.sid) for e in events] == [
            (0.0, "arrive", 0),
            (1.5, "depart", 0),
        ]

    def test_parse_records_line_numbers(self):
        events = parse_trace("time_s,event,sid\n0,arrive,3\n7,depart,3\n")
        assert [event.line for event in events] == [2, 3]

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("0,arrive", "expected 'time_s,event,sid'"),
            ("x,arrive,0", "not a number"),
            ("0,arrive,x", "not an integer"),
            ("0,join,0", "unknown event kind"),
            ("-1,arrive,0", "must be finite and >= 0"),
            ("nan,arrive,0", "must be finite and >= 0"),
            ("0,arrive,-2", "sid must be >= 0"),
        ],
    )
    def test_csv_errors_name_the_line(self, row, fragment):
        with pytest.raises(SpecError, match="churn.csv:3"):
            parse_trace(
                f"time_s,event,sid\n0,arrive,0\n{row}\n", origin="churn.csv"
            )
        with pytest.raises(SpecError, match=fragment):
            parse_trace(f"0,arrive,0\n{row}\n")

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "expected an object"),
            ('{"time_s": 0, "event": "arrive"}', "missing key"),
            ('{"time_s": 0, "event": "arrive", "sid": 0, "x": 1}', "unknown key"),
            ('{"time_s": "a", "event": "arrive", "sid": 0}', "must be a number"),
            ('{"time_s": 0, "event": 1, "sid": 0}', "must be a string"),
            ('{"time_s": 0, "event": "arrive", "sid": 1.5}', "must be an integer"),
        ],
    )
    def test_jsonl_errors_name_the_line(self, row, fragment):
        good = '{"time_s": 0, "event": "arrive", "sid": 0}'
        with pytest.raises(SpecError, match=r"trace:2.*" + fragment):
            parse_trace(f"{good}\n{row}\n", fmt="jsonl")

    def test_unknown_format_rejected(self):
        with pytest.raises(SpecError, match="unknown trace format"):
            parse_trace("", fmt="xml")
        with pytest.raises(SpecError, match="unknown trace format"):
            format_trace((), fmt="xml")

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_trace(tmp_path / "nope.csv")


# --------------------------------------------------------------------- #
# Validation / schedule lowering                                        #
# --------------------------------------------------------------------- #


class TestTraceValidation:
    def base(self) -> list[TraceEvent]:
        return [
            TraceEvent(0.0, "arrive", 0),
            TraceEvent(0.0, "arrive", 1),
            TraceEvent(10.0, "arrive", 2),
        ]

    def test_double_arrival_named(self):
        events = self.base() + [TraceEvent(12.0, "arrive", 2, line=9)]
        with pytest.raises(
            SimulationError, match=r"line 9.*arrive sid=2 t=12.*already active"
        ):
            validate_trace(events)

    def test_departure_of_inactive_named(self):
        events = self.base() + [TraceEvent(11.0, "depart", 7)]
        with pytest.raises(
            SimulationError, match=r"depart sid=7 t=11.*departs while inactive"
        ):
            validate_trace(events)

    def test_resize_of_inactive_named(self):
        events = self.base() + [TraceEvent(11.0, "resize", 7)]
        with pytest.raises(SimulationError, match="resizes while inactive"):
            validate_trace(events)

    def test_emptying_departure_named(self):
        events = [
            TraceEvent(0.0, "arrive", 0),
            TraceEvent(5.0, "depart", 0),
        ]
        with pytest.raises(SimulationError, match="empty the conference"):
            validate_trace(events)

    def test_sid_beyond_pool_named(self):
        events = self.base() + [TraceEvent(11.0, "arrive", 12)]
        with pytest.raises(
            SimulationError, match=r"sid=12.*exceeds the workload's session pool"
        ):
            validate_trace(events, max_sessions=4)

    def test_no_initial_sessions_rejected(self):
        with pytest.raises(SimulationError, match="no arrivals at t=0"):
            validate_trace([TraceEvent(3.0, "arrive", 0)])

    def test_schedule_round_trip(self):
        """A schedule written out as a trace reads back as itself."""
        for schedule in (
            DynamicsSchedule(make_process(seed=8).trace(250.0)),
            DynamicsSchedule.churn(6, 2, [(5.0, 2, 0), (10.0, 1, 1)]),
        ):
            for fmt in ("csv", "jsonl"):
                text = format_trace(schedule.events, fmt=fmt)
                assert DynamicsSchedule(parse_trace(text, fmt=fmt)) == schedule

    def test_replacement_at_shared_timestamp_is_valid(self):
        """With canonical ordering, a sid can depart at the exact instant
        another arrives without transiently emptying the conference."""
        events = [
            TraceEvent(0.0, "arrive", 0),
            TraceEvent(20.0, "depart", 0),
            TraceEvent(20.0, "arrive", 1),
        ]
        schedule = DynamicsSchedule(events)
        assert [(e.kind, e.sid) for e in schedule.events] == [
            ("arrive", 0),
            ("arrive", 1),
            ("depart", 0),
        ]


class TestCanonicalIntraTimestampOrder:
    """Regression for the order-dependent same-``time_s`` behaviour."""

    def test_construction_order_no_longer_matters(self):
        arrive, depart = TraceEvent(40.0, "arrive", 2), TraceEvent(40.0, "depart", 0)
        forward = DynamicsSchedule(arrivals_at_t0(0, 1) + [arrive, depart])
        reversed_ = DynamicsSchedule([depart, arrive] + arrivals_at_t0(1, 0))
        assert forward == reversed_
        assert forward.events[2:] == (arrive, depart)

    def test_order_within_timestamp_is_kind_then_sid(self):
        schedule = DynamicsSchedule(
            arrivals_at_t0(0, 1, 2)
            + [
                TraceEvent(10.0, "depart", 2),
                TraceEvent(10.0, "resize", 1),
                TraceEvent(10.0, "depart", 0),
                TraceEvent(10.0, "arrive", 5),
                TraceEvent(10.0, "arrive", 3),
            ]
        )
        assert [(e.kind, e.sid) for e in schedule.events[3:]] == [
            ("arrive", 3),
            ("arrive", 5),
            ("resize", 1),
            ("depart", 0),
            ("depart", 2),
        ]

    def test_same_sid_depart_then_rearrive_at_same_instant_rejected(self):
        """Previously legal-or-illegal depending on tuple order; now it is
        deterministically rejected (the arrival sorts first and collides
        with the still-active session)."""
        depart, arrive = TraceEvent(10.0, "depart", 0), TraceEvent(10.0, "arrive", 0)
        for order in [[depart, arrive], [arrive, depart]]:
            with pytest.raises(SimulationError, match="arrives while already active"):
                DynamicsSchedule(arrivals_at_t0(0, 1) + order)

    def test_churn_waves_sharing_a_timestamp_arrivals_first(self):
        schedule = DynamicsSchedule.churn(
            4, 2, waves=[(30.0, 0, 1), (30.0, 2, 0)]
        )
        assert [e.kind for e in schedule.events] == [
            "arrive",
            "arrive",
            "arrive",
            "arrive",
            "depart",
        ]
        assert schedule.initial_sids == (0, 1)

    def test_canonical_event_order_is_idempotent(self):
        events = [
            TraceEvent(5.0, "depart", 1),
            TraceEvent(5.0, "arrive", 2),
            TraceEvent(1.0, "arrive", 9),
        ]
        once = sort_trace(events)
        assert sort_trace(once) == once


# --------------------------------------------------------------------- #
# The open-loop player                                                  #
# --------------------------------------------------------------------- #


class TestTracePlayer:
    def test_batches_group_shared_timestamps(self):
        schedule = DynamicsSchedule(
            arrivals_at_t0(0, 1)
            + [
                TraceEvent(10.0, "arrive", 2),
                TraceEvent(10.0, "depart", 0),
                TraceEvent(25.0, "arrive", 3),
            ]
        )
        player = TracePlayer(schedule)
        first = player.next_batch()
        assert [(e.kind, e.sid) for e in first] == [("arrive", 2), ("depart", 0)]
        assert [e.time_s for e in player.next_batch()] == [25.0]
        assert player.next_batch() == ()
        assert player.events_streamed == 3

    def test_initial_arrivals_are_not_streamed(self):
        """The t=0 arrivals are the initial set; any other t=0 event is
        the first batch."""
        player = TracePlayer(
            DynamicsSchedule(
                [
                    TraceEvent(0.0, "resize", 0),
                    TraceEvent(0.0, "arrive", 1),
                    TraceEvent(6.0, "arrive", 2),
                    TraceEvent(0.0, "arrive", 0),
                ]
            )
        )
        assert player.initial_sids == (0, 1)
        assert player.next_batch() == (TraceEvent(0.0, "resize", 0),)
        assert [e.sid for e in player.next_batch()] == [2]
        assert player.events_streamed == 2

    def test_horizon_cuts_the_stream_permanently(self):
        schedule = DynamicsSchedule(
            make_process(rate_per_s=1.0, mean_holding_s=3.0).trace(60.0)
        )
        player = TracePlayer(schedule)
        drained = 0
        while True:
            batch = player.next_batch(limit_s=30.0)
            if not batch:
                break
            drained += len(batch)
            assert all(e.time_s <= 30.0 for e in batch)
        assert 0 < drained < len(schedule.events) - len(schedule.initial_sids)
        # Once exhausted, even a wider horizon yields nothing.
        assert player.next_batch(limit_s=math.inf) == ()
        assert player.events_streamed == drained


class TestPlayerFedSimulation:
    @pytest.fixture(scope="class")
    def evaluator(self):
        conference = prototype_conference(seed=3, num_sessions=6)
        return ObjectiveEvaluator(
            conference, ObjectiveWeights.normalized_for(conference)
        )

    def config(self) -> SimulationConfig:
        return SimulationConfig(
            duration_s=40.0, hop_interval_mean_s=5.0, seed=12
        )

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_trace_file_replays_bit_for_bit(self, evaluator, fmt):
        """A schedule written out as a trace and read back drives the same
        simulation, record for record."""
        schedule = DynamicsSchedule(
            make_process(
                rate_per_s=0.25, mean_holding_s=12.0, max_sessions=6, seed=6
            ).trace(40.0)
        )
        replayed = DynamicsSchedule(
            parse_trace(format_trace(schedule.events, fmt=fmt), fmt=fmt)
        )
        direct = ConferencingSimulator(evaluator, schedule, self.config()).run()
        again = ConferencingSimulator(evaluator, replayed, self.config()).run()
        for name in ("traffic", "delay", "phi", "sessions"):
            t1, v1 = direct.series(name)
            t2, v2 = again.series(name)
            assert np.array_equal(t1, t2) and np.array_equal(v1, v2)
        assert direct.hops == again.hops
        assert direct.trace_events == again.trace_events > 0

    def test_trace_beyond_horizon_plays_to_horizon(self, evaluator):
        """Events after ``duration_s`` are never played; the run still
        samples up to the horizon."""
        schedule = DynamicsSchedule(
            make_process(
                rate_per_s=0.5, mean_holding_s=8.0, max_sessions=6, seed=2
            ).trace(400.0)
        )
        result = ConferencingSimulator(evaluator, schedule, self.config()).run()
        times, counts = result.series("sessions")
        assert times[-1] == pytest.approx(40.0)
        assert counts.min() >= 1
        played = [
            e for e in schedule.events[len(schedule.initial_sids):]
            if e.time_s <= 40.0
        ]
        assert 0 < result.trace_events == len(played)
        assert len(played) < len(schedule.events) - len(schedule.initial_sids)

    def test_dynamics_execute_before_samples_at_shared_timestamps(
        self, evaluator
    ):
        """Tie-break regression: a departure at exactly a sample instant
        lands before the sample even when its batch was pumped after the
        sample event was enqueued (events closer together than one
        sample interval)."""
        schedule = DynamicsSchedule(
            arrivals_at_t0(0, 1)
            + [TraceEvent(39.5, "arrive", 2), TraceEvent(40.0, "depart", 1)]
        )
        result = ConferencingSimulator(
            evaluator,
            schedule,
            SimulationConfig(duration_s=42.0, hop_interval_mean_s=5.0, seed=1),
        ).run()
        times, counts = result.series("sessions")
        assert counts[times == 40.0][0] == 2.0  # departure already applied

    def test_resize_reexecutes_bootstrap_and_counts(self, evaluator):
        schedule = DynamicsSchedule(
            arrivals_at_t0(0, 1, 2)
            + [TraceEvent(10.0, "resize", 1), TraceEvent(20.0, "resize", 2)]
        )
        result = ConferencingSimulator(evaluator, schedule, self.config()).run()
        assert result.resizes == 2
        assert result.trace_events == 2
        _times, counts = result.series("sessions")
        assert set(counts) == {3.0}  # resizes never change the active count
