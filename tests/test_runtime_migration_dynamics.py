"""Tests for repro.runtime.migration and repro.runtime.dynamics."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.neighborhood import Move
from repro.errors import ModelError, SimulationError
from repro.runtime.dynamics import DynamicsSchedule, TraceEvent
from repro.runtime.migration import MigrationModel
from tests.conftest import build_pair_conference


class TestMigrationModel:
    @pytest.fixture()
    def conf(self):
        return build_pair_conference("720p", "360p", "360p", "480p")

    def test_paper_overhead_value(self, conf):
        """The paper: ~13.2 kb of dual-feed overhead for a 240p stream at
        a <=30 ms overlap.  240p = 0.4 Mbps -> 0.4 * 1000 * 0.030 = 12 kb
        (the paper's 13.2 corresponds to its slightly higher 240p rate)."""
        model = MigrationModel(overlap_ms=30.0)
        # Build a user with a 240p upstream.
        conf240 = build_pair_conference("240p", "360p", "360p", "480p")
        assignment = Assignment(np.array([0, 1]), np.full(conf240.theta_sum, 0))
        move = Move("user", 0, 0, 1)
        record = model.price(conf240, assignment, move, sid=0, time_s=1.0)
        assert record.overhead_kb == pytest.approx(12.0)
        assert not record.interrupted

    def test_user_move_priced_by_upstream(self, conf):
        model = MigrationModel(overlap_ms=30.0)
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        record = model.price(conf, assignment, Move("user", 0, 0, 1), 0, 0.0)
        # u0 upstream 720p = 5 Mbps -> 150 kb.
        assert record.overhead_kb == pytest.approx(150.0)
        assert record.kind == "user"

    def test_task_move_priced_by_output(self, conf):
        model = MigrationModel(overlap_ms=30.0)
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        record = model.price(conf, assignment, Move("task", 0, 0, 1), 0, 0.0)
        # Output rep 480p = 2.5 Mbps -> 75 kb.
        assert record.overhead_kb == pytest.approx(75.0)

    def test_instant_teardown_interrupts(self, conf):
        model = MigrationModel(dual_feed=False)
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        record = model.price(conf, assignment, Move("user", 0, 0, 1), 0, 0.0)
        assert record.overhead_kb == 0.0
        assert record.interrupted

    def test_teardown_task_move_never_interrupts(self, conf):
        """Sec. V-A.1: transcoding tasks migrate at segment boundaries
        (segmentation-based transcoding), so even without dual-feeding
        a task move carries no user-visible interruption — only *user*
        moves interrupt under instant teardown.  Either way teardown
        prices zero overhead."""
        model = MigrationModel(dual_feed=False)
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        record = model.price(conf, assignment, Move("task", 0, 0, 1), 0, 0.0)
        assert record.overhead_kb == 0.0
        assert not record.interrupted

    def test_dual_feed_never_interrupts(self, conf):
        """Dual-feeding is the whole point of Sec. V-A.1: with the
        overlap in place neither move kind freezes frames."""
        model = MigrationModel(overlap_ms=30.0)
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        for move in (Move("user", 0, 0, 1), Move("task", 0, 0, 1)):
            assert not model.price(conf, assignment, move, 0, 0.0).interrupted

    def test_paper_132_kb_anchor(self):
        """The paper's literal 13.2 kb figure back-solves to a 0.44 Mbps
        240p stream at the 30 ms overlap: 0.44 * 1000 * 0.030 = 13.2.
        Pinning the formula against the quoted number documents where
        our ladder's 0.4 Mbps (-> 12 kb) diverges from the paper's
        encoder rate, not from its pricing model."""
        assert 0.44 * 1000.0 * (30.0 / 1000.0) == pytest.approx(13.2)
        conf240 = build_pair_conference("240p", "360p", "360p", "480p")
        assignment = Assignment(np.array([0, 1]), np.full(conf240.theta_sum, 0))
        record = MigrationModel(overlap_ms=30.0).price(
            conf240, assignment, Move("user", 0, 0, 1), sid=0, time_s=0.0
        )
        bitrate = conf240.user(0).upstream.bitrate_mbps
        assert record.overhead_kb == pytest.approx(bitrate * 30.0)

    def test_overhead_scales_linearly_with_overlap(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        move = Move("user", 0, 0, 1)
        half = MigrationModel(overlap_ms=15.0).price(conf, assignment, move, 0, 0.0)
        full = MigrationModel(overlap_ms=30.0).price(conf, assignment, move, 0, 0.0)
        assert full.overhead_kb == pytest.approx(2.0 * half.overhead_kb)
        assert MigrationModel(overlap_ms=0.0).price(
            conf, assignment, move, 0, 0.0
        ).overhead_kb == 0.0

    def test_negative_overlap_rejected(self):
        with pytest.raises(ModelError):
            MigrationModel(overlap_ms=-1.0)


class TestDynamicsSchedule:
    def test_static(self):
        schedule = DynamicsSchedule.static([0, 1, 2])
        assert schedule.initial_sids == (0, 1, 2)
        assert schedule.events == tuple(
            TraceEvent(0.0, "arrive", sid) for sid in (0, 1, 2)
        )

    def test_fig5_layout(self):
        schedule = DynamicsSchedule.fig5(
            initial_sids=range(6), arriving_sids=range(6, 10), departing_sids=[1, 3, 5]
        )
        assert schedule.initial_sids == tuple(range(6))
        later = [e for e in schedule.events if e.time_s > 0]
        arrivals = [e for e in later if e.kind == "arrive"]
        departures = [e for e in later if e.kind == "depart"]
        assert {a.sid for a in arrivals} == {6, 7, 8, 9}
        assert all(a.time_s == 40.0 for a in arrivals)
        assert {d.sid for d in departures} == {1, 3, 5}
        assert all(d.time_s == 80.0 for d in departures)

    def test_events_sorted_by_time(self):
        schedule = DynamicsSchedule(
            (
                TraceEvent(0.0, "arrive", 0),
                TraceEvent(50.0, "depart", 1),
                TraceEvent(10.0, "arrive", 1),
            ),
        )
        assert [e.kind for e in schedule.events[1:]] == ["arrive", "depart"]

    def test_double_arrival_rejected(self):
        with pytest.raises(SimulationError):
            DynamicsSchedule(
                (
                    TraceEvent(0.0, "arrive", 0),
                    TraceEvent(1.0, "arrive", 1),
                    TraceEvent(2.0, "arrive", 1),
                ),
            )

    def test_departure_of_inactive_rejected(self):
        with pytest.raises(SimulationError):
            DynamicsSchedule(
                (TraceEvent(0.0, "arrive", 0), TraceEvent(1.0, "depart", 5))
            )

    def test_duplicate_initial_rejected(self):
        with pytest.raises(SimulationError):
            DynamicsSchedule.static([0, 0])

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            DynamicsSchedule(
                (TraceEvent(0.0, "arrive", 0), TraceEvent(-1.0, "arrive", 1))
            )

    def test_emptying_departure_rejected(self):
        """Departing every session would leave the run nothing to sample
        from the departure on."""
        with pytest.raises(SimulationError, match="empty the conference"):
            DynamicsSchedule.fig5(
                initial_sids=[0, 1],
                arriving_sids=[],
                departing_sids=[0, 1],
                arrival_time_s=5.0,
                departure_time_s=20.0,
            )

    def test_empty_static_rejected(self):
        """An empty schedule has no session to bootstrap."""
        with pytest.raises(SimulationError, match="no arrivals at t=0"):
            DynamicsSchedule.static([])

    def test_dynamics_at_t0_rejected(self):
        """A t=0 arrival is an initial session, so waves and Fig. 5
        arrivals must come later."""
        with pytest.raises(SimulationError, match="after t=0"):
            DynamicsSchedule.churn(6, 2, [(0.0, 2, 0), (10.0, 1, 1)])
        with pytest.raises(SimulationError, match="arrival time must be > 0"):
            DynamicsSchedule.fig5([0, 1], [2], [], arrival_time_s=0.0)
