"""Tests for repro.core.feasibility and repro.core.capacity."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.capacity import CapacityLedger
from repro.core.feasibility import check_assignment, is_feasible
from tests.flow_oracle import compute_session_usage, ledger_from_assignment
from repro.errors import ModelError
from repro.model.builder import ConferenceBuilder
from repro.model.representation import PAPER_LADDER
from tests.conftest import PAIR_D, PAIR_H, build_pair_conference


def capacity_conference(download=(100.0, 100.0), upload=(100.0, 100.0), slots=(10, 10)):
    builder = ConferenceBuilder(PAPER_LADDER)
    for i in range(2):
        builder.add_agent(
            name=f"L{i}",
            download_mbps=download[i],
            upload_mbps=upload[i],
            transcode_slots=slots[i],
        )
    u0 = builder.user("720p", "360p", name="u0")
    u1 = builder.user("360p", "480p", name="u1")
    builder.add_session(u0, u1)
    return builder.build(inter_agent_ms=PAIR_D, agent_user_ms=PAIR_H)


class TestStructuralConstraints:
    def test_unassigned_user_reported(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        report = check_assignment(conf, Assignment.empty(conf))
        assert not report.ok
        assert any("constraint (1)" in v for v in report.violations)

    def test_invalid_agent_reported(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        bad = Assignment(np.array([0, 7]), np.zeros(0, dtype=np.int64))
        report = check_assignment(conf, bad)
        assert any("constraint (2)" in v for v in report.violations)

    def test_unassigned_task_reported(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        partial = Assignment(np.array([0, 1]), np.array([-1]))
        report = check_assignment(conf, partial)
        assert any("constraint (3)" in v for v in report.violations)


class TestCapacityConstraints:
    def test_feasible_within_caps(self):
        conf = capacity_conference()
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        assert is_feasible(conf, assignment)

    def test_download_violation(self):
        conf = capacity_conference(download=(3.0, 100.0))
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        report = check_assignment(conf, assignment)
        assert any("constraint (5)" in v for v in report.violations)

    def test_upload_violation(self):
        conf = capacity_conference(upload=(2.0, 100.0))
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        report = check_assignment(conf, assignment)
        assert any("constraint (6)" in v for v in report.violations)

    def test_transcode_violation(self):
        conf = capacity_conference(slots=(0, 10))
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        report = check_assignment(conf, assignment)
        assert any("constraint (7)" in v for v in report.violations)

    def test_delay_violation(self):
        conf = capacity_conference()
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        report = check_assignment(conf, assignment, dmax_ms=50.0)
        assert any("constraint (8)" in v for v in report.violations)

    def test_summary_renders(self):
        conf = capacity_conference(download=(3.0, 100.0))
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        report = check_assignment(conf, assignment)
        assert "violation" in report.summary()
        assert check_assignment(conf, Assignment(np.array([1, 1]), np.array([1]))).ok


class TestCapacityLedger:
    def test_totals_track_sessions(self):
        conf = capacity_conference()
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        ledger = ledger_from_assignment(conf, assignment)
        down, up, slots = ledger.totals()
        usage = compute_session_usage(conf, assignment, 0)
        assert np.allclose(down, usage.download)
        assert np.allclose(up, usage.upload)
        assert np.allclose(slots, usage.transcodes)

    def test_remove_session_returns_capacity(self):
        conf = capacity_conference()
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        ledger = ledger_from_assignment(conf, assignment)
        ledger.remove_session(0)
        down, up, slots = ledger.totals()
        assert down.sum() == 0 and up.sum() == 0 and slots.sum() == 0

    def test_residuals_excluding_session(self):
        conf = capacity_conference()
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        ledger = ledger_from_assignment(conf, assignment)
        res_down_all, _, _ = ledger.residuals()
        res_down_excl, _, _ = ledger.residuals(excluding_sid=0)
        assert (res_down_excl >= res_down_all).all()
        assert res_down_excl[0] == pytest.approx(100.0)

    def test_fits_respects_other_sessions(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0", download_mbps=12.0)
        builder.add_agent(name="L1")
        users = [builder.user("720p", "720p", name=f"u{i}") for i in range(4)]
        builder.add_session(users[0], users[1])
        builder.add_session(users[2], users[3])
        conf = builder.build(
            inter_agent_ms=PAIR_D, agent_user_ms=np.full((2, 4), 10.0)
        )
        assignment = Assignment(np.array([0, 0, 0, 0]), np.zeros(0, dtype=np.int64))
        ledger = ledger_from_assignment(conf, assignment)
        # L0 download = 4 * 5 = 20 > 12: session 1's own usage cannot fit.
        assert not ledger.fits(compute_session_usage(conf, assignment, 1))
        moved = Assignment(np.array([0, 0, 1, 1]), np.zeros(0, dtype=np.int64))
        assert ledger.fits(compute_session_usage(conf, moved, 1))

    def test_unconstrained_flag(self):
        unconstrained = build_pair_conference("720p", "480p", "480p", "720p")
        assert CapacityLedger(unconstrained).unconstrained
        assert not CapacityLedger(capacity_conference()).unconstrained

    def test_unknown_session_raises(self):
        ledger = CapacityLedger(capacity_conference())
        with pytest.raises(ModelError):
            ledger.session_usage(3)

    def test_utilization(self):
        conf = capacity_conference()
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        ledger = ledger_from_assignment(conf, assignment)
        utilization = ledger.utilization()
        assert 0.0 < utilization["download"][0] <= 1.0
