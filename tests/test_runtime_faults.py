"""Tests for repro.runtime.faults — timed-window fault injection."""

import numpy as np
import pytest

from repro.core.feasibility import check_assignment, is_feasible
from repro.core.markov import MarkovConfig
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.errors import SimulationError
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.faults import (
    FAULT_KINDS,
    OUTAGE_DELAY_MS,
    Fault,
    FaultSchedule,
    all_sites_outaged_window,
    apply_faults,
    outaged_sites,
    stranded_sessions,
)
from repro.runtime.simulation import ConferencingSimulator, SimulationConfig
from repro.workloads.prototype import prototype_conference


@pytest.fixture(scope="module")
def evaluator():
    conference = prototype_conference(seed=3, num_sessions=4)
    return ObjectiveEvaluator(
        conference, ObjectiveWeights.normalized_for(conference)
    )


def quick_config(**overrides):
    defaults = dict(
        duration_s=40.0,
        sample_interval_s=2.0,
        hop_interval_mean_s=4.0,
        markov=MarkovConfig(beta=32.0),
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def run_sim(evaluator, faults=None, **config):
    conference = evaluator.conference
    return ConferencingSimulator(
        evaluator,
        DynamicsSchedule.static(range(conference.num_sessions)),
        quick_config(**config),
        faults=faults,
    ).run()


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown"):
            Fault(kind="meteor", site=0, start_s=0.0, end_s=1.0)

    def test_negative_site_rejected(self):
        with pytest.raises(SimulationError, match="site"):
            Fault(kind="outage", site=-1, start_s=0.0, end_s=1.0)

    def test_window_must_be_forward(self):
        with pytest.raises(SimulationError, match="end > start"):
            Fault(kind="outage", site=0, start_s=2.0, end_s=2.0)
        with pytest.raises(SimulationError, match=">= 0"):
            Fault(kind="outage", site=0, start_s=-1.0, end_s=1.0)

    def test_capacity_severity_bounds(self):
        with pytest.raises(SimulationError, match="severity"):
            Fault(kind="capacity", site=0, start_s=0.0, end_s=1.0, severity=1.5)
        with pytest.raises(SimulationError, match="severity"):
            Fault(kind="capacity", site=0, start_s=0.0, end_s=1.0, severity=0.0)

    def test_latency_severity_positive(self):
        with pytest.raises(SimulationError, match="severity"):
            Fault(kind="latency", site=0, start_s=0.0, end_s=1.0, severity=0.0)
        # > 1 is fine for latency: delay scales by (1 + severity).
        Fault(kind="latency", site=0, start_s=0.0, end_s=1.0, severity=3.0)

    def test_schedule_policy_validated(self):
        with pytest.raises(SimulationError, match="policy"):
            FaultSchedule(policy="pray")


class TestCanonicalOrdering:
    def test_declaration_order_never_matters(self):
        a = Fault(kind="outage", site=2, start_s=5.0, end_s=9.0)
        b = Fault(kind="latency", site=0, start_s=1.0, end_s=3.0)
        c = Fault(kind="capacity", site=1, start_s=1.0, end_s=3.0)
        forward = FaultSchedule(faults=(a, b, c))
        backward = FaultSchedule(faults=(c, b, a))
        assert forward == backward
        assert forward.faults[0].start_s == 1.0

    def test_transitions_end_before_start_at_shared_instant(self):
        """Back-to-back windows on one site: the recovery applies before
        the next fault, so the site is never doubly faulted."""
        schedule = FaultSchedule(
            faults=(
                Fault(kind="outage", site=0, start_s=2.0, end_s=5.0),
                Fault(kind="outage", site=0, start_s=5.0, end_s=8.0),
            )
        )
        transitions = schedule.transitions()
        at_five = [phase for time_s, phase, _ in transitions if time_s == 5.0]
        assert at_five == ["end", "start"]

    def test_transitions_sorted_by_time(self):
        schedule = FaultSchedule(
            faults=(
                Fault(kind="latency", site=1, start_s=6.0, end_s=9.0),
                Fault(kind="outage", site=0, start_s=1.0, end_s=4.0),
            )
        )
        times = [time_s for time_s, _, _ in schedule.transitions()]
        assert times == sorted(times)


class TestChaosGenerator:
    def test_same_seed_same_schedule(self):
        kwargs = dict(
            num_sites=6, duration_s=100.0, rate_per_s=0.2, seed=11
        )
        assert FaultSchedule.chaos(**kwargs) == FaultSchedule.chaos(**kwargs)

    def test_different_seeds_differ(self):
        a = FaultSchedule.chaos(
            num_sites=6, duration_s=100.0, rate_per_s=0.2, seed=1
        )
        b = FaultSchedule.chaos(
            num_sites=6, duration_s=100.0, rate_per_s=0.2, seed=2
        )
        assert a != b

    def test_rate_zero_is_empty(self):
        schedule = FaultSchedule.chaos(
            num_sites=4, duration_s=50.0, rate_per_s=0.0, seed=0
        )
        assert len(schedule) == 0

    def test_starts_within_horizon(self):
        schedule = FaultSchedule.chaos(
            num_sites=4, duration_s=60.0, rate_per_s=0.5, seed=3
        )
        assert len(schedule) > 0
        assert all(f.start_s < 60.0 for f in schedule.faults)
        assert all(f.kind in FAULT_KINDS for f in schedule.faults)

    def test_kind_restriction(self):
        schedule = FaultSchedule.chaos(
            num_sites=4,
            duration_s=60.0,
            rate_per_s=0.5,
            kinds=("latency",),
            seed=3,
        )
        assert all(f.kind == "latency" for f in schedule.faults)

    def test_never_generates_all_sites_dead(self):
        """Even a single-site topology under heavy outage chaos keeps a
        live site at every instant (the degenerate draw is skipped)."""
        schedule = FaultSchedule.chaos(
            num_sites=2,
            duration_s=200.0,
            rate_per_s=1.0,
            mean_duration_s=50.0,
            kinds=("outage",),
            seed=7,
        )
        assert all_sites_outaged_window(schedule.faults, 2) is None

    def test_bad_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown"):
            FaultSchedule.chaos(
                num_sites=4, duration_s=10.0, rate_per_s=0.1, kinds=("x",)
            )


class TestAllSitesOutagedWindow:
    def test_detects_full_overlap(self):
        faults = [
            Fault(kind="outage", site=s, start_s=2.0, end_s=10.0)
            for s in range(3)
        ]
        assert all_sites_outaged_window(faults, 3) == (2.0, 10.0)

    def test_staggered_windows_pass(self):
        faults = [
            Fault(kind="outage", site=0, start_s=0.0, end_s=5.0),
            Fault(kind="outage", site=1, start_s=5.0, end_s=10.0),
        ]
        assert all_sites_outaged_window(faults, 2) is None

    def test_non_outage_kinds_ignored(self):
        faults = [
            Fault(kind="latency", site=s, start_s=0.0, end_s=10.0)
            for s in range(2)
        ]
        assert all_sites_outaged_window(faults, 2) is None


class TestApplyFaults:
    def test_empty_faults_is_identity(self, evaluator):
        conference = evaluator.conference
        assert apply_faults(conference, []) is conference

    def test_outage_masks_site_and_keeps_pristine(self, evaluator):
        conference = evaluator.conference
        d_before = conference.topology.inter_agent_ms.copy()
        h_before = conference.topology.agent_user_ms.copy()
        view = apply_faults(
            conference,
            [Fault(kind="outage", site=1, start_s=0.0, end_s=1.0)],
        )
        d = view.topology.inter_agent_ms
        assert (d[1, :2] == [OUTAGE_DELAY_MS, 0.0]).all()
        assert (d[2:, 1] == OUTAGE_DELAY_MS).all()
        assert (view.topology.agent_user_ms[1, :] == OUTAGE_DELAY_MS).all()
        # The pristine conference (and its cached arrays) are untouched.
        assert np.array_equal(conference.topology.inter_agent_ms, d_before)
        assert np.array_equal(conference.topology.agent_user_ms, h_before)

    def test_latency_scales_symmetrically(self, evaluator):
        conference = evaluator.conference
        view = apply_faults(
            conference,
            [Fault(kind="latency", site=0, start_s=0.0, end_s=1.0, severity=1.0)],
        )
        d0 = conference.topology.inter_agent_ms
        d1 = view.topology.inter_agent_ms
        assert d1[0, 3] == pytest.approx(2.0 * d0[0, 3])
        assert d1[3, 0] == pytest.approx(2.0 * d0[3, 0])
        assert d1[0, 0] == 0.0
        assert np.array_equal(d1[2, 3:], d0[2, 3:])

    def test_capacity_scales_agent(self, evaluator):
        conference = evaluator.conference
        view = apply_faults(
            conference,
            [Fault(kind="capacity", site=2, start_s=0.0, end_s=1.0, severity=0.5)],
        )
        before = conference.agents[2]
        after = view.agents[2]
        if np.isfinite(before.upload_mbps):
            assert after.upload_mbps == pytest.approx(0.5 * before.upload_mbps)
        else:
            assert not np.isfinite(after.upload_mbps)

    def test_full_capacity_loss_of_infinite_agent_is_zero(self, evaluator):
        """inf * 0 is NaN; a total capacity fault must yield exactly 0."""
        conference = evaluator.conference
        view = apply_faults(
            conference,
            [Fault(kind="capacity", site=0, start_s=0.0, end_s=1.0, severity=1.0)],
        )
        assert view.agents[0].upload_mbps == 0.0
        assert view.agents[0].transcode_slots == 0.0

    def test_unknown_site_rejected(self, evaluator):
        with pytest.raises(SimulationError, match="does not exist"):
            apply_faults(
                evaluator.conference,
                [Fault(kind="outage", site=99, start_s=0.0, end_s=1.0)],
            )


class TestStrandedSessions:
    def test_outaged_sites_collects_outages_only(self):
        faults = [
            Fault(kind="outage", site=1, start_s=0.0, end_s=1.0),
            Fault(kind="latency", site=2, start_s=0.0, end_s=1.0),
        ]
        assert outaged_sites(faults) == frozenset({1})

    def test_session_on_dead_site_is_stranded(self, evaluator):
        from repro.core.nearest import nearest_assignment

        conference = evaluator.conference
        sids = list(range(conference.num_sessions))
        assignment = nearest_assignment(conference, sids)
        uid = conference.sessions[0].user_ids[0]
        dead = frozenset({int(assignment.user_agent[uid])})
        assert 0 in stranded_sessions(conference, assignment, sids, dead)
        assert stranded_sessions(conference, assignment, sids, frozenset()) == []


class TestSimulatorFaultInjection:
    def test_empty_schedule_matches_no_faults(self, evaluator):
        """A present-but-empty schedule draws nothing extra from the rng
        and records an identical trajectory."""
        plain = run_sim(evaluator, faults=None)
        empty = run_sim(evaluator, faults=FaultSchedule())
        assert np.array_equal(
            plain.series("traffic")[1], empty.series("traffic")[1]
        )
        assert np.array_equal(plain.series("phi")[1], empty.series("phi")[1])
        assert plain.final_assignment == empty.final_assignment
        assert plain.hops == empty.hops
        assert empty.faults_injected == 0
        assert empty.recovery_times == ()

    def test_seeded_fault_run_is_deterministic(self, evaluator):
        schedule = FaultSchedule(
            faults=(
                Fault(kind="outage", site=1, start_s=10.0, end_s=25.0),
                Fault(kind="latency", site=0, start_s=15.0, end_s=20.0),
            )
        )
        a = run_sim(evaluator, faults=schedule)
        b = run_sim(evaluator, faults=schedule)
        assert np.array_equal(a.series("phi")[1], b.series("phi")[1])
        assert a.final_assignment == b.final_assignment
        assert a.recovery_times == b.recovery_times
        assert a.faults_injected == b.faults_injected == 2

    def test_outage_counts_and_final_feasibility(self, evaluator):
        schedule = FaultSchedule(
            faults=(Fault(kind="outage", site=1, start_s=10.0, end_s=25.0),)
        )
        result = run_sim(evaluator, faults=schedule)
        assert result.faults_injected == 1
        assert is_feasible(evaluator.conference, result.final_assignment)

    def test_migrate_policy_clears_stranded_immediately(self, evaluator):
        """The recovery-deadline property: under the migrate policy no
        sampled instant shows a session on an outaged site, for any
        seeded random outage plan."""
        rng = np.random.default_rng(17)
        for _ in range(3):
            start = float(rng.uniform(4.0, 18.0))
            schedule = FaultSchedule(
                faults=(
                    Fault(
                        kind="outage",
                        site=int(rng.integers(6)),
                        start_s=start,
                        end_s=start + float(rng.uniform(4.0, 15.0)),
                    ),
                ),
                policy="migrate",
            )
            result = run_sim(evaluator, faults=schedule)
            _, stranded = result.series("stranded")
            assert (stranded == 0).all()
            assert result.sessions_dropped == 0

    def test_drop_policy_removes_stranded(self, evaluator):
        schedule = FaultSchedule(
            faults=(Fault(kind="outage", site=0, start_s=8.0, end_s=30.0),),
            policy="drop",
        )
        result = run_sim(evaluator, faults=schedule)
        # Either nothing sat on site 0 (fine) or the stranded sessions
        # were removed rather than migrated.
        assert result.fault_migrations == 0
        _, stranded = result.series("stranded")
        assert (stranded == 0).all()

    def test_latency_spike_needs_no_recovery_policy(self, evaluator):
        schedule = FaultSchedule(
            faults=(
                Fault(
                    kind="latency",
                    site=2,
                    start_s=10.0,
                    end_s=20.0,
                    severity=2.0,
                ),
            ),
            policy="none",
        )
        result = run_sim(evaluator, faults=schedule)
        assert result.faults_injected == 1
        assert result.fault_migrations == 0
        assert result.sessions_dropped == 0

    def test_sla_samples_follow_check_assignment(self, evaluator, monkeypatch):
        """A sample counts toward ``sla_violation_s`` exactly when
        ``check_assignment`` reports a constraint (8) line for the active
        sessions on the current substrate view."""
        sample = ConferencingSimulator._sample_resilience
        verdicts = []

        def checked(simulator, active, now):
            before = simulator._sla_violation_s
            report = check_assignment(
                simulator._conference, simulator._live.assignment, active
            )
            sample(simulator, active, now)
            verdicts.append(
                (
                    simulator._sla_violation_s > before,
                    any(
                        line.startswith("constraint (8)")
                        for line in report.violations
                    ),
                )
            )

        monkeypatch.setattr(ConferencingSimulator, "_sample_resilience", checked)
        schedule = FaultSchedule(
            faults=(
                Fault(kind="latency", site=0, start_s=6.0, end_s=14.0, severity=20.0),
                Fault(kind="outage", site=3, start_s=20.0, end_s=30.0),
            ),
            policy="none",
        )
        result = run_sim(evaluator, faults=schedule)
        counted = [violating for violating, _ in verdicts]
        assert counted == [reported for _, reported in verdicts]
        assert 0 < sum(counted) < len(counted)
        assert result.sla_violation_s == sum(counted) * quick_config().sample_interval_s

    def test_faults_beyond_horizon_never_fire(self, evaluator):
        schedule = FaultSchedule(
            faults=(Fault(kind="outage", site=0, start_s=500.0, end_s=600.0),)
        )
        plain = run_sim(evaluator, faults=None)
        late = run_sim(evaluator, faults=schedule)
        assert late.faults_injected == 0
        assert np.array_equal(
            plain.series("traffic")[1], late.series("traffic")[1]
        )
