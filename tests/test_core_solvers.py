"""Tests for nearest / bootstrap / exact / greedy / annealing solvers."""

import math

import numpy as np
import pytest

from repro.core.annealing import AnnealingConfig, simulated_annealing
from repro.core.assignment import Assignment
from repro.core.bootstrap import bootstrap_assignment, try_bootstrap
from repro.core.exact import enumerate_assignments, solve_exact, state_space_size
from repro.core.feasibility import is_feasible
from repro.core.greedy import greedy_descent
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.errors import InfeasibleError, SolverError
from repro.model.builder import ConferenceBuilder
from repro.model.representation import PAPER_LADDER
from tests.conftest import PAIR_D, PAIR_H, build_pair_conference


@pytest.fixture()
def conf():
    return build_pair_conference("720p", "360p", "360p", "480p")


@pytest.fixture()
def evaluator(conf):
    return ObjectiveEvaluator(conf, ObjectiveWeights.normalized_for(conf))


class TestNearest:
    def test_each_user_at_argmin_h(self, proto_conf):
        assignment = nearest_assignment(proto_conf)
        h = proto_conf.topology.agent_user_ms
        for uid in range(proto_conf.num_users):
            chosen = assignment.agent_of(uid)
            assert h[chosen, uid] == pytest.approx(h[:, uid].min())

    def test_tasks_at_source_agent(self, proto_conf):
        assignment = nearest_assignment(proto_conf)
        for i, (source, _dest) in enumerate(proto_conf.transcode_pairs):
            assert assignment.task_agent_of(i) == assignment.agent_of(source)

    def test_partial_sessions_with_base(self, proto_conf):
        base = Assignment.empty(proto_conf)
        partial = nearest_assignment(proto_conf, sids=[2], base=base)
        assert partial.is_session_assigned(proto_conf, 2)
        assert not partial.is_session_assigned(proto_conf, 0)


class TestBootstrap:
    def test_unknown_policy_rejected(self, proto_conf):
        with pytest.raises(SolverError):
            try_bootstrap(proto_conf, "random")

    def test_nearest_policy_success_unconstrained(self, proto_conf):
        result = try_bootstrap(proto_conf, "nearest")
        assert result.success
        assert is_feasible(proto_conf, result.assignment)

    def test_failure_reports_session(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0", download_mbps=1.0)
        builder.add_agent(name="L1", download_mbps=1.0)
        u0 = builder.user("720p", name="u0")
        u1 = builder.user("720p", name="u1")
        builder.add_session(u0, u1)
        conf = builder.build(inter_agent_ms=PAIR_D, agent_user_ms=PAIR_H)
        result = try_bootstrap(conf, "agrank")
        assert not result.success
        assert result.failed_sid == 0
        with pytest.raises(InfeasibleError):
            bootstrap_assignment(conf, "agrank")

    def test_verdict_is_capacity_only(self):
        """With a tiny Dmax every assignment violates (8); the bootstrap's
        capacity-only verdict (the Fig. 9 notion) still succeeds."""
        builder = ConferenceBuilder(PAPER_LADDER, dmax_ms=5.0)
        builder.add_agent(name="L0")
        builder.add_agent(name="L1")
        u0 = builder.user("720p", name="u0")
        u1 = builder.user("720p", name="u1")
        builder.add_session(u0, u1)
        conf = builder.build(inter_agent_ms=PAIR_D, agent_user_ms=PAIR_H)
        result = try_bootstrap(conf, "nearest")
        assert result.success
        assert not is_feasible(conf, result.assignment)
        assert is_feasible(conf, result.assignment, dmax_ms=math.inf)


class TestExact:
    def test_state_space_size(self, conf):
        assert state_space_size(conf) == 2 ** 3

    def test_enumeration_counts_feasible(self, conf):
        feasible = list(enumerate_assignments(conf))
        assert len(feasible) == 8  # unconstrained toy-like instance

    def test_enumeration_respects_cap(self, conf):
        with pytest.raises(SolverError):
            list(enumerate_assignments(conf, max_states=4))

    def test_optimum_is_minimal(self, conf, evaluator):
        exact = solve_exact(evaluator)
        for assignment in enumerate_assignments(conf):
            assert evaluator.total(assignment).phi >= exact.phi - 1e-12

    def test_no_feasible_raises(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0", download_mbps=1.0)
        u0 = builder.user("720p", name="u0")
        u1 = builder.user("720p", name="u1")
        builder.add_session(u0, u1)
        conf = builder.build(
            inter_agent_ms=np.zeros((1, 1)), agent_user_ms=np.full((1, 2), 5.0)
        )
        evaluator = ObjectiveEvaluator(conf, ObjectiveWeights.raw())
        with pytest.raises(SolverError):
            solve_exact(evaluator)


class TestGreedy:
    def test_reaches_local_optimum(self, conf, evaluator):
        result = greedy_descent(evaluator, nearest_assignment(conf))
        assert result.converged
        # No single move improves further.
        from repro.core.search import SearchContext

        context = SearchContext(evaluator, result.assignment)
        phi = context.session_cost(0).phi
        for candidate in context.feasible_candidates(0):
            assert candidate.phi >= phi - 1e-12

    def test_stuck_in_local_optimum_markov_escapes(self, conf, evaluator):
        """The fixture landscape traps best-improvement descent at
        phi = 3.95 while the global optimum is 3.6 — the motivation for
        the Markov chain's ability to take uphill hops."""
        exact = solve_exact(evaluator)
        result = greedy_descent(evaluator, nearest_assignment(conf))
        assert result.converged
        assert result.phi > exact.phi + 0.1
        assert result.phi == pytest.approx(3.95, abs=1e-9)

    def test_never_worsens(self, proto_conf):
        evaluator = ObjectiveEvaluator(
            proto_conf, ObjectiveWeights.normalized_for(proto_conf)
        )
        initial = nearest_assignment(proto_conf)
        initial_phi = evaluator.total(initial).phi
        result = greedy_descent(evaluator, initial, max_iterations=200)
        assert result.phi <= initial_phi + 1e-9


class TestAnnealing:
    def test_config_validation(self):
        with pytest.raises(SolverError):
            AnnealingConfig(initial_temperature=0.0)
        with pytest.raises(SolverError):
            AnnealingConfig(decay=1.0)
        with pytest.raises(SolverError):
            AnnealingConfig(hops=0)

    def test_temperature_schedule(self):
        config = AnnealingConfig(initial_temperature=1.0, decay=0.5, final_temperature=0.1)
        assert config.temperature(0) == 1.0
        assert config.temperature(1) == 0.5
        assert config.temperature(10) == pytest.approx(0.1)  # floored

    def test_finds_toy_optimum(self, conf, evaluator):
        exact = solve_exact(evaluator)
        result = simulated_annealing(
            evaluator,
            nearest_assignment(conf),
            config=AnnealingConfig(hops=300),
            rng=np.random.default_rng(0),
        )
        assert result.phi == pytest.approx(exact.phi)
        assert result.accepted <= result.proposed

    def test_best_state_is_feasible(self, conf, evaluator):
        result = simulated_annealing(
            evaluator,
            nearest_assignment(conf),
            config=AnnealingConfig(hops=100),
            rng=np.random.default_rng(1),
        )
        assert is_feasible(conf, result.assignment)
        assert math.isfinite(result.phi)
