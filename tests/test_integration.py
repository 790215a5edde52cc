"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.core.bootstrap import bootstrap_assignment, try_bootstrap
from repro.core.feasibility import check_assignment, is_feasible
from repro.core.markov import MarkovAssignmentSolver, MarkovConfig
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.experiments.common import effective_beta


class TestPrototypePipeline:
    """Nrst -> Alg. 1 on the prototype: the Fig. 4 story end to end."""

    @pytest.fixture(scope="class")
    def outcome(self, proto_conf):
        evaluator = ObjectiveEvaluator(
            proto_conf, ObjectiveWeights.normalized_for(proto_conf)
        )
        initial = nearest_assignment(proto_conf)
        solver = MarkovAssignmentSolver(
            evaluator,
            initial,
            config=MarkovConfig(beta=effective_beta(400.0)),
            rng=np.random.default_rng(0),
        )
        solver.run_until_stable(max_hops=2000)
        return proto_conf, evaluator, initial, solver

    def test_traffic_reduction_substantial(self, outcome):
        conf, evaluator, initial, solver = outcome
        before = evaluator.total(initial).inter_agent_mbps
        after = evaluator.total(solver.best_assignment).inter_agent_mbps
        assert after < 0.4 * before  # the paper's headline is ~77 % at scale

    def test_delay_does_not_blow_up(self, outcome):
        conf, evaluator, initial, solver = outcome
        before = evaluator.total(initial).average_delay_ms
        after = evaluator.total(solver.best_assignment).average_delay_ms
        assert after < 1.15 * before

    def test_best_assignment_feasible(self, outcome):
        conf, _evaluator, _initial, solver = outcome
        report = check_assignment(conf, solver.best_assignment)
        assert report.ok, report.summary()

    def test_every_flow_within_dmax(self, outcome):
        conf, _evaluator, _initial, solver = outcome
        from tests.flow_oracle import max_session_flow_delay

        for sid in range(conf.num_sessions):
            assert (
                max_session_flow_delay(conf, solver.best_assignment, sid)
                <= conf.dmax_ms
            )


class TestAgRankPipeline:
    def test_agrank_beats_nearest_on_traffic(self, proto_conf):
        evaluator = ObjectiveEvaluator(
            proto_conf, ObjectiveWeights.normalized_for(proto_conf)
        )
        nrst = evaluator.total(nearest_assignment(proto_conf))
        agrank = evaluator.total(bootstrap_assignment(proto_conf, "agrank"))
        assert agrank.inter_agent_mbps < nrst.inter_agent_mbps

    def test_agrank_head_start_for_markov(self, proto_conf):
        """Bootstrapping with AgRank reaches a given objective with fewer
        hops than bootstrapping with Nrst (the Fig. 6 claim)."""
        evaluator = ObjectiveEvaluator(
            proto_conf, ObjectiveWeights.normalized_for(proto_conf)
        )
        budget = 120

        def best_phi_after(policy: str) -> float:
            initial = (
                nearest_assignment(proto_conf)
                if policy == "nearest"
                else bootstrap_assignment(proto_conf, "agrank")
            )
            solver = MarkovAssignmentSolver(
                evaluator,
                initial,
                config=MarkovConfig(beta=effective_beta(400.0)),
                rng=np.random.default_rng(1),
            )
            solver.run(budget)
            return solver.best_phi

        assert best_phi_after("agrank") <= best_phi_after("nearest") * 1.05


class TestScenarioPipeline:
    def test_small_scenario_full_stack(self, small_scenario_conf):
        conf = small_scenario_conf
        evaluator = ObjectiveEvaluator(
            conf, ObjectiveWeights.normalized_for(conf)
        )
        result = try_bootstrap(conf, "agrank")
        assert result.success
        solver = MarkovAssignmentSolver(
            evaluator,
            result.assignment,
            config=MarkovConfig(beta=effective_beta(400.0)),
            rng=np.random.default_rng(2),
        )
        solver.run_until_stable(max_hops=800)
        assert is_feasible(conf, solver.best_assignment)
        assert solver.best_phi <= evaluator.total(result.assignment).phi + 1e-9

    def test_alpha_tradeoff_direction(self, small_scenario_conf):
        """Traffic-only weights yield <= traffic and >= delay than
        delay-only weights (the Table II / Fig. 8 trade-off)."""
        conf = small_scenario_conf
        base = ObjectiveWeights.normalized_for(conf)
        initial = nearest_assignment(conf)

        def optimize(alphas):
            evaluator = ObjectiveEvaluator(conf, base.with_alphas(*alphas))
            solver = MarkovAssignmentSolver(
                evaluator,
                initial,
                config=MarkovConfig(beta=effective_beta(400.0)),
                rng=np.random.default_rng(3),
            )
            solver.run_until_stable(max_hops=600)
            report = ObjectiveEvaluator(conf, base).total(solver.best_assignment)
            return report.inter_agent_mbps, report.average_delay_ms

        traffic_t, delay_t = optimize((0.0, 1.0, 1.0))
        traffic_d, delay_d = optimize((1.0, 0.0, 0.0))
        assert traffic_t <= traffic_d
        assert delay_d <= delay_t
