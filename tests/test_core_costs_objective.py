"""Tests for repro.core.costs and repro.core.objective."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.bootstrap import bootstrap_assignment
from repro.core.costs import (
    LinearCost,
    PiecewiseLinearCost,
    PowerCost,
    uniform_costs,
    validate_cost_vector,
)
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.errors import ModelError
from repro.workloads.prototype import prototype_conference
from tests.conftest import build_pair_conference


class TestCostFunctions:
    def test_linear(self):
        assert LinearCost(2.0)(3.0) == 6.0
        assert LinearCost()(3.0) == 3.0

    def test_linear_rejects_negative_rate(self):
        with pytest.raises(ModelError):
            LinearCost(-1.0)

    def test_power_convex_increasing(self):
        cost = PowerCost(coefficient=1.0, exponent=1.5)
        assert cost(4.0) > cost(2.0)
        # midpoint convexity
        assert cost(3.0) <= 0.5 * (cost(2.0) + cost(4.0)) + 1e-12

    def test_power_rejects_concave_exponent(self):
        with pytest.raises(ModelError):
            PowerCost(exponent=0.5)

    def test_piecewise_tiers(self):
        cost = PiecewiseLinearCost(breakpoints=(10.0,), slopes=(1.0, 2.0))
        assert cost(5.0) == 5.0
        assert cost(10.0) == 10.0
        assert cost(15.0) == 10.0 + 2.0 * 5.0

    def test_piecewise_requires_nondecreasing_slopes(self):
        with pytest.raises(ModelError):
            PiecewiseLinearCost(breakpoints=(10.0,), slopes=(2.0, 1.0))

    def test_piecewise_shape_validation(self):
        with pytest.raises(ModelError):
            PiecewiseLinearCost(breakpoints=(10.0,), slopes=(1.0,))
        with pytest.raises(ModelError):
            PiecewiseLinearCost(breakpoints=(10.0, 5.0), slopes=(1.0, 2.0, 3.0))

    def test_uniform_costs_and_validation(self):
        costs = uniform_costs(3)
        validate_cost_vector(costs, 3)
        with pytest.raises(ModelError):
            validate_cost_vector(costs, 4)


class TestObjectiveWeights:
    def test_rejects_all_zero(self):
        with pytest.raises(ModelError):
            ObjectiveWeights(alpha1=0, alpha2=0, alpha3=0)

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            ObjectiveWeights(alpha1=-1)

    def test_raw_has_unit_scales(self):
        weights = ObjectiveWeights.raw()
        assert weights.delay_scale == 1.0
        assert weights.traffic_scale == 1.0

    def test_normalized_scales(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        weights = ObjectiveWeights.normalized_for(conf)
        # Delay scale = mean off-diagonal inter-agent delay (20 ms here).
        assert weights.delay_scale == pytest.approx(20.0)
        # Traffic scale = session source bitrate (5 + 1 = 6 Mbps).
        assert weights.traffic_scale == pytest.approx(6.0)
        assert weights.transcode_scale == pytest.approx(1.0)

    def test_with_alphas_keeps_scales(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        weights = ObjectiveWeights.normalized_for(conf)
        swapped = weights.with_alphas(0.0, 1.0, 1.0)
        assert swapped.alpha1 == 0.0
        assert swapped.delay_scale == weights.delay_scale


class TestObjectiveEvaluator:
    @pytest.fixture()
    def conf(self):
        return build_pair_conference("720p", "360p", "360p", "480p")

    def test_session_cost_components(self, conf):
        evaluator = ObjectiveEvaluator(conf, ObjectiveWeights.raw())
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        cost = evaluator.session_cost(assignment, 0)
        assert cost.delay_cost_ms == pytest.approx(57.0)  # from delay tests
        assert cost.traffic_cost == pytest.approx(3.5)  # 2.5 + 1.0 crossing
        assert cost.transcode_cost == pytest.approx(1.0)
        assert cost.phi == pytest.approx(57.0 + 3.5 + 1.0)

    def test_alpha_weighting(self, conf):
        weights = ObjectiveWeights.raw(alpha1=2.0, alpha2=0.0, alpha3=0.0)
        evaluator = ObjectiveEvaluator(conf, weights)
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        assert evaluator.session_phi(assignment, 0) == pytest.approx(114.0)

    def test_total_aggregates(self, conf):
        evaluator = ObjectiveEvaluator(conf, ObjectiveWeights.raw())
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        total = evaluator.total(assignment)
        assert total.inter_agent_mbps == pytest.approx(3.5)
        assert total.average_delay_ms == pytest.approx(57.0)
        assert total.transcode_tasks == 1.0

    def test_custom_convex_costs_change_g(self, conf):
        quadratic = [PowerCost(exponent=2.0)] * conf.num_agents
        evaluator = ObjectiveEvaluator(
            conf, ObjectiveWeights.raw(), bandwidth_costs=quadratic
        )
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        cost = evaluator.session_cost(assignment, 0)
        # inter_in = [1.0, 2.5] -> 1 + 6.25.
        assert cost.traffic_cost == pytest.approx(7.25)

    def test_with_weights_shares_costs(self, conf):
        evaluator = ObjectiveEvaluator(conf, ObjectiveWeights.raw())
        other = evaluator.with_weights(ObjectiveWeights.raw(alpha1=0.0))
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        assert other.session_phi(assignment, 0) == pytest.approx(4.5)

    def test_cost_vector_length_validated(self, conf):
        with pytest.raises(ModelError):
            ObjectiveEvaluator(
                conf, ObjectiveWeights.raw(), bandwidth_costs=[LinearCost()]
            )

    def test_total_requires_sessions(self, conf):
        evaluator = ObjectiveEvaluator(conf, ObjectiveWeights.raw())
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        with pytest.raises(ModelError):
            evaluator.total(assignment, sids=[])

    def test_session_cost_rejects_unassigned_decision(self):
        """An unassigned user is an error, not a charge to agent L - 1
        (index -1)."""
        conf = prototype_conference(seed=1)
        assignment = bootstrap_assignment(conf, "nearest")
        broken = assignment.with_user(conf.session(0).user_ids[0], -1)
        evaluator = ObjectiveEvaluator(conf, ObjectiveWeights.normalized_for(conf))
        with pytest.raises(ModelError, match="unassigned"):
            evaluator.session_cost(broken, 0)
        with pytest.raises(ModelError, match="unassigned"):
            evaluator.total(broken)
