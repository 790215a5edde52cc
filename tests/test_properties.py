"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import box_stats
from repro.core.assignment import Assignment
from repro.core.costs import PiecewiseLinearCost, PowerCost
from repro.core.markov import hop_probabilities
from repro.core.theory import gibbs_distribution, uap_beta_optimum
from repro.model.builder import ConferenceBuilder
from repro.model.representation import PAPER_LADDER
from repro.netsim.geo import GeoPoint, great_circle_km
from repro.netsim.latency import LatencyModel
from repro.netsim.sites import region
from tests.flow_oracle import compute_session_usage, route_session_flows

REP_NAMES = ("360p", "480p", "720p", "1080p")


@st.composite
def small_conference(draw):
    """One session of 2-4 users over 2-3 agents with random demands."""
    num_agents = draw(st.integers(2, 3))
    num_users = draw(st.integers(2, 4))
    builder = ConferenceBuilder(PAPER_LADDER)
    for i in range(num_agents):
        builder.add_agent(name=f"L{i}")
    user_ids = []
    for _ in range(num_users):
        upstream = draw(st.sampled_from(REP_NAMES))
        downstream = draw(st.sampled_from(REP_NAMES))
        user_ids.append(builder.user(upstream=upstream, downstream=downstream))
    builder.add_session(*user_ids)
    d = np.full((num_agents, num_agents), 20.0)
    np.fill_diagonal(d, 0.0)
    h = np.full((num_agents, num_users), 10.0)
    return builder.build(inter_agent_ms=d, agent_user_ms=h)


@st.composite
def conference_with_assignment(draw):
    conf = draw(small_conference())
    user_agent = draw(
        st.lists(
            st.integers(0, conf.num_agents - 1),
            min_size=conf.num_users,
            max_size=conf.num_users,
        )
    )
    task_agent = draw(
        st.lists(
            st.integers(0, conf.num_agents - 1),
            min_size=conf.theta_sum,
            max_size=conf.theta_sum,
        )
    )
    return conf, Assignment(np.array(user_agent), np.array(task_agent, dtype=np.int64))


class TestTrafficInvariants:
    @given(conference_with_assignment())
    @settings(max_examples=60, deadline=None)
    def test_usage_nonnegative_and_balanced(self, pair):
        conf, assignment = pair
        usage = compute_session_usage(conf, assignment, 0)
        assert (usage.inter_in >= 0).all()
        assert (usage.inter_out >= 0).all()
        assert usage.inter_in.sum() == pytest.approx(usage.inter_out.sum())
        assert (usage.download >= usage.inter_in - 1e-12).all()
        assert (usage.upload >= usage.inter_out - 1e-12).all()

    @given(conference_with_assignment())
    @settings(max_examples=60, deadline=None)
    def test_transcode_count_bounds(self, pair):
        conf, assignment = pair
        usage = compute_session_usage(conf, assignment, 0)
        assert 0 <= usage.transcodes.sum() <= conf.theta_sum

    @given(conference_with_assignment())
    @settings(max_examples=60, deadline=None)
    def test_router_agrees_on_inter_totals_direction(self, pair):
        """Router and mu formula agree within the two documented quirks:
        their difference is bounded by theta_sum * max bitrate."""
        conf, assignment = pair
        mu_usage = compute_session_usage(conf, assignment, 0)
        plan = route_session_flows(conf, assignment, 0)
        bound = conf.theta_sum * PAPER_LADDER.max_bitrate * 2
        assert abs(plan.total_inter_agent_mbps - mu_usage.total_inter_agent_mbps) <= bound

    @given(conference_with_assignment())
    @settings(max_examples=60, deadline=None)
    def test_single_agent_assignment_zero_traffic(self, pair):
        conf, _ = pair
        uniform = Assignment.uniform(conf, 0)
        usage = compute_session_usage(conf, uniform, 0)
        assert usage.total_inter_agent_mbps == 0.0


class TestHopProbabilityInvariants:
    @given(
        st.floats(0.0, 10.0),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
        st.floats(0.1, 500.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_valid_distribution(self, phi, candidates, beta):
        probabilities = hop_probabilities(phi, np.array(candidates), beta)
        assert probabilities.sum() == pytest.approx(1.0)
        assert (probabilities >= 0).all()

    @given(
        st.lists(st.floats(0.0, 5.0), min_size=2, max_size=8, unique=True),
        st.floats(0.5, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_phi(self, candidates, beta):
        probabilities = hop_probabilities(1.0, np.array(candidates), beta)
        order = np.argsort(candidates)
        ordered = probabilities[order]
        assert all(a >= b - 1e-12 for a, b in zip(ordered, ordered[1:]))


class TestGibbsInvariants:
    @given(
        st.lists(st.floats(0.0, 20.0), min_size=2, max_size=20),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_eq10_sandwich(self, phis, beta):
        phis = np.array(phis)
        phi_hat = uap_beta_optimum(phis, beta)
        assert phis.min() - math.log(len(phis)) / beta - 1e-9 <= phi_hat
        assert phi_hat <= phis.min() + 1e-9

    @given(
        st.lists(st.floats(0.0, 20.0), min_size=2, max_size=20),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_gibbs_expected_phi_at_most_mean(self, phis, beta):
        """The Gibbs distribution never does worse than uniform sampling."""
        phis = np.array(phis)
        gibbs = gibbs_distribution(phis, beta)
        assert float(gibbs @ phis) <= phis.mean() + 1e-9


class TestCostConvexity:
    @given(
        st.floats(1.0, 3.0),
        st.floats(0.0, 50.0),
        st.floats(0.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_midpoint_convexity(self, exponent, x, y):
        cost = PowerCost(exponent=exponent)
        mid = (x + y) / 2.0
        assert cost(mid) <= 0.5 * (cost(x) + cost(y)) + 1e-6

    @given(
        st.lists(
            st.floats(0.1, 10.0), min_size=1, max_size=4
        ),
        st.lists(st.floats(0.0, 5.0), min_size=2, max_size=5),
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_piecewise_midpoint_convexity(self, gaps, raw_slopes, x, y):
        breakpoints = tuple(np.cumsum(gaps))
        slopes = tuple(sorted(raw_slopes))[: len(breakpoints) + 1]
        if len(slopes) != len(breakpoints) + 1:
            breakpoints = breakpoints[: len(slopes) - 1]
        cost = PiecewiseLinearCost(breakpoints=tuple(breakpoints), slopes=tuple(slopes))
        mid = (x + y) / 2.0
        assert cost(mid) <= 0.5 * (cost(x) + cost(y)) + 1e-6


class TestLatencyInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matrix_properties_for_any_seed(self, seed):
        regions = [region(n) for n in ("Virginia", "Tokyo", "Ireland")]
        d = LatencyModel(seed=seed).inter_agent_matrix(regions)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)
        assert (d[~np.eye(3, dtype=bool)] > 0).all()

    @given(
        st.floats(-80.0, 80.0),
        st.floats(-179.0, 179.0),
        st.floats(-80.0, 80.0),
        st.floats(-179.0, 179.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_great_circle_symmetric_nonnegative(self, lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        assert great_circle_km(a, b) >= 0.0
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a))


class TestBoxStatsInvariants:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_ordering_invariants(self, values):
        stats = box_stats(values)
        assert stats.minimum <= stats.lower_whisker <= stats.q1 + 1e-9
        assert stats.q1 <= stats.median <= stats.q3
        assert stats.q3 - 1e-9 <= stats.upper_whisker <= stats.maximum


class TestAssignmentInvariants:
    @given(conference_with_assignment())
    @settings(max_examples=50, deadline=None)
    def test_difference_is_metric_like(self, pair):
        conf, assignment = pair
        assert assignment.difference(assignment) == 0
        if conf.num_users:
            moved = assignment.with_user(0, (assignment.agent_of(0) + 1) % conf.num_agents)
            assert assignment.difference(moved) == 1
            assert moved.difference(assignment) == 1
