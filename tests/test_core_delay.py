"""Tests for repro.core.delay — hand-computed end-to-end delays.

Geometry: D(L0,L1)=20; H[L0,u0]=10, H[L1,u0]=25, H[L0,u1]=30, H[L1,u1]=8.
Reference transcoding latency (speed 1.0) for 720p->480p:
24 + 1.6*5 + 2.4*2.5 = 38 ms.
"""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.delay import (
    average_conferencing_delay,
    delay_violations,
    flow_delay,
    max_session_flow_delay,
    session_delay_cost,
    session_user_delays,
)
from repro.errors import ModelError, UnknownEntityError
from repro.runtime.faults import Fault, apply_faults
from repro.types import UNASSIGNED
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference
from tests.conftest import build_pair_conference

SIGMA_720_480 = 38.0


class TestUntranscodedFlow:
    @pytest.fixture()
    def conf(self):
        return build_pair_conference("720p", "480p", "480p", "720p")

    def test_direct_path(self, conf):
        assignment = Assignment(np.array([0, 1]), np.zeros(0, dtype=np.int64))
        # u0 -> u1: H[L0,u0] + D + H[L1,u1] = 10 + 20 + 8.
        assert flow_delay(conf, assignment, 0, 1) == pytest.approx(38.0)
        assert flow_delay(conf, assignment, 1, 0) == pytest.approx(38.0)

    def test_same_agent_no_inter_hop(self, conf):
        assignment = Assignment(np.array([0, 0]), np.zeros(0, dtype=np.int64))
        # u0 -> u1: 10 + 0 + 30.
        assert flow_delay(conf, assignment, 0, 1) == pytest.approx(40.0)

    def test_requires_same_session_distinct_users(self, conf):
        assignment = Assignment(np.array([0, 1]), np.zeros(0, dtype=np.int64))
        with pytest.raises(ModelError):
            flow_delay(conf, assignment, 0, 0)


class TestTranscodedFlow:
    @pytest.fixture()
    def conf(self):
        return build_pair_conference("720p", "360p", "360p", "480p")

    def test_transcode_at_source_agent(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        # 10 + D(L0,L0) + D(L0,L1) + sigma + 8 = 10 + 0 + 20 + 38 + 8.
        assert flow_delay(conf, assignment, 0, 1) == pytest.approx(76.0)

    def test_transcode_at_destination_agent(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([1]))
        # 10 + D(L0,L1) + D(L1,L1) + sigma + 8.
        assert flow_delay(conf, assignment, 0, 1) == pytest.approx(76.0)

    def test_tertiary_round_trip(self, conf):
        """Users co-located on L0 but task on L1: the stream pays the
        round trip 2 * D, matching the paper's D_lk (lambda_ku +
        lambda_kv) term."""
        assignment = Assignment(np.array([0, 0]), np.array([1]))
        # H[L0,u0] + D + D + sigma + H[L0,u1] = 10 + 20 + 20 + 38 + 30.
        assert flow_delay(conf, assignment, 0, 1) == pytest.approx(118.0)

    def test_untranscoded_reverse_flow_unaffected(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        # u1 -> u0 raw: 8 + 20 + 10.
        assert flow_delay(conf, assignment, 1, 0) == pytest.approx(38.0)

    def test_faster_agent_reduces_delay(self):
        conf = build_pair_conference(
            "720p", "360p", "360p", "480p", agent_speeds=(2.0, 1.0)
        )
        fast = Assignment(np.array([0, 1]), np.array([0]))
        slow = Assignment(np.array([0, 1]), np.array([1]))
        assert flow_delay(conf, fast, 0, 1) < flow_delay(conf, slow, 0, 1)


class TestAggregates:
    @pytest.fixture()
    def conf(self):
        return build_pair_conference("720p", "360p", "360p", "480p")

    def test_per_user_worst_incoming(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        delays = session_user_delays(conf, assignment, 0)
        assert delays[1] == pytest.approx(76.0)  # receives the transcoded flow
        assert delays[0] == pytest.approx(38.0)  # receives u1's raw flow

    def test_session_delay_cost_is_mean(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        assert session_delay_cost(conf, assignment, 0) == pytest.approx(57.0)

    def test_max_flow_delay(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        assert max_session_flow_delay(conf, assignment, 0) == pytest.approx(76.0)

    def test_average_conferencing_delay(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        assert average_conferencing_delay(conf, assignment) == pytest.approx(57.0)

    def test_delay_violations_against_cap(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        assert delay_violations(conf, assignment, 0) == []  # Dmax = 400
        violations = delay_violations(conf, assignment, 0, dmax_ms=50.0)
        assert (0, 1, pytest.approx(76.0)) in [
            (s, d, v) for s, d, v in violations
        ]
        assert len(violations) == 1


def per_flow_average(conference, assignment, sids=None) -> float:
    """The metric straight from its definition: the per-flow
    :func:`session_user_delays` of each session, users in order."""
    if sids is None:
        sids = range(conference.num_sessions)
    values = []
    for sid in sids:
        values.extend(session_user_delays(conference, assignment, sid).values())
    return float(np.mean(values))


def random_assignment(conference, rng) -> Assignment:
    return Assignment(
        rng.integers(0, conference.num_agents, conference.num_users),
        rng.integers(0, conference.num_agents, conference.theta_sum),
    )


def conference_draws():
    params = ScenarioParams(num_user_sites=64, num_users=40)
    draws = [scenario_conference(seed=seed, params=params) for seed in (1, 2)]
    draws.append(prototype_conference(seed=4))
    # Substrate views under every fault kind (masked, scaled, degraded).
    draws.append(
        apply_faults(
            draws[2],
            [
                Fault(kind="outage", site=1, start_s=0.0, end_s=1.0),
                Fault(kind="latency", site=2, start_s=0.0, end_s=1.0, severity=0.7),
                Fault(kind="capacity", site=3, start_s=0.0, end_s=1.0),
            ],
        )
    )
    draws.append(
        apply_faults(
            draws[0], [Fault(kind="latency", site=0, start_s=0.0, end_s=1.0, severity=2.0)]
        )
    )
    return draws


class TestAverageConferencingDelayExact:
    """The array evaluation equals the per-flow definition bit for bit
    (``==``, not approx): delays are summed in the same order and the
    users enter the mean in the same order."""

    @pytest.fixture(scope="class")
    def draws(self):
        return conference_draws()

    def test_all_sessions(self, draws):
        rng = np.random.default_rng(0)
        for conference in draws:
            assert conference.theta_sum > 0
            for _ in range(5):
                assignment = random_assignment(conference, rng)
                expected = per_flow_average(conference, assignment)
                assert average_conferencing_delay(conference, assignment) == expected
                assert (
                    average_conferencing_delay(
                        conference, assignment, range(conference.num_sessions)
                    )
                    == expected
                )

    def test_session_subsets_orders_and_duplicates(self, draws):
        rng = np.random.default_rng(1)
        for conference in draws:
            assignment = random_assignment(conference, rng)
            count = conference.num_sessions
            subsets = [
                [0],
                [count - 1],
                sorted(rng.choice(count, 3, replace=False).tolist()),
                rng.permutation(count).tolist(),
                [2, 0, 2, 1, 0],
                iter([1, 0]),
            ]
            for sids in subsets:
                sids = list(sids)
                assert average_conferencing_delay(
                    conference, assignment, sids
                ) == per_flow_average(conference, assignment, sids)

    def test_matches_per_flow_on_solver_states(self, small_scenario_conf):
        """Feasible nearest-agent states, as the simulator samples them."""
        from repro.core.nearest import nearest_assignment

        sids = list(range(small_scenario_conf.num_sessions))
        assignment = nearest_assignment(small_scenario_conf, sids)
        assert average_conferencing_delay(
            small_scenario_conf, assignment, sids
        ) == per_flow_average(small_scenario_conf, assignment, sids)

    def test_unassigned_endpoint_raises(self, draws):
        conference = draws[2]
        assignment = random_assignment(conference, np.random.default_rng(2))
        user = conference.session(1).user_ids[0]
        broken = assignment.with_user(user, UNASSIGNED)
        with pytest.raises(ModelError, match="endpoints"):
            average_conferencing_delay(conference, broken, [1])
        # Sessions that do not touch the user still evaluate.
        assert average_conferencing_delay(conference, broken, [0]) == (
            per_flow_average(conference, broken, [0])
        )

    def test_unassigned_transcoding_task_raises(self, draws):
        conference = draws[2]
        assignment = random_assignment(conference, np.random.default_rng(3))
        sid = next(
            s for s in range(conference.num_sessions)
            if conference.session_pair_indices(s)
        )
        pair = conference.session_pair_indices(sid)[0]
        broken = assignment.with_task(pair, UNASSIGNED)
        with pytest.raises(ModelError, match="unassigned"):
            average_conferencing_delay(conference, broken, [sid])

    def test_no_sessions_raises(self, draws):
        conference = draws[2]
        assignment = random_assignment(conference, np.random.default_rng(4))
        with pytest.raises(ModelError, match="no active sessions"):
            average_conferencing_delay(conference, assignment, [])

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_unknown_session_raises(self, draws, bad):
        conference = draws[2]
        assignment = random_assignment(conference, np.random.default_rng(5))
        with pytest.raises(UnknownEntityError, match="unknown session"):
            average_conferencing_delay(conference, assignment, [0, bad])
