"""Tests for repro.core.fastpath — agreement with the reference
implementations on every workload the suite touches: usage bit for bit
(the search layer's ledger relies on it), delays approximately (see
``tests/kernel_oracle.py`` for why)."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.delay import session_delay_cost, session_user_delays
from repro.core.fastpath import ConferenceProfile, profile_for
from repro.core.nearest import nearest_assignment
from repro.core.traffic import compute_session_usage
from repro.workloads.scenarios import ScenarioParams, scenario_conference
from tests.conftest import build_pair_conference
from tests.kernel_oracle import USAGE_FIELDS


def random_assignment(conf, rng):
    return Assignment(
        rng.integers(0, conf.num_agents, conf.num_users),
        rng.integers(0, conf.num_agents, conf.theta_sum),
    )


class TestUsageEquivalence:
    def test_matches_reference_on_prototype(self, proto_conf, rng):
        profile = ConferenceProfile(proto_conf)
        for _ in range(5):
            assignment = random_assignment(proto_conf, rng)
            for sid in range(proto_conf.num_sessions):
                ref = compute_session_usage(proto_conf, assignment, sid)
                fast = profile.session_usage(
                    assignment.user_agent, assignment.task_agent, sid
                )
                for field in USAGE_FIELDS:
                    assert np.array_equal(getattr(ref, field), getattr(fast, field))

    def test_matches_reference_on_scenario_draws(self, rng):
        for seed in (1, 2, 3):
            conf = scenario_conference(
                seed=seed, params=ScenarioParams(num_user_sites=32, num_users=20)
            )
            profile = ConferenceProfile(conf)
            for _ in range(10):
                assignment = random_assignment(conf, rng)
                for sid in range(conf.num_sessions):
                    ref = compute_session_usage(conf, assignment, sid)
                    fast = profile.session_usage(
                        assignment.user_agent, assignment.task_agent, sid
                    )
                    for field in USAGE_FIELDS:
                        assert np.array_equal(getattr(ref, field), getattr(fast, field))

    def test_matches_on_split_task_groups(self):
        from tests.conftest import build_shared_dest_conference

        conf = build_shared_dest_conference()
        profile = ConferenceProfile(conf)
        for tasks in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assignment = Assignment(np.array([0, 1, 0]), np.array(tasks))
            ref = compute_session_usage(conf, assignment, 0)
            fast = profile.session_usage(
                assignment.user_agent, assignment.task_agent, 0
            )
            for field in USAGE_FIELDS:
                assert np.array_equal(getattr(ref, field), getattr(fast, field))


class TestDelayEquivalence:
    def test_matches_reference_on_prototype(self, proto_conf, rng):
        profile = ConferenceProfile(proto_conf)
        for _ in range(5):
            assignment = random_assignment(proto_conf, rng)
            for sid in range(proto_conf.num_sessions):
                ref = session_user_delays(proto_conf, assignment, sid)
                fast = profile.session_user_delays(
                    assignment.user_agent, assignment.task_agent, sid
                )
                assert ref.keys() == fast.keys()
                for uid in ref:
                    assert ref[uid] == pytest.approx(fast[uid])

    def test_delay_cost_and_max_flow(self, proto_conf, rng):
        from repro.core.delay import max_session_flow_delay

        profile = ConferenceProfile(proto_conf)
        assignment = random_assignment(proto_conf, rng)
        for sid in range(0, proto_conf.num_sessions, 3):
            mean, max_flow = profile.session_delays(
                assignment.user_agent, assignment.task_agent, sid
            )
            assert mean == pytest.approx(
                session_delay_cost(proto_conf, assignment, sid)
            )
            assert max_flow == pytest.approx(
                max_session_flow_delay(proto_conf, assignment, sid)
            )


class TestProfileCache:
    def test_profile_for_reuses_instance(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        assert profile_for(conf) is profile_for(conf)

    def test_sigma_table_shape(self, proto_conf):
        profile = ConferenceProfile(proto_conf)
        assert profile.sigma.shape == (proto_conf.theta_sum, proto_conf.num_agents)
        assert (profile.sigma > 0).all()

    def test_demand_out_matches_model(self, proto_conf):
        profile = ConferenceProfile(proto_conf)
        for session in proto_conf.sessions:
            for uid in session.user_ids:
                expected = sum(
                    proto_conf.user(uid).downstream_from(v).bitrate_mbps
                    for v in session.others(uid)
                )
                assert profile.demand_out_mbps[uid] == pytest.approx(expected)
