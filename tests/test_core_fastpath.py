"""Tests for repro.core.fastpath — the flow model's static structure and
its cache — and for the flow-model kernel's one-assignment pass
(:meth:`ConferenceArrays.evaluate_assignment`) against the per-flow
oracle (``tests/flow_oracle.py``) on every workload the suite touches:
usage bit for bit (the ledger and the bootstrap verdict rely on it),
delays approximately (the kernel adds a transcoded flow's terms in the
objective's order, see ``tests/kernel_oracle.py``)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.arrays import arrays_for
from repro.core.assignment import Assignment
from repro.core.fastpath import profile_for
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.core.search import SearchContext
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference
from tests.conftest import build_pair_conference
from tests.flow_oracle import (
    compute_session_usage,
    max_session_flow_delay,
    session_delay_cost,
    session_user_delays,
)
from tests.kernel_oracle import USAGE_FIELDS


def random_assignment(conf, rng):
    return Assignment(
        rng.integers(0, conf.num_agents, conf.num_users),
        rng.integers(0, conf.num_agents, conf.theta_sum),
    )


def evaluate(conference, assignment, sid):
    return arrays_for(conference).evaluate_assignment(assignment, sid)


class TestUsageEquivalence:
    def test_matches_reference_on_prototype(self, proto_conf, rng):
        for _ in range(5):
            assignment = random_assignment(proto_conf, rng)
            for sid in range(proto_conf.num_sessions):
                ref = compute_session_usage(proto_conf, assignment, sid)
                fast = evaluate(proto_conf, assignment, sid).usage
                for field in USAGE_FIELDS:
                    assert np.array_equal(getattr(ref, field), getattr(fast, field))

    def test_matches_reference_on_scenario_draws(self, rng):
        for seed in (1, 2, 3):
            conf = scenario_conference(
                seed=seed, params=ScenarioParams(num_user_sites=32, num_users=20)
            )
            for _ in range(10):
                assignment = random_assignment(conf, rng)
                for sid in range(conf.num_sessions):
                    ref = compute_session_usage(conf, assignment, sid)
                    fast = evaluate(conf, assignment, sid).usage
                    for field in USAGE_FIELDS:
                        assert np.array_equal(getattr(ref, field), getattr(fast, field))

    def test_matches_on_split_task_groups(self):
        from tests.conftest import build_shared_dest_conference

        conf = build_shared_dest_conference()
        for tasks in ([0, 0], [0, 1], [1, 0], [1, 1]):
            assignment = Assignment(np.array([0, 1, 0]), np.array(tasks))
            ref = compute_session_usage(conf, assignment, 0)
            fast = evaluate(conf, assignment, 0).usage
            for field in USAGE_FIELDS:
                assert np.array_equal(getattr(ref, field), getattr(fast, field))


class TestDelayEquivalence:
    def test_matches_reference_on_prototype(self, proto_conf, rng):
        for _ in range(5):
            assignment = random_assignment(proto_conf, rng)
            for sid in range(proto_conf.num_sessions):
                ref = session_user_delays(proto_conf, assignment, sid)
                fast = evaluate(proto_conf, assignment, sid).user_worst_ms
                users = proto_conf.session(sid).user_ids
                assert ref.keys() == set(users)
                for uid, worst in zip(users, fast):
                    assert ref[uid] == pytest.approx(worst)

    def test_delay_cost_and_max_flow(self, proto_conf, rng):
        assignment = random_assignment(proto_conf, rng)
        for sid in range(0, proto_conf.num_sessions, 3):
            evaluation = evaluate(proto_conf, assignment, sid)
            mean, worst = evaluation.delay_cost_ms, evaluation.user_worst_ms
            max_flow = worst.max()
            assert worst.shape == (len(proto_conf.session(sid).user_ids),)
            assert mean == sum(worst) / len(worst)
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

    def test_profile_lives_with_its_conference(self):
        """No registry outlives the conference: once it is gone, a full
        collection frees its profile too."""
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        profile = weakref.ref(profile_for(conf))
        del conf
        gc.collect()
        assert profile() is None

    def test_reference_counting_frees_the_conference_tree(self):
        """Conference -> arrays -> profile (and conference -> profile)
        is a tree, not a cycle: with the collector off, ``del`` alone
        frees all three, also after a search context has evaluated a
        batch on them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            conf = prototype_conference(seed=3)
            evaluator = ObjectiveEvaluator(
                conf, ObjectiveWeights.normalized_for(conf)
            )
            context = SearchContext(evaluator, nearest_assignment(conf))
            assert context.candidate_batch(0).evaluation.size > 0
            refs = [
                weakref.ref(obj) for obj in (conf, profile_for(conf), arrays_for(conf))
            ]
            del conf, evaluator, context
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_sigma_table_shape(self, proto_conf):
        profile = profile_for(proto_conf)
        assert profile.sigma.shape == (proto_conf.theta_sum, proto_conf.num_agents)
        assert (profile.sigma > 0).all()

    def test_demand_out_matches_model(self, proto_conf):
        profile = profile_for(proto_conf)
        for session in proto_conf.sessions:
            for uid in session.user_ids:
                expected = sum(
                    proto_conf.user(uid).downstream_from(v).bitrate_mbps
                    for v in session.others(uid)
                )
                assert profile.demand_out_mbps[uid] == pytest.approx(expected)
