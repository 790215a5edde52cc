"""Tests for repro.core.agrank — Alg. 2."""

import numpy as np
import pytest

from repro.core.agrank import AgRankConfig, agrank_assignment, rank_agents
from repro.core.capacity import CapacityLedger
from repro.core.feasibility import is_feasible
from repro.core.nearest import nearest_assignment
from repro.errors import InfeasibleError, SolverError
from repro.model.builder import ConferenceBuilder
from repro.model.representation import PAPER_LADDER
from tests.conftest import PAIR_D, PAIR_H, build_pair_conference


class TestConfig:
    def test_validation(self):
        with pytest.raises(SolverError):
            AgRankConfig(n_ngbr=0)
        with pytest.raises(SolverError):
            AgRankConfig(damping=0.0)
        with pytest.raises(SolverError):
            AgRankConfig(damping=1.5)
        with pytest.raises(SolverError):
            AgRankConfig(epsilon=0.0)


class TestRanking:
    def test_candidate_pool_union_of_user_neighbours(self, motivating_conf):
        result = rank_agents(motivating_conf, 0, config=AgRankConfig(n_ngbr=1))
        # With n_ngbr=1 the pool is exactly the set of nearest agents.
        nearest = {
            int(motivating_conf.topology.nearest_agents(u)[0])
            for u in motivating_conf.session(0).user_ids
        }
        assert set(result.candidates) == nearest

    def test_scores_normalized(self, motivating_conf):
        result = rank_agents(motivating_conf, 0, config=AgRankConfig(n_ngbr=4))
        assert sum(result.scores.values()) == pytest.approx(1.0)
        assert all(s >= 0 for s in result.scores.values())

    def test_ordered_by_score(self, motivating_conf):
        result = rank_agents(motivating_conf, 0, config=AgRankConfig(n_ngbr=4))
        ordered = result.ordered()
        scores = [result.scores[a] for a in ordered]
        assert scores == sorted(scores, reverse=True)

    def test_converges_quickly(self, motivating_conf):
        result = rank_agents(motivating_conf, 0, config=AgRankConfig(n_ngbr=4))
        assert result.iterations < 200

    def test_single_candidate_degenerate(self):
        conf = build_pair_conference("720p", "480p", "480p", "720p")
        # Both users' nearest agent may differ; force single-agent pool.
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="only")
        u0 = builder.user("720p")
        u1 = builder.user("720p")
        builder.add_session(u0, u1)
        solo = builder.build(
            inter_agent_ms=np.zeros((1, 1)), agent_user_ms=np.full((1, 2), 9.0)
        )
        result = rank_agents(solo, 0)
        assert result.candidates == (0,)
        assert result.scores[0] == pytest.approx(1.0)

    def test_residual_awareness_prefers_unloaded_agent(self):
        """Two identical agents, one pre-loaded: the free one ranks higher."""
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0", download_mbps=100.0, upload_mbps=100.0)
        builder.add_agent(name="L1", download_mbps=100.0, upload_mbps=100.0)
        ids = [builder.user("720p", name=f"u{i}") for i in range(4)]
        builder.add_session(ids[0], ids[1])
        builder.add_session(ids[2], ids[3])
        symmetric_d = np.array([[0.0, 10.0], [10.0, 0.0]])
        symmetric_h = np.full((2, 4), 10.0)
        conf = builder.build(inter_agent_ms=symmetric_d, agent_user_ms=symmetric_h)
        from repro.core.assignment import Assignment
        from tests.flow_oracle import compute_session_usage

        loaded = Assignment(np.array([0, 0, -1, -1]), np.zeros(0, dtype=np.int64))
        ledger = CapacityLedger(conf)
        ledger.set_session(compute_session_usage(conf, loaded, 0))
        result = rank_agents(conf, 1, ledger=ledger, config=AgRankConfig(n_ngbr=2))
        assert result.scores[1] > result.scores[0]


class TestAssignment:
    def test_nngbr1_matches_nearest_user_choice(self, motivating_conf):
        """n_ngbr = 1 reduces to the Nrst user placement (Sec. V-B.3)."""
        agrank = agrank_assignment(
            motivating_conf, 0, config=AgRankConfig(n_ngbr=1)
        )
        nearest = nearest_assignment(motivating_conf)
        for uid in motivating_conf.session(0).user_ids:
            assert agrank.agent_of(uid) == nearest.agent_of(uid)

    def test_nngbr_L_consolidates_session(self, motivating_conf):
        """n_ngbr = L subscribes the whole session to one agent."""
        assignment = agrank_assignment(
            motivating_conf, 0, config=AgRankConfig(n_ngbr=4)
        )
        agents = {assignment.agent_of(u) for u in motivating_conf.session(0).user_ids}
        assert len(agents) == 1

    def test_shared_rep_task_placed_at_source_agent(self):
        """Paper rule of thumb: >= 2 destinations with the same downstream
        representation -> transcode at the source agent."""
        conf = build_pair_conference(
            "720p", "360p", "360p", "480p", extra_user=("360p", "480p")
        )
        assignment = agrank_assignment(conf, 0, config=AgRankConfig(n_ngbr=1))
        source_agent = assignment.agent_of(0)
        for i in conf.session_pair_indices(0):
            if conf.transcode_pairs[i][0] == 0:
                assert assignment.task_agent_of(i) == source_agent

    def test_result_is_feasible_when_unconstrained(self, proto_conf):
        from repro.core.bootstrap import bootstrap_assignment

        assignment = bootstrap_assignment(proto_conf, "agrank")
        assert is_feasible(proto_conf, assignment)

    def test_infeasible_when_capacity_exhausted(self):
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0", download_mbps=1.0, upload_mbps=1.0)
        builder.add_agent(name="L1", download_mbps=1.0, upload_mbps=1.0)
        u0 = builder.user("720p", name="u0")  # 5 Mbps upstream cannot fit
        u1 = builder.user("720p", name="u1")
        builder.add_session(u0, u1)
        conf = builder.build(inter_agent_ms=PAIR_D, agent_user_ms=PAIR_H)
        with pytest.raises(InfeasibleError):
            agrank_assignment(conf, 0, ledger=CapacityLedger(conf))

    def test_capacity_fallback_uses_lower_ranked_candidate(self):
        """When the top-ranked agent cannot host both users, AgRank falls
        back instead of failing (the Fig. 9 mechanism)."""
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0", download_mbps=6.0, upload_mbps=6.0)
        builder.add_agent(name="L1", download_mbps=6.0, upload_mbps=6.0)
        u0 = builder.user("480p", "480p", name="u0")  # 2.5 Mbps
        u1 = builder.user("480p", "480p", name="u1")
        builder.add_session(u0, u1)
        symmetric_h = np.array([[10.0, 10.0], [12.0, 12.0]])
        conf = builder.build(inter_agent_ms=PAIR_D, agent_user_ms=symmetric_h)
        assignment = agrank_assignment(
            conf, 0, ledger=CapacityLedger(conf), config=AgRankConfig(n_ngbr=2)
        )
        assert is_feasible(conf, assignment)
