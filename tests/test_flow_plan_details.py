"""Detailed tests of the flow oracle's SessionFlowPlan structure and
transcoding indicators not covered elsewhere."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from tests.conftest import build_pair_conference, build_shared_dest_conference
from tests.flow_oracle import (
    active_transcodes,
    route_session_flows,
    session_transcode_map,
    transcode_counts,
    transcoding_agents_of,
)


@pytest.fixture()
def conf():
    return build_pair_conference("720p", "360p", "360p", "480p")


class TestFlowPlanStructure:
    def test_edge_matrix_matches_copies(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        plan = route_session_flows(conf, assignment, 0)
        rebuilt = np.zeros_like(plan.edge_mbps)
        for copy in plan.copies:
            rebuilt[copy.from_agent, copy.to_agent] += copy.mbps
        assert np.allclose(rebuilt, plan.edge_mbps)

    def test_no_self_edges(self, conf):
        for tasks in (0, 1):
            assignment = Assignment(np.array([0, 1]), np.array([tasks]))
            plan = route_session_flows(conf, assignment, 0)
            assert np.allclose(np.diag(plan.edge_mbps), 0.0)
            assert all(c.from_agent != c.to_agent for c in plan.copies)

    def test_incoming_outgoing_consistency(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([1]))
        plan = route_session_flows(conf, assignment, 0)
        assert plan.incoming().sum() == pytest.approx(plan.outgoing().sum())
        assert plan.total_inter_agent_mbps == pytest.approx(
            plan.edge_mbps.sum()
        )

    def test_split_group_routes_per_pair(self):
        conf = build_shared_dest_conference()
        # u0@L0, u1@L0, u2@L1; (0->1) at L0, (0->2) at L1.
        assignment = Assignment(np.array([0, 0, 1]), np.array([0, 1]))
        plan = route_session_flows(conf, assignment, 0)
        transcoded = [
            c for c in plan.copies
            if c.source_user == 0 and c.representation.name == "480p"
        ]
        # u1's copy is local at L0 (no edge); u2's is local at L1 (task at
        # its own agent) -> the only cross-agent shipment of u0's stream
        # is the raw feed to the L1 transcoder.
        assert transcoded == []
        raw = [
            c for c in plan.copies
            if c.source_user == 0 and c.representation.name == "720p"
        ]
        assert [(c.from_agent, c.to_agent) for c in raw] == [(0, 1)]


class TestTranscodingModule:
    def test_active_transcodes_global_vs_session(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([1]))
        everywhere = active_transcodes(conf, assignment)
        session_only = active_transcodes(conf, assignment, sids=[0])
        assert everywhere == session_only
        ((agent, source, rep),) = everywhere
        assert (agent, source, rep.name) == (1, 0, "480p")

    def test_counts_match_map(self):
        conf = build_shared_dest_conference()
        assignment = Assignment(np.array([0, 1, 0]), np.array([0, 1]))
        counts = transcode_counts(conf, assignment)
        mapping = session_transcode_map(conf, assignment, 0)
        total_tasks = sum(
            len(agents) for reps in mapping.values() for agents in reps.values()
        )
        assert counts.sum() == total_tasks == 2

    def test_transcoding_agents_of_source(self):
        conf = build_shared_dest_conference()
        assignment = Assignment(np.array([0, 1, 0]), np.array([0, 1]))
        assert transcoding_agents_of(conf, assignment, 0, source=0) == {0, 1}
        assert transcoding_agents_of(conf, assignment, 0, source=1) == set()

    def test_unassigned_tasks_skipped(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([-1]))
        assert active_transcodes(conf, assignment) == set()
        assert transcode_counts(conf, assignment).sum() == 0
