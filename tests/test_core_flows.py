"""Tests for the flow oracle's explicit router vs the mu formula."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from tests.conftest import build_pair_conference
from tests.flow_oracle import (
    compute_session_usage,
    route_session_flows,
    total_inter_agent_traffic,
    total_routed_traffic,
)


class TestRouterBasics:
    @pytest.fixture()
    def conf(self):
        return build_pair_conference("720p", "360p", "360p", "480p")

    def test_agreement_with_mu_on_standard_layouts(self, conf):
        for task_agent in (0, 1):
            assignment = Assignment(np.array([0, 1]), np.array([task_agent]))
            plan = route_session_flows(conf, assignment, 0)
            usage = compute_session_usage(conf, assignment, 0)
            assert np.allclose(plan.incoming(), usage.inter_in)
            assert np.allclose(plan.outgoing(), usage.inter_out)

    def test_copies_enumerated(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        plan = route_session_flows(conf, assignment, 0)
        # u0's transcoded 480p L0->L1 and u1's raw 360p L1->L0.
        labels = {
            (c.source_user, c.representation.name, c.from_agent, c.to_agent)
            for c in plan.copies
        }
        assert labels == {(0, "480p", 0, 1), (1, "360p", 1, 0)}

    def test_raw_copy_deduplicated_when_agent_transcodes_and_hosts(self, conf):
        """An agent that transcodes u's stream AND hosts a raw destination
        receives exactly one raw copy."""
        conf3 = build_pair_conference(
            "720p", "360p", "360p", "480p", extra_user=("360p", "720p")
        )
        # u1 (demands 480p) on L1, u2 (demands raw 720p) on L1; all
        # transcoding tasks (u0's and the u1<->u2 ones) at L1.
        assignment = Assignment(
            np.array([0, 1, 1]), np.full(conf3.theta_sum, 1, dtype=np.int64)
        )
        plan = route_session_flows(conf3, assignment, 0)
        raw_copies = [
            c for c in plan.copies
            if c.source_user == 0 and c.representation.name == "720p"
        ]
        assert len(raw_copies) == 1


class TestDocumentedDivergence:
    """The mu formula does not charge transcoded traffic entering the
    source's own agent; the router does (the bytes really flow)."""

    @pytest.fixture()
    def conf(self):
        # u2 sits with u0 on L0 and demands 480p of u0's 720p stream.
        from tests.conftest import build_shared_dest_conference

        return build_shared_dest_conference()

    def test_divergence_is_exactly_the_back_shipment(self, conf):
        # u0, u2 on L0; u1 on L1; both (u0 -> *) tasks at L1: the 480p
        # output must ship back L1 -> L0 for u2.
        assignment = Assignment(np.array([0, 1, 0]), np.array([1, 1]))
        routed = route_session_flows(conf, assignment, 0).total_inter_agent_mbps
        mu_total = compute_session_usage(conf, assignment, 0).total_inter_agent_mbps
        kappa_480 = 2.5
        assert routed == pytest.approx(mu_total + kappa_480)

    def test_no_divergence_when_tasks_at_source(self, conf):
        assignment = Assignment(np.array([0, 1, 0]), np.array([0, 0]))
        routed = route_session_flows(conf, assignment, 0).total_inter_agent_mbps
        mu_total = compute_session_usage(conf, assignment, 0).total_inter_agent_mbps
        assert routed == pytest.approx(mu_total)


class TestRouterDominance:
    def test_router_never_below_mu_for_group_consistent_tasks(
        self, proto_conf, rng
    ):
        """When every (source, representation) group uses a single task
        agent — the only layouts the solvers visit in practice — the
        router can only exceed mu (via the documented (1 - lambda_lu)
        under-count); mu's own over-count requires split groups."""
        from tests.flow_oracle import session_transcode_map

        for _ in range(8):
            ua = rng.integers(0, proto_conf.num_agents, proto_conf.num_users)
            ta = np.zeros(proto_conf.theta_sum, dtype=np.int64)
            # One random agent per (source, rep) group.
            for sid in range(proto_conf.num_sessions):
                groups: dict[tuple[int, str], int] = {}
                for i in proto_conf.session_pair_indices(sid):
                    source, dest = proto_conf.transcode_pairs[i]
                    rep = proto_conf.demanded_representation(source, dest)
                    key = (source, rep.name)
                    if key not in groups:
                        groups[key] = int(rng.integers(proto_conf.num_agents))
                    ta[i] = groups[key]
            assignment = Assignment(ua, ta)
            routed = total_routed_traffic(proto_conf, assignment)
            mu_total = total_inter_agent_traffic(proto_conf, assignment)
            assert routed >= mu_total - 1e-9
            # sanity: the map indeed has single-agent groups
            for sid in range(proto_conf.num_sessions):
                for reps in session_transcode_map(
                    proto_conf, assignment, sid
                ).values():
                    assert all(len(agents) == 1 for agents in reps.values())

    def test_mu_overcounts_on_split_groups(self):
        """The dual quirk: two task agents for the same (user, rep) make
        the mu formula charge every transcoder towards every destination
        agent, exceeding what the router actually ships (each destination
        is fed by its own pair's task agent only)."""
        from repro.model.builder import ConferenceBuilder
        from repro.model.representation import PAPER_LADDER

        builder = ConferenceBuilder(PAPER_LADDER)
        for i in range(3):
            builder.add_agent(name=f"L{i}")
        u0 = builder.user(upstream="720p", downstream="360p", name="u0")
        u1 = builder.user(
            upstream="360p", downstream="360p", name="u1",
            downstream_overrides={u0: "480p"},
        )
        u2 = builder.user(
            upstream="360p", downstream="360p", name="u2",
            downstream_overrides={u0: "480p"},
        )
        builder.add_session(u0, u1, u2)
        d = np.array([[0.0, 15, 15], [15, 0.0, 15], [15, 15, 0.0]])
        h = np.full((3, 3), 10.0)
        conf = builder.build(inter_agent_ms=d, agent_user_ms=h)
        # u0@L0; u1@L1 served by a task at L1; u2@L2 served by a task at
        # L2 -> mu also charges L1->L2 and L2->L1 phantom 480p copies.
        assignment = Assignment(np.array([0, 1, 2]), np.array([1, 2]))
        routed = total_routed_traffic(conf, assignment)
        mu_total = total_inter_agent_traffic(conf, assignment)
        assert mu_total == pytest.approx(routed + 2 * 2.5)

    def test_agreement_on_nearest_policy(self, proto_conf):
        """Nrst puts every task at the source agent, where the accountings
        provably coincide."""
        from repro.core.nearest import nearest_assignment

        assignment = nearest_assignment(proto_conf)
        assert total_routed_traffic(proto_conf, assignment) == pytest.approx(
            total_inter_agent_traffic(proto_conf, assignment)
        )


class TestAccountingGapAlongTrajectory:
    def test_gap_stays_bounded_on_solver_visited_states(self):
        """Ablation A6: along a Markov trajectory the mu formula and the
        router agree to within a bounded gap.  The optimizer gravitates
        towards states in the formula's (1 - lambda_lu) blind spot —
        transcoded streams consumed at the source agent ride for free
        under the paper's accounting — so the router sees more traffic
        than mu reports, but the divergence stays bounded relative to the
        accounted traffic."""
        from repro.core.markov import MarkovAssignmentSolver, MarkovConfig
        from repro.core.nearest import nearest_assignment
        from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
        from repro.experiments.common import effective_beta
        from repro.workloads.prototype import prototype_conference

        conference = prototype_conference(seed=7)
        evaluator = ObjectiveEvaluator(
            conference, ObjectiveWeights.normalized_for(conference)
        )
        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conference),
            config=MarkovConfig(beta=effective_beta(400.0)),
            rng=np.random.default_rng(9),
        )
        gaps = []
        mu_totals = []
        for _ in range(30):
            solver.run(10)
            mu_total = total_inter_agent_traffic(conference, solver.assignment)
            routed = total_routed_traffic(conference, solver.assignment)
            gaps.append(abs(routed - mu_total))
            mu_totals.append(mu_total)
        assert np.mean(gaps) <= 0.6 * max(np.mean(mu_totals), 1.0)
        assert np.mean(gaps) < 60.0
