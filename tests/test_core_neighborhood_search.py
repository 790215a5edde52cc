"""Tests for repro.core.neighborhood and repro.core.search."""

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.neighborhood import Move, count_session_moves, session_moves
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.core.search import SearchContext
from repro.errors import ModelError, SolverError
from tests.conftest import build_pair_conference


@pytest.fixture()
def conf():
    return build_pair_conference("720p", "360p", "360p", "480p")


@pytest.fixture()
def evaluator(conf):
    return ObjectiveEvaluator(conf, ObjectiveWeights.normalized_for(conf))


class TestMoves:
    def test_move_must_change_agent(self):
        with pytest.raises(ModelError):
            Move("user", 0, 1, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            Move("stream", 0, 0, 1)

    def test_apply_user_move(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        moved = Move("user", 0, 0, 1).apply(assignment)
        assert moved.agent_of(0) == 1
        assert moved.task_agent_of(0) == 0

    def test_apply_task_move(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        moved = Move("task", 0, 0, 1).apply(assignment)
        assert moved.task_agent_of(0) == 1

    def test_enumeration_count(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        moves = list(session_moves(conf, assignment, 0))
        # (2 users + 1 task) * (2 - 1) agents.
        assert len(moves) == 3
        assert count_session_moves(conf, 0) == 3

    def test_every_neighbor_differs_in_one_decision(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        for move in session_moves(conf, assignment, 0):
            assert assignment.difference(move.apply(assignment)) == 1

    def test_describe_is_readable(self, conf):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        texts = [m.describe(conf) for m in session_moves(conf, assignment, 0)]
        assert any("u0" in t for t in texts)
        assert any("transcode" in t for t in texts)


class TestSearchContext:
    def test_initial_costs_cached(self, conf, evaluator):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        context = SearchContext(evaluator, assignment)
        assert context.session_cost(0).phi == pytest.approx(
            evaluator.session_phi(assignment, 0)
        )

    def test_feasible_candidates_all_feasible_when_unconstrained(
        self, conf, evaluator
    ):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        context = SearchContext(evaluator, assignment)
        assert len(context.feasible_candidates(0)) == 3

    def test_commit_swaps_state(self, conf, evaluator):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        context = SearchContext(evaluator, assignment)
        candidate = context.feasible_candidates(0)[0]
        context.commit(0, candidate)
        assert context.assignment == candidate.assignment
        assert context.total_phi() == pytest.approx(candidate.cost.phi)

    def test_delay_cap_filters_candidates(self):
        conf = build_pair_conference("720p", "360p", "360p", "480p")
        # Tight cap: only some states qualify.
        tight = ObjectiveEvaluator(
            build_tight_dmax(conf, 77.0), ObjectiveWeights.raw()
        )
        assignment = Assignment(np.array([0, 1]), np.array([0]))  # max flow 76
        context = SearchContext(tight, assignment)
        candidates = context.feasible_candidates(0)
        # Moving the task to L1 keeps 76 ms; moving u0 to L1 gives
        # H[L1,u0]=25 + sigma + ... -> check each candidate's delay is fine.
        for candidate in candidates:
            from tests.flow_oracle import max_session_flow_delay

            assert (
                max_session_flow_delay(
                    tight.conference, candidate.assignment, 0
                )
                <= 77.0 + 1e-9
            )

    def test_session_dynamics(self, conf, evaluator):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        context = SearchContext(evaluator, assignment)
        context.remove_session(0)
        assert context.active_sessions == []
        bootstrap = Assignment(np.array([1, 1]), np.array([1]))
        context.add_session(0, bootstrap)
        assert context.active_sessions == [0]
        assert context.assignment == bootstrap

    def test_add_active_session_rejected(self, conf, evaluator):
        assignment = Assignment(np.array([0, 1]), np.array([0]))
        context = SearchContext(evaluator, assignment)
        with pytest.raises(ModelError):
            context.add_session(0, assignment)

    def test_requires_active_sessions(self, conf, evaluator):
        with pytest.raises(SolverError):
            SearchContext(evaluator, Assignment.empty(conf), active_sids=[])


def build_tight_dmax(conf, dmax):
    """Rebuild the fixture conference with a custom delay cap."""
    from repro.model.conference import Conference

    return Conference(
        users=conf.users,
        sessions=conf.sessions,
        agents=conf.agents,
        topology=conf.topology,
        representations=conf.representations,
        dmax_ms=dmax,
    )
