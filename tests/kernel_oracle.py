"""Per-candidate oracle for the :mod:`repro.core.arrays` kernel.

The search layer scores a session's whole move set in one array pass.
This module scores the same moves one at a time, the slow and obvious
way, so the tests can pin the kernel against it bit for bit:

1. enumerate moves with :func:`~repro.core.neighborhood.session_moves`;
2. apply each move and compute the session's usage and delays with
   :meth:`ConferenceProfile.session_usage` and
   :meth:`ConferenceProfile.session_delays`;
3. reject the candidate when :meth:`CapacityLedger.fits` fails or its
   longest flow exceeds ``dmax_ms + 1e-9`` (constraint (8));
4. assemble its cost with
   :meth:`ObjectiveEvaluator.assemble_session_cost`, then apply the
   observation noise, if any, per feasible candidate in enumeration
   order.

Only tests use it.  The two profile functions are themselves checked
against the ground truth in :mod:`repro.core.traffic` and
:mod:`repro.core.delay` by ``test_core_fastpath.py``: usage exactly,
delays only approximately.  ``delay.py`` adds a transcoded flow's terms
left to right, ``((lastmile + d[a, m]) + d[m, b]) + sigma``, while
``session_delays`` (and the kernel) add ``lastmile + ((d[a, m] +
d[m, b]) + sigma)``, so about a quarter of delay costs and over a
third of max-flow delays differ from ``delay.py`` in the last bits.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.fastpath import profile_for
from repro.core.neighborhood import session_moves
from repro.core.search import Candidate

#: Per-candidate usage arrays compared bit for bit.
USAGE_FIELDS = ("inter_in", "inter_out", "download", "upload", "transcodes")


def oracle_rows(conference, assignment, sid):
    """``(move, usage, delay_cost_ms, max_flow_ms)`` for every move of
    ``sid`` at ``assignment``, feasible or not, in enumeration order."""
    profile = profile_for(conference)
    rows = []
    for move in session_moves(conference, assignment, sid):
        candidate = move.apply(assignment)
        usage = profile.session_usage(candidate.user_agent, candidate.task_agent, sid)
        delay_cost, max_flow = profile.session_delays(
            candidate.user_agent, candidate.task_agent, sid
        )
        rows.append((move, usage, delay_cost, max_flow))
    return rows


def oracle_candidates(context, sid, assignment=None, noise=None, rng=None):
    """One entry per move of ``sid``: its :class:`Candidate`, or ``None``
    when the move is infeasible against ``context``'s ledger.

    ``assignment`` defaults to the context's current one; ``noise`` and
    ``rng`` perturb each feasible candidate's observed ``phi``.
    """
    evaluator = context.evaluator
    assignment = context.assignment if assignment is None else assignment
    dmax_ms = context.conference.dmax_ms
    results = []
    for move, usage, delay_cost, max_flow in oracle_rows(
        context.conference, assignment, sid
    ):
        if not context.ledger.fits(usage) or max_flow > dmax_ms + 1e-9:
            results.append(None)
            continue
        cost = evaluator.assemble_session_cost(sid, usage, delay_cost)
        if noise is not None:
            cost = dataclasses.replace(cost, phi=noise.perturb(cost.phi, rng))
        results.append(
            Candidate(move=move, assignment=move.apply(assignment), cost=cost)
        )
    return results


def oracle_feasible(context, sid, assignment=None, noise=None, rng=None):
    """The feasible candidates of :func:`oracle_candidates`, in order."""
    return [
        candidate
        for candidate in oracle_candidates(context, sid, assignment, noise, rng)
        if candidate is not None
    ]


def oracle_best(context, sid):
    """The first feasible candidate with the lowest ``phi``, or ``None``."""
    best = None
    for candidate in oracle_feasible(context, sid):
        if best is None or candidate.phi < best.phi:
            best = candidate
    return best


def assert_candidates_equal(expected, actual, tag=""):
    """Same candidates in the same order, every value bit for bit."""
    assert len(expected) == len(actual), f"{tag}: {len(expected)} vs {len(actual)}"
    for i, (oracle, fast) in enumerate(zip(expected, actual)):
        where = f"{tag} candidate {i}"
        assert oracle.move == fast.move, where
        assert oracle.assignment == fast.assignment, where
        assert oracle.phi == fast.phi, where
        assert oracle.cost.delay_cost_ms == fast.cost.delay_cost_ms, where
        assert oracle.cost.traffic_cost == fast.cost.traffic_cost, where
        assert oracle.cost.transcode_cost == fast.cost.transcode_cost, where
        for field in USAGE_FIELDS:
            assert np.array_equal(
                getattr(oracle.cost.usage, field), getattr(fast.cost.usage, field)
            ), f"{where}: usage.{field}"


def assert_rows_equal(evaluation, rows, tag=""):
    """A :class:`BatchEvaluation` equals :func:`oracle_rows` bit for bit."""
    assert evaluation.size == len(rows), f"{tag}: {evaluation.size} vs {len(rows)}"
    for i, (move, usage, delay_cost, max_flow) in enumerate(rows):
        where = f"{tag} row {i}"
        assert evaluation.moves.move(i) == move, where
        for field in USAGE_FIELDS:
            assert np.array_equal(
                getattr(evaluation, field)[i], getattr(usage, field)
            ), f"{where}: {field}"
        assert evaluation.delay_cost_ms[i] == delay_cost, where
        assert evaluation.max_flow_ms[i] == max_flow, where


def assert_batch_matches_oracle(context, sid, batch, tag="", noise=None, rng=None):
    """A :class:`CandidateBatch` equals the oracle: same feasibility mask
    over the raw move set, same feasible candidates.

    A noisy batch is compared against ``noise`` drawing from ``rng``, a
    copy of the context's generator taken before the batch was drawn.
    """
    expected = oracle_candidates(context, sid, noise=noise, rng=rng)
    assert batch.feasible_mask.tolist() == [c is not None for c in expected], tag
    assert_candidates_equal(
        [c for c in expected if c is not None], batch.materialize_all(), tag
    )
