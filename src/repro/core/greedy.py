"""Greedy best-improvement descent: the ``beta -> infinity`` limit of Alg. 1.

Repeatedly applies, across all active sessions, the single-decision move
with the largest objective improvement until a local optimum is reached.
Serves as a deterministic reference point in the ablation benches: Markov
approximation should match or beat it in expectation (it can escape local
optima; greedy cannot).

The whole-conference sweep is a per-session ``phi_current - batch.phi``
gain vector and one ``argmax`` per session; only the iteration's single
winning candidate is materialized.  ``np.argmax`` returns the *first*
maximal gain and cross-session comparison is strict, so ties resolve to
the earliest session and, within it, the first move in enumeration
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import Assignment
from repro.core.objective import ObjectiveEvaluator
from repro.core.search import Candidate, CandidateBatch, SearchContext
from repro.netsim.noise import NoiseModel

#: Minimum objective improvement for a move to count (guards float noise).
IMPROVEMENT_EPSILON = 1e-12


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of a greedy descent."""

    assignment: Assignment
    phi: float
    iterations: int
    converged: bool


def _best_improvement(
    context: SearchContext, best_gain: float
) -> tuple[Candidate | None, int, float]:
    """The iteration's strictly-best move across every active session."""
    best_batch: CandidateBatch | None = None
    best_sid = best_position = -1
    for sid in context.active_sessions:
        phi_current = context.session_cost(sid).phi
        batch = context.candidate_batch(sid)
        if batch.num_feasible == 0:
            continue
        gains = phi_current - batch.phi
        position = int(np.argmax(gains))
        gain = float(gains[position])
        if gain > best_gain:
            best_batch, best_position = batch, position
            best_sid, best_gain = sid, gain
    if best_batch is None:
        return None, best_sid, best_gain
    return best_batch.materialize(best_position), best_sid, best_gain


def greedy_descent(
    evaluator: ObjectiveEvaluator,
    initial_assignment: Assignment,
    active_sids: list[int] | None = None,
    max_iterations: int = 10_000,
    noise: NoiseModel | None = None,
) -> GreedyResult:
    """Best-improvement local search to a local optimum of UAP."""
    context = SearchContext(
        evaluator, initial_assignment, active_sids=active_sids, noise=noise
    )
    iterations = 0
    while iterations < max_iterations:
        best, best_sid, _gain = _best_improvement(
            context, IMPROVEMENT_EPSILON
        )
        if best is None:
            return GreedyResult(
                assignment=context.assignment,
                phi=context.total_phi(),
                iterations=iterations,
                converged=True,
            )
        context.commit(best_sid, best)
        iterations += 1
    return GreedyResult(
        assignment=context.assignment,
        phi=context.total_phi(),
        iterations=iterations,
        converged=False,
    )
