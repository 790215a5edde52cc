"""Shared local-search machinery.

Alg. 1 (Markov approximation), greedy descent and simulated annealing all
walk the same single-decision neighbourhood under the same feasibility
rules.  :class:`SearchContext` centralizes that: it owns the current
assignment, the capacity ledger, cached per-session costs, and candidate
evaluation (usage + capacity fit + delay cap + session-local objective),
so the solvers reduce to their selection rules.

Candidates are evaluated a whole move set at a time by the
struct-of-arrays kernel of :mod:`repro.core.arrays`
(:meth:`SearchContext.candidate_batch`); the conference-level ``phi``
lives in a :class:`~repro.core.arrays.PhiArray`, and a commit reuses
the chosen candidate's cost from the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.arrays import (
    BatchEvaluation,
    PhiArray,
    arrays_for,
    capacity_mask,
    delay_mask,
)
from repro.core.assignment import Assignment
from repro.core.capacity import CapacityLedger
from repro.core.fastpath import SessionUsage
from repro.core.feasibility import CAPACITY_TOLERANCE
from repro.core.neighborhood import Move
from repro.core.objective import ObjectiveEvaluator, SessionCost
from repro.errors import ModelError, SolverError
from repro.model.conference import Conference
from repro.netsim.noise import NoiseModel, NoNoise

#: Shared read-only ``arange`` prefixes for fully-feasible candidate
#: batches (the overwhelmingly common case on uncongested conferences),
#: keyed by length.
_IDENTITY_INDICES: dict[int, np.ndarray] = {}


def _identity_indices(n: int) -> np.ndarray:
    indices = _IDENTITY_INDICES.get(n)
    if indices is None:
        indices = np.arange(n, dtype=np.int64)
        indices.setflags(write=False)
        _IDENTITY_INDICES[n] = indices
    return indices


@dataclass(frozen=True)
class Candidate:
    """One feasible neighbouring assignment of a session."""

    move: Move
    assignment: Assignment
    cost: SessionCost

    @property
    def phi(self) -> float:
        return self.cost.phi


class CandidateBatch:
    """One session's feasible neighbours as flat arrays.

    Produced by :meth:`SearchContext.candidate_batch`.  Feasible
    candidates keep the move enumeration order; :attr:`phi` holds
    their *observed* (possibly noise-perturbed) objectives, which is what
    the HOP selection rules act on.  :meth:`materialize` builds a full
    :class:`Candidate` only for the (single) chosen neighbour.
    """

    def __init__(
        self,
        evaluation: BatchEvaluation,
        feasible: np.ndarray,
        phi_observed: np.ndarray,
        traffic: np.ndarray,
        transcode: np.ndarray,
        base_assignment: Assignment,
    ):
        self._evaluation = evaluation
        self._feasible = feasible
        self._all_feasible = bool(feasible.all())
        self._feasible_indices = (
            _identity_indices(feasible.shape[0])
            if self._all_feasible
            else np.flatnonzero(feasible)
        )
        self._phi_observed = phi_observed
        self._traffic = traffic
        self._transcode = transcode
        self._base = base_assignment

    @property
    def sid(self) -> int:
        return self._evaluation.moves.sid

    @property
    def evaluation(self) -> BatchEvaluation:
        return self._evaluation

    @property
    def feasible_mask(self) -> np.ndarray:
        """Feasibility over the *raw* move set (before filtering)."""
        return self._feasible

    @property
    def num_feasible(self) -> int:
        return int(self._feasible_indices.shape[0])

    @property
    def phi(self) -> np.ndarray:
        """Observed ``phi`` of the feasible candidates, enumeration order."""
        if self._all_feasible:
            return self._phi_observed
        return self._phi_observed[self._feasible_indices]

    def materialize(self, position: int) -> Candidate:
        """Build the full :class:`Candidate` for the ``position``-th
        *feasible* neighbour (the index the hop rules select on)."""
        i = position if self._all_feasible else int(self._feasible_indices[position])
        evaluation = self._evaluation
        move = evaluation.moves.move(i)
        usage = SessionUsage(
            sid=self.sid,
            inter_in=evaluation.inter_in[i].copy(),
            inter_out=evaluation.inter_out[i].copy(),
            download=evaluation.download[i].copy(),
            upload=evaluation.upload[i].copy(),
            transcodes=evaluation.transcodes[i].copy(),
        )
        cost = SessionCost(
            sid=self.sid,
            phi=float(self._phi_observed[i]),
            delay_cost_ms=float(evaluation.delay_cost_ms[i]),
            traffic_cost=float(self._traffic[i]),
            transcode_cost=float(self._transcode[i]),
            usage=usage,
        )
        return Candidate(move=move, assignment=move.apply(self._base), cost=cost)

    def materialize_all(self) -> list[Candidate]:
        return [self.materialize(p) for p in range(self.num_feasible)]


class SearchContext:
    """Mutable search state shared by the local-search solvers.

    Parameters
    ----------
    evaluator:
        Objective evaluator (fixes the conference, alphas and costs).
    assignment:
        A feasible starting assignment covering ``active_sids``.
    active_sids:
        Sessions being optimized (defaults to all sessions); inactive
        sessions' users must be unassigned and are ignored.
    noise:
        Optional observation noise applied to every *candidate* objective
        evaluation (the current state's remembered cost stays exact), which
        models the noisy measurements of Sec. IV-A.4.
    rng:
        Generator used only for noise draws here; solvers hold their own.
    """

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        assignment: Assignment,
        active_sids: list[int] | None = None,
        noise: NoiseModel | None = None,
        rng: np.random.Generator | None = None,
    ):
        self._evaluator = evaluator
        self._conference = evaluator.conference
        self._active = (
            sorted(active_sids)
            if active_sids is not None
            else list(range(self._conference.num_sessions))
        )
        if not self._active:
            raise SolverError("at least one active session is required")
        self._assignment = assignment
        self._noise: NoiseModel = noise if noise is not None else NoNoise()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._costs: dict[int, SessionCost] = {
            sid: evaluator.session_cost(assignment, sid) for sid in self._active
        }
        self._arrays = arrays_for(self._conference)
        self._phi = PhiArray({sid: cost.phi for sid, cost in self._costs.items()})
        # The ledger is fed from the costs just computed.
        self._ledger = CapacityLedger(self._conference)
        for cost in self._costs.values():
            self._ledger.set_session(cost.usage)

    # ------------------------------------------------------------------ #
    # State access                                                       #
    # ------------------------------------------------------------------ #

    @property
    def conference(self) -> Conference:
        return self._conference

    @property
    def evaluator(self) -> ObjectiveEvaluator:
        return self._evaluator

    @property
    def assignment(self) -> Assignment:
        return self._assignment

    @property
    def ledger(self) -> CapacityLedger:
        return self._ledger

    @property
    def active_sessions(self) -> list[int]:
        return list(self._active)

    def session_cost(self, sid: int) -> SessionCost:
        return self._costs[sid]

    def total_phi(self) -> float:
        return self._phi.total()

    def metrics(self) -> tuple[float, float]:
        """``(inter_agent_mbps, average_delay_ms)`` over active sessions."""
        traffic = sum(c.inter_agent_mbps for c in self._costs.values())
        delays = np.concatenate(
            [
                self._arrays.evaluate_assignment(self._assignment, sid).user_worst_ms
                for sid in self._active
            ]
        )
        return traffic, float(np.mean(delays))

    # ------------------------------------------------------------------ #
    # Candidate evaluation                                               #
    # ------------------------------------------------------------------ #

    def feasible_candidates(self, sid: int) -> list[Candidate]:
        """All feasible single-decision neighbours of session ``sid``."""
        return self.candidate_batch(sid).materialize_all()

    def candidate_batch(self, sid: int) -> CandidateBatch:
        """Session ``sid``'s feasible neighbours, evaluated in one
        :mod:`repro.core.arrays` pass over its whole move set.

        The candidate's stored cost is the *observed* one — exactly what
        Alg. 1's HOP acts on: noise draws are applied per *feasible*
        candidate in enumeration order.
        """
        evaluation = self._arrays.evaluate_candidates(self._assignment, sid)
        feasible = self._feasibility_mask(sid, evaluation)
        traffic = self._evaluator.traffic_cost_batch(evaluation.inter_in)
        transcode = self._evaluator.transcode_cost_batch(evaluation.transcodes)
        phi = self._evaluator.phi_batch(evaluation.delay_cost_ms, traffic, transcode)
        if not isinstance(self._noise, NoNoise):
            phi = phi.copy()
            for i in np.flatnonzero(feasible):
                phi[i] = self._noise.perturb(float(phi[i]), self._rng)
        return CandidateBatch(
            evaluation=evaluation,
            feasible=feasible,
            phi_observed=phi,
            traffic=traffic,
            transcode=transcode,
            base_assignment=self._assignment,
        )

    def _feasibility_mask(self, sid: int, evaluation: BatchEvaluation) -> np.ndarray:
        mask = delay_mask(evaluation, self._conference.dmax_ms)
        if not self._ledger.unconstrained:
            res_down, res_up, res_slots = self._ledger.residuals(excluding_sid=sid)
            mask &= capacity_mask(
                evaluation, res_down, res_up, res_slots, CAPACITY_TOLERANCE
            )
        return mask

    def count_feasible(self, sid: int, assignment: Assignment) -> int:
        """Feasibility degree of ``sid`` at an arbitrary assignment.

        Used for the Hastings correction of the Metropolis hop rule: the
        neighbourhood size at a *proposed* state.  Because no other
        session moves, the residual capacities excluding ``sid`` are the
        same at the current and proposed states, so the current ledger
        answers the question without rebuilding any search state.
        """
        evaluation = self._arrays.evaluate_candidates(assignment, sid)
        if evaluation.size == 0:
            return 0
        return int(np.count_nonzero(self._feasibility_mask(sid, evaluation)))

    def best_candidate(self, sid: int) -> Candidate | None:
        """The feasible neighbour of ``sid`` with the lowest *observed*
        ``phi``, or ``None`` when the session has no feasible move.

        Deterministic: ties resolve to the first candidate in the move
        enumeration order (``np.argmin`` semantics), and without noise no
        generator state is consumed — this is the service layer's
        incremental-delta entry point, so it must never perturb replay
        determinism.
        """
        batch = self.candidate_batch(sid)
        if batch.num_feasible == 0:
            return None
        return batch.materialize(int(np.argmin(batch.phi)))

    def greedy_refine(self, sid: int, max_hops: int) -> int:
        """Commit up to ``max_hops`` strictly-improving best moves of
        ``sid`` and return how many were taken.

        Pure greedy descent on the session's own move set against the
        live ledger — the incremental re-solve a long-lived service runs
        after splicing a session in, bounded by a deterministic hop
        count rather than wall time so identical request logs yield
        identical decisions.
        """
        hops = 0
        while hops < max_hops:
            candidate = self.best_candidate(sid)
            if candidate is None or candidate.phi >= self._costs[sid].phi:
                break
            self.commit(sid, candidate)
            hops += 1
        return hops

    # ------------------------------------------------------------------ #
    # Commitment                                                         #
    # ------------------------------------------------------------------ #

    def commit(self, sid: int, candidate: Candidate) -> None:
        """Adopt a candidate: swap the assignment and refresh caches.

        The committed cost is re-evaluated noiselessly so the context's
        view of the current state stays exact (noise applies to
        *observations* of candidates, not to the state itself).  Without
        noise the candidate's stored cost already *is* that exact cost
        (batch values are pinned bit-for-bit against a per-candidate
        recomputation), so the per-hop recomputation is skipped.
        """
        self._assignment = candidate.assignment
        if isinstance(self._noise, NoNoise):
            exact_cost = candidate.cost
        else:
            exact_cost = self._evaluator.session_cost(candidate.assignment, sid)
        self._costs[sid] = exact_cost
        self._ledger.set_session(exact_cost.usage)
        self._phi.set(sid, exact_cost.phi)

    # ------------------------------------------------------------------ #
    # Session dynamics (arrivals / departures)                           #
    # ------------------------------------------------------------------ #

    def add_session(self, sid: int, assignment: Assignment) -> None:
        """Activate a session bootstrapped in ``assignment`` (which must
        agree with the current assignment on all other sessions)."""
        if sid in self._costs:
            raise ModelError(f"session {sid} is already active")
        merged = self._assignment.merged(assignment, self._conference, sid)
        self._assignment = merged
        cost = self._evaluator.session_cost(merged, sid)
        self._costs[sid] = cost
        self._ledger.set_session(cost.usage)
        self._active = sorted(self._active + [sid])
        self._phi.append(sid, cost.phi)

    def remove_session(self, sid: int) -> None:
        """Deactivate a session and release its capacity."""
        if sid not in self._costs:
            raise ModelError(f"session {sid} is not active")
        del self._costs[sid]
        self._ledger.remove_session(sid)
        self._active.remove(sid)
        self._phi.remove(sid)
        self._assignment = self._assignment.with_session_cleared(self._conference, sid)
