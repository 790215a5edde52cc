"""The UAP objective ``Phi = sum_s alpha1 F(d_s) + alpha2 G(x_s) + alpha3 H(y_s)``.

Design notes (see DESIGN.md):

* The paper runs Alg. 1 with ``beta = 400`` "proportional to the logarithm
  of the problem state space".  With delays in hundreds of ms and traffic
  in tens of Mbps, raw units would saturate ``exp(beta * Phi)``; we
  therefore expose per-term *scales* so that a normalized objective keeps
  the Gibbs weights meaningful, and compute every softmax in the log
  domain regardless.  :meth:`ObjectiveWeights.normalized_for` derives
  scales from the conference (delay by ``Dmax``, traffic by the mean
  per-session source bitrate, transcodes by the mean per-session task
  count); :meth:`ObjectiveWeights.raw` keeps the paper's raw units.
* Alg. 1 only ever needs the *local* objective of one session
  (``Phi_{s,f}``) — that is what makes the parallel implementation
  possible — so the evaluator is session-centric and the global value is
  the sum over active sessions.
* A session's usage and delay terms come from the flow-model kernel of
  :mod:`repro.core.arrays`, for one assignment
  (:meth:`~repro.core.arrays.ConferenceArrays.evaluate_assignment`) as
  for a whole move set.  Both are assembled into ``Phi_{s,f}`` by the
  same batch functions (:meth:`ObjectiveEvaluator.traffic_cost_batch`,
  :meth:`~ObjectiveEvaluator.transcode_cost_batch`,
  :meth:`~ObjectiveEvaluator.phi_batch`), one row for a single
  assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.core.arrays import AssignmentEvaluation, arrays_for
from repro.core.assignment import Assignment
from repro.core.costs import CostFunction, LinearCost, uniform_costs, validate_cost_vector
from repro.core.fastpath import SessionUsage
from repro.errors import ModelError
from repro.model.conference import Conference


@dataclass(frozen=True)
class ObjectiveWeights:
    """The design parameters ``alpha1..alpha3`` and the per-term scales.

    ``alpha1`` weighs conferencing delay, ``alpha2`` inter-agent bandwidth
    cost and ``alpha3`` transcoding cost.  Each term is divided by its
    scale before weighing, so scales of 1 reproduce the paper's raw-unit
    objective.
    """

    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 1.0
    delay_scale: float = 1.0
    traffic_scale: float = 1.0
    transcode_scale: float = 1.0

    def __post_init__(self) -> None:
        if min(self.alpha1, self.alpha2, self.alpha3) < 0:
            raise ModelError("alpha weights must be non-negative")
        if self.alpha1 == self.alpha2 == self.alpha3 == 0:
            raise ModelError("at least one alpha must be positive")
        if min(self.delay_scale, self.traffic_scale, self.transcode_scale) <= 0:
            raise ModelError("scales must be positive")

    @classmethod
    def raw(
        cls, alpha1: float = 1.0, alpha2: float = 1.0, alpha3: float = 1.0
    ) -> "ObjectiveWeights":
        """Raw paper units: ms + Mbps + task count, unscaled."""
        return cls(alpha1=alpha1, alpha2=alpha2, alpha3=alpha3)

    @classmethod
    def normalized_for(
        cls,
        conference: Conference,
        alpha1: float = 1.0,
        alpha2: float = 1.0,
        alpha3: float = 1.0,
        delay_scale_ms: float | None = None,
    ) -> "ObjectiveWeights":
        """Scales chosen so each term is O(1) per session on ``conference``.

        Delay is normalized by the mean inter-agent delay (one "average
        hop" — the granularity at which assignment decisions move the
        delay cost; ``Dmax`` would flatten the term so much that traffic
        dominates and the delay/cost "win-win" of Table II disappears);
        traffic by the mean total source bitrate of a session (a natural
        upper-bound scale for inter-agent traffic); transcodes by the mean
        per-session task count.
        """
        num_sessions = max(1, conference.num_sessions)
        source_mbps = float(conference.upstream_kappa().sum()) / num_sessions
        tasks = conference.theta_sum / num_sessions
        if delay_scale_ms is None:
            d = conference.topology.inter_agent_ms
            off_diagonal = d[~np.eye(d.shape[0], dtype=bool)]
            delay_scale_ms = (
                float(off_diagonal.mean())
                if off_diagonal.size and off_diagonal.mean() > 0
                else conference.dmax_ms / 4.0
            )
        return cls(
            alpha1=alpha1,
            alpha2=alpha2,
            alpha3=alpha3,
            delay_scale=delay_scale_ms,
            traffic_scale=max(source_mbps, 1.0),
            transcode_scale=max(tasks, 1.0),
        )

    def with_alphas(
        self, alpha1: float, alpha2: float, alpha3: float
    ) -> "ObjectiveWeights":
        """Same scales, different design-parameter mix (Table II sweeps)."""
        return replace(self, alpha1=alpha1, alpha2=alpha2, alpha3=alpha3)


@dataclass(frozen=True)
class SessionCost:
    """The evaluated objective of one session, with its raw components."""

    sid: int
    phi: float
    delay_cost_ms: float
    traffic_cost: float
    transcode_cost: float
    usage: SessionUsage

    @property
    def inter_agent_mbps(self) -> float:
        return self.usage.total_inter_agent_mbps


class ObjectiveEvaluator:
    """Session-centric evaluator of the UAP objective.

    Parameters
    ----------
    conference:
        The model instance.
    weights:
        Alphas and scales.
    bandwidth_costs / transcode_costs:
        Per-agent convex costs ``g_l`` / ``h_l``; identity when omitted, in
        which case ``G`` is inter-agent Mbps and ``H`` the task count —
        the units of every figure in the paper.
    """

    def __init__(
        self,
        conference: Conference,
        weights: ObjectiveWeights,
        bandwidth_costs: Sequence[CostFunction] | None = None,
        transcode_costs: Sequence[CostFunction] | None = None,
    ):
        self._conference = conference
        self._weights = weights
        self._g = (
            list(bandwidth_costs)
            if bandwidth_costs is not None
            else uniform_costs(conference.num_agents)
        )
        self._h = (
            list(transcode_costs)
            if transcode_costs is not None
            else uniform_costs(conference.num_agents)
        )
        validate_cost_vector(self._g, conference.num_agents)
        validate_cost_vector(self._h, conference.num_agents)
        self._arrays = arrays_for(conference)
        self._identity_g = all(
            isinstance(g, LinearCost) and g.rate == 1.0 for g in self._g
        )
        self._identity_h = all(
            isinstance(h, LinearCost) and h.rate == 1.0 for h in self._h
        )

    @property
    def conference(self) -> Conference:
        return self._conference

    @property
    def weights(self) -> ObjectiveWeights:
        return self._weights

    def with_weights(self, weights: ObjectiveWeights) -> "ObjectiveEvaluator":
        """A new evaluator sharing costs but with different weights."""
        return ObjectiveEvaluator(self._conference, weights, self._g, self._h)

    def with_conference(self, conference: Conference) -> "ObjectiveEvaluator":
        """A new evaluator over a same-shape substrate view.

        Keeps the weights *and* the per-agent cost vectors — a fault-
        injected view must not renormalize the objective mid-run, or the
        phi series would jump for reasons unrelated to the fault.  The
        view must have the same number of agents (the cost vectors are
        revalidated against it).
        """
        return ObjectiveEvaluator(conference, self._weights, self._g, self._h)

    # ------------------------------------------------------------------ #
    # Evaluation                                                         #
    # ------------------------------------------------------------------ #

    def traffic_cost_batch(self, inter_in: np.ndarray) -> np.ndarray:
        """``G`` over a ``(C, L)`` candidate batch, one value per row.

        The identity case reduces along the agent axis with the same
        pairwise routine a per-row ``inter_in.sum()`` uses; general cost
        functions sum ``g_l`` over the agents of each row, in agent
        order.
        """
        if self._identity_g:
            return inter_in.sum(axis=1)
        num_agents = self._conference.num_agents
        return np.array(
            [
                sum(self._g[l](float(row[l])) for l in range(num_agents))
                for row in inter_in
            ]
        )

    def transcode_cost_batch(self, transcodes: np.ndarray) -> np.ndarray:
        """``H`` over a ``(C, L)`` candidate batch (see
        :meth:`traffic_cost_batch`)."""
        if self._identity_h:
            return transcodes.sum(axis=1).astype(float)
        num_agents = self._conference.num_agents
        return np.array(
            [
                sum(self._h[l](float(row[l])) for l in range(num_agents))
                for row in transcodes
            ]
        )

    def phi_batch(
        self, delay_cost_ms: np.ndarray, traffic: np.ndarray, transcode: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``Phi_{s,f}`` assembly: ``alpha1 F / scale + alpha2
        G / scale + alpha3 H / scale``, added left to right."""
        w = self._weights
        return (
            w.alpha1 * delay_cost_ms / w.delay_scale
            + w.alpha2 * traffic / w.traffic_scale
            + w.alpha3 * transcode / w.transcode_scale
        )

    def session_cost(self, assignment: Assignment, sid: int) -> SessionCost:
        """``Phi_{s,f}`` with its components (the HOP procedure's input)."""
        return self._assemble(self._arrays.evaluate_assignment(assignment, sid))

    def _assemble(self, evaluation: AssignmentEvaluation) -> SessionCost:
        """Build the :class:`SessionCost` of one evaluated session, with
        the batch assembly run on one row."""
        usage = evaluation.usage
        traffic = self.traffic_cost_batch(usage.inter_in[None, :])
        transcode = self.transcode_cost_batch(usage.transcodes[None, :])
        phi = self.phi_batch(
            np.array([evaluation.delay_cost_ms]), traffic, transcode
        )
        return SessionCost(
            sid=usage.sid,
            phi=float(phi[0]),
            delay_cost_ms=evaluation.delay_cost_ms,
            traffic_cost=float(traffic[0]),
            transcode_cost=float(transcode[0]),
            usage=usage,
        )

    def session_phi(self, assignment: Assignment, sid: int) -> float:
        """Just the scalar ``Phi_{s,f}``."""
        return self.session_cost(assignment, sid).phi

    def total(
        self, assignment: Assignment, sids: Iterable[int] | None = None
    ) -> "TotalCost":
        """The global objective over the active sessions (default: all)."""
        if sids is None:
            sids = range(self._conference.num_sessions)
        evaluations = [
            self._arrays.evaluate_assignment(assignment, sid) for sid in sids
        ]
        if not evaluations:
            raise ModelError("cannot evaluate an objective over zero sessions")
        sessions = [self._assemble(evaluation) for evaluation in evaluations]
        # Every user's worst delay in ``sids`` order, summed sequentially.
        delays = np.add.accumulate(
            np.concatenate([e.user_worst_ms for e in evaluations])
        )
        return TotalCost(
            phi=sum(c.phi for c in sessions),
            inter_agent_mbps=sum(c.inter_agent_mbps for c in sessions),
            average_delay_ms=float(delays[-1] / delays.shape[0]),
            transcode_tasks=float(sum(c.usage.transcodes.sum() for c in sessions)),
            sessions=tuple(sessions),
        )


@dataclass(frozen=True)
class TotalCost:
    """Aggregated objective and the paper's two reported metrics."""

    phi: float
    inter_agent_mbps: float
    average_delay_ms: float
    transcode_tasks: float
    sessions: tuple[SessionCost, ...]
