"""Struct-of-arrays conference core — the flow-model evaluator.

This module is the one production encoding of the paper's per-session
traffic formula ``mu_klu`` (Sec. III-B) and of the objective's delay
terms (Sec. III-C).  It evaluates a session two ways over the same
instruction table:

* :meth:`ConferenceArrays.evaluate_candidates` scores a session's
  *whole* single-decision move set in one array pass (:class:`MoveBatch`
  in, :class:`BatchEvaluation` out): per candidate traffic vectors,
  transcode counts, flow delays and the inputs of the delay-cap and
  capacity masks (:func:`delay_mask`, :func:`capacity_mask`).  Alg. 1
  spends essentially all of its time here: every HOP evaluates the
  ``O(|U(s)| * L)`` neighbours of one session.
* :meth:`ConferenceArrays.evaluate_assignment` scores one assignment
  (:class:`AssignmentEvaluation`) for the objective's session cost, its
  total and the search context's metrics; its usage half,
  :meth:`ConferenceArrays.assignment_usage`, feeds the capacity ledger,
  the bootstrap, AgRank's combo check and ``check_assignment``'s
  constraints (5)-(7).

The traffic formula
-------------------

``mu_klu`` is the download traffic at agent ``l`` received from agent
``k`` carrying streams that originate at user ``u``.  Its three terms:

1. ``lambda_ku * nu'_lu * kappa(r^u_u)`` — ``u`` attaches to ``k`` and
   ``l`` transcodes ``u``'s stream, so the raw upstream ships ``k ->
   l``;
2. ``(max_{v in P(u), theta_uv=0} lambda_lv) * lambda_ku * (1 -
   nu'_lu) * kappa(r^u_u)`` — some destination on ``l`` wants the *raw*
   stream and ``l`` is not already receiving it for transcoding;
3. ``sum_{r != r^u_u} (max_{v in P(u), r^d_vu=r} lambda_lv) * (1 -
   lambda_lu) * nu_kru * kappa(r)`` — ``k`` transcodes ``u``'s stream
   to ``r`` and some destination on ``l`` demands ``r``.

Here ``nu_lru = max_v gamma_lruv`` (agent ``l`` runs the task ``(u,
r)`` for at least one destination) and ``nu'_lu = max_r nu_lru``.  A
task is a distinct ``(agent, source, target rep)`` triple and occupies
one slot of ``t_l`` however many destinations consume it (constraint
(7)); two destinations demanding the same representation may still be
served by tasks on different agents, and then both count.  The ``(1 -
lambda_lu)`` factor of term 3 is a quirk of the published formula,
implemented verbatim: transcoded traffic flowing back into the source
user's own agent is not charged.

From ``mu``: ``inter_in[l] = x_ls = sum_u sum_{k != l} mu_klu`` (the
argument of the bandwidth cost ``g_l``), ``inter_out`` its egress
analogue, ``download`` = attached users' upstreams plus ``inter_in``
(constraint (5)), ``upload`` = streams to attached users plus
``inter_out`` (constraint (6)) and ``transcodes`` = ``y_ls``
(constraint (7)).

The instruction table
---------------------

The *static* structure of every session is flattened once into
parallel numpy index arrays (:class:`~repro.core.fastpath.SessionLayout`),
which the conference's profile caches and its fault views share;
:func:`arrays_for` prices them against one conference's D and H.
Every term of ``mu_klu`` that a session
can contribute (a ``+= kappa`` into one per-agent slot, guarded by the
``max`` / ``nu`` conditions above) becomes one row of a static
instruction table: the decision row whose agent the contribution
reads, the scalar weight, and "not-equal edges" encoding the guards as
set-dedup first-occurrence conditions.  An evaluation then reduces to
one gather of the session's current decisions (plus, for a move set,
one block scatter for the candidate axis), one combined gather of every
instruction row (usage contributions, flow endpoints, dedup edges), one
whole-table comparison and ``reduceat`` for the guards, and a single
``np.bincount`` accumulating all four usage arrays at once — no Python
loop over streams, groups or flows.  :class:`PhiArray` is the companion
piece for the conference-level state: per-session ``phi`` lives in one
insertion-ordered float array updated in place on commit, so the global
objective is a single sequential array reduction instead of a Python
walk.

Bit-for-bit contract
--------------------

Both passes are IEEE-754 identical to the per-assignment loops kept as
the test oracle (``tests/kernel_oracle.py``: ``session_usage``, which
adds each contribution of the formula one at a time, and
``session_delays``, one flow loop): every candidate row equals what
they compute for that candidate's assignment, and one assignment's
evaluation equals what they compute for it.  Candidates appear in
exactly the :func:`~repro.core.neighborhood.session_moves` order, and
the masks match :meth:`~repro.core.capacity.CapacityLedger.fits` and
the ``dmax_ms + 1e-9`` delay cap.  The rules that make it hold:

* Usage accumulation uses one ``np.bincount`` over flattened
  ``(usage array, candidate, agent)`` bins.  ``bincount`` adds its
  weights in input order, and the instruction rows are laid out in
  exactly the per-assignment contribution order (stream-major; per
  stream last-mile, then per-group transcode traffic with the
  destination loop outer and the task loop inner, then raw targets),
  so every slot accumulates the same addends in the same sequence.
  Set-dedup semantics (``task_agents`` / ``dest_agents`` /
  ``raw_targets``) become first-occurrence guards.  The four usage
  arrays and the transcode counts occupy five disjoint bin blocks
  (counts ride along with weight ``1.0`` — small integers are exact in
  float64 — and cast back to int), and masked-out contributions land
  in a sink column (agent id ``L``) that is sliced away, never skewing
  real slots.
* Flow delays add ``(h[a, src] + h[b, dst]) + d[a, b]`` for direct
  flows and ``(h[a, src] + h[b, dst]) + ((d[a, m] + d[m, b]) +
  sigma[pair, m])`` for transcoded ones (the objective's order; the
  recorded delay of :mod:`repro.core.delay` adds the same terms left to
  right).  Both kinds evaluate through one instruction block by
  treating a direct flow as a transcoded flow via its own source agent
  (``d[a, a] = +0.0``) with a zero sigma row, which is addend-for-addend
  exact: ``+0.0 + x == x`` bitwise for every ``x`` that is not
  ``-0.0``.  :class:`~repro.model.topology.Topology` guarantees the
  precondition: it stores D with an exact ``+0.0`` diagonal and no
  ``-0.0`` entries.
* Flows are *statically ordered by destination user*, so the per-user
  worst reduces with ``np.maximum.reduceat`` over contiguous segments
  with no per-hop permutation; per-flow delays are
  mutually independent and ``max`` over floats is exact under any
  reordering, so the per-user and per-session maxima (and their 0.0
  clamps) are unchanged.
* Sequential Python sums (the per-user worst-delay mean, the global
  objective) are replicated with ``np.add.accumulate`` — a strictly
  sequential left-to-right accumulation — never ``np.sum``, whose
  pairwise order could round differently.  :meth:`PhiArray.total`
  reduces over dict-insertion order, bitwise identical to ``sum(cost.phi
  for cost in costs.values())`` (``0 + x == x`` exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fastpath import (
    ConferenceProfile,
    SessionLayout,
    SessionUsage,
    profile_for,
)
from repro.core.neighborhood import KIND_USER, Move
from repro.errors import ModelError
from repro.model.conference import Conference
from repro.model.topology import Topology

__all__ = [
    "MoveBatch",
    "BatchEvaluation",
    "AssignmentEvaluation",
    "ConferenceArrays",
    "PhiArray",
    "arrays_for",
    "capacity_mask",
    "delay_mask",
]


@dataclass(frozen=True)
class MoveBatch:
    """The full single-decision move set of one session, as flat arrays.

    Candidates appear in exactly the order :func:`session_moves` yields
    them: users in session order then transcoding pairs, and for each
    decision the ``L - 1`` alternative agents in ascending id order.
    """

    sid: int
    #: ``KIND_USER`` (0) or ``KIND_TASK`` (1) per candidate.
    kinds: np.ndarray
    #: The moved decision: a uid for user moves, a pair index for tasks.
    indices: np.ndarray
    old_agents: np.ndarray
    new_agents: np.ndarray

    @property
    def size(self) -> int:
        return int(self.kinds.shape[0])

    def move(self, i: int) -> Move:
        """Materialize candidate ``i`` as a :class:`Move` object."""
        kind = "user" if self.kinds[i] == KIND_USER else "task"
        return Move(
            kind=kind,
            index=int(self.indices[i]),
            old_agent=int(self.old_agents[i]),
            new_agent=int(self.new_agents[i]),
        )


@dataclass(frozen=True)
class BatchEvaluation:
    """Vectorized per-candidate session metrics (axis 0 = candidate).

    The 2-D arrays are ``(C, L)``; rows are exactly what a
    :class:`~repro.core.fastpath.SessionUsage` holds for that candidate.
    """

    moves: MoveBatch
    inter_in: np.ndarray
    inter_out: np.ndarray
    download: np.ndarray
    upload: np.ndarray
    transcodes: np.ndarray
    #: ``F(d_s)`` — mean of per-user worst incoming delay, per candidate.
    delay_cost_ms: np.ndarray
    #: Max flow delay per candidate (feeds constraint (8)).
    max_flow_ms: np.ndarray

    @property
    def size(self) -> int:
        return self.moves.size


@dataclass(frozen=True)
class AssignmentEvaluation:
    """One session's metrics at one assignment (the one-row analogue of
    :class:`BatchEvaluation`).  Every array is freshly allocated."""

    usage: SessionUsage
    #: ``F(d_s)`` — mean of the per-user worst incoming delays.
    delay_cost_ms: float
    #: Per-user worst incoming delay, in session user order.
    user_worst_ms: np.ndarray


def capacity_mask(
    evaluation: BatchEvaluation,
    residual_down: np.ndarray,
    residual_up: np.ndarray,
    residual_slots: np.ndarray,
    tolerance: float,
) -> np.ndarray:
    """Per-candidate capacity feasibility (constraints (5)-(7)).

    ``residual_*`` must already exclude the hopping session's own usage,
    exactly as :meth:`CapacityLedger.fits` computes them.
    """
    return (
        (evaluation.download <= residual_down[None, :] + tolerance).all(axis=1)
        & (evaluation.upload <= residual_up[None, :] + tolerance).all(axis=1)
        & (evaluation.transcodes <= residual_slots[None, :] + tolerance).all(axis=1)
    )


def delay_mask(evaluation: BatchEvaluation, dmax_ms: float) -> np.ndarray:
    """Per-candidate delay-cap feasibility (constraint (8)), with a
    ``1e-9`` slack on the cap."""
    return ~(evaluation.max_flow_ms > dmax_ms + 1e-9)


class ConferenceArrays:
    """One conference's flow-model kernel: the instruction tables of a
    :class:`~repro.core.fastpath.ConferenceProfile`, which the
    conference's fault views share, priced against this conference's
    own D and H.  Only the matrices and the scratch buffers are its
    own; :func:`arrays_for` caches it on the conference.
    """

    def __init__(self, profile: ConferenceProfile, topology: Topology):
        self._profile = profile
        self._num_agents = int(profile.num_agents)
        self._h = topology.agent_user_ms
        self._d = topology.inter_agent_ms
        self._sigma_pad = profile.sigma_pad
        alternatives = max(self._num_agents - 1, 0)
        self._alt = np.arange(alternatives, dtype=np.int64)[None, :]
        #: Reusable per-shape scratch buffers.  Everything handed out in
        #: an evaluation or a :class:`SessionUsage` is freshly allocated
        #: per call; only internal intermediates live here.
        self._scratch: dict[tuple, np.ndarray] = {}

    def _buffer(
        self, tag: str, shape: tuple, dtype=np.int64
    ) -> np.ndarray:
        key = (tag,) + shape
        buffer = self._scratch.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
            self._scratch[key] = buffer
        return buffer

    # ------------------------------------------------------------------ #
    # The kernel                                                         #
    # ------------------------------------------------------------------ #

    def evaluate_candidates(self, assignment, sid: int) -> BatchEvaluation:
        """Evaluate every single-decision neighbour of session ``sid``
        at ``assignment`` in one pass over the flattened layout.

        Row ``i`` is bit-for-bit what :meth:`evaluate_assignment` gives
        for the ``i``-th move's assignment.
        """
        layout = self._profile.layout(sid)
        num_agents = self._num_agents
        current = self._decisions(assignment, layout, sid)

        alternatives = num_agents - 1
        if alternatives <= 0:
            return self._empty_evaluation(sid)
        move_set = self._profile.move_set(sid)
        size = move_set.kinds.shape[0]
        new_agents = self._alt + (self._alt >= current[:, None])
        moves = MoveBatch(
            sid=sid,
            kinds=move_set.kinds,
            indices=move_set.indices,
            old_agents=np.repeat(current, alternatives),
            new_agents=new_agents.reshape(-1),
        )

        # (D, C) decision matrix: every decision's agent id per candidate
        # — the base assignment everywhere except each move's own block.
        cols = self._buffer("cols", (current.shape[0], size))
        cols[:] = current[:, None]
        cols[move_set.block_rows, move_set.block_cols] = new_agents

        # One gather resolves every instruction row, flow endpoint and
        # dedup edge.
        values = self._buffer("vals", (layout.all_rows.shape[0], size))
        np.take(cols, layout.all_rows, axis=0, out=values)
        n_usage = self._apply_guards(layout, values)

        # All four usage arrays plus the transcode counts in one
        # input-ordered bincount over five disjoint bin blocks.
        bins_per_block = size * (num_agents + 1)
        bins = self._buffer("bins", (n_usage, size))
        np.add(values[:n_usage], move_set.usage_offsets, out=bins)
        flat = np.bincount(
            bins.ravel(),
            weights=move_set.usage_weights,
            minlength=5 * bins_per_block,
        ).reshape(5, size, num_agents + 1)
        lastmile_down, lastmile_up, inter_out, inter_in, tc_counts = flat
        inter_out = inter_out[:, :num_agents]
        inter_in = inter_in[:, :num_agents]
        # Counts rode along as 1.0 weights — small integers are exact in
        # float64 — and cast back losslessly.
        transcodes = tc_counts[:, :num_agents].astype(np.int64)

        # The segments partition the flows, so the longest flow is the
        # largest per-user worst.
        worst = self._user_worst(layout, values, n_usage)
        max_flow = worst.max(axis=0)
        np.add.accumulate(worst, axis=0, out=worst)
        return BatchEvaluation(
            moves=moves,
            inter_in=inter_in,
            inter_out=inter_out,
            download=lastmile_down[:, :num_agents] + inter_in,
            upload=lastmile_up[:, :num_agents] + inter_out,
            transcodes=transcodes,
            delay_cost_ms=worst[layout.num_users - 1] / layout.num_users,
            max_flow_ms=max_flow,
        )

    def evaluate_assignment(self, assignment, sid: int) -> AssignmentEvaluation:
        """Evaluate session ``sid`` at ``assignment`` itself: the same
        instruction table, guards, ``bincount`` and delay order as
        :meth:`evaluate_candidates`, run over one decision vector.

        Everything returned is freshly allocated — the capacity ledger
        keeps the usage arrays.
        """
        layout = self._profile.layout(sid)
        values = self._decisions(assignment, layout, sid)[layout.all_rows]
        n_usage = self._apply_guards(layout, values)
        worst = self._user_worst(layout, values, n_usage)
        return AssignmentEvaluation(
            usage=self._usage(layout, values, n_usage),
            delay_cost_ms=float(np.add.accumulate(worst)[-1] / layout.num_users),
            user_worst_ms=worst,
        )

    def assignment_usage(self, assignment, sid: int) -> SessionUsage:
        """The usage half of :meth:`evaluate_assignment`, for callers
        that price capacity only (the ledger feed, AgRank's combo check,
        constraints (5)-(7)): the delay half is about a third of the
        pass."""
        layout = self._profile.layout(sid)
        values = self._decisions(assignment, layout, sid)[layout.all_rows]
        return self._usage(layout, values, self._apply_guards(layout, values))

    def _usage(
        self, layout: SessionLayout, values: np.ndarray, n_usage: int
    ) -> SessionUsage:
        """One assignment's usage from its guarded value table: all four
        usage arrays plus the transcode counts in one bincount."""
        num_agents = self._num_agents
        flat = np.bincount(
            values[:n_usage] + layout.row_offsets,
            weights=layout.row_weights,
            minlength=5 * (num_agents + 1),
        ).reshape(5, num_agents + 1)[:, :num_agents]
        # Rows: last-mile down, last-mile up, inter out, inter in, counts.
        download, upload = flat[:2] + flat[3:1:-1]
        return SessionUsage(
            sid=layout.sid,
            inter_in=flat[3],
            inter_out=flat[2],
            download=download,
            upload=upload,
            transcodes=flat[4].astype(np.int64),
        )

    def _decisions(self, assignment, layout: SessionLayout, sid: int) -> np.ndarray:
        """The session's decisions at ``assignment`` (users, then pairs).

        An unassigned decision, or one naming no agent, is a
        :class:`ModelError`: either would land in another decision's
        bins instead of failing.
        """
        current = np.concatenate(
            (
                assignment.user_agent[layout.uids],
                assignment.task_agent[layout.pairs],
            )
        )
        if current.min() < 0:
            raise ModelError(f"session {sid} has unassigned decisions")
        if current.max() >= self._num_agents:
            raise ModelError(
                f"session {sid} has decisions beyond agent {self._num_agents - 1}"
            )
        return current

    def _apply_guards(self, layout: SessionLayout, values: np.ndarray) -> int:
        """Redirect every contribution whose guard fails to the sink
        column (agent id ``L``), in place on a ``(R,)`` or ``(R, C)``
        value table; returns the number of usage rows."""
        num_agents = self._num_agents
        num_inter = layout.num_inter
        n_lastmile = 2 * layout.num_streams
        n_usage = n_lastmile + 2 * num_inter + layout.num_transcodes
        edges_at = n_usage + 3 * layout.num_flows

        # One whole-table comparison + one reduceat evaluates every
        # guard: the first ``num_inter`` segments are the inter-agent
        # dedup masks (edge 0 is the implicit receiver != sender), the
        # rest are transcode duplicate masks.
        num_guard = layout.num_edges + layout.num_tc_edges
        if num_guard:
            fail = (
                values[edges_at : edges_at + num_guard]
                == values[edges_at + num_guard : edges_at + 2 * num_guard]
            )
            guard = np.bitwise_or.reduceat(
                fail, layout.guard_starts, axis=0
            )
            if num_inter:
                # Senders and receivers are adjacent row blocks, so one
                # masked write through a (2, P, ...) view covers both.
                inter = values[n_lastmile : n_lastmile + 2 * num_inter]
                np.copyto(
                    inter.reshape((2, num_inter) + values.shape[1:]),
                    num_agents,
                    where=guard[:num_inter],
                )
            if guard.shape[0] > num_inter:
                task_agents = values[n_lastmile + 2 * num_inter : n_usage]
                duplicate = guard[num_inter:]
                task_agents[layout.tc_e_rows] = np.where(
                    duplicate, num_agents, task_agents[layout.tc_e_rows]
                )
        return n_usage

    def _user_worst(
        self, layout: SessionLayout, values: np.ndarray, flows_at: int
    ) -> np.ndarray:
        """Per-user worst incoming delay, clamped at 0.0 (one row per
        session user, in order), over a ``(R,)`` or ``(R, C)`` value
        table."""
        num_flows = layout.num_flows
        a = values[flows_at : flows_at + num_flows]
        b = values[flows_at + num_flows : flows_at + 2 * num_flows]
        m = values[flows_at + 2 * num_flows : flows_at + 3 * num_flows]
        src, dst, sig = layout.f_src_uids, layout.f_dst_uids, layout.sig_rows
        if values.ndim == 2:
            src, dst, sig = src[:, None], dst[:, None], sig[:, None]
        h, d = self._h, self._d
        delays = self._buffer("delays", a.shape, dtype=np.float64)
        np.add(h[a, src], h[b, dst], out=delays)
        # Direct flows hop "via" their own source agent (d[a, a] ==
        # +0.0, zero sigma row) — addend-exact.
        hops = self._buffer("hops", a.shape, dtype=np.float64)
        np.add(d[a, m], d[m, b], out=hops)
        hops += self._sigma_pad[sig, m]
        delays += hops

        # Segment-max per destination user; exact under any reduction
        # order.  Clamping at 0.0 keeps the per-assignment loops' initial
        # value.  ``np.add.accumulate`` over these rows — a strictly
        # sequential left-to-right reduction — then replicates the
        # loops' ``sum(worst.values())`` exactly (the implicit leading
        # ``0.0 + x`` is exact); np.sum's pairwise order would not.
        worst = np.maximum.reduceat(delays, layout.seg_starts, axis=0)
        np.maximum(worst, 0.0, out=worst)
        return worst

    def _empty_evaluation(self, sid: int) -> BatchEvaluation:
        num_agents = self._num_agents
        empty_i = np.empty(0, dtype=np.int64)
        moves = MoveBatch(
            sid=sid,
            kinds=np.empty(0, dtype=np.uint8),
            indices=empty_i,
            old_agents=empty_i,
            new_agents=empty_i.copy(),
        )
        zeros = lambda: np.zeros((0, num_agents))
        return BatchEvaluation(
            moves=moves,
            inter_in=zeros(),
            inter_out=zeros(),
            download=zeros(),
            upload=zeros(),
            transcodes=np.zeros((0, num_agents), dtype=np.int64),
            delay_cost_ms=np.zeros(0),
            max_flow_ms=np.zeros(0),
        )


class PhiArray:
    """Per-session ``phi`` as one insertion-ordered float array.

    Mirrors the insertion-order semantics of a per-session
    ``dict[int, SessionCost]`` exactly: initial sessions in sorted order,
    arrivals appended at the end, departures deleted in place, commits
    updating one slot — so :meth:`total`'s sequential reduction is
    bitwise identical to the Python sum over the dict's ``.values()``.
    """

    def __init__(self, phis: dict[int, float]):
        self._position = {sid: i for i, sid in enumerate(phis)}
        self._values = np.fromiter(phis.values(), dtype=float, count=len(phis))
        self._scratch = np.empty_like(self._values)

    def set(self, sid: int, phi: float) -> None:
        self._values[self._position[sid]] = phi

    def append(self, sid: int, phi: float) -> None:
        self._position[sid] = self._values.shape[0]
        self._values = np.append(self._values, phi)
        self._scratch = np.empty_like(self._values)

    def remove(self, sid: int) -> None:
        gone = self._position.pop(sid)
        self._values = np.delete(self._values, gone)
        self._scratch = np.empty_like(self._values)
        for other, position in self._position.items():
            if position > gone:
                self._position[other] = position - 1

    def total(self) -> float | int:
        """Exact sequential sum; ``0`` (the int, like ``sum(())``) when
        no session is live."""
        if self._values.shape[0] == 0:
            return 0
        np.add.accumulate(self._values, out=self._scratch)
        return float(self._scratch[-1])


def arrays_for(conference: Conference) -> ConferenceArrays:
    """The conference's :class:`ConferenceArrays` — its own D and H over
    the :func:`~repro.core.fastpath.profile_for` structure — cached on
    the conference (same lifetime, no global registry)."""
    arrays = getattr(conference, "_conference_arrays", None)
    if arrays is None:
        arrays = ConferenceArrays(profile_for(conference), conference.topology)
        conference._conference_arrays = arrays
    return arrays
