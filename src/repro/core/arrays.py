"""Struct-of-arrays conference core — the candidate-evaluation kernel.

Alg. 1 spends essentially all of its time scoring candidates: every HOP
evaluates the ``O(|U(s)| * L)`` single-decision neighbours of one
session.  This module evaluates a session's *whole* move set in one
array pass (:class:`MoveBatch` in, :class:`BatchEvaluation` out): per
candidate traffic vectors, transcode counts, flow delays and the inputs
of the delay-cap and capacity masks (:func:`delay_mask`,
:func:`capacity_mask`).

The *static* structure of every session is flattened once into
parallel numpy index arrays (:class:`SessionLayout`).  Every usage
contribution of a session (a ``+= kappa`` into one per-agent slot,
guarded by set-dedup conditions) becomes one row of a static
instruction table: the decision row whose agent the contribution reads,
the scalar weight, and "not-equal edges" encoding the dedup guards.
A hop then reduces to one gather of the session's current decisions,
one block scatter for the candidate axis, one combined gather of every
instruction row (usage contributions, flow endpoints, dedup edges), a
handful of whole-table comparisons for the masks, and a single
``np.bincount`` accumulating all four usage arrays at once — no Python
loop over streams, groups or flows, and no per-hop allocation beyond
the output arrays.  :class:`PhiArray` is the companion piece for the
conference-level state: per-session ``phi`` lives in one
insertion-ordered float array updated in place on commit, so the global
objective is a single sequential array reduction instead of a Python
walk.

Bit-for-bit contract
--------------------

Every candidate row is IEEE-754 identical to what the per-assignment
:meth:`~repro.core.fastpath.ConferenceProfile.session_usage` and
:meth:`~repro.core.fastpath.ConferenceProfile.session_delays` compute
for that candidate's assignment, candidates appear in exactly the
:func:`~repro.core.neighborhood.session_moves` order, and the masks
match :meth:`~repro.core.capacity.CapacityLedger.fits` and the
``dmax_ms + 1e-9`` delay cap.  A per-candidate oracle under ``tests/``
pins all of it.  The rules that make it hold:

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
* Flow delays keep the *same parenthesization* as ``session_delays``:
  ``(h[a, src] + h[b, dst]) + d[a, b]`` for direct flows and ``(h[a,
  src] + h[b, dst]) + ((d[a, m] + d[m, b]) + sigma[pair, m])`` for
  transcoded ones.  When the agent matrix is clean (an exactly ``+0.0``
  diagonal and no ``-0.0`` entries — every latency model here) both
  kinds evaluate through one fused instruction block by treating a
  direct flow as a transcoded flow via its own source agent (``d[a, a]
  = +0.0``) with a zero sigma row, which is addend-for-addend exact:
  ``+0.0 + x == x`` bitwise for every ``x`` that is not ``-0.0``.
  Unclean matrices fall back to split direct/transcoded blocks.
* Flows are *statically ordered by destination user* in fused layouts,
  so the per-user worst reduces with ``np.maximum.reduceat`` over
  contiguous segments with no per-hop permutation; per-flow delays are
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

from repro.core.neighborhood import KIND_TASK, KIND_USER, Move
from repro.errors import ModelError

__all__ = [
    "MoveBatch",
    "BatchEvaluation",
    "SessionLayout",
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
    :class:`~repro.core.traffic.SessionUsage` holds for that candidate.
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


@dataclass(frozen=True)
class SessionLayout:
    """All static per-session structure, flattened to index arrays.

    Decision rows are ordered users-then-pairs, matching the move
    enumeration of :func:`repro.core.neighborhood.session_moves`.  The
    heart of the layout is ``all_rows``, the combined instruction table:
    one gather ``cols[all_rows]`` yields, for every candidate at once,
    the agent id behind every usage contribution, flow endpoint and
    dedup edge.  Its row blocks are, in order (``S`` streams, ``P``
    inter-agent contributions, ``G`` transcode instructions, ``F``
    flows, ``E`` / ``TE`` dedup edges)::

        [0, S)            last-mile download (stream sources)
        [S, 2S)           last-mile upload (same rows again)
        [2S, 2S + P)      inter-agent senders  (task / source rows)
        [2S + P, 2S + 2P) inter-agent receivers (dest / symbol rows)
        [2S + 2P, n_u)    transcode-count task rows  (n_u = 2S + 2P + G)
        [n_u, +F)         flow sources
        [.., +F)          flow destinations
        [.., +F or +F2)   flow middles (task rows; fused layouts carry
                          the source row again for direct flows)
        [.., +E), [.., +TE)   guard-edge "a" endpoints (inter, then tc)
        [.., +E), [.., +TE)   guard-edge "b" endpoints (same order)

    The first ``n_u`` rows feed one ``np.bincount`` whose flattened bins
    are ``block * C * (L + 1) + candidate * (L + 1) + agent``
    (``usage_offsets`` pre-computes everything but the agent), with
    ``usage_weights`` carrying the per-contribution scalars (``1.0`` for
    the transcode-count block).  The edge blocks interleave "a" and "b"
    halves so one whole-table comparison evaluates every guard at once:
    the implicit ``receiver != sender`` condition is edge 0 of each
    inter contribution's ``guard_starts`` segment, so a single
    ``np.bitwise_or.reduceat`` yields the ``P`` inter masks followed by
    the transcode duplicate masks (scattered via ``tc_e_rows``).
    """

    sid: int
    uids: np.ndarray
    pairs: np.ndarray
    num_users: int
    #: Static :class:`MoveBatch` columns (kind / moved-decision id).
    kinds: np.ndarray
    indices: np.ndarray
    #: ``(D, 1)`` / ``(D, A)`` fancy indices scattering the move blocks.
    block_rows: np.ndarray
    block_cols: np.ndarray
    #: Combined instruction table (see class docstring) and the block
    #: sizes carving it into slices.
    all_rows: np.ndarray
    num_streams: int
    num_inter: int
    num_flows: int
    num_direct: int
    num_edges: int
    num_tc_edges: int
    num_transcodes: int
    usage_offsets: np.ndarray
    usage_weights: np.ndarray
    #: Guard segments over the combined edge table: the first ``P``
    #: segments are the inter contributions (edge 0 is the implicit
    #: ``receiver != sender``; the rest encode set-dedup first-occurrence
    #: guards and the group rows' ``dest != source agent`` condition),
    #: the remaining segments are transcode duplicate guards scattering
    #: to task rows ``tc_e_rows`` (within-group first occurrence).
    guard_starts: np.ndarray
    tc_e_rows: np.ndarray
    #: Flow metadata: the users bounding each flow (as ``(F, 1)``
    #: columns into ``h``).  ``flows_fused`` selects the fused one-block
    #: formula; ``sig_rows`` then indexes the zero-padded sigma matrix
    #: (direct flows point at the zero row) and flows are pre-sorted by
    #: destination (``perm`` is None).  Split layouts keep direct flows
    #: first and ``perm`` re-sorts by destination at run time.
    flows_fused: bool
    f_src_uids: np.ndarray
    f_dst_uids: np.ndarray
    sig_rows: np.ndarray | None
    t_pair_ids: np.ndarray | None
    perm: np.ndarray | None
    seg_starts: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _build_layout(
    plan, num_agents: int, num_pairs: int, demand_out_mbps, fused: bool
) -> SessionLayout:
    users = plan.users
    pair_indices = plan.pair_indices
    num_users = len(users)
    num_decisions = num_users + len(pair_indices)
    alternatives = max(num_agents - 1, 0)
    size = num_decisions * alternatives

    row_of_user = {uid: i for i, uid in enumerate(users)}
    row_of_pair = {p: num_users + j for j, p in enumerate(pair_indices)}

    decision_kinds = np.concatenate(
        [
            np.full(num_users, KIND_USER, dtype=np.uint8),
            np.full(len(pair_indices), KIND_TASK, dtype=np.uint8),
        ]
    )
    decision_indices = np.concatenate(
        [
            np.asarray(users, dtype=np.int64),
            np.asarray(pair_indices, dtype=np.int64),
        ]
    )

    # Instruction tables, accumulated in exact per-assignment order.
    lm_src: list[int] = []
    lm_kappa: list[float] = []
    lm_demand: list[float] = []
    tc_rows: list[int] = []
    tc_e_a: list[int] = []
    tc_e_b: list[int] = []
    tc_e_starts: list[int] = []
    tc_e_rows: list[int] = []
    iv_out: list[int] = []
    iv_in: list[int] = []
    iv_kappa: list[float] = []
    e_a: list[int] = []
    e_b: list[int] = []
    e_starts: list[int] = []

    def edges_for(pairs: list[tuple[int, int]]) -> None:
        # Every inter contribution opens a guard segment (edge 0 is the
        # implicit receiver != sender), so reduceat output row g IS
        # contribution g — no scatter needed.
        e_starts.append(len(e_a))
        for row_a, row_b in pairs:
            e_a.append(row_a)
            e_b.append(row_b)

    for stream in plan.streams:
        src = row_of_user[stream.source]
        lm_src.append(src)
        lm_kappa.append(float(stream.kappa_up))
        lm_demand.append(float(demand_out_mbps[stream.source]))

        raw_symbol_rows: list[int] = []
        for kappa, pair_list, dests in stream.transcode_groups:
            task_rows = [row_of_pair[i] for i in pair_list]
            for ti, task_row in enumerate(task_rows):
                tc_rows.append(task_row)
                if ti:
                    tc_e_starts.append(len(tc_e_a))
                    tc_e_rows.append(len(tc_rows) - 1)
                    for tj in range(ti):
                        tc_e_a.append(task_row)
                        tc_e_b.append(task_rows[tj])
            dest_rows = [row_of_user[v] for v in dests]
            for dv, dest_row in enumerate(dest_rows):
                for ti, task_row in enumerate(task_rows):
                    iv_out.append(task_row)
                    iv_in.append(dest_row)
                    iv_kappa.append(float(kappa))
                    # dest != task agent (implicit), dest != source
                    # agent, dest-first (vs earlier dests of the
                    # group), task-first (vs earlier tasks).
                    edges_for(
                        [(dest_row, task_row), (dest_row, src)]
                        + [(dest_row, dest_rows[dvp]) for dvp in range(dv)]
                        + [(task_row, task_rows[tip]) for tip in range(ti)],
                    )
            raw_symbol_rows.extend(task_rows)
        raw_symbol_rows.extend(row_of_user[v] for v in stream.raw_dest_users)

        for q, symbol_row in enumerate(raw_symbol_rows):
            iv_out.append(src)
            iv_in.append(symbol_row)
            iv_kappa.append(float(stream.kappa_up))
            # symbol != source agent (implicit), then symbol-first vs
            # every earlier raw symbol of the stream.
            edges_for(
                [(symbol_row, src)]
                + [(symbol_row, raw_symbol_rows[qp]) for qp in range(q)]
            )

    # Flow plan.  Fused layouts sort flows by destination user up front
    # (per-flow values are independent, and both downstream reductions
    # are order-exact maxima); split layouts keep direct-then-task order
    # and re-sort at run time.
    direct = [f for f in plan.flows if f[2] < 0]
    tasked = [f for f in plan.flows if f[2] >= 0]
    flows: list[tuple[int, int, int]] = direct + tasked
    if fused:
        flows = sorted(flows, key=lambda f: row_of_user[f[1]])
    dest_positions = np.asarray(
        [row_of_user[f[1]] for f in flows], dtype=np.int64
    )
    if fused:
        ordered = dest_positions
        perm = None
    else:
        perm = np.argsort(dest_positions, kind="stable")
        ordered = dest_positions[perm]
    seg_starts = np.flatnonzero(
        np.concatenate([[True], ordered[1:] != ordered[:-1]])
    )
    if seg_starts.shape[0] != num_users:
        raise ModelError(
            f"session {plan.sid} flow plan does not cover every user"
        )

    f_src_rows = [row_of_user[f[0]] for f in flows]
    if fused:
        # Direct flows route "via" their own source agent: d[a, a] is
        # exactly +0.0 (checked by the caller) and sigma row
        # ``num_pairs`` is the zero padding row.
        f_mid_rows = [
            f_src_rows[i] if f[2] < 0 else row_of_pair[f[2]]
            for i, f in enumerate(flows)
        ]
        sig_rows = [num_pairs if f[2] < 0 else f[2] for f in flows]
        t_pair_ids = None
    else:
        f_mid_rows = [row_of_pair[f[2]] for f in tasked]
        sig_rows = None
        t_pair_ids = [f[2] for f in tasked]

    all_rows = np.asarray(
        lm_src
        + lm_src
        + iv_out
        + iv_in
        + tc_rows
        + f_src_rows
        + [row_of_user[f[1]] for f in flows]
        + f_mid_rows
        + e_a
        + tc_e_a
        + e_b
        + tc_e_b,
        dtype=np.int64,
    )
    # Flattened bin index minus the agent id: usage-array block plus
    # candidate column, both scaled by the (L + 1)-wide agent axis.
    bins_per_block = size * (num_agents + 1)
    num_streams = len(lm_src)
    num_inter = len(iv_out)
    block_of = np.repeat(
        np.arange(5, dtype=np.int64),
        [num_streams, num_streams, num_inter, num_inter, len(tc_rows)],
    )
    usage_offsets = (
        block_of[:, None] * bins_per_block
        + (np.arange(size, dtype=np.int64) * (num_agents + 1))[None, :]
    )
    usage_weights = np.repeat(
        np.asarray(
            lm_kappa + lm_demand + iv_kappa + iv_kappa + [1.0] * len(tc_rows),
            dtype=np.float64,
        ),
        size,
    )
    guard_starts = e_starts + [len(e_a) + start for start in tc_e_starts]

    as_i64 = lambda xs: _frozen(np.asarray(xs, dtype=np.int64))
    column = lambda xs: _frozen(np.asarray(xs, dtype=np.int64)[:, None])
    return SessionLayout(
        sid=plan.sid,
        uids=as_i64(users),
        pairs=as_i64(pair_indices),
        num_users=num_users,
        kinds=_frozen(np.repeat(decision_kinds, alternatives)),
        indices=_frozen(np.repeat(decision_indices, alternatives)),
        block_rows=_frozen(np.arange(num_decisions, dtype=np.int64)[:, None]),
        block_cols=_frozen(
            np.arange(size, dtype=np.int64).reshape(
                num_decisions, alternatives
            )
        ),
        all_rows=_frozen(all_rows),
        num_streams=num_streams,
        num_inter=num_inter,
        num_flows=len(flows),
        num_direct=len(direct),
        num_edges=len(e_a),
        num_tc_edges=len(tc_e_a),
        num_transcodes=len(tc_rows),
        usage_offsets=_frozen(usage_offsets),
        usage_weights=_frozen(usage_weights),
        guard_starts=as_i64(guard_starts),
        tc_e_rows=as_i64(tc_e_rows),
        flows_fused=fused,
        f_src_uids=column([f[0] for f in flows]),
        f_dst_uids=column([f[1] for f in flows]),
        sig_rows=None if sig_rows is None else column(sig_rows),
        t_pair_ids=None if t_pair_ids is None else column(t_pair_ids),
        perm=None if perm is None else _frozen(perm),
        seg_starts=_frozen(seg_starts),
    )


class ConferenceArrays:
    """Flattened per-conference state + the single-pass hop kernel.

    Built lazily on top of a :class:`~repro.core.fastpath.
    ConferenceProfile` (which owns the latency/bitrate matrices); one
    :class:`SessionLayout` per session is constructed on first use and
    reused for the conference's lifetime.  :meth:`warm` prebuilds every
    layout so steady-state timing excludes construction.
    """

    def __init__(self, profile):
        self._profile = profile
        self._num_agents = int(profile.num_agents)
        self._h = profile.h
        self._d = profile.d
        self._sigma = profile.sigma
        self._num_pairs = int(self._sigma.shape[0])
        # The fused flow formula needs d[a, a] == +0.0 exactly and no
        # -0.0 anywhere (see the module contract); every latency model
        # here qualifies, but hand-built matrices fall back safely.
        d = self._d
        diagonal = np.diagonal(d)
        self._flows_fused = bool(
            np.all(diagonal == 0.0)
            and not np.signbit(diagonal).any()
            and not ((d == 0.0) & np.signbit(d)).any()
        )
        self._sigma_pad = _frozen(
            np.concatenate(
                [self._sigma, np.zeros((1, self._sigma.shape[1]))]
            )
            if self._num_pairs
            else np.zeros((1, max(self._num_agents, 1)))
        )
        alternatives = max(self._num_agents - 1, 0)
        self._alt = np.arange(alternatives, dtype=np.int64)[None, :]
        self._layouts: dict[int, SessionLayout] = {}
        #: Reusable per-shape scratch buffers.  Everything handed out in
        #: a :class:`BatchEvaluation` is freshly allocated per call;
        #: only internal intermediates live here.
        self._scratch: dict[tuple, np.ndarray] = {}

    @property
    def profile(self):
        return self._profile

    def layout(self, sid: int) -> SessionLayout:
        layout = self._layouts.get(sid)
        if layout is None:
            layout = _build_layout(
                self._profile.plan(sid),
                self._num_agents,
                self._num_pairs,
                self._profile.demand_out_mbps,
                self._flows_fused,
            )
            self._layouts[sid] = layout
        return layout

    def warm(self, sids) -> None:
        """Prebuild the layouts of ``sids`` (steady-state preparation)."""
        for sid in sids:
            self.layout(sid)

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

        Row ``i`` is bit-for-bit what ``session_usage`` /
        ``session_delays`` give for the ``i``-th move's assignment.
        """
        layout = self.layout(sid)
        num_agents = self._num_agents
        num_uids = layout.uids.shape[0]
        current = self._buffer(
            "cur", (num_uids + layout.pairs.shape[0],)
        )
        np.take(assignment.user_agent, layout.uids, out=current[:num_uids])
        np.take(assignment.task_agent, layout.pairs, out=current[num_uids:])
        if current.size and int(current.min()) < 0:
            raise ModelError(f"session {sid} has unassigned decisions")

        alternatives = num_agents - 1
        size = layout.kinds.shape[0]
        if alternatives <= 0 or size == 0:
            return self._empty_evaluation(sid, layout)
        new_agents = self._alt + (self._alt >= current[:, None])
        moves = MoveBatch(
            sid=sid,
            kinds=layout.kinds,
            indices=layout.indices,
            old_agents=np.repeat(current, alternatives),
            new_agents=new_agents.reshape(-1),
        )

        # (D, C) decision matrix: every decision's agent id per candidate
        # — the base assignment everywhere except each move's own block.
        cols = self._buffer("cols", (current.shape[0], size))
        cols[:] = current[:, None]
        cols[layout.block_rows, layout.block_cols] = new_agents

        # One gather resolves every instruction row, flow endpoint and
        # dedup edge.
        values = self._buffer("vals", (layout.all_rows.shape[0], size))
        np.take(cols, layout.all_rows, axis=0, out=values)
        num_inter = layout.num_inter
        num_tc = layout.num_transcodes
        n_lastmile = 2 * layout.num_streams
        n_usage = n_lastmile + 2 * num_inter + num_tc
        num_mid = (
            layout.num_flows
            if layout.flows_fused
            else layout.num_flows - layout.num_direct
        )
        edges_at = n_usage + 2 * layout.num_flows + num_mid

        # One whole-table comparison + one reduceat evaluates every
        # guard: the first ``num_inter`` segments are the inter-agent
        # dedup masks (edge 0 is the implicit receiver != sender), the
        # rest are transcode duplicate masks.  Failing contributions are
        # redirected to the sink column (agent id L).
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
                senders = values[n_lastmile : n_lastmile + num_inter]
                receivers = values[
                    n_lastmile + num_inter : n_lastmile + 2 * num_inter
                ]
                mask = guard[:num_inter]
                np.copyto(senders, num_agents, where=mask)
                np.copyto(receivers, num_agents, where=mask)
            if guard.shape[0] > num_inter:
                task_agents = values[n_lastmile + 2 * num_inter : n_usage]
                duplicate = guard[num_inter:]
                task_agents[layout.tc_e_rows] = np.where(
                    duplicate, num_agents, task_agents[layout.tc_e_rows]
                )

        # All four usage arrays plus the transcode counts in one
        # input-ordered bincount over five disjoint bin blocks.
        bins_per_block = size * (num_agents + 1)
        bins = self._buffer("bins", (n_usage, size))
        np.add(values[:n_usage], layout.usage_offsets, out=bins)
        flat = np.bincount(
            bins.ravel(),
            weights=layout.usage_weights,
            minlength=5 * bins_per_block,
        ).reshape(5, size, num_agents + 1)
        lastmile_down, lastmile_up, inter_out, inter_in, tc_counts = flat
        inter_out = inter_out[:, :num_agents]
        inter_in = inter_in[:, :num_agents]
        # Counts rode along as 1.0 weights — small integers are exact in
        # float64 — and cast back losslessly.
        transcodes = tc_counts[:, :num_agents].astype(np.int64)

        delay_cost, max_flow = self._flow_delays(layout, values, n_usage, size)
        return BatchEvaluation(
            moves=moves,
            inter_in=inter_in,
            inter_out=inter_out,
            download=lastmile_down[:, :num_agents] + inter_in,
            upload=lastmile_up[:, :num_agents] + inter_out,
            transcodes=transcodes,
            delay_cost_ms=delay_cost,
            max_flow_ms=max_flow,
        )

    def _flow_delays(
        self,
        layout: SessionLayout,
        values: np.ndarray,
        flows_at: int,
        size: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        h, d = self._h, self._d
        num_flows = layout.num_flows
        num_users = layout.num_users
        if not num_flows or not num_users:
            return np.zeros(size), np.zeros(size)
        a = values[flows_at : flows_at + num_flows]
        b = values[flows_at + num_flows : flows_at + 2 * num_flows]
        delays = self._buffer(
            "delays", (num_flows, size), dtype=np.float64
        )
        np.add(h[a, layout.f_src_uids], h[b, layout.f_dst_uids], out=delays)
        if layout.flows_fused:
            # One fused block: direct flows hop "via" their own source
            # agent (d[a, a] == +0.0, zero sigma row) — addend-exact.
            m = values[flows_at + 2 * num_flows : flows_at + 3 * num_flows]
            hops = self._buffer(
                "hops", (num_flows, size), dtype=np.float64
            )
            np.add(d[a, m], d[m, b], out=hops)
            hops += self._sigma_pad[layout.sig_rows, m]
            delays += hops
            sorted_delays = delays
        else:
            num_direct = layout.num_direct
            num_tasked = num_flows - num_direct
            if num_direct:
                delays[:num_direct] += d[a[:num_direct], b[:num_direct]]
            if num_tasked:
                at = flows_at + 2 * num_flows
                m = values[at : at + num_tasked]
                hops = np.add(d[a[num_direct:], m], d[m, b[num_direct:]])
                hops += self._sigma[layout.t_pair_ids, m]
                delays[num_direct:] += hops
            sorted_delays = delays[layout.perm]

        # Segment-max per destination user; exact under any reduction
        # order, clamped at ``session_delays``' 0.0 initial value.
        worst = np.maximum.reduceat(sorted_delays, layout.seg_starts, axis=0)
        np.maximum(worst, 0.0, out=worst)
        max_flow = np.maximum(delays.max(axis=0), 0.0)

        # ``np.add.accumulate`` is a strictly sequential left-to-right
        # reduction, replicating ``session_delays``' ``sum(worst.values())``
        # exactly (the implicit leading ``0.0 + x`` is exact); np.sum's
        # pairwise order would not.
        np.add.accumulate(worst, axis=0, out=worst)
        return worst[num_users - 1] / num_users, max_flow

    def _empty_evaluation(
        self, sid: int, layout: SessionLayout
    ) -> BatchEvaluation:
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


def arrays_for(profile) -> ConferenceArrays:
    """The conference's :class:`ConferenceArrays`, cached on the profile
    (same lifetime, no global registry)."""
    arrays = getattr(profile, "_conference_arrays", None)
    if arrays is None:
        arrays = ConferenceArrays(profile)
        profile._conference_arrays = arrays
    return arrays
