"""The per-conference flow model's static structure.

Every quantity the paper prices per session — the traffic of the
``mu_klu`` formula, transcode counts, flow delays — depends on *who
talks to whom* (sessions, per-stream destination groups, which pairs
need transcoding into what, per-user bitrate sums, per-(pair, agent)
transcoding latencies), on the agent choices and on the substrate's D
and H.  A fault view changes only D, H and capacities, so it shares its
conference's structure (:func:`share_structure`).

:class:`ConferenceProfile` holds that structure and nothing of the
substrate (:func:`profile_for` caches it on the conference): the
session plans, sigma and its zero-padded copy, the per-user demand
vector, and the plans flattened for the two production evaluators:

* :meth:`ConferenceProfile.layout` and :meth:`~ConferenceProfile.
  move_set`, each session's instruction table and move-set axis (built
  on first use), which :mod:`repro.core.arrays` prices against one
  substrate for one assignment or a whole move set;
* :attr:`ConferenceProfile.flow_table`, every session's flows in one
  block, for the recorded delay metric and constraint (8) of
  :mod:`repro.core.delay`.

The profile keeps no reference to any conference.  A conference points
at its profile and at its :func:`~repro.core.arrays.arrays_for` arrays,
which point at the profile too (a view's, at the shared one).  There is
no cycle, so reference counting frees each as soon as nothing points at
it.  The per-assignment loops and the per-flow form of the same
equations live in ``tests/`` as the oracles the suite checks both
evaluators against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.neighborhood import KIND_TASK, KIND_USER
from repro.errors import ModelError
from repro.model.conference import Conference


@dataclass(frozen=True)
class SessionUsage:
    """Per-agent resource usage attributable to one session.

    All arrays have length L (number of agents).  ``inter_in[l]`` is
    ``x_ls``; ``download`` / ``upload`` are the left-hand sides of
    constraints (5) / (6) restricted to this session; ``transcodes`` is
    ``y_ls``.
    """

    sid: int
    inter_in: np.ndarray
    inter_out: np.ndarray
    download: np.ndarray
    upload: np.ndarray
    transcodes: np.ndarray

    @property
    def total_inter_agent_mbps(self) -> float:
        """Total inter-agent traffic of the session (the paper's metric)."""
        return float(self.inter_in.sum())

    def __post_init__(self) -> None:
        for name in ("inter_in", "inter_out", "download", "upload", "transcodes"):
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class _StreamPlan:
    """Static routing structure of one source user's stream."""

    source: int
    kappa_up: float
    #: Users demanding the raw upstream (theta = 0 destinations).
    raw_dest_users: tuple[int, ...]
    #: One entry per demanded transcoded representation:
    #: (kappa, pair_indices, destination_users).
    transcode_groups: tuple[tuple[float, tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class _SessionPlan:
    """Static structure of one session."""

    sid: int
    users: tuple[int, ...]
    streams: tuple[_StreamPlan, ...]
    #: All ordered flows as (source, destination, pair_index or -1).
    flows: tuple[tuple[int, int, int], ...]
    pair_indices: tuple[int, ...]


@dataclass(frozen=True)
class FlowTable:
    """Every session's flows and users flattened in session-id order.

    One block: ``middle`` indexes ``concat(user_agent, task_agent)``
    and ``sigma_row`` the padded sigma — ``U + pair`` and the pair for a
    transcoded flow; the source user and the zero row for a direct one.
    """

    session: np.ndarray
    source: np.ndarray
    destination: np.ndarray
    middle: np.ndarray
    sigma_row: np.ndarray
    #: All sessions' users, each session in its own user order.
    users: np.ndarray
    #: Offset and length of each session's slice of ``users``.
    user_start: np.ndarray
    user_count: np.ndarray


@dataclass(frozen=True)
class SessionLayout:
    """A session's instruction table: all its static structure,
    flattened to index arrays.

    Decision rows are ordered users-then-pairs, matching the move
    enumeration of :func:`repro.core.neighborhood.session_moves`.  The
    heart of the layout is ``all_rows``, the combined instruction table:
    one gather ``current[all_rows]`` (or ``cols[all_rows]`` for every
    candidate of a move set at once) yields the agent id behind every
    usage contribution, flow endpoint and dedup edge.  Its row blocks
    are, in order (``S`` streams, ``P`` inter-agent contributions, ``G``
    transcode instructions, ``F`` flows, ``E`` / ``TE`` dedup edges)::

        [0, S)            last-mile download (stream sources)
        [S, 2S)           last-mile upload (same rows again)
        [2S, 2S + P)      inter-agent senders  (task / source rows)
        [2S + P, 2S + 2P) inter-agent receivers (dest / symbol rows)
        [2S + 2P, n_u)    transcode-count task rows  (n_u = 2S + 2P + G)
        [n_u, +F)         flow sources
        [.., +F)          flow destinations
        [.., +F)          flow middles (task rows; direct flows carry
                          the source row again)
        [.., +E), [.., +TE)   guard-edge "a" endpoints (inter, then tc)
        [.., +E), [.., +TE)   guard-edge "b" endpoints (same order)

    The first ``n_u`` rows feed one ``np.bincount`` whose flattened
    bins are ``block * (L + 1) + agent``: ``row_offsets`` holds
    everything but the agent and ``row_weights`` the per-contribution
    scalars (``1.0`` for the transcode-count block).  The edge blocks
    interleave "a" and "b" halves so one whole-table comparison
    evaluates every guard at once: the implicit ``receiver != sender``
    condition is edge 0 of each inter contribution's ``guard_starts``
    segment, so a single ``np.bitwise_or.reduceat`` yields the ``P``
    inter masks followed by the transcode duplicate masks (scattered via
    ``tc_e_rows``).
    """

    sid: int
    uids: np.ndarray
    pairs: np.ndarray
    num_users: int
    #: Combined instruction table (see class docstring) and the block
    #: sizes carving it into slices.
    all_rows: np.ndarray
    num_streams: int
    num_inter: int
    num_flows: int
    num_edges: int
    num_tc_edges: int
    num_transcodes: int
    row_offsets: np.ndarray
    row_weights: np.ndarray
    #: Guard segments over the combined edge table: the first ``P``
    #: segments are the inter contributions (edge 0 is the implicit
    #: ``receiver != sender``; the rest encode set-dedup first-occurrence
    #: guards and the group rows' ``dest != source agent`` condition),
    #: the remaining segments are transcode duplicate guards scattering
    #: to task rows ``tc_e_rows`` (within-group first occurrence).
    guard_starts: np.ndarray
    tc_e_rows: np.ndarray
    #: Flow metadata, flows sorted by destination: the users bounding
    #: each flow (indices into ``h``'s user axis) and each flow's row of
    #: the zero-padded sigma matrix (direct flows point at the zero
    #: row).
    f_src_uids: np.ndarray
    f_dst_uids: np.ndarray
    sig_rows: np.ndarray
    seg_starts: np.ndarray


@dataclass(frozen=True)
class MoveSetLayout:
    """The candidate axis of a session's move set: ``C = D * (L - 1)``
    candidates, each its base assignment with one decision moved.

    Built on the session's first
    :meth:`ConferenceArrays.evaluate_candidates`, so a session that
    never hops never holds the ``(n_u, C)`` tables.  The move set's
    bincount bins are ``block * C * (L + 1) + candidate * (L + 1) +
    agent``, pre-computed but for the agent as ``usage_offsets``, with
    ``usage_weights`` the layout's row weights repeated per candidate.
    """

    #: Static :class:`MoveBatch` columns (kind / moved-decision id).
    kinds: np.ndarray
    indices: np.ndarray
    #: ``(D, 1)`` / ``(D, A)`` fancy indices scattering the move blocks.
    block_rows: np.ndarray
    block_cols: np.ndarray
    usage_offsets: np.ndarray
    usage_weights: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _build_layout(
    plan, num_agents: int, num_pairs: int, demand_out_mbps
) -> SessionLayout:
    users = plan.users
    pair_indices = plan.pair_indices
    num_users = len(users)
    row_of_user = {uid: i for i, uid in enumerate(users)}
    row_of_pair = {p: num_users + j for j, p in enumerate(pair_indices)}

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
    # Every inter contribution opens a guard segment (edge 0 is the
    # implicit receiver != sender), so reduceat output row g IS
    # contribution g — no scatter needed.
    e_starts: list[int] = []

    for stream in plan.streams:
        src = row_of_user[stream.source]
        kappa_up = float(stream.kappa_up)
        lm_src.append(src)
        lm_kappa.append(kappa_up)
        lm_demand.append(float(demand_out_mbps[stream.source]))

        raw_symbol_rows: list[int] = []
        for kappa, pair_list, dests in stream.transcode_groups:
            kappa = float(kappa)
            task_rows = [row_of_pair[i] for i in pair_list]
            for ti, task_row in enumerate(task_rows):
                tc_rows.append(task_row)
                if ti:
                    # Duplicate of an earlier task of the group.
                    tc_e_starts.append(len(tc_e_a))
                    tc_e_rows.append(len(tc_rows) - 1)
                    tc_e_a.extend([task_row] * ti)
                    tc_e_b.extend(task_rows[:ti])
            dest_rows = [row_of_user[v] for v in dests]
            for dv, dest_row in enumerate(dest_rows):
                for ti, task_row in enumerate(task_rows):
                    iv_out.append(task_row)
                    iv_in.append(dest_row)
                    iv_kappa.append(kappa)
                    # dest != task agent (implicit), dest != source
                    # agent, dest-first (vs earlier dests of the
                    # group), task-first (vs earlier tasks).
                    e_starts.append(len(e_a))
                    e_a.extend([dest_row] * (2 + dv))
                    e_a.extend([task_row] * ti)
                    e_b.append(task_row)
                    e_b.append(src)
                    e_b.extend(dest_rows[:dv])
                    e_b.extend(task_rows[:ti])
            raw_symbol_rows.extend(task_rows)
        raw_symbol_rows.extend(row_of_user[v] for v in stream.raw_dest_users)

        for q, symbol_row in enumerate(raw_symbol_rows):
            iv_out.append(src)
            iv_in.append(symbol_row)
            iv_kappa.append(kappa_up)
            # symbol != source agent (implicit), then symbol-first vs
            # every earlier raw symbol of the stream.
            e_starts.append(len(e_a))
            e_a.extend([symbol_row] * (1 + q))
            e_b.append(src)
            e_b.extend(raw_symbol_rows[:q])

    # Flow plan, sorted by destination user up front (per-flow values
    # are independent, and both downstream reductions are order-exact
    # maxima).
    flows = sorted(plan.flows, key=lambda f: row_of_user[f[1]])
    dest_positions = np.asarray(
        [row_of_user[f[1]] for f in flows], dtype=np.int64
    )
    seg_starts = np.flatnonzero(
        np.concatenate([[True], dest_positions[1:] != dest_positions[:-1]])
    )
    if seg_starts.shape[0] != num_users:
        raise ModelError(
            f"session {plan.sid} flow plan does not cover every user"
        )

    # Direct flows route "via" their own source agent: d[a, a] is
    # exactly +0.0 (a Topology invariant) and sigma row ``num_pairs`` is
    # the zero padding row.
    f_src_rows = [row_of_user[f[0]] for f in flows]
    f_mid_rows = [
        f_src_rows[i] if f[2] < 0 else row_of_pair[f[2]]
        for i, f in enumerate(flows)
    ]
    sig_rows = [num_pairs if f[2] < 0 else f[2] for f in flows]

    all_rows = np.asarray(
        lm_src
        + lm_src
        + iv_out
        + iv_in
        + tc_rows
        + f_src_rows
        + dest_positions.tolist()
        + f_mid_rows
        + e_a
        + tc_e_a
        + e_b
        + tc_e_b,
        dtype=np.int64,
    )
    # Flattened bin index minus the agent id: the usage-array block,
    # scaled by the (L + 1)-wide agent axis.
    num_streams = len(lm_src)
    num_inter = len(iv_out)
    row_offsets = np.repeat(
        np.arange(5, dtype=np.int64) * (num_agents + 1),
        [num_streams, num_streams, num_inter, num_inter, len(tc_rows)],
    )
    row_weights = np.asarray(
        lm_kappa + lm_demand + iv_kappa + iv_kappa + [1.0] * len(tc_rows),
        dtype=np.float64,
    )
    guard_starts = e_starts + [len(e_a) + start for start in tc_e_starts]

    as_i64 = lambda xs: _frozen(np.asarray(xs, dtype=np.int64))
    return SessionLayout(
        sid=plan.sid,
        uids=as_i64(users),
        pairs=as_i64(pair_indices),
        num_users=num_users,
        all_rows=_frozen(all_rows),
        num_streams=num_streams,
        num_inter=num_inter,
        num_flows=len(flows),
        num_edges=len(e_a),
        num_tc_edges=len(tc_e_a),
        num_transcodes=len(tc_rows),
        row_offsets=_frozen(row_offsets),
        row_weights=_frozen(row_weights),
        guard_starts=as_i64(guard_starts),
        tc_e_rows=as_i64(tc_e_rows),
        f_src_uids=as_i64([f[0] for f in flows]),
        f_dst_uids=as_i64([f[1] for f in flows]),
        sig_rows=as_i64(sig_rows),
        seg_starts=_frozen(seg_starts),
    )


def _build_move_set(layout: SessionLayout, num_agents: int) -> MoveSetLayout:
    num_users = layout.uids.shape[0]
    num_pairs = layout.pairs.shape[0]
    num_decisions = num_users + num_pairs
    alternatives = max(num_agents - 1, 0)
    size = num_decisions * alternatives
    decision_kinds = np.concatenate(
        [
            np.full(num_users, KIND_USER, dtype=np.uint8),
            np.full(num_pairs, KIND_TASK, dtype=np.uint8),
        ]
    )
    decision_indices = np.concatenate([layout.uids, layout.pairs])
    return MoveSetLayout(
        kinds=_frozen(np.repeat(decision_kinds, alternatives)),
        indices=_frozen(np.repeat(decision_indices, alternatives)),
        block_rows=_frozen(np.arange(num_decisions, dtype=np.int64)[:, None]),
        block_cols=_frozen(
            np.arange(size, dtype=np.int64).reshape(
                num_decisions, alternatives
            )
        ),
        usage_offsets=_frozen(
            layout.row_offsets[:, None] * size
            + (np.arange(size, dtype=np.int64) * (num_agents + 1))[None, :]
        ),
        usage_weights=_frozen(np.repeat(layout.row_weights, size)),
    )


class ConferenceProfile:
    """Cached static structure of one conference's flow model.

    Holds only arrays and plans derived from the conference, never the
    conference itself nor its substrate's D and H (see the module
    docstring), so a fault view of the conference can share it.
    """

    def __init__(self, conference: Conference):
        self.num_agents = conference.num_agents
        self._num_users = num_users = conference.num_users
        self.demand_out_mbps = np.zeros(num_users)
        for session in conference.sessions:
            for uid in session.user_ids:
                user = conference.user(uid)
                self.demand_out_mbps[uid] = sum(
                    user.downstream_from(v).bitrate_mbps for v in session.others(uid)
                )

        # sigma_pad[pair, agent]: transcoding latency of the pair's task
        # on the agent; the last row is zero padding, the row direct
        # flows read.  ``sigma`` is the unpadded view.
        pairs = conference.transcode_pairs
        self.sigma_pad = np.zeros((len(pairs) + 1, self.num_agents))
        for i, (source, destination) in enumerate(pairs):
            upstream = conference.user(source).upstream
            target = conference.demanded_representation(source, destination)
            for l in range(self.num_agents):
                self.sigma_pad[i, l] = conference.agent(l).transcoding_latency_ms(
                    upstream, target
                )
        _frozen(self.sigma_pad)
        self.sigma = self.sigma_pad[:-1]

        kappa_up = conference.upstream_kappa()
        self.plans: tuple[_SessionPlan, ...] = tuple(
            _build_session_plan(conference, sid, kappa_up)
            for sid in range(conference.num_sessions)
        )
        self._flow_table: FlowTable | None = None
        self._layouts: dict[int, SessionLayout] = {}
        self._move_sets: dict[int, MoveSetLayout] = {}

    @property
    def flow_table(self) -> FlowTable:
        """The session plans' flows and users as flat arrays (built on
        first use)."""
        if self._flow_table is None:
            zero_row = self.sigma.shape[0]
            flows: list[tuple[int, int, int, int, int]] = []
            users: list[int] = []
            counts: list[int] = []
            for plan in self.plans:
                for source, destination, pair in plan.flows:
                    if pair < 0:
                        middle, row = source, zero_row
                    else:
                        middle, row = self._num_users + pair, pair
                    flows.append((plan.sid, source, destination, middle, row))
                users.extend(plan.users)
                counts.append(len(plan.users))
            user_count = np.array(counts, dtype=np.int64)
            self._flow_table = FlowTable(
                *_columns(flows, 5),
                users=np.array(users, dtype=np.int64),
                user_start=np.cumsum(user_count) - user_count,
                user_count=user_count,
            )
        return self._flow_table

    def layout(self, sid: int) -> SessionLayout:
        """Session ``sid``'s instruction table (built on first use)."""
        layout = self._layouts.get(sid)
        if layout is None:
            layout = _build_layout(
                self.plans[sid],
                self.num_agents,
                self.sigma.shape[0],
                self.demand_out_mbps,
            )
            self._layouts[sid] = layout
        return layout

    def move_set(self, sid: int) -> MoveSetLayout:
        """Session ``sid``'s move-set axis (built on first use)."""
        move_set = self._move_sets.get(sid)
        if move_set is None:
            move_set = _build_move_set(self.layout(sid), self.num_agents)
            self._move_sets[sid] = move_set
        return move_set

    def warm(self, sids) -> None:
        """Prebuild the layouts and move sets of ``sids`` (steady-state
        preparation)."""
        for sid in sids:
            self.move_set(sid)


def _build_session_plan(
    conference: Conference, sid: int, kappa_up: np.ndarray
) -> _SessionPlan:
    session = conference.session(sid)
    pair_of_flow = {
        conference.transcode_pairs[i]: i
        for i in conference.session_pair_indices(sid)
    }

    streams: list[_StreamPlan] = []
    flows: list[tuple[int, int, int]] = []
    for source in session.user_ids:
        upstream = conference.user(source).upstream
        raw_dests: list[int] = []
        groups: dict[str, tuple[float, list[int], list[int]]] = {}
        for destination in session.others(source):
            demanded = conference.user(destination).downstream_from(source)
            pair_index = pair_of_flow.get((source, destination), -1)
            flows.append((source, destination, pair_index))
            if demanded == upstream:
                raw_dests.append(destination)
            else:
                entry = groups.setdefault(
                    demanded.name, (demanded.bitrate_mbps, [], [])
                )
                entry[1].append(pair_index)
                entry[2].append(destination)
        streams.append(
            _StreamPlan(
                source=source,
                kappa_up=float(kappa_up[source]),
                raw_dest_users=tuple(raw_dests),
                transcode_groups=tuple(
                    (kappa, tuple(pair_list), tuple(dests))
                    for kappa, pair_list, dests in (
                        groups[name] for name in sorted(groups)
                    )
                ),
            )
        )
    return _SessionPlan(
        sid=sid,
        users=tuple(session.user_ids),
        streams=tuple(streams),
        flows=tuple(flows),
        pair_indices=tuple(conference.session_pair_indices(sid)),
    )


def _columns(rows: list[tuple[int, ...]], width: int) -> list[np.ndarray]:
    """Integer rows -> one contiguous int64 array per column."""
    table = np.array(rows, dtype=np.int64).reshape(-1, width)
    return [table[:, i].copy() for i in range(width)]


def profile_for(conference: Conference) -> ConferenceProfile:
    """The conference's :class:`ConferenceProfile`, cached on the
    conference (same lifetime, no global registry)."""
    profile = getattr(conference, "_conference_profile", None)
    if profile is None:
        profile = ConferenceProfile(conference)
        conference._conference_profile = profile
    return profile


def share_structure(view: Conference, conference: Conference) -> Conference:
    """Cache ``conference``'s :class:`ConferenceProfile` on ``view``, a
    substrate view of it (same users, sessions, representations and
    agent latency models; own D, H and capacities), and return ``view``."""
    view._conference_profile = profile_for(conference)
    return view
