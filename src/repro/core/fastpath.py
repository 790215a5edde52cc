"""The per-conference flow model: one production evaluator per quantity.

Candidate evaluation dominates Alg. 1's cost: every HOP evaluates
``O(|U(s)| * L)`` neighbouring assignments, and each evaluation needs the
session's traffic vector, transcode counts and flow delays.  All of the
*structure* behind those quantities (who talks to whom, which pairs need
transcoding into what, per-user bitrate sums, per-(pair, agent) transcoding
latencies) is static per conference — only the agent choices vary.

:class:`ConferenceProfile` precomputes that structure once per conference
(:func:`profile_for` caches it on the conference) and evaluates one
assignment at a time:

* :meth:`ConferenceProfile.session_usage` — a session's per-agent usage
  (:class:`SessionUsage`) per the paper's ``mu_klu`` formula;
* :meth:`ConferenceProfile.session_delays` — the objective's delay terms:
  per-user worst incoming delay, their mean ``F(d_s)`` and the longest
  flow.

The profile keeps no reference to its conference: it builds its plans
from the constructor's argument.  A conference and its caches (profile,
then :func:`~repro.core.arrays.arrays_for`'s arrays) thus form a tree,
which reference counting frees as soon as the conference is dropped.

The solvers score whole move sets with :mod:`repro.core.arrays`, which
flattens the session plans built here and is pinned bit for bit to these
two methods; :mod:`repro.core.delay` evaluates the flattened
:class:`FlowTable` for the recorded delay metric and constraint (8).  The
direct per-flow form of the same equations lives in ``tests/`` as the
oracle the suite checks all three against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    Direct flows (no transcoding) and transcoded flows sit in separate
    blocks, so neither block needs a ``-1`` pair index masked out.
    """

    direct_session: np.ndarray
    direct_source: np.ndarray
    direct_destination: np.ndarray
    transcoded_session: np.ndarray
    transcoded_source: np.ndarray
    transcoded_destination: np.ndarray
    transcoded_pair: np.ndarray
    #: All sessions' users, each session in its own user order.
    users: np.ndarray
    #: Offset and length of each session's slice of ``users``.
    user_start: np.ndarray
    user_count: np.ndarray


class ConferenceProfile:
    """Cached static structure + fast evaluation kernels.

    Holds only arrays and plans derived from the conference, never the
    conference itself (see the module docstring).
    """

    def __init__(self, conference: Conference):
        self.num_agents = conference.num_agents
        topo = conference.topology
        self.h = np.asarray(topo.agent_user_ms)
        self.d = np.asarray(topo.inter_agent_ms)
        self.kappa_up = np.asarray(conference.upstream_kappa())

        num_users = conference.num_users
        self.demand_out_mbps = np.zeros(num_users)
        for session in conference.sessions:
            for uid in session.user_ids:
                user = conference.user(uid)
                self.demand_out_mbps[uid] = sum(
                    user.downstream_from(v).bitrate_mbps for v in session.others(uid)
                )

        # sigma[pair, agent]: transcoding latency of the pair's task on the
        # agent.
        pairs = conference.transcode_pairs
        self.sigma = np.zeros((len(pairs), self.num_agents))
        for i, (source, destination) in enumerate(pairs):
            upstream = conference.user(source).upstream
            target = conference.demanded_representation(source, destination)
            for l in range(self.num_agents):
                self.sigma[i, l] = conference.agent(l).transcoding_latency_ms(
                    upstream, target
                )

        self.plans: tuple[_SessionPlan, ...] = tuple(
            self._build_session_plan(conference, sid)
            for sid in range(conference.num_sessions)
        )
        self._flow_table: FlowTable | None = None

    # ------------------------------------------------------------------ #
    # Static structure                                                   #
    # ------------------------------------------------------------------ #

    def _build_session_plan(
        self, conference: Conference, sid: int
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
                    kappa_up=float(self.kappa_up[source]),
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

    def plan(self, sid: int) -> _SessionPlan:
        return self.plans[sid]

    @property
    def flow_table(self) -> FlowTable:
        """The session plans' flows and users as flat arrays (built on
        first use)."""
        if self._flow_table is None:
            direct: list[tuple[int, int, int]] = []
            transcoded: list[tuple[int, int, int, int]] = []
            users: list[int] = []
            counts: list[int] = []
            for plan in self.plans:
                for source, destination, pair_index in plan.flows:
                    if pair_index < 0:
                        direct.append((plan.sid, source, destination))
                    else:
                        transcoded.append((plan.sid, source, destination, pair_index))
                users.extend(plan.users)
                counts.append(len(plan.users))
            user_count = np.array(counts, dtype=np.int64)
            self._flow_table = FlowTable(
                *_columns(direct, 3),
                *_columns(transcoded, 4),
                users=np.array(users, dtype=np.int64),
                user_start=np.cumsum(user_count) - user_count,
                user_count=user_count,
            )
        return self._flow_table

    # ------------------------------------------------------------------ #
    # Kernels                                                            #
    # ------------------------------------------------------------------ #

    def session_usage(
        self, user_agent: np.ndarray, task_agent: np.ndarray, sid: int
    ) -> SessionUsage:
        """Session ``sid``'s per-agent usage, per the paper's ``mu_klu``
        formula (Sec. III-B).

        ``mu_klu`` is the download traffic at agent ``l`` received from
        agent ``k`` carrying streams that originate at user ``u``.  Its
        three terms:

        1. ``lambda_ku * nu'_lu * kappa(r^u_u)`` — ``u`` attaches to ``k``
           and ``l`` transcodes ``u``'s stream, so the raw upstream ships
           ``k -> l``;
        2. ``(max_{v in P(u), theta_uv=0} lambda_lv) * lambda_ku * (1 -
           nu'_lu) * kappa(r^u_u)`` — some destination on ``l`` wants the
           *raw* stream and ``l`` is not already receiving it for
           transcoding;
        3. ``sum_{r != r^u_u} (max_{v in P(u), r^d_vu=r} lambda_lv) * (1 -
           lambda_lu) * nu_kru * kappa(r)`` — ``k`` transcodes ``u``'s
           stream to ``r`` and some destination on ``l`` demands ``r``.

        Here ``nu_lru = max_v gamma_lruv`` (agent ``l`` runs the task
        ``(u, r)`` for at least one destination) and ``nu'_lu = max_r
        nu_lru``.  A task is a distinct ``(agent, source, target rep)``
        triple and occupies one slot of ``t_l`` however many destinations
        consume it (constraint (7)); two destinations demanding the same
        representation may still be served by tasks on different agents,
        and then both count.  The ``(1 - lambda_lu)`` factor of term 3 is
        a quirk of the published formula, implemented verbatim:
        transcoded traffic flowing back into the source user's own agent
        is not charged.

        From ``mu``: ``inter_in[l] = x_ls = sum_u sum_{k != l} mu_klu``
        (the argument of the bandwidth cost ``g_l``), ``inter_out`` its
        egress analogue, ``download`` = attached users' upstreams plus
        ``inter_in`` (constraint (5)), ``upload`` = streams to attached
        users plus ``inter_out`` (constraint (6)) and ``transcodes`` =
        ``y_ls`` (constraint (7)).
        """
        plan = self.plans[sid]
        num_agents = self.num_agents
        inter_in = np.zeros(num_agents)
        inter_out = np.zeros(num_agents)
        lastmile_down = np.zeros(num_agents)
        lastmile_up = np.zeros(num_agents)
        transcodes = np.zeros(num_agents, dtype=np.int64)

        for stream in plan.streams:
            source = stream.source
            a = int(user_agent[source])
            lastmile_down[a] += stream.kappa_up
            lastmile_up[a] += self.demand_out_mbps[source]

            raw_targets: set[int] = set()
            for kappa, pair_list, dests in stream.transcode_groups:
                task_agents = {int(task_agent[i]) for i in pair_list}
                raw_targets.update(task_agents)
                for agent in task_agents:
                    transcodes[agent] += 1
                dest_agents = {int(user_agent[v]) for v in dests}
                for l in dest_agents:
                    if l == a:
                        continue  # the mu formula's (1 - lambda_lu) factor
                    for k in task_agents:
                        if k != l:
                            inter_out[k] += kappa
                            inter_in[l] += kappa
            for v in stream.raw_dest_users:
                raw_targets.add(int(user_agent[v]))
            for l in raw_targets:
                if l != a:
                    inter_out[a] += stream.kappa_up
                    inter_in[l] += stream.kappa_up

        return SessionUsage(
            sid=sid,
            inter_in=inter_in,
            inter_out=inter_out,
            download=lastmile_down + inter_in,
            upload=lastmile_up + inter_out,
            transcodes=transcodes,
        )

    def session_delays(
        self, user_agent: np.ndarray, task_agent: np.ndarray, sid: int
    ) -> tuple[float, float, dict[int, float]]:
        """``(F(d_s), max flow delay, per-user worst incoming delay)``.

        ``F(d_s)`` is the mean of the per-user worst delays (the
        objective's delay term); the longest flow feeds the hop filter's
        constraint (8); the per-user dict, in session user order, feeds
        the objective's average-delay metric.  A transcoded flow adds
        ``(h + h) + ((d + d) + sigma)`` — the kernel's order, which
        :mod:`repro.core.arrays` reproduces bit for bit.
        """
        plan = self.plans[sid]
        h = self.h
        d = self.d
        worst: dict[int, float] = {u: 0.0 for u in plan.users}
        max_flow = 0.0
        for source, destination, pair_index in plan.flows:
            a = int(user_agent[source])
            b = int(user_agent[destination])
            delay = h[a, source] + h[b, destination]
            if pair_index < 0:
                delay += d[a, b]
            else:
                m = int(task_agent[pair_index])
                delay += d[a, m] + d[m, b] + self.sigma[pair_index, m]
            if delay > worst[destination]:
                worst[destination] = delay
            if delay > max_flow:
                max_flow = delay
        mean = sum(worst.values()) / len(worst)
        return mean, max_flow, worst


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
