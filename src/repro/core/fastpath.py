"""Precomputed evaluation fast path.

Candidate evaluation dominates Alg. 1's cost: every HOP evaluates
``O(|U(s)| * L)`` neighbouring assignments, and each evaluation needs the
session's traffic vector, transcode counts and flow delays.  All of the
*structure* behind those quantities (who talks to whom, which pairs need
transcoding into what, per-user bitrate sums, per-(pair, agent) transcoding
latencies) is static per conference — only the agent choices vary.

:class:`ConferenceProfile` precomputes that structure once and provides
allocation-light per-assignment evaluation primitives.  The reference
implementations in :mod:`repro.core.traffic` and the per-flow functions
of :mod:`repro.core.delay` remain the ground truth the test suite checks
these against.  The objective evaluator, AgRank and the simulator call
them per assignment; the solvers score whole move sets with
:mod:`repro.core.arrays`, which flattens the session plans built here;
:func:`repro.core.delay.average_conferencing_delay` evaluates the
flattened :class:`FlowTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.traffic import SessionUsage
from repro.model.conference import Conference


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
    """Cached static structure + fast evaluation kernels."""

    def __init__(self, conference: Conference):
        self._conference = conference
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

        self._plans: list[_SessionPlan] = [
            self._build_session_plan(sid) for sid in range(conference.num_sessions)
        ]
        self._flow_table: FlowTable | None = None

    # ------------------------------------------------------------------ #
    # Static structure                                                   #
    # ------------------------------------------------------------------ #

    def _build_session_plan(self, sid: int) -> _SessionPlan:
        conference = self._conference
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
        return self._plans[sid]

    @property
    def flow_table(self) -> FlowTable:
        """The session plans' flows and users as flat arrays (built on
        first use)."""
        if self._flow_table is None:
            direct: list[tuple[int, int, int]] = []
            transcoded: list[tuple[int, int, int, int]] = []
            users: list[int] = []
            counts: list[int] = []
            for plan in self._plans:
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
        """Fast equivalent of :func:`repro.core.traffic.compute_session_usage`."""
        plan = self._plans[sid]
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
    ) -> tuple[float, float]:
        """``(mean of per-user worst incoming delay, max flow delay)``.

        The first value is ``F(d_s)``; the second feeds constraint (8).
        """
        plan = self._plans[sid]
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
        return mean, max_flow

    def session_user_delays(
        self, user_agent: np.ndarray, task_agent: np.ndarray, sid: int
    ) -> dict[int, float]:
        """Per-user worst incoming delays (fast analogue of
        :func:`repro.core.delay.session_user_delays`)."""
        plan = self._plans[sid]
        h = self.h
        d = self.d
        worst: dict[int, float] = {u: 0.0 for u in plan.users}
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
        return worst


def _columns(rows: list[tuple[int, ...]], width: int) -> list[np.ndarray]:
    """Integer rows -> one contiguous int64 array per column."""
    table = np.array(rows, dtype=np.int64).reshape(-1, width)
    return [table[:, i].copy() for i in range(width)]


_PROFILE_CACHE: dict[int, ConferenceProfile] = {}


def profile_for(conference: Conference) -> ConferenceProfile:
    """A cached profile per conference instance (keyed by identity)."""
    key = id(conference)
    profile = _PROFILE_CACHE.get(key)
    if profile is None or profile._conference is not conference:
        profile = ConferenceProfile(conference)
        _PROFILE_CACHE[key] = profile
        if len(_PROFILE_CACHE) > 64:  # bound the cache; keep newest entries
            oldest = next(iter(_PROFILE_CACHE))
            if oldest != key:
                del _PROFILE_CACHE[oldest]
    return profile
