"""The per-conference flow model's static structure.

Every quantity the paper prices per session — the traffic of the
``mu_klu`` formula, transcode counts, flow delays — depends on *who
talks to whom* (sessions, per-stream destination groups, which pairs
need transcoding into what, per-user bitrate sums, per-(pair, agent)
transcoding latencies) and on the agent choices.  The structure is
static per conference; only the agent choices vary.

:class:`ConferenceProfile` precomputes that structure once per
conference (:func:`profile_for` caches it on the conference): the
session plans, the sigma table, the per-user demand vector and the
latency matrices.  It evaluates nothing itself.  Two flattenings of the
plans read it, one per production evaluator:

* :mod:`repro.core.arrays` builds each session's instruction table and
  evaluates the objective's quantities — a session's usage per
  ``mu_klu`` and its delay terms — for one assignment or a whole move
  set;
* :attr:`ConferenceProfile.flow_table` lists every session's flows for
  :mod:`repro.core.delay`, which evaluates the recorded delay metric
  and constraint (8).

The profile keeps no reference to its conference: it builds its plans
from the constructor's argument.  A conference and its caches (profile,
then :func:`~repro.core.arrays.arrays_for`'s arrays) thus form a tree,
which reference counting frees as soon as the conference is dropped.
The per-assignment loops and the per-flow form of the same equations
live in ``tests/`` as the oracles the suite checks both evaluators
against.
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
    """Cached static structure of one conference's flow model.

    Holds only arrays and plans derived from the conference, never the
    conference itself (see the module docstring).
    """

    def __init__(self, conference: Conference):
        self.num_agents = conference.num_agents
        topo = conference.topology
        self.h = np.asarray(topo.agent_user_ms)
        self.d = np.asarray(topo.inter_agent_ms)

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

        kappa_up = conference.upstream_kappa()
        self.plans: tuple[_SessionPlan, ...] = tuple(
            _build_session_plan(conference, sid, kappa_up)
            for sid in range(conference.num_sessions)
        )
        self._flow_table: FlowTable | None = None

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
