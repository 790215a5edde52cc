"""End-to-end delay (paper Sec. III-C).

The delay of a flow ``u -> v`` aggregates

1. the last-mile hop ``H_{a,u}`` from ``u`` to its agent ``a``;
2. the inter-agent path: directly ``D_{a,b}`` when no transcoding is needed,
   or ``D_{a,m} + D_{m,b}`` through the transcoding agent ``m`` plus the
   transcoding latency ``sigma_m(r^u_u, r^d_vu)`` otherwise;
3. the last-mile hop ``H_{b,v}`` into ``v``.

Queueing delay is ignored — the capacity constraints guarantee resources
(the paper makes the same argument).  The per-user conferencing delay is
``d_u = max_{v in P(u)} d_{v -> u}`` (worst incoming stream), and the
session delay cost ``F(d_s)`` averages ``d_u`` over the session (the
paper's example choice of convex increasing F).

:func:`flow_delay` and :func:`session_user_delays` are the per-flow
reference.  :func:`average_conferencing_delay` — the simulator's
once-per-sample metric — evaluates the same sums as arrays over the
profile's :class:`~repro.core.fastpath.FlowTable`, in the reference's
order of additions (``(H + H) + D`` direct, ``(((H + H) + D) + D) +
sigma`` transcoded), so it returns the reference's value bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.assignment import Assignment
from repro.core.fastpath import profile_for
from repro.errors import ModelError, UnknownEntityError
from repro.model.conference import Conference
from repro.types import UNASSIGNED


def flow_delay(
    conference: Conference, assignment: Assignment, source: int, destination: int
) -> float:
    """``d_{source -> destination}`` in milliseconds."""
    if conference.session_of(source) != conference.session_of(destination):
        raise ModelError(
            f"users {source} and {destination} are not in the same session"
        )
    if source == destination:
        raise ModelError("a flow needs distinct endpoints")
    topo = conference.topology
    a = assignment.agent_of(source)
    b = assignment.agent_of(destination)
    if a == UNASSIGNED or b == UNASSIGNED:
        raise ModelError("both endpoints must be assigned")
    lastmile = topo.agent_to_user(a, source) + topo.agent_to_user(b, destination)

    upstream = conference.user(source).upstream
    demanded = conference.user(destination).downstream_from(source)
    if demanded == upstream:
        return lastmile + topo.agent_to_agent(a, b)

    pair_idx = conference.pair_index(source, destination)
    m = assignment.task_agent_of(pair_idx)
    if m == UNASSIGNED:
        raise ModelError(
            f"transcoding pair {source}->{destination} is unassigned"
        )
    transcode = conference.agent(m).transcoding_latency_ms(upstream, demanded)
    return (
        lastmile
        + topo.agent_to_agent(a, m)
        + topo.agent_to_agent(m, b)
        + transcode
    )


def iter_session_flows(conference: Conference, sid: int) -> Iterator[tuple[int, int]]:
    """All ordered ``(source, destination)`` pairs of session ``sid``."""
    session = conference.session(sid)
    for u in session.user_ids:
        for v in session.user_ids:
            if u != v:
                yield (u, v)


def session_user_delays(
    conference: Conference, assignment: Assignment, sid: int
) -> dict[int, float]:
    """``d_u`` for each user of session ``sid``: the worst delay among the
    streams the user receives."""
    session = conference.session(sid)
    worst: dict[int, float] = {uid: 0.0 for uid in session.user_ids}
    for source, destination in iter_session_flows(conference, sid):
        delay = flow_delay(conference, assignment, source, destination)
        if delay > worst[destination]:
            worst[destination] = delay
    return worst


def session_delay_cost(
    conference: Conference, assignment: Assignment, sid: int
) -> float:
    """``F(d_s)`` — the mean of per-user worst delays over the session."""
    delays = session_user_delays(conference, assignment, sid)
    return float(np.mean(list(delays.values())))


def max_session_flow_delay(
    conference: Conference, assignment: Assignment, sid: int
) -> float:
    """The largest single-flow delay in the session (constraint (8) LHS)."""
    return max(
        flow_delay(conference, assignment, source, destination)
        for source, destination in iter_session_flows(conference, sid)
    )


def delay_violations(
    conference: Conference,
    assignment: Assignment,
    sid: int,
    dmax_ms: float | None = None,
) -> list[tuple[int, int, float]]:
    """Flows of session ``sid`` exceeding the delay cap, as
    ``(source, destination, delay_ms)`` triples."""
    cap = conference.dmax_ms if dmax_ms is None else dmax_ms
    return [
        (source, destination, delay)
        for source, destination in iter_session_flows(conference, sid)
        for delay in (flow_delay(conference, assignment, source, destination),)
        if delay > cap + 1e-9
    ]


def average_conferencing_delay(
    conference: Conference,
    assignment: Assignment,
    sids: Iterable[int] | None = None,
) -> float:
    """The paper's reported delay metric: the average over all users of the
    per-user worst incoming-flow delay ``d_u``.

    Users enter the mean in ``sids`` order (each session's users in
    session order; a repeated sid counts its users again), exactly as
    :func:`session_user_delays` would list them.
    """
    num_sessions = conference.num_sessions
    if sids is None:
        sids = np.arange(num_sessions)
    else:
        sids = np.fromiter(sids, dtype=np.int64)
    unknown = sids[(sids < 0) | (sids >= num_sessions)]
    if unknown.size:
        raise UnknownEntityError(f"unknown session {int(unknown[0])}")
    profile = profile_for(conference)
    table = profile.flow_table
    counts = table.user_count[sids]
    total = int(counts.sum())
    if total == 0:
        raise ModelError("no active sessions to average over")
    selected = np.zeros(num_sessions, dtype=bool)
    selected[sids] = True
    user_agent = assignment.user_agent
    h, d = profile.h, profile.d
    worst = np.zeros(conference.num_users)

    keep = selected[table.direct_session]
    source = table.direct_source[keep]
    destination = table.direct_destination[keep]
    a, b = user_agent[source], user_agent[destination]
    if (a < 0).any() or (b < 0).any():
        raise ModelError("both endpoints must be assigned")
    np.maximum.at(worst, destination, (h[a, source] + h[b, destination]) + d[a, b])

    keep = selected[table.transcoded_session]
    source = table.transcoded_source[keep]
    destination = table.transcoded_destination[keep]
    pair = table.transcoded_pair[keep]
    a, b = user_agent[source], user_agent[destination]
    if (a < 0).any() or (b < 0).any():
        raise ModelError("both endpoints must be assigned")
    m = assignment.task_agent[pair]
    if (m < 0).any():
        raise ModelError(
            f"transcoding pair {conference.transcode_pairs[int(pair[m < 0][0])]} "
            "is unassigned"
        )
    np.maximum.at(
        worst,
        destination,
        (((h[a, source] + h[b, destination]) + d[a, m]) + d[m, b]) + profile.sigma[pair, m],
    )

    # Each requested session's slice of the flat user list, in order.
    offsets = np.repeat(table.user_start[sids] - (np.cumsum(counts) - counts), counts)
    return float(np.mean(worst[table.users[np.arange(total) + offsets]]))
