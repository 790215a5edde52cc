"""End-to-end delay (paper Sec. III-C): the recorded metric and the check
of constraint (8).

The delay of a flow ``u -> v`` aggregates

1. the last-mile hop ``H_{a,u}`` from ``u`` to its agent ``a``;
2. the inter-agent path: directly ``D_{a,b}`` when no transcoding is needed,
   or ``D_{a,m} + D_{m,b}`` through the transcoding agent ``m`` plus the
   transcoding latency ``sigma_m(r^u_u, r^d_vu)`` otherwise;
3. the last-mile hop ``H_{b,v}`` into ``v``.

Queueing delay is ignored — the capacity constraints guarantee resources
(the paper makes the same argument).  The per-user conferencing delay is
``d_u = max_{v in P(u)} d_{v -> u}`` (worst incoming stream).

:func:`flow_table_delays` evaluates every flow of the selected sessions
as arrays over the profile's one-block
:class:`~repro.core.fastpath.FlowTable` and the conference's own D and
H, adding terms left to right: ``(((H + H) + D[a, m]) + D[m, b]) +
sigma``.  A direct flow routes via its own source agent ``m = a`` over
the zero sigma row, which adds exactly ``+0.0`` twice: ``D[a, a]`` is
``+0.0`` and D holds no ``-0.0`` (a :class:`~repro.model.topology.
Topology` invariant), so it equals ``(H + H) + D[a, b]`` bit for bit,
also where H holds ``-0.0``.  That order drives the recorded ``delay``
series (:func:`average_conferencing_delay`) and every verdict on
constraint (8): :func:`repro.core.feasibility.check_assignment` and the
simulator's SLA check.  The objective's delay terms come from the
flow-model kernel of :mod:`repro.core.arrays`, which adds ``(H + H) +
((D + D) + sigma)``, so the two may differ in the last bit on
transcoded flows.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.assignment import Assignment
from repro.core.fastpath import profile_for
from repro.errors import ModelError, UnknownEntityError
from repro.model.conference import Conference


def flow_table_delays(
    conference: Conference, assignment: Assignment, selected: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(source, destination, delay_ms)`` columns of every flow whose
    session is ``selected`` (a boolean mask over session ids), in
    session-id order."""
    profile = profile_for(conference)
    table = profile.flow_table
    topology = conference.topology
    h, d = topology.agent_user_ms, topology.inter_agent_ms
    keep = selected[table.session]
    source = table.source[keep]
    destination = table.destination[keep]
    user_agent = assignment.user_agent
    a, b = user_agent[source], user_agent[destination]
    if (a < 0).any() or (b < 0).any():
        raise ModelError("both endpoints must be assigned")
    sigma_row = table.sigma_row[keep]
    m = np.concatenate((user_agent, assignment.task_agent))[table.middle[keep]]
    if (m < 0).any():
        raise ModelError(
            f"transcoding pair "
            f"{conference.transcode_pairs[int(sigma_row[m < 0][0])]} is unassigned"
        )
    delay = (
        (((h[a, source] + h[b, destination]) + d[a, m]) + d[m, b])
        + profile.sigma_pad[sigma_row, m]
    )
    return source, destination, delay


def average_conferencing_delay(
    conference: Conference,
    assignment: Assignment,
    sids: Iterable[int] | None = None,
) -> float:
    """The paper's reported delay metric: the average over all users of the
    per-user worst incoming-flow delay ``d_u``.

    Users enter the mean in ``sids`` order (each session's users in
    session order; a repeated sid counts its users again).
    """
    num_sessions = conference.num_sessions
    if sids is None:
        sids = np.arange(num_sessions)
    else:
        sids = np.fromiter(sids, dtype=np.int64)
    unknown = sids[(sids < 0) | (sids >= num_sessions)]
    if unknown.size:
        raise UnknownEntityError(f"unknown session {int(unknown[0])}")
    table = profile_for(conference).flow_table
    counts = table.user_count[sids]
    total = int(counts.sum())
    if total == 0:
        raise ModelError("no active sessions to average over")
    selected = np.zeros(num_sessions, dtype=bool)
    selected[sids] = True
    worst = np.zeros(conference.num_users)
    _source, destination, delay = flow_table_delays(conference, assignment, selected)
    np.maximum.at(worst, destination, delay)

    # Each requested session's slice of the flat user list, in order.
    offsets = np.repeat(table.user_start[sids] - (np.cumsum(counts) - counts), counts)
    return float(np.mean(worst[table.users[np.arange(total) + offsets]]))
