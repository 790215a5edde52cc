"""Per-flow oracle for the flow model: the paper's equations, flow by flow.

Production evaluates each quantity once, over precomputed tables: a
session's usage and the objective's delay terms with the
:mod:`repro.core.arrays` kernel (for one assignment or a whole move
set), and the recorded delay and constraint (8) with
:func:`repro.core.delay.flow_table_delays`.  This module computes the
same quantities the slow and obvious way, so the tests can pin
production against it:

* transcoding indicators ``nu`` (Sec. III-B) — :func:`active_transcodes`,
  :func:`transcode_counts`, :func:`session_transcode_map`;
* the ``mu_klu`` traffic formula — :func:`stream_mu`,
  :func:`compute_session_usage` (pinned ``==`` to the kernel's
  ``assignment_usage``);
* an explicit per-edge router — :func:`route_session_flows`, which also
  charges the one corner the published formula leaves out (transcoded
  traffic entering the source user's own agent);
* per-flow delays (Sec. III-C) — :func:`flow_delay` and friends, adding
  terms left to right, ``(((H + H) + D) + D) + sigma``: the order of
  :func:`~repro.core.delay.flow_table_delays`, so ``==`` holds against
  it.  The kernel (and ``tests/kernel_oracle.py``'s loops) add ``(H +
  H) + ((D + D) + sigma)``, so against it only ``approx`` holds on
  transcoded flows;
* constraints (1)-(8) — :func:`check_assignment`, and the bootstrap
  algorithm as it was before it read the profile — :func:`try_bootstrap`
  and :func:`ledger_from_assignment`.

Only tests import it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.core.agrank import agrank_assignment
from repro.core.assignment import Assignment
from repro.core.bootstrap import BootstrapResult
from repro.core.capacity import CapacityLedger
from repro.core.fastpath import SessionUsage
from repro.core.feasibility import (
    CAPACITY_TOLERANCE,
    FeasibilityReport,
    agent_capacity_arrays,
)
from repro.core.nearest import nearest_assignment
from repro.errors import InfeasibleError, ModelError, SolverError
from repro.model.conference import Conference
from repro.model.representation import Representation
from repro.types import UNASSIGNED

# ---------------------------------------------------------------------- #
# Transcoding indicators                                                 #
# ---------------------------------------------------------------------- #

#: A transcoding task: (agent, source user, target representation).
TranscodeTask = tuple[int, int, Representation]


def active_transcodes(
    conference: Conference,
    assignment: Assignment,
    sids: Iterable[int] | None = None,
) -> set[TranscodeTask]:
    """The set of active tasks ``{(l, u, r) : nu_lru = 1}``, restricted to
    the sessions in ``sids`` when given."""
    if sids is None:
        pair_indices: Iterable[int] = range(conference.theta_sum)
    else:
        pair_indices = [
            i for sid in sids for i in conference.session_pair_indices(sid)
        ]
    tasks: set[TranscodeTask] = set()
    pairs = conference.transcode_pairs
    for i in pair_indices:
        agent = assignment.task_agent_of(i)
        if agent == UNASSIGNED:
            continue
        source, destination = pairs[i]
        tasks.add((agent, source, conference.demanded_representation(source, destination)))
    return tasks


def transcode_counts(
    conference: Conference,
    assignment: Assignment,
    sids: Iterable[int] | None = None,
) -> np.ndarray:
    """Per-agent counts of active tasks (``y_ls`` summed over ``sids``)."""
    counts = np.zeros(conference.num_agents, dtype=np.int64)
    for agent, _source, _rep in active_transcodes(conference, assignment, sids):
        counts[agent] += 1
    return counts


def session_transcode_map(
    conference: Conference, assignment: Assignment, sid: int
) -> dict[int, dict[Representation, set[int]]]:
    """For each source user of session ``sid``: representation -> the set
    of agents transcoding that (user, representation)."""
    result: dict[int, dict[Representation, set[int]]] = defaultdict(
        lambda: defaultdict(set)
    )
    pairs = conference.transcode_pairs
    for i in conference.session_pair_indices(sid):
        agent = assignment.task_agent_of(i)
        if agent == UNASSIGNED:
            continue
        source, destination = pairs[i]
        rep = conference.demanded_representation(source, destination)
        result[source][rep].add(agent)
    return {u: dict(reps) for u, reps in result.items()}


def transcoding_agents_of(
    conference: Conference, assignment: Assignment, sid: int, source: int
) -> set[int]:
    """Agents with ``nu'_{l,source} = 1`` within session ``sid``."""
    agents: set[int] = set()
    pairs = conference.transcode_pairs
    for i in conference.session_pair_indices(sid):
        if pairs[i][0] != source:
            continue
        agent = assignment.task_agent_of(i)
        if agent != UNASSIGNED:
            agents.add(agent)
    return agents


# ---------------------------------------------------------------------- #
# Traffic: the mu_klu formula                                            #
# ---------------------------------------------------------------------- #


def stream_mu(
    conference: Conference,
    assignment: Assignment,
    sid: int,
    source: int,
) -> np.ndarray:
    """The L x L matrix ``mu[k, l]`` for one source user's stream."""
    num_agents = conference.num_agents
    mu = np.zeros((num_agents, num_agents), dtype=float)
    source_agent = assignment.agent_of(source)
    if source_agent == UNASSIGNED:
        raise ModelError(f"user {source} is unassigned")
    kappa_up = conference.user(source).upstream.bitrate_mbps

    raw_dest_agents: set[int] = set()
    transcoded_dest_agents: dict[object, set[int]] = {}
    upstream = conference.user(source).upstream
    for v in conference.participants(source):
        v_agent = assignment.agent_of(v)
        if v_agent == UNASSIGNED:
            raise ModelError(f"user {v} is unassigned")
        demanded = conference.user(v).downstream_from(source)
        if demanded == upstream:
            raw_dest_agents.add(v_agent)
        else:
            transcoded_dest_agents.setdefault(demanded, set()).add(v_agent)

    transcoders = transcoding_agents_of(conference, assignment, sid, source)
    per_rep = session_transcode_map(conference, assignment, sid).get(source, {})

    for l in range(num_agents):
        if l == source_agent:
            continue  # every term carries lambda_ku or (1 - lambda_lu)
        # Term 1: raw stream shipped to a transcoding agent.
        if l in transcoders:
            mu[source_agent, l] += kappa_up
        # Term 2: raw stream shipped to an agent hosting a raw destination.
        elif l in raw_dest_agents:
            mu[source_agent, l] += kappa_up
    # Term 3: transcoded representations shipped transcoder -> destination.
    for rep, task_agents in per_rep.items():
        dest_agents = transcoded_dest_agents.get(rep, set())
        for l in dest_agents:
            if l == source_agent:
                continue  # the published (1 - lambda_lu) factor
            for k in task_agents:
                if k != l:
                    mu[k, l] += rep.bitrate_mbps
    return mu


def compute_session_usage(
    conference: Conference, assignment: Assignment, sid: int
) -> SessionUsage:
    """All per-agent usage quantities for session ``sid``."""
    num_agents = conference.num_agents
    session = conference.session(sid)
    inter = np.zeros((num_agents, num_agents), dtype=float)
    lastmile_down = np.zeros(num_agents, dtype=float)
    lastmile_up = np.zeros(num_agents, dtype=float)

    for uid in session.user_ids:
        agent = assignment.agent_of(uid)
        if agent == UNASSIGNED:
            raise ModelError(f"user {uid} is unassigned")
        user = conference.user(uid)
        lastmile_down[agent] += user.upstream.bitrate_mbps
        lastmile_up[agent] += sum(
            user.downstream_from(v).bitrate_mbps for v in session.others(uid)
        )
        inter += stream_mu(conference, assignment, sid, uid)

    incoming = inter.sum(axis=0)
    outgoing = inter.sum(axis=1)

    transcodes = np.zeros(num_agents, dtype=np.int64)
    for reps in session_transcode_map(conference, assignment, sid).values():
        for agents in reps.values():
            for agent in agents:
                transcodes[agent] += 1

    return SessionUsage(
        sid=sid,
        inter_in=incoming,
        inter_out=outgoing,
        download=lastmile_down + incoming,
        upload=lastmile_up + outgoing,
        transcodes=transcodes,
    )


def total_inter_agent_traffic(
    conference: Conference,
    assignment: Assignment,
    sids: list[int] | None = None,
) -> float:
    """Total inter-agent Mbps over the given (default all) sessions."""
    if sids is None:
        sids = list(range(conference.num_sessions))
    return sum(
        compute_session_usage(conference, assignment, sid).total_inter_agent_mbps
        for sid in sids
    )


# ---------------------------------------------------------------------- #
# Explicit per-edge router                                               #
# ---------------------------------------------------------------------- #


@dataclass
class FlowCopy:
    """One inter-agent shipment of one stream copy."""

    source_user: int
    representation: Representation
    from_agent: int
    to_agent: int

    @property
    def mbps(self) -> float:
        return self.representation.bitrate_mbps


@dataclass
class SessionFlowPlan:
    """Routed flows of one session: ``edge_mbps[k, l]`` is the traffic
    shipped from agent ``k`` to agent ``l``; ``copies`` the shipments."""

    sid: int
    edge_mbps: np.ndarray
    copies: list[FlowCopy] = field(default_factory=list)

    @property
    def total_inter_agent_mbps(self) -> float:
        return float(self.edge_mbps.sum())

    def incoming(self) -> np.ndarray:
        """Per-agent inter-agent ingress (router analogue of ``x_ls``)."""
        return self.edge_mbps.sum(axis=0)

    def outgoing(self) -> np.ndarray:
        """Per-agent inter-agent egress."""
        return self.edge_mbps.sum(axis=1)


def route_session_flows(
    conference: Conference, assignment: Assignment, sid: int
) -> SessionFlowPlan:
    """Route all streams of session ``sid`` and account every edge copy
    once per distinct ``(source user, representation)`` copy."""
    session = conference.session(sid)
    num_agents = conference.num_agents
    edges = np.zeros((num_agents, num_agents), dtype=float)
    copies: list[FlowCopy] = []
    transcode_map = session_transcode_map(conference, assignment, sid)

    def ship(source: int, rep: Representation, from_agent: int, to_agent: int) -> None:
        if from_agent == to_agent:
            return
        edges[from_agent, to_agent] += rep.bitrate_mbps
        copies.append(FlowCopy(source, rep, from_agent, to_agent))

    for uid in session.user_ids:
        source_agent = assignment.agent_of(uid)
        if source_agent == UNASSIGNED:
            raise ModelError(f"user {uid} is unassigned")
        upstream = conference.user(uid).upstream

        raw_targets: set[int] = set()
        for v in session.others(uid):
            v_agent = assignment.agent_of(v)
            if v_agent == UNASSIGNED:
                raise ModelError(f"user {v} is unassigned")
            if conference.user(v).downstream_from(uid) == upstream:
                raw_targets.add(v_agent)
        per_rep = transcode_map.get(uid, {})
        for agents in per_rep.values():
            raw_targets.update(agents)
        for target in sorted(raw_targets):
            ship(uid, upstream, source_agent, target)

        for rep, task_agents in per_rep.items():
            dest_agents = {
                assignment.agent_of(v)
                for v in session.others(uid)
                if conference.user(v).downstream_from(uid) == rep
            }
            if len(task_agents) == 1:
                (task_agent,) = task_agents
                for dest in sorted(dest_agents):
                    ship(uid, rep, task_agent, dest)
            else:
                # Several task agents for one (user, rep): each serves the
                # destinations whose pair was assigned to it.
                shipped: set[tuple[int, int]] = set()
                for i in conference.session_pair_indices(sid):
                    src, dst = conference.transcode_pairs[i]
                    if src != uid:
                        continue
                    if conference.demanded_representation(src, dst) != rep:
                        continue
                    task_agent = assignment.task_agent_of(i)
                    dest = assignment.agent_of(dst)
                    if (task_agent, dest) not in shipped:
                        shipped.add((task_agent, dest))
                        ship(uid, rep, task_agent, dest)

    return SessionFlowPlan(sid=sid, edge_mbps=edges, copies=copies)


def total_routed_traffic(
    conference: Conference,
    assignment: Assignment,
    sids: list[int] | None = None,
) -> float:
    """Total routed inter-agent Mbps over the given (default all) sessions."""
    if sids is None:
        sids = list(range(conference.num_sessions))
    return sum(
        route_session_flows(conference, assignment, sid).total_inter_agent_mbps
        for sid in sids
    )


# ---------------------------------------------------------------------- #
# Per-flow delay                                                         #
# ---------------------------------------------------------------------- #


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


# ---------------------------------------------------------------------- #
# Constraints and the bootstrap                                          #
# ---------------------------------------------------------------------- #


def check_assignment(
    conference: Conference,
    assignment: Assignment,
    sids: Iterable[int] | None = None,
    dmax_ms: float | None = None,
) -> FeasibilityReport:
    """Constraints (1)-(8) flow by flow, each session counted once."""
    report = FeasibilityReport()
    if sids is None:
        sids = range(conference.num_sessions)
    sids = list(dict.fromkeys(sids))
    num_agents = conference.num_agents

    for sid in sids:
        for uid in conference.session(sid).user_ids:
            agent = assignment.agent_of(uid)
            if agent == UNASSIGNED:
                report.add(f"constraint (1): user {uid} (session {sid}) unassigned")
            elif not 0 <= agent < num_agents:
                report.add(f"constraint (2): user {uid} has invalid agent {agent}")
    for sid in sids:
        for i in conference.session_pair_indices(sid):
            agent = assignment.task_agent_of(i)
            source, destination = conference.transcode_pairs[i]
            if agent == UNASSIGNED:
                report.add(
                    f"constraint (3): transcoding {source}->{destination} unassigned"
                )
            elif not 0 <= agent < num_agents:
                report.add(
                    f"constraint (4): transcoding {source}->{destination} has "
                    f"invalid agent {agent}"
                )
    if not report.ok:
        return report

    download = np.zeros(num_agents)
    upload = np.zeros(num_agents)
    transcodes = np.zeros(num_agents)
    for sid in sids:
        usage = compute_session_usage(conference, assignment, sid)
        download += usage.download
        upload += usage.upload
        transcodes += usage.transcodes
    cap_down, cap_up, cap_slots = agent_capacity_arrays(conference)
    for l in range(num_agents):
        name = conference.agent(l).name
        if download[l] > cap_down[l] + CAPACITY_TOLERANCE:
            report.add(
                f"constraint (5): agent {name} download {download[l]:.3f} Mbps "
                f"> capacity {cap_down[l]:.3f}"
            )
        if upload[l] > cap_up[l] + CAPACITY_TOLERANCE:
            report.add(
                f"constraint (6): agent {name} upload {upload[l]:.3f} Mbps "
                f"> capacity {cap_up[l]:.3f}"
            )
        if transcodes[l] > cap_slots[l] + CAPACITY_TOLERANCE:
            report.add(
                f"constraint (7): agent {name} runs {transcodes[l]:.0f} transcodes "
                f"> capacity {cap_slots[l]:.0f}"
            )

    for sid in sids:
        for source, destination, delay in delay_violations(
            conference, assignment, sid, dmax_ms
        ):
            report.add(
                f"constraint (8): flow {source}->{destination} delay "
                f"{delay:.1f} ms > Dmax"
            )
    return report


def ledger_from_assignment(
    conference: Conference,
    assignment: Assignment,
    sids: Iterable[int] | None = None,
) -> CapacityLedger:
    """A ledger populated with the oracle usage of the given sessions."""
    ledger = CapacityLedger(conference)
    if sids is None:
        sids = range(conference.num_sessions)
    for sid in sids:
        ledger.set_session(compute_session_usage(conference, assignment, sid))
    return ledger


def try_bootstrap(
    conference: Conference,
    policy: str = "agrank",
    config=None,
    sids: Iterable[int] | None = None,
) -> BootstrapResult:
    """The bootstrap algorithm on the oracle: place sessions one by one
    against a ledger of oracle usage, then judge the whole assignment
    with the per-flow :func:`check_assignment`, capacities only."""
    if policy not in ("nearest", "agrank"):
        raise SolverError(f"unknown bootstrap policy {policy!r}")
    sid_list = list(sids) if sids is not None else list(range(conference.num_sessions))
    assignment = Assignment.empty(conference)
    ledger = CapacityLedger(conference)
    for sid in sid_list:
        if policy == "nearest":
            assignment = nearest_assignment(conference, [sid], base=assignment)
        else:
            try:
                assignment = agrank_assignment(
                    conference, sid, ledger=ledger, config=config, base=assignment
                )
            except InfeasibleError as error:
                return BootstrapResult(
                    assignment=assignment,
                    success=False,
                    failed_sid=sid,
                    reason=str(error),
                )
        ledger.set_session(compute_session_usage(conference, assignment, sid))

    report = check_assignment(conference, assignment, sid_list, dmax_ms=math.inf)
    if not report.ok:
        return BootstrapResult(
            assignment=assignment,
            success=False,
            failed_sid=None,
            reason=report.summary(),
        )
    return BootstrapResult(assignment=assignment, success=True)
