"""Constraint checking: (1)-(8) of problem UAP.

Constraints (1)-(4) are structural (one agent per user, one agent per
transcoding pair) and hold by construction of :class:`Assignment` whenever
every active entry is a valid agent id; the checker verifies that.
Constraints (5)-(7) are the capacity constraints, evaluated on the summed
per-session usage of the flow-model kernel
(:meth:`~repro.core.arrays.ConferenceArrays.assignment_usage`) by
:func:`capacity_violations` (which the bootstrap's final verdict shares);
constraint (8) caps every flow's end-to-end delay at ``Dmax``, checked on
:func:`~repro.core.delay.flow_table_delays` — the pass the simulator's
SLA check reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.arrays import arrays_for
from repro.core.assignment import Assignment
from repro.core.delay import flow_table_delays
from repro.model.conference import Conference
from repro.types import UNASSIGNED

#: Numerical slack for capacity comparisons.
CAPACITY_TOLERANCE = 1e-9


@dataclass
class FeasibilityReport:
    """The outcome of a full constraint check.

    ``violations`` holds one human-readable line per violated constraint;
    an empty list means the assignment is feasible.
    """

    ok: bool = True
    violations: list[str] = field(default_factory=list)

    def add(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "feasible"
        return f"{len(self.violations)} violation(s):\n  " + "\n  ".join(self.violations)


def agent_capacity_arrays(conference: Conference) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(download, upload, transcode)`` capacity vectors (may contain inf)."""
    download = np.array([a.download_mbps for a in conference.agents], dtype=float)
    upload = np.array([a.upload_mbps for a in conference.agents], dtype=float)
    slots = np.array([a.transcode_slots for a in conference.agents], dtype=float)
    return download, upload, slots


def capacity_violations(
    conference: Conference,
    download: np.ndarray,
    upload: np.ndarray,
    transcodes: np.ndarray,
) -> list[str]:
    """One line per agent resource whose summed usage exceeds its
    capacity (constraints (5)-(7)), agent by agent."""
    cap_down, cap_up, cap_slots = agent_capacity_arrays(conference)
    lines: list[str] = []
    for l in range(conference.num_agents):
        name = conference.agent(l).name
        if download[l] > cap_down[l] + CAPACITY_TOLERANCE:
            lines.append(
                f"constraint (5): agent {name} download {download[l]:.3f} Mbps "
                f"> capacity {cap_down[l]:.3f}"
            )
        if upload[l] > cap_up[l] + CAPACITY_TOLERANCE:
            lines.append(
                f"constraint (6): agent {name} upload {upload[l]:.3f} Mbps "
                f"> capacity {cap_up[l]:.3f}"
            )
        if transcodes[l] > cap_slots[l] + CAPACITY_TOLERANCE:
            lines.append(
                f"constraint (7): agent {name} runs {transcodes[l]:.0f} transcodes "
                f"> capacity {cap_slots[l]:.0f}"
            )
    return lines


def check_assignment(
    conference: Conference,
    assignment: Assignment,
    sids: Iterable[int] | None = None,
    dmax_ms: float | None = None,
) -> FeasibilityReport:
    """Check constraints (1)-(8) over the given (default all) sessions.

    A repeated sid is checked once: capacities sum each session's usage
    a single time.  The delay cap defaults to the conference's ``Dmax``;
    an infinite cap skips (8).
    """
    report = FeasibilityReport()
    if sids is None:
        sids = range(conference.num_sessions)
    sids = list(dict.fromkeys(sids))
    num_agents = conference.num_agents

    # (1)-(2): every active user attached to exactly one valid agent.
    for sid in sids:
        for uid in conference.session(sid).user_ids:
            agent = assignment.agent_of(uid)
            if agent == UNASSIGNED:
                report.add(f"constraint (1): user {uid} (session {sid}) unassigned")
            elif not 0 <= agent < num_agents:
                report.add(f"constraint (2): user {uid} has invalid agent {agent}")

    # (3)-(4): every active transcoding pair placed on exactly one agent.
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
        return report  # usage/delay formulas require a structurally valid state

    # (5)-(7): capacities against the summed session usage.
    arrays = arrays_for(conference)
    download = np.zeros(num_agents)
    upload = np.zeros(num_agents)
    transcodes = np.zeros(num_agents)
    for sid in sids:
        usage = arrays.assignment_usage(assignment, sid)
        download += usage.download
        upload += usage.upload
        transcodes += usage.transcodes
    for line in capacity_violations(conference, download, upload, transcodes):
        report.add(line)

    # (8): per-flow delay cap.
    cap = conference.dmax_ms if dmax_ms is None else dmax_ms
    if not math.isinf(cap):
        selected = np.zeros(conference.num_sessions, dtype=bool)
        selected[sids] = True
        sources, destinations, delays = flow_table_delays(
            conference, assignment, selected
        )
        for i in np.flatnonzero(delays > cap + 1e-9):
            report.add(
                f"constraint (8): flow {sources[i]}->{destinations[i]} delay "
                f"{delays[i]:.1f} ms > Dmax"
            )
    return report


def is_feasible(
    conference: Conference,
    assignment: Assignment,
    sids: Iterable[int] | None = None,
    dmax_ms: float | None = None,
) -> bool:
    """Boolean shortcut for :func:`check_assignment`."""
    return check_assignment(conference, assignment, sids, dmax_ms).ok
