"""Whole-conference bootstrapping: initial assignments for many sessions.

Sessions are bootstrapped one at a time (the paper's sessions start
independently); each sees the residual capacities left by those already
admitted via a shared :class:`CapacityLedger`, fed with each placed
session's usage from the flow-model kernel
(:meth:`~repro.core.arrays.ConferenceArrays.assignment_usage`).  The
verdict is capacity-only — constraints (1)-(7), the Fig. 9 notion of a
"successfully initialized" scenario: initial assignments may exceed
``Dmax`` on individual flows (AgRank is not delay-aware), and Alg. 1 —
whose candidate filter enforces constraint (8) — heals them on its first
hops.  The Fig. 9 success-rate experiments call :func:`try_bootstrap` and
count scenarios where every session was admitted within capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from repro.core.agrank import AgRankConfig, agrank_assignment
from repro.core.arrays import arrays_for
from repro.core.assignment import Assignment
from repro.core.capacity import CapacityLedger
from repro.core.feasibility import FeasibilityReport, capacity_violations
from repro.core.nearest import nearest_assignment
from repro.errors import InfeasibleError, SolverError
from repro.model.conference import Conference

Policy = Literal["nearest", "agrank"]


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of a whole-conference bootstrap attempt."""

    assignment: Assignment
    success: bool
    failed_sid: int | None = None
    reason: str = ""


def bootstrap_assignment(
    conference: Conference,
    policy: Policy = "agrank",
    config: AgRankConfig | None = None,
    sids: Iterable[int] | None = None,
) -> Assignment:
    """Bootstrap the given (default all) sessions, raising on failure."""
    result = try_bootstrap(conference, policy, config, sids)
    if not result.success:
        raise InfeasibleError(
            f"bootstrap policy {policy!r} failed at session {result.failed_sid}: "
            f"{result.reason}"
        )
    return result.assignment


def try_bootstrap(
    conference: Conference,
    policy: Policy = "agrank",
    config: AgRankConfig | None = None,
    sids: Iterable[int] | None = None,
) -> BootstrapResult:
    """Bootstrap sessions one by one, reporting success or the first
    failure (an AgRank rejection, or summed usage over capacity).

    A repeated sid is placed again but its usage counts once.
    """
    if policy not in ("nearest", "agrank"):
        raise SolverError(f"unknown bootstrap policy {policy!r}")
    sid_list = list(sids) if sids is not None else list(range(conference.num_sessions))
    assignment = Assignment.empty(conference)
    ledger = CapacityLedger(conference)
    arrays = arrays_for(conference)

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
        ledger.set_session(arrays.assignment_usage(assignment, sid))

    violations = capacity_violations(conference, *ledger.totals())
    if violations:
        return BootstrapResult(
            assignment=assignment,
            success=False,
            failed_sid=None,
            reason=FeasibilityReport(ok=False, violations=violations).summary(),
        )
    return BootstrapResult(assignment=assignment, success=True)
