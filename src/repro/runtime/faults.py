"""Timed-window fault injection (the resilience layer).

The paper's dynamics (Sec. V, Fig. 5) cover *session* churn only; this
module adds *infrastructure* churn: site outages, capacity degradation
and latency spikes, each active over a ``[start_s, end_s)`` window.
Faults are declared explicitly (:class:`Fault` windows) or drawn from a
seeded random chaos generator (:meth:`FaultSchedule.chaos`), and the
simulator injects them through the shared :class:`~repro.runtime.events.
EventQueue` with a pinned tie order — fault transitions carry priority
``-1``, so at a shared instant they apply before session dynamics
(priority 0) and before samples/wakes (priority 1).

A fault never mutates the pristine conference: :func:`apply_faults`
builds a *substrate view* — copied ``(D, H)`` matrices and replaced
agents — so the read-only arrays served by
:func:`repro.netsim.latency.substrate_matrices` are never written (an
accidental in-place mutation would raise on the write-protected cache
arrays).  The view shares the pristine conference's flow-model
structure (:func:`repro.core.fastpath.share_structure`): a fault
changes numbers, never who sends what to whom.  An outaged site keeps
its dense agent id (the model requires ``0..L-1``) and is masked
instead: every path through it costs
:data:`OUTAGE_DELAY_MS`, which the delay cap of constraint (8) turns
into infeasibility for every candidate placement.

Determinism: the chaos generator draws from a stream-tagged generator
(``default_rng([seed, _FAULT_STREAM_TAG])``), so fault times never
alias the simulator's wake draws or the trace generator's arrival
draws; schedules are canonically ordered, so declaration order never
changes a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.core.fastpath import share_structure
from repro.errors import SimulationError
from repro.model.conference import Conference
from repro.model.topology import Topology

__all__ = [
    "FAULT_KINDS",
    "FAULT_POLICIES",
    "OUTAGE_DELAY_MS",
    "Fault",
    "FaultSchedule",
    "all_sites_outaged_window",
    "apply_faults",
    "outaged_sites",
    "stranded_sessions",
]

#: Fault kinds, in canonical ordering rank (outage dominates).
FAULT_KINDS: tuple[str, ...] = ("outage", "capacity", "latency")

#: Recovery policies for sessions stranded on a dead/degraded site:
#: ``migrate`` re-places them immediately, ``drop`` removes them from
#: the run, ``none`` leaves recovery to the hop chain (the delay mask
#: already excludes dead sites from every candidate placement).
FAULT_POLICIES: tuple[str, ...] = ("migrate", "drop", "none")

#: One-way delay assigned to every path touching an outaged site.  Far
#: above any ``dmax_ms``, so the delay cap masks the site out of every
#: feasible candidate set, while the matrices stay finite (the topology
#: layer rejects inf/NaN).
OUTAGE_DELAY_MS = 1.0e6

#: Chaos generator rng stream tag (ASCII "faul"), distinct from the
#: trace layer's stream tag so fault draws never alias trace draws.
_FAULT_STREAM_TAG = 0x6661756C

_KIND_RANK = {kind: rank for rank, kind in enumerate(FAULT_KINDS)}


@dataclass(frozen=True)
class Fault:
    """One timed fault window on one site.

    ``severity`` is the fraction of capacity lost (``capacity``, in
    ``(0, 1]``) or the relative delay inflation (``latency``: every
    delay through the site scales by ``1 + severity``); outages ignore
    it — a dead site is fully dead.
    """

    kind: str
    site: int
    start_s: float
    end_s: float
    severity: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(
                f"fault kind {self.kind!r} is unknown; choose from {FAULT_KINDS}"
            )
        if self.site < 0:
            raise SimulationError(
                f"fault site must be >= 0, got {self.site}"
            )
        if self.start_s < 0:
            raise SimulationError(
                f"fault start must be >= 0, got {self.start_s}"
            )
        if not self.end_s > self.start_s:
            raise SimulationError(
                f"fault window must have end > start, got "
                f"[{self.start_s}, {self.end_s}]"
            )
        if self.kind == "capacity" and not 0.0 < self.severity <= 1.0:
            raise SimulationError(
                f"capacity fault severity must be in (0, 1], got {self.severity}"
            )
        if self.kind == "latency" and self.severity <= 0.0:
            raise SimulationError(
                f"latency fault severity must be > 0, got {self.severity}"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def _canonical_key(fault: Fault) -> tuple:
    return (
        fault.start_s,
        fault.end_s,
        _KIND_RANK[fault.kind],
        fault.site,
        fault.severity,
    )


@dataclass(frozen=True)
class FaultSchedule:
    """A canonically ordered set of fault windows plus a recovery policy.

    Faults are sorted on construction, so two schedules declaring the
    same windows in different orders compare equal and replay
    identically (batch-order independence).
    """

    faults: tuple[Fault, ...] = ()
    policy: str = "migrate"

    def __post_init__(self) -> None:
        if self.policy not in FAULT_POLICIES:
            raise SimulationError(
                f"fault policy {self.policy!r} is unknown; "
                f"choose from {FAULT_POLICIES}"
            )
        object.__setattr__(
            self, "faults", tuple(sorted(self.faults, key=_canonical_key))
        )

    def __len__(self) -> int:
        return len(self.faults)

    def transitions(self) -> list[tuple[float, str, Fault]]:
        """``(time_s, phase, fault)`` boundary events, canonically sorted.

        At a shared instant recoveries (``"end"``) apply before new
        faults (``"start"``), so back-to-back windows on one site never
        overlap at the boundary; within a phase the order is the
        canonical fault order.  The sort is total, so the simulator's
        event insertion order — and therefore the trajectory — never
        depends on declaration order.
        """
        events: list[tuple[float, str, Fault]] = []
        for fault in self.faults:
            events.append((fault.start_s, "start", fault))
            events.append((fault.end_s, "end", fault))
        events.sort(
            key=lambda item: (
                item[0],
                0 if item[1] == "end" else 1,
                _canonical_key(item[2]),
            )
        )
        return events

    @classmethod
    def chaos(
        cls,
        num_sites: int,
        duration_s: float,
        rate_per_s: float,
        mean_duration_s: float = 20.0,
        severity: float = 0.5,
        kinds: Sequence[str] = FAULT_KINDS,
        policy: str = "migrate",
        seed: int = 0,
    ) -> "FaultSchedule":
        """Seeded random chaos: Poisson fault arrivals over the horizon.

        Inter-arrival times and durations are exponential; the faulted
        site and kind are uniform.  An outage that would put every site
        down simultaneously is skipped (deterministically — the draw is
        still consumed), so a generated schedule never compiles into
        the all-sites-dead :class:`~repro.errors.SpecError`.
        """
        if num_sites < 1:
            raise SimulationError(f"num_sites must be >= 1, got {num_sites}")
        if rate_per_s < 0:
            raise SimulationError(
                f"chaos rate must be >= 0, got {rate_per_s}"
            )
        if mean_duration_s <= 0:
            raise SimulationError(
                f"chaos mean duration must be positive, got {mean_duration_s}"
            )
        kinds = tuple(kinds)
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise SimulationError(
                    f"chaos kind {kind!r} is unknown; choose from {FAULT_KINDS}"
                )
        if not kinds:
            raise SimulationError("chaos needs at least one fault kind")
        rng = np.random.default_rng([seed, _FAULT_STREAM_TAG])
        faults: list[Fault] = []
        now = 0.0
        while rate_per_s > 0:
            now += float(rng.exponential(1.0 / rate_per_s))
            if now >= duration_s:
                break
            kind = kinds[int(rng.integers(len(kinds)))]
            site = int(rng.integers(num_sites))
            length = float(rng.exponential(mean_duration_s))
            fault = Fault(
                kind=kind,
                site=site,
                start_s=now,
                end_s=now + max(length, 1e-6),
                severity=severity,
            )
            if kind == "outage" and all_sites_outaged_window(
                [*faults, fault], num_sites
            ):
                continue
            faults.append(fault)
        return cls(faults=tuple(faults), policy=policy)


def all_sites_outaged_window(
    faults: Iterable[Fault], num_sites: int
) -> tuple[float, float] | None:
    """The first interval during which *every* site is outaged, or None.

    Such a schedule leaves no feasible placement for any session, so
    the fleet compiler rejects it with a :class:`~repro.errors.
    SpecError` naming exactly this window.
    """
    by_site: dict[int, list[tuple[float, float]]] = {}
    for fault in faults:
        if fault.kind == "outage":
            by_site.setdefault(fault.site, []).append(
                (fault.start_s, fault.end_s)
            )
    if set(by_site) < set(range(num_sites)):
        return None
    # An all-dead interval must begin at some outage's start.
    starts = sorted({start for windows in by_site.values() for start, _ in windows})
    for t in starts:
        ends: list[float] = []
        for site in range(num_sites):
            covering = [
                end for start, end in by_site[site] if start <= t < end
            ]
            if not covering:
                break
            ends.append(max(covering))
        else:
            return (t, min(ends))
    return None


def _scale_capacity(value: float, keep: float) -> float:
    # keep == 0 must yield exactly 0 even for inf capacities (inf * 0
    # is NaN, which the agent model rightly rejects).
    return 0.0 if keep == 0.0 else value * keep


def apply_faults(
    conference: Conference, faults: Iterable[Fault]
) -> Conference:
    """A substrate *view* of ``conference`` under the active faults.

    Copies ``(D, H)`` before touching them (the pristine topology and
    any cached substrate arrays are never written), scales latency rows
    and columns symmetrically, replaces degraded agents with reduced
    capacities, and masks outaged sites with :data:`OUTAGE_DELAY_MS`
    on every off-diagonal path (``D`` keeps its zero diagonal — the
    model requires it, and a dead site's self-path is never priced).
    Outages are applied last, so they dominate any scaling on the same
    site.  The returned view shares users/sessions/representations and
    every agent's latency model with the pristine conference, so
    existing :class:`~repro.core.assignment.Assignment` vectors stay
    valid against it and it shares the pristine flow-model structure.
    """
    faults = sorted(faults, key=_canonical_key)
    if not faults:
        return conference
    d = conference.topology.inter_agent_ms.copy()
    h = conference.topology.agent_user_ms.copy()
    agents = list(conference.agents)
    num_sites = len(agents)
    for fault in faults:
        if fault.site >= num_sites:
            raise SimulationError(
                f"fault site {fault.site} does not exist "
                f"(conference has {num_sites} agents)"
            )
        if fault.kind == "latency":
            factor = 1.0 + fault.severity
            d[fault.site, :] *= factor
            d[:, fault.site] *= factor
            d[fault.site, fault.site] = 0.0
            h[fault.site, :] *= factor
        elif fault.kind == "capacity":
            keep = 1.0 - fault.severity
            agent = agents[fault.site]
            agents[fault.site] = replace(
                agent,
                upload_mbps=_scale_capacity(agent.upload_mbps, keep),
                download_mbps=_scale_capacity(agent.download_mbps, keep),
                transcode_slots=_scale_capacity(agent.transcode_slots, keep),
            )
    for fault in faults:
        if fault.kind == "outage":
            d[fault.site, :] = OUTAGE_DELAY_MS
            d[:, fault.site] = OUTAGE_DELAY_MS
            d[fault.site, fault.site] = 0.0
            h[fault.site, :] = OUTAGE_DELAY_MS
    view = Conference(
        conference.users,
        conference.sessions,
        tuple(agents),
        Topology(d, h),
        conference.representations,
        dmax_ms=conference.dmax_ms,
    )
    return share_structure(view, conference)


def outaged_sites(faults: Iterable[Fault]) -> frozenset[int]:
    """Sites currently dead under the given active faults."""
    return frozenset(
        fault.site for fault in faults if fault.kind == "outage"
    )


def stranded_sessions(
    conference: Conference,
    assignment,
    sids: Iterable[int],
    sites: frozenset[int] | set[int],
) -> list[int]:
    """Active sessions with any user or transcoding task on a dead site."""
    if not sites:
        return []
    stranded: list[int] = []
    for sid in sids:
        session = conference.sessions[sid]
        if any(
            int(assignment.user_agent[uid]) in sites
            for uid in session.user_ids
        ) or any(
            int(assignment.task_agent[index]) in sites
            for index in conference.session_pair_indices(sid)
        ):
            stranded.append(sid)
    return stranded
