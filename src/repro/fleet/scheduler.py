"""Unit scheduling: ordering, budgets, crash retries, early abort.

The scheduler sits between matrix expansion and the execution backends.
It owns every policy decision about *how* the pending units run:

* **Ordering** — units dispatch in substrate-affinity order
  (:func:`substrate_affinity`), so grid points sharing a latency
  substrate hit each worker's warm cache back-to-back.
* **Budgets** — ``execution.unit_timeout_s`` is passed to the backend
  as a per-unit wall-time budget; over-budget units come back as
  first-class ``status: "timeout"`` records.  ``execution.
  total_budget_s`` is the *fleet-level* allowance: once the wall clock
  spends it the scheduler stops dispatching and persists every
  remaining unit as a first-class ``status: "unscheduled"`` record
  (schema v6), so a later unbudgeted rerun completes them through the
  resume cache.
* **Crash retries** — units whose worker died without producing a
  record (backend status ``"crashed"``) are re-dispatched up to
  ``execution.max_retries`` times; units still crashing are persisted
  as ``status: "error"`` records carrying an ``attempts`` count, so a
  flaky worker never silently loses a unit.  Retries flow through the
  backend's live :meth:`~repro.fleet.backends.base.ExecutionBackend.
  execute_stream` queue, so a retried unit re-dispatches the moment a
  worker idles instead of waiting for the batch to drain.
* **Successive halving** — with ``execution.halving.rungs`` set, seed
  replicates run rung by rung: after each rung the grid points are
  ranked by the running mean of ``halving.metric`` (lower is better)
  and only the best ``ceil(n / eta)`` advance.  Abandoned points'
  remaining replicates are recorded as ``status: "pruned"`` (with the
  rung index), not executed.  With ``halving.asynchronous`` the rung
  barrier goes away: a point promotes the moment enough *completed*
  peers provably rank behind it (and prunes the moment enough provably
  rank ahead), so stragglers never idle the pool — while the
  conservative promotion rule keeps the survivor set, and therefore
  every persisted record, byte-identical to the synchronous plan.

Units may carry different effective execution configs (``execution.*``
sweep axes); the scheduler groups them, instantiates one backend per
distinct config, and always closes each backend — even on error paths
— so pool workers are reliably reaped.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import repro.telemetry as tele
from repro.analysis.report import record_schema_version
from repro.fleet.backends import ExecutionBackend, RunPayload, create_backend
from repro.fleet.matrix import RunUnit
from repro.fleet.spec import ExecutionSpec

__all__ = [
    "FleetScheduler",
    "SchedulerOutcome",
    "substrate_affinity",
]


def substrate_affinity(unit: RunUnit) -> tuple:
    """Sort key grouping units that share a latency substrate.

    Scenario compilation memoizes ``(D, H)`` by (latency seed,
    regions, sites) — see :mod:`repro.fleet.compile` — so executing
    same-substrate units back-to-back maximizes warm-cache hits.
    Workload knobs that change the site draw are part of the key;
    the final results file is rewritten in matrix order regardless,
    so dispatch order never shows in the output.  The pool backend
    additionally routes same-key payloads to the same persistent
    worker (sticky affinity dispatch).
    """
    spec = unit.spec
    return (
        spec.topology.latency_seed,
        spec.topology.num_user_sites,
        tuple(spec.topology.regions or ()),
        tuple(spec.topology.user_sites or ()),
        spec.workload.kind,
        spec.simulation.seed,
    )


def pruned_record(unit: RunUnit, rung: int) -> dict:
    """The first-class record of a replicate abandoned by halving."""
    return {
        "schema_version": record_schema_version({}),
        "name": unit.spec.name,
        "status": "pruned",
        "run_id": unit.run_id,
        "axes": unit.axes,
        "seed": unit.seed,
        "rung": rung,
    }


def unscheduled_record(payload: RunPayload, total_budget_s: float) -> dict:
    """The first-class record of a unit the fleet budget never reached.

    Unlike ``"pruned"`` (a ranking decision), ``"unscheduled"`` is a
    resource decision: the unit was wanted but ``execution.
    total_budget_s`` ran out first.  The record is schema v6 and is not
    cached on resume, so an unbudgeted rerun executes it.
    """
    record = {
        "schema_version": 0,  # re-stamped below once status is set
        "name": payload.name,
        "status": "unscheduled",
        "error": (
            f"FleetBudget: execution.total_budget_s={total_budget_s:g}s "
            f"spent before this unit was dispatched"
        ),
        "run_id": payload.run_id,
        "axes": payload.axes,
        "seed": payload.seed,
    }
    record["schema_version"] = record_schema_version(record)
    return record


@dataclass
class SchedulerOutcome:
    """What one scheduling pass produced (fresh records only)."""

    #: ``run_id -> record`` for every unit the scheduler resolved this
    #: pass (executed, timed out, crash-exhausted, pruned, or
    #: unscheduled).
    fresh: dict[str, dict] = field(default_factory=dict)
    #: Units actually dispatched to a backend (retries not re-counted).
    executed: int = 0
    #: Units recorded as ``"pruned"`` instead of executing.
    pruned: int = 0
    #: Units recorded as ``"unscheduled"`` — the fleet budget ran out.
    unscheduled: int = 0


class FleetScheduler:
    """Plans and dispatches pending run units through backends."""

    def __init__(
        self,
        on_record: Callable[[dict], None] | None = None,
        backend_factory: Callable[[ExecutionSpec], ExecutionBackend]
        | None = None,
        backend: str | None = None,
        workers: int | None = None,
        unit_timeout_s: float | None = None,
        max_retries: int | None = None,
        telemetry: bool | None = None,
        total_budget_s: float | None = None,
        on_progress: Callable[[dict], None] | None = None,
    ) -> None:
        """``backend``/``workers``/``unit_timeout_s``/``max_retries``/
        ``telemetry``/``total_budget_s`` override the corresponding
        ``execution:`` spec fields for every unit (the CLI's
        ``--backend``/``--workers``/``--budget``/``--telemetry``/
        ``--total-budget`` flags); None defers to each unit's own spec.
        ``on_record`` is called once per fresh record as it resolves
        (the orchestrator's incremental JSONL append); ``on_progress``
        receives live scheduling events — ``{"event": "dispatched",
        "count": n}`` when units enter a backend and ``{"event":
        "record", "status": s}`` as each record lands — the feed behind
        ``--progress``."""
        self._on_record = on_record or (lambda record: None)
        self._on_progress = on_progress or (lambda event: None)
        self._backend_factory = backend_factory or (
            lambda execution: create_backend(
                execution.backend,
                workers=execution.workers,
                execution=execution,
            )
        )
        self._overrides = {
            key: value
            for key, value in {
                "backend": backend,
                "workers": workers,
                "unit_timeout_s": unit_timeout_s,
                "max_retries": max_retries,
                "telemetry": telemetry,
                "total_budget_s": total_budget_s,
            }.items()
            if value is not None
        }

    # ------------------------------------------------------------------ #
    # Planning                                                           #
    # ------------------------------------------------------------------ #

    def effective_execution(self, unit: RunUnit) -> ExecutionSpec:
        """The unit's execution config with scheduler overrides applied."""
        execution = unit.spec.execution
        if self._overrides:
            execution = replace(execution, **self._overrides)
        return execution

    def run(
        self, units: Sequence[RunUnit], cached: dict[str, dict]
    ) -> SchedulerOutcome:
        """Resolve every unit not in ``cached`` into a fresh record.

        Units are grouped by effective execution config (one backend
        instance per group, so ``execution.*`` sweep axes compare
        backends within one fleet); each group runs its halving plan —
        or a single substrate-ordered batch when halving is off.  Every
        backend is closed when its group ends, including on error
        paths, so persistent pool workers are always reaped.
        """
        outcome = SchedulerOutcome()
        groups: dict[ExecutionSpec, list[RunUnit]] = {}
        for unit in units:
            groups.setdefault(self.effective_execution(unit), []).append(unit)
        start = time.monotonic()
        for execution, group in groups.items():
            deadline = (
                start + execution.total_budget_s
                if execution.total_budget_s
                else None
            )
            backend = self._backend_factory(execution)
            try:
                points = self._points(group)
                if execution.halving.rungs and len(points) > 1:
                    halved = (
                        self._run_async_halved
                        if execution.halving.asynchronous
                        else self._run_halved
                    )
                    halved(
                        backend, execution, points, cached, outcome, deadline
                    )
                else:
                    self._dispatch(
                        backend,
                        execution,
                        [u for u in group if u.run_id not in cached],
                        outcome,
                        deadline,
                    )
            finally:
                backend.close()
        return outcome

    @staticmethod
    def _points(units: Iterable[RunUnit]) -> dict[tuple, list[RunUnit]]:
        """Units grouped by grid point (matrix order), replicate-sorted."""
        points: dict[tuple, list[RunUnit]] = {}
        for unit in units:
            points.setdefault(unit.point, []).append(unit)
        for group in points.values():
            group.sort(key=lambda unit: unit.replicate)
        return points

    @staticmethod
    def _spent(deadline: float | None) -> bool:
        """Whether the fleet-level wall-clock allowance is exhausted."""
        return deadline is not None and time.monotonic() >= deadline

    # ------------------------------------------------------------------ #
    # Dispatch + retries                                                 #
    # ------------------------------------------------------------------ #

    def _emit(self, record: dict, outcome: SchedulerOutcome) -> None:
        status = record.get("status", "unknown")
        outcome.fresh[record["run_id"]] = record
        if status == "pruned":
            outcome.pruned += 1
            tele.count("scheduler.pruned")
        elif status == "unscheduled":
            outcome.unscheduled += 1
            tele.count("scheduler.unscheduled")
        else:
            outcome.executed += 1
        self._on_record(record)
        self._on_progress({"event": "record", "status": status})

    def _consume(
        self,
        backend: ExecutionBackend,
        execution: ExecutionSpec,
        source: "deque[RunPayload]",
        by_id: dict[str, RunPayload],
        outcome: SchedulerOutcome,
        deadline: float | None,
        on_resolved: Callable[[dict], None] | None = None,
    ) -> None:
        """Drain the live queue through the backend, retrying crashes.

        ``source`` stays live for the whole stream: crash retries are
        re-appended here (and re-dispatch as soon as a worker idles),
        and ``on_resolved`` — the asynchronous-halving hook — may
        append rung promotions between records.  When the fleet budget
        runs out mid-stream, everything still queued drains into
        ``"unscheduled"`` records while in-flight units finish.
        """
        timeout = execution.unit_timeout_s or None
        attempts: dict[str, int] = {}
        if self._spent(deadline):
            # Already over budget: nothing dispatches at all.
            while source:
                self._emit(
                    unscheduled_record(
                        source.popleft(), execution.total_budget_s
                    ),
                    outcome,
                )
            return
        for record in backend.execute_stream(source, timeout):
            run_id = record.get("run_id", "")
            tries = attempts.get(run_id, 1)
            if record.get("status") == "crashed":
                if tries <= execution.max_retries and not self._spent(
                    deadline
                ):
                    attempts[run_id] = tries + 1
                    source.append(by_id[run_id])
                    tele.count("scheduler.retries")
                    continue
                # Retries exhausted: the crash becomes a first-class
                # error record (the internal status never persists).
                record = {**record, "status": "error"}
                record["error"] = (
                    f"{record.get('error', 'WorkerCrash')} "
                    f"(gave up after {tries} attempt(s))"
                )
            if tries > 1:
                record["attempts"] = tries
            self._emit(record, outcome)
            if on_resolved is not None:
                on_resolved(record)
            if self._spent(deadline):
                while source:
                    payload = source.popleft()
                    self._emit(
                        unscheduled_record(
                            payload, execution.total_budget_s
                        ),
                        outcome,
                    )

    def _dispatch(
        self,
        backend: ExecutionBackend,
        execution: ExecutionSpec,
        units: Sequence[RunUnit],
        outcome: SchedulerOutcome,
        deadline: float | None = None,
    ) -> None:
        """Run units through the backend, retrying crashed workers."""
        if not units:
            return
        ordered = sorted(units, key=substrate_affinity)
        payloads = [
            RunPayload.from_unit(unit, telemetry=execution.telemetry)
            for unit in ordered
        ]
        by_id = {payload.run_id: payload for payload in payloads}
        self._on_progress({"event": "dispatched", "count": len(payloads)})
        if self._spent(deadline):
            for payload in payloads:
                self._emit(
                    unscheduled_record(payload, execution.total_budget_s),
                    outcome,
                )
            return
        self._consume(
            backend, execution, deque(payloads), by_id, outcome, deadline
        )

    # ------------------------------------------------------------------ #
    # Successive halving                                                 #
    # ------------------------------------------------------------------ #

    def _score(
        self,
        units: Sequence[RunUnit],
        upto: int,
        metric: str,
        cached: dict[str, dict],
        outcome: SchedulerOutcome,
    ) -> float:
        """Mean ``metric`` over a point's first ``upto`` replicates.

        Failed / timed-out / missing / non-finite replicates score
        ``inf`` so broken points are pruned first; lower is better for
        every halving metric.  The non-finite guard matters for the
        ranking itself: a ``NaN`` metric value passes the ``isinstance``
        check but compares false against everything, so one bad record
        would make ``sorted()``'s ordering arbitrary — a crashed grid
        point could silently rank as the rung's best and prune every
        healthy competitor.
        """
        values: list[float] = []
        for unit in units:
            if unit.replicate >= upto:
                continue
            record = cached.get(unit.run_id) or outcome.fresh.get(
                unit.run_id
            )
            if (
                record is None
                or record.get("status") != "ok"
                or not isinstance(record.get(metric), (int, float))
                or isinstance(record.get(metric), bool)
                or not math.isfinite(record[metric])
            ):
                return math.inf
            values.append(float(record[metric]))
        if not values:
            return math.inf
        return sum(values) / len(values)

    @staticmethod
    def _boundaries(
        points: dict[tuple, list[RunUnit]], rungs: Sequence[int]
    ) -> list[int]:
        """Cumulative replicate boundaries, final rung included."""
        replicates = 1 + max(
            unit.replicate for group in points.values() for unit in group
        )
        boundaries = [r for r in rungs if r < replicates]
        boundaries.append(replicates)
        return boundaries

    def _run_halved(
        self,
        backend: ExecutionBackend,
        execution: ExecutionSpec,
        points: dict[tuple, list[RunUnit]],
        cached: dict[str, dict],
        outcome: SchedulerOutcome,
        deadline: float | None = None,
    ) -> None:
        """Run replicates rung by rung, abandoning dominated points."""
        halving = execution.halving
        boundaries = self._boundaries(points, halving.rungs)
        replicates = boundaries[-1]
        survivors = list(points)  # matrix order
        previous = 0
        for rung, boundary in enumerate(boundaries):
            batch = [
                unit
                for point in survivors
                for unit in points[point]
                if previous <= unit.replicate < boundary
                and unit.run_id not in cached
            ]
            self._dispatch(backend, execution, batch, outcome, deadline)
            previous = boundary
            if boundary >= replicates:
                break
            if self._spent(deadline):
                # Never rank a budget-starved rung: the remaining units
                # are a resource decision (unscheduled), not a ranking
                # decision (pruned).
                self._unschedule_rest(
                    execution, points, survivors, boundary, cached, outcome
                )
                return
            scores = {
                point: self._score(
                    points[point], boundary, halving.metric, cached, outcome
                )
                for point in survivors
            }
            keep = math.ceil(len(survivors) / halving.eta)
            order = {point: i for i, point in enumerate(survivors)}
            ranked = sorted(
                survivors, key=lambda point: (scores[point], order[point])
            )
            kept = set(ranked[:keep])
            for point in survivors:
                if point in kept:
                    continue
                for unit in points[point]:
                    if (
                        unit.replicate >= boundary
                        and unit.run_id not in cached
                    ):
                        self._emit(pruned_record(unit, rung), outcome)
            survivors = [point for point in survivors if point in kept]

    def _unschedule_rest(
        self,
        execution: ExecutionSpec,
        points: dict[tuple, list[RunUnit]],
        survivors: Sequence[tuple],
        boundary: int,
        cached: dict[str, dict],
        outcome: SchedulerOutcome,
    ) -> None:
        """Persist every unresolved survivor unit as ``unscheduled``."""
        for point in survivors:
            for unit in points[point]:
                if (
                    unit.replicate >= boundary
                    and unit.run_id not in cached
                    and unit.run_id not in outcome.fresh
                ):
                    payload = RunPayload.from_unit(
                        unit, telemetry=execution.telemetry
                    )
                    self._emit(
                        unscheduled_record(payload, execution.total_budget_s),
                        outcome,
                    )

    # ------------------------------------------------------------------ #
    # Asynchronous successive halving (ASHA)                             #
    # ------------------------------------------------------------------ #

    def _run_async_halved(
        self,
        backend: ExecutionBackend,
        execution: ExecutionSpec,
        points: dict[tuple, list[RunUnit]],
        cached: dict[str, dict],
        outcome: SchedulerOutcome,
        deadline: float | None = None,
    ) -> None:
        """Streaming halving: promote/prune on proof, not on barriers.

        The synchronous plan keeps the best ``ceil(n / eta)`` of each
        rung's ``n`` members, so the rung sizes — and therefore the
        promotion quota per rung — are fixed before anything runs.
        That makes barrier-free promotion safe: a point promotes the
        moment enough *completed* peers provably rank behind it that no
        outcome of the still-running peers can push it out of the top
        ``keep`` (and prunes the moment ``keep`` peers provably rank
        ahead).  Ranking uses the same ``(score, matrix order)`` total
        order as the synchronous path, so both plans decide identically
        once all records land — the survivor set, the executed unit
        set, and every persisted byte match the synchronous plan; only
        the wall-clock schedule (and with it straggler idle time)
        changes.
        """
        halving = execution.halving
        point_list = list(points)  # matrix order
        order = {point: i for i, point in enumerate(point_list)}
        boundaries = self._boundaries(points, halving.rungs)
        # Planned rung sizes: sizes[r] points ever enter rung r, and
        # sizes[r + 1] of them are promoted out of it.
        sizes = [len(point_list)]
        for _ in boundaries[:-1]:
            sizes.append(math.ceil(sizes[-1] / halving.eta))

        entered = {point: 0 for point in point_list}
        promoted_from = {point: -1 for point in point_list}
        pruned_at: dict[tuple, int] = {}
        source: deque[RunPayload] = deque()
        by_id: dict[str, RunPayload] = {}

        def rung_units(point: tuple, rung: int) -> list[RunUnit]:
            low = boundaries[rung - 1] if rung else 0
            high = boundaries[rung]
            return [
                unit
                for unit in points[point]
                if low <= unit.replicate < high
            ]

        def push(units: list[RunUnit]) -> None:
            batch = sorted(
                (u for u in units if u.run_id not in cached),
                key=substrate_affinity,
            )
            if not batch:
                return
            self._on_progress(
                {"event": "dispatched", "count": len(batch)}
            )
            for unit in batch:
                payload = RunPayload.from_unit(
                    unit, telemetry=execution.telemetry
                )
                by_id[payload.run_id] = payload
                source.append(payload)

        def score_if_known(point: tuple, rung: int) -> float | None:
            """Cumulative rung mean, or None while replicates are still
            in flight (unknown is *not* ``inf`` — only resolved
            failures are; promotion on unknowns would break the
            byte-identity guarantee)."""
            upto = boundaries[rung]
            for unit in points[point]:
                if unit.replicate < upto and not (
                    unit.run_id in cached or unit.run_id in outcome.fresh
                ):
                    return None
            return self._score(
                points[point], upto, halving.metric, cached, outcome
            )

        def settle(_record: dict | None = None) -> None:
            """Fire every decision now provable; cascade via cache."""
            changed = True
            while changed:
                changed = False
                for rung in range(len(boundaries) - 1):
                    members = [
                        p for p in point_list if entered[p] >= rung
                    ]
                    undecided = [
                        p
                        for p in members
                        if entered[p] == rung
                        and promoted_from[p] < rung
                        and p not in pruned_at
                    ]
                    if not undecided:
                        continue
                    total, keep = sizes[rung], sizes[rung + 1]
                    known = {}
                    for p in members:
                        value = score_if_known(p, rung)
                        if value is not None:
                            known[p] = (value, order[p])
                    for p in undecided:
                        if p not in known:
                            continue
                        mine = known[p]
                        behind = sum(
                            1
                            for q in members
                            if q != p and q in known and known[q] > mine
                        )
                        ahead = sum(
                            1
                            for q in members
                            if q != p and q in known and known[q] < mine
                        )
                        if behind >= total - keep:
                            # Top-keep is now certain: even if every
                            # unresolved peer beats p, p still ranks
                            # above the cut.  Promote without a barrier.
                            promoted_from[p] = rung
                            entered[p] = rung + 1
                            tele.count("scheduler.asha_promotions")
                            if not self._spent(deadline):
                                push(rung_units(p, rung + 1))
                            changed = True
                        elif ahead >= keep:
                            pruned_at[p] = rung
                            for unit in points[p]:
                                if (
                                    unit.replicate >= boundaries[rung]
                                    and unit.run_id not in cached
                                ):
                                    self._emit(
                                        pruned_record(unit, rung), outcome
                                    )
                            changed = True

        for point in point_list:
            push(rung_units(point, 0))
        settle()  # a resumed fleet may promote straight from cache
        self._consume(
            backend,
            execution,
            source,
            by_id,
            outcome,
            deadline,
            on_resolved=settle,
        )
        # A spent budget starves promotions; whatever never resolved is
        # a resource decision, recorded as unscheduled.
        for point in point_list:
            self._unschedule_rest(
                execution, points, [point], 0, cached, outcome
            )
