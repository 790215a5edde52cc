"""Fleet front door: caching, persistence, aggregation.

The execution subsystem is layered (DESIGN.md "Execution backends &
budgets"): :mod:`repro.fleet.matrix` expands a spec into content-hash
run units, :mod:`repro.fleet.backends` dispatches self-contained unit
payloads (in-process, or to a pool of persistent worker processes), and
:mod:`repro.fleet.scheduler` owns ordering, wall-time budgets, crash
retries and successive-halving early abort.  What remains here is the
fleet's *bookkeeping*: the skip/resume cache over ``results.jsonl``,
incremental and atomic persistence, and the summary aggregation every
finished run renders through :mod:`repro.analysis`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import repro.telemetry as tele
from repro.analysis.report import (
    RESULTS_FILENAME,
    SPEC_FILENAME,
    SUMMARY_METRICS,
    aggregate_records,
)
from repro.errors import SpecError
from repro.fleet.matrix import RunUnit, expand_matrix
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import RunSpec
from repro.telemetry import (
    TELEMETRY_FILENAME,
    ProgressTicker,
    load_run_telemetry,
    telemetry_record,
)

__all__ = [
    "FleetOrchestrator",
    "FleetResult",
    "RunUnit",
    "SUMMARY_METRICS",
    "aggregate_records",
    "expand_matrix",
    "load_records",
]

SUMMARY_FILENAME = "summary.txt"


@dataclass
class FleetResult:
    """Outcome of one orchestrated fleet run."""

    spec: RunSpec
    records: list[dict]
    executed: int
    skipped: int
    failed: int
    out_dir: Path
    #: Replicates abandoned by successive halving (``status: "pruned"``).
    pruned: int = 0
    #: Units killed by the per-unit budget (``status: "timeout"``).
    timed_out: int = 0
    #: Units the spent fleet budget (``execution.total_budget_s``)
    #: never dispatched (``status: "unscheduled"``).
    unscheduled: int = 0

    @property
    def results_path(self) -> Path:
        """Path of the per-run JSONL record file."""
        return self.out_dir / RESULTS_FILENAME

    @property
    def telemetry_path(self) -> Path:
        """Path of the per-fleet telemetry file (exists only when the
        run collected telemetry)."""
        return self.out_dir / TELEMETRY_FILENAME

    def summary_table(self) -> str:
        """Aggregate summary table (axes x ``mean ± std`` metrics)."""
        return aggregate_records(
            self.records, title=f"fleet {self.spec.name!r} summary"
        )

    def format_report(self) -> str:
        """Human-readable run report: counts, result path, summary.

        Rendering delegates to :mod:`repro.analysis.report` so fleet
        runs, re-loaded directories (``repro fleet report``) and
        experiment exports share one analysis path.  Pruned and
        timed-out units are called out separately from failures.
        """
        counts = [
            f"{self.executed} executed",
            f"{self.skipped} cached",
            f"{self.failed} failed",
        ]
        if self.pruned:
            counts.append(f"{self.pruned} pruned")
        if self.timed_out:
            counts.append(f"{self.timed_out} timed out")
        if self.unscheduled:
            counts.append(f"{self.unscheduled} unscheduled")
        lines = [
            f"fleet {self.spec.name!r}: {len(self.records)} runs "
            f"({', '.join(counts)})",
            f"results: {self.results_path}",
            "",
            self.summary_table(),
        ]
        return "\n".join(lines)


class FleetOrchestrator:
    """Executes a spec's run matrix with caching and pluggable backends.

    How the units execute — backend, pool size, budgets, retries,
    telemetry — is read only from the spec's ``execution:`` section
    (and any ``execution.*`` sweep axis), which ``spec.yaml`` stores
    with the run.  The constructor takes only where the run lives
    (``out_dir``), whether to reuse its cached records (``resume``) and
    whether to show the live stderr ticker (``progress``).
    """

    def __init__(
        self,
        out_dir: str | Path,
        resume: bool = True,
        progress: bool = False,
    ) -> None:
        self._out_dir = Path(out_dir)
        self._resume = resume
        self._progress = progress

    # ------------------------------------------------------------------ #
    # Persistence                                                        #
    # ------------------------------------------------------------------ #

    def _load_cache(self) -> dict[str, dict]:
        path = self._out_dir / RESULTS_FILENAME
        if not self._resume or not path.exists():
            return {}
        cached: dict[str, dict] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from an interrupted run; re-execute
            if record.get("status") == "ok" and "run_id" in record:
                cached[record["run_id"]] = record
        return cached

    def _rewrite_results(self, records: list[dict]) -> None:
        """Atomically replace ``results.jsonl`` with the final records.

        The rewrite lands in a same-directory temp file first and moves
        into place with ``os.replace``, so an interrupt (or a record
        that fails to serialize) can never leave a torn results file —
        the previous complete file survives instead.
        """
        path = self._out_dir / RESULTS_FILENAME
        tmp = path.with_name(RESULTS_FILENAME + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Execution                                                          #
    # ------------------------------------------------------------------ #

    def run(self, spec: RunSpec) -> FleetResult:
        """Expand, schedule (skipping cached run ids), persist, aggregate."""
        units = expand_matrix(spec)
        self._out_dir.mkdir(parents=True, exist_ok=True)
        (self._out_dir / SPEC_FILENAME).write_text(
            spec.to_yaml(), encoding="utf-8"
        )
        cache = self._load_cache()
        if not self._resume:
            (self._out_dir / RESULTS_FILENAME).unlink(missing_ok=True)
        # An execution.telemetry axis can turn telemetry on for some
        # units only; their span trees still need the telemetry file.
        telemetry_on = any(unit.spec.execution.telemetry for unit in units)
        ticker = (
            ProgressTicker(total=len(units) - len(
                [u for u in units if u.run_id in cache]
            ))
            if self._progress
            else None
        )

        # Fresh records append incrementally (and flushed) so an
        # interrupted fleet keeps its progress and the next invocation
        # resumes from the cache.  Unit telemetry rides each record
        # across the worker boundary as a transient ``telemetry`` key,
        # stripped here into ``telemetry.jsonl``.  Unit telemetry of
        # cached run ids carries forward, mirroring the results cache —
        # a fully-cached re-run keeps its profile.
        prior_units: list[dict] = []
        if telemetry_on and cache:
            try:
                existing = load_run_telemetry(self._out_dir)
            except ValueError:
                existing = None  # torn/invalid file: drop, start fresh
            if existing is not None:
                prior_units = [
                    record
                    for run_id, record in existing.units.items()
                    if run_id in cache
                ]
        tele_handle = (
            (self._out_dir / TELEMETRY_FILENAME).open("w", encoding="utf-8")
            if telemetry_on
            else None
        )
        if tele_handle is not None:
            for record in prior_units:
                tele_handle.write(json.dumps(record, sort_keys=True) + "\n")
        collector = tele.Collector(scope="fleet") if telemetry_on else None
        try:
            with (self._out_dir / RESULTS_FILENAME).open(
                "a", encoding="utf-8"
            ) as handle:

                def persist(record: dict) -> None:
                    unit_telemetry = record.pop("telemetry", None)
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                    handle.flush()
                    if tele_handle is not None and unit_telemetry is not None:
                        line = telemetry_record(
                            scope=unit_telemetry.get("scope", "unit"),
                            spans=unit_telemetry.get("spans", []),
                            counters=unit_telemetry.get("counters", {}),
                            run_id=record.get("run_id"),
                        )
                        tele_handle.write(
                            json.dumps(line, sort_keys=True) + "\n"
                        )
                        tele_handle.flush()

                scheduler = FleetScheduler(
                    on_record=persist,
                    on_progress=ticker.update if ticker is not None else None,
                )
                if collector is not None:
                    with collector.activate(), tele.span("fleet.sweep"):
                        outcome = scheduler.run(units, cache)
                else:
                    outcome = scheduler.run(units, cache)
            if tele_handle is not None and collector is not None:
                fleet_line = telemetry_record(
                    scope="fleet",
                    spans=collector.span_trees(),
                    counters=collector.counters_dict(),
                )
                tele_handle.write(
                    json.dumps(fleet_line, sort_keys=True) + "\n"
                )
        finally:
            if tele_handle is not None:
                tele_handle.close()
            if ticker is not None:
                ticker.close()

        records: list[dict] = []
        failed = timed_out = 0
        for unit in units:
            record = cache.get(unit.run_id) or outcome.fresh[unit.run_id]
            # Re-stamp sweep labels: a cached record may have been produced
            # under different (or no) axis labels for the same resolved spec.
            record = {**record, "axes": unit.axes, "seed": unit.seed}
            status = record.get("status")
            if status == "timeout":
                timed_out += 1
            elif status not in ("ok", "pruned", "unscheduled"):
                failed += 1
            records.append(record)
        self._rewrite_results(records)
        result = FleetResult(
            spec=spec,
            records=records,
            executed=outcome.executed,
            skipped=(
                len(units)
                - outcome.executed
                - outcome.pruned
                - outcome.unscheduled
            ),
            failed=failed,
            out_dir=self._out_dir,
            pruned=outcome.pruned,
            timed_out=timed_out,
            unscheduled=outcome.unscheduled,
        )
        (self._out_dir / SUMMARY_FILENAME).write_text(
            result.summary_table() + "\n", encoding="utf-8"
        )
        return result


def load_records(out_dir: str | Path) -> list[dict]:
    """Read back the raw per-run JSONL records of a finished fleet run.

    Torn trailing lines from an interrupted run are skipped and records
    are returned exactly as persisted (no schema upgrade); use
    :func:`repro.analysis.report.load_fleet_run` for the
    forward-compatible, diagnostic-rich loader the report CLI uses.
    """
    path = Path(out_dir) / RESULTS_FILENAME
    if not path.exists():
        raise SpecError(f"no fleet results at {path}")
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # torn trailing line from an interrupted run
    return records
