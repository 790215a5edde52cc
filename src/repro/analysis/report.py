"""Cross-fleet comparison reports over ``results.jsonl`` records.

This module is the analysis side of the fleet layer: it defines the
versioned record schema every producer emits (the orchestrator's
``results.jsonl`` lines and the experiment runners' ``result_records()``
share one envelope), loads finished run directories back with a
forward-compatible loader, reconstructs each run's :class:`RunSpec`,
computes the *spec diff* across fleets (which knobs varied), joins it
against metric deltas with bootstrap confidence intervals from
:mod:`repro.analysis.stats`, and renders the comparison as terminal
tables and CSV.  The single-file HTML dashboard on top of the same
comparison object lives in :mod:`repro.analysis.html`.

Record schema
-------------

Every record is one JSON object with a ``schema_version`` field.  The
*envelope* fields (identity, status, provenance) are closed: the exact
list lives in :data:`ENVELOPE_FIELDS` and is documented field-by-field
in DESIGN.md "Result records" (a round-trip test keeps the two in
sync).  Fleet records additionally carry the closed metric payload of
:data:`FLEET_METRIC_FIELDS`; experiment records carry experiment-
specific scalar metrics instead.  Loading is forward-compatible:
records without ``schema_version`` are treated as version 0 and
upgraded in memory, unknown *extra* fields are preserved untouched, and
records stamped by a newer writer raise :class:`SpecError` instead of
being silently misread.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.analysis.stats import bootstrap_ci, summarize
from repro.analysis.tables import render_table
from repro.errors import SpecError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fleet.spec import RunSpec

#: Newest record format this reader understands.  Version 2 adds
#: the ``"timeout"`` / ``"pruned"`` statuses and the optional ``rung`` /
#: ``attempts`` envelope fields (execution backends + budgets).
#: Version 3 adds the optional ``timings`` / ``counters`` telemetry
#: envelope blocks (present only when the unit ran with telemetry
#: enabled; both are volatile — see :data:`VOLATILE_RECORD_FIELDS`).
#: Version 4 adds the optional resilience metric fields written by
#: fault-injected runs (:data:`RESILIENCE_METRICS`).  Version 5 adds the
#: optional ``traceback`` envelope field carried by failed-unit
#: diagnostic records.  Version 6 adds the ``"unscheduled"`` status:
#: units a spent ``execution.total_budget_s`` fleet budget never
#: dispatched (first-class records, re-executed by an unbudgeted
#: rerun).  Every version-1/2/3/4/5 record is also a valid version-6
#: record.
#:
#: Writers stamp the *lowest* version that describes a record (see
#: :func:`record_schema_version`), so a run without a ``faults:``
#: section serializes bit-identically to output written before the
#: fault layer existed.
SCHEMA_VERSION = 6

#: Statuses a record may carry: executed fine, executed-and-failed,
#: killed by the per-unit wall-time budget, abandoned by successive
#: halving without executing, or never dispatched because the fleet
#: budget (``execution.total_budget_s``) ran out.
RECORD_STATUSES: tuple[str, ...] = (
    "ok", "error", "timeout", "pruned", "unscheduled"
)

#: Closed envelope shared by fleet and experiment records:
#: ``name -> (accepted types, required?, provenance)``.
ENVELOPE_FIELDS: dict[str, tuple[tuple[type, ...], bool, str]] = {
    "schema_version": ((int,), True, "record format version (this file)"),
    "name": ((str,), True, "spec / experiment name"),
    "status": (
        (str,),
        True,
        '"ok", "error", "timeout", "pruned" or "unscheduled"',
    ),
    "error": ((str,), False, '"Type: message" when the unit did not finish'),
    "traceback": ((str,), False, "formatted worker traceback (volatile)"),
    "run_id": ((str,), False, "content-hash of the resolved spec (fleet)"),
    "axes": ((dict,), False, "sweep-axis path -> value labels"),
    "seed": ((int,), False, "resolved simulation seed"),
    "wall_time_s": ((float, int), False, "worker wall time (nondeterministic)"),
    "rung": ((int,), False, "halving rung index at which the unit was pruned"),
    "attempts": ((int,), False, "executions incl. crash retries (when > 1)"),
    "timings": ((dict,), False, "span path -> seconds (telemetry, volatile)"),
    "counters": ((dict,), False, "counter name -> value (telemetry, volatile)"),
}

#: Closed metric payload of fleet records (``execute_spec`` provenance).
FLEET_METRIC_FIELDS: dict[str, tuple[tuple[type, ...], str]] = {
    "num_agents": ((int,), "compiled conference size"),
    "num_users": ((int,), "compiled conference size"),
    "num_sessions": ((int,), "compiled conference size"),
    "traffic0_mbps": ((float, int), "inter-agent traffic at t=0"),
    "traffic_mbps": ((float, int), "steady-state mean inter-agent traffic"),
    "delay0_ms": ((float, int), "average conferencing delay at t=0"),
    "delay_ms": ((float, int), "steady-state mean conferencing delay"),
    "phi": ((float, int), "final objective value"),
    "hops": ((int,), "executed HOP transitions"),
    "migrations": ((int,), "accepted migrations"),
    "freezes": ((int,), "FREEZE/UNFREEZE handshakes"),
    "overhead_kb": ((float, int), "cumulative dual-feed migration overhead"),
    "series": ((dict,), 'downsampled {"t": [...], "v": [...]} convergence series'),
    "faults_injected": ((int,), "fault windows that started (chaos runs)"),
    "fault_migrations": ((int,), "sessions re-placed off faulted sites"),
    "sessions_dropped": ((int,), "stranded sessions with no feasible re-placement"),
    "sla_violation_s": ((float, int), "sampled seconds with a session over Dmax"),
    "recovery_mean_s": ((float, int), "mean fault-start-to-clean-sample time"),
}

#: The schema-version-4 resilience payload: present only on records of
#: fault-injected runs (a spec with a non-default ``faults:`` section).
RESILIENCE_METRICS: tuple[str, ...] = (
    "faults_injected",
    "fault_migrations",
    "sessions_dropped",
    "sla_violation_s",
    "recovery_mean_s",
)

#: Metrics compared across fleets (``hops_per_sec`` is derived at load).
REPORT_METRICS: tuple[str, ...] = (
    "traffic_mbps",
    "delay_ms",
    "phi",
    "hops_per_sec",
)

#: Metrics aggregated across seed replicates in the summary table.
SUMMARY_METRICS: tuple[str, ...] = ("traffic_mbps", "delay_ms", "phi")

#: Comparison direction per metric (colors improvements in the dashboard).
LOWER_IS_BETTER: dict[str, bool] = {
    "traffic_mbps": True,
    "delay_ms": True,
    "phi": True,
    "hops_per_sec": False,
}

RESULTS_FILENAME = "results.jsonl"
SPEC_FILENAME = "spec.yaml"

#: Spec paths excluded from the diff (prose, not behaviour).
_DIFF_IGNORED = ("description",)


# --------------------------------------------------------------------- #
# Schema: upgrade, validation, record construction                      #
# --------------------------------------------------------------------- #


def record_schema_version(record: Mapping) -> int:
    """The lowest schema version that describes ``record``.

    Only the ``"unscheduled"`` status needs version 6, only the
    ``traceback`` diagnostic needs version 5 and only the resilience
    payload needs version 4; everything else — including no-fault
    fleet metrics — is expressible at version 3.  Writers stamp this
    value so enabling the fault layer (or a fleet budget, or attaching
    a traceback to a failed unit) never perturbs the bytes of runs
    that do not use them.
    """
    if record.get("status") == "unscheduled":
        return 6
    if "traceback" in record:
        return 5
    if any(name in record for name in RESILIENCE_METRICS):
        return 4
    return 3


def upgrade_record(record: object, source: str = "record") -> dict:
    """Bring one raw record up to :data:`SCHEMA_VERSION` in memory.

    Version-0 records (pre-schema, no ``schema_version`` field) are
    stamped; ``hops_per_sec`` is derived from ``hops / wall_time_s``
    when both are present (it is never persisted — wall time is not
    deterministic).  Records written by a *newer* schema raise
    :class:`SpecError` so stale readers fail loudly.
    """
    if not isinstance(record, dict):
        raise SpecError(f"{source}: expected a JSON object, got {record!r}")
    version = record.get("schema_version", 0)
    if not isinstance(version, int) or isinstance(version, bool):
        raise SpecError(
            f"{source}: schema_version must be an integer, got {version!r}"
        )
    if version > SCHEMA_VERSION:
        raise SpecError(
            f"{source}: written by schema version {version}, but this "
            f"reader understands <= {SCHEMA_VERSION}; upgrade repro to "
            "read it"
        )
    upgraded = dict(record)
    upgraded["schema_version"] = SCHEMA_VERSION
    wall = upgraded.get("wall_time_s")
    hops = upgraded.get("hops")
    if (
        "hops_per_sec" not in upgraded
        and isinstance(hops, int)
        and isinstance(wall, (int, float))
        and wall > 0
    ):
        upgraded["hops_per_sec"] = float(hops) / float(wall)
    return upgraded


def validate_record(record: Mapping, fleet: bool = False) -> None:
    """Check one upgraded record against the documented schema.

    Envelope fields must carry their documented types; with ``fleet``
    the metric payload must also be drawn from
    :data:`FLEET_METRIC_FIELDS` (plus the derived ``hops_per_sec``).
    Experiment records may carry any extra scalar metrics instead.
    """
    for name, (types, required, _provenance) in ENVELOPE_FIELDS.items():
        if name not in record:
            if required:
                raise SpecError(f"record is missing required field {name!r}")
            continue
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise SpecError(
                f"record field {name!r} has type {type(value).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    extras = set(record) - set(ENVELOPE_FIELDS) - {"hops_per_sec"}
    if fleet:
        unknown = sorted(extras - set(FLEET_METRIC_FIELDS))
        if unknown:
            raise SpecError(
                f"fleet record carries undocumented field(s) {unknown}; "
                "document them in DESIGN.md 'Result records' and "
                "repro.analysis.report.FLEET_METRIC_FIELDS"
            )
        for name, (types, _provenance) in FLEET_METRIC_FIELDS.items():
            if name in record and not isinstance(record[name], types):
                raise SpecError(
                    f"fleet record field {name!r} has type "
                    f"{type(record[name]).__name__}, expected "
                    f"{'/'.join(t.__name__ for t in types)}"
                )
    else:
        for name in sorted(extras):
            value = record[name]
            if value is not None and not isinstance(
                value, (str, bool, int, float)
            ):
                raise SpecError(
                    f"experiment record metric {name!r} must be a JSON "
                    f"scalar, got {type(value).__name__}"
                )


def write_records(records: Iterable[Mapping], path: str | Path) -> int:
    """Write records as JSONL (one sorted-key object per line).

    Returns the number of lines written.  This is the same on-disk shape
    the fleet orchestrator produces, so experiment exports and fleet
    results flow through one analysis path.
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            # allow_nan=False: a NaN/Infinity that slipped past metric
            # sanitization fails loudly here instead of persisting a
            # non-strict JSON literal the documented schema forbids.
            handle.write(
                json.dumps(dict(record), sort_keys=True, allow_nan=False)
                + "\n"
            )
            count += 1
    return count


# --------------------------------------------------------------------- #
# Loading fleet run directories                                         #
# --------------------------------------------------------------------- #


def load_result_records(path: str | Path) -> list[dict]:
    """Load and upgrade the records of one ``results.jsonl`` file.

    Raises :class:`SpecError` with an actionable diagnostic when the
    file is missing, empty, or contains no complete record (the
    signature of an interrupted fleet) instead of surfacing a raw
    traceback further down the analysis stack.
    """
    path = Path(path)
    if not path.exists():
        raise SpecError(
            f"no fleet results at {path}; run `repro fleet run` first"
        )
    lines = path.read_text(encoding="utf-8").splitlines()
    records: list[dict] = []
    torn = 0
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            torn += 1  # partially-written line from an interrupted run
            continue
        records.append(upgrade_record(raw, source=f"{path}:{number}"))
    if not records:
        detail = (
            f"all {torn} line(s) are torn/partial"
            if torn
            else "the file is empty"
        )
        raise SpecError(
            f"{path} contains no complete run records ({detail}); the "
            "fleet run was likely interrupted — re-run `repro fleet run` "
            "to resume it"
        )
    return records


#: Record fields excluded from :func:`canonical_results_digest`:
#: ``wall_time_s`` is wall-clock noise, ``attempts`` depends on
#: nondeterministic worker crashes, the telemetry blocks
#: (``timings`` are wall-clock measurements; ``counters`` include
#: process-local cache statistics that differ across backends) and
#: ``traceback`` frames name backend-specific worker modules — every
#: other field must reproduce bit-for-bit.
VOLATILE_RECORD_FIELDS: tuple[str, ...] = (
    "wall_time_s",
    "attempts",
    "timings",
    "counters",
    "traceback",
)


def canonical_results_digest(out_dir: str | Path) -> str:
    """Deterministic SHA-256 of a run directory's ``results.jsonl``.

    Records are loaded (not upgraded), stripped of
    :data:`VOLATILE_RECORD_FIELDS`, re-serialized with sorted keys and
    hashed in file order.  Two fleets that computed the same thing —
    e.g. one spec dispatched through different execution backends —
    digest identically; the cross-backend equivalence tests and the CI
    backend matrix compare exactly this value.
    """
    import hashlib

    from repro.fleet.orchestrator import load_records

    digest = hashlib.sha256()
    for record in load_records(out_dir):
        slim = {
            key: value
            for key, value in record.items()
            if key not in VOLATILE_RECORD_FIELDS
        }
        digest.update(json.dumps(slim, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class FleetRun:
    """One loaded fleet run directory: records plus the stored spec."""

    path: Path
    label: str
    spec: "RunSpec | None"
    records: list[dict]

    @property
    def ok_records(self) -> list[dict]:
        """Records of successfully executed units."""
        return [r for r in self.records if r.get("status") == "ok"]

    @property
    def pruned(self) -> int:
        """Units abandoned by successive halving (never executed)."""
        return sum(1 for r in self.records if r.get("status") == "pruned")

    @property
    def timed_out(self) -> int:
        """Units killed by the per-unit wall-time budget."""
        return sum(1 for r in self.records if r.get("status") == "timeout")

    @property
    def unscheduled(self) -> int:
        """Units the spent fleet budget never dispatched."""
        return sum(
            1 for r in self.records if r.get("status") == "unscheduled"
        )

    @property
    def failed(self) -> int:
        """Number of failed units (pruned/unscheduled are not failures)."""
        return (
            len(self.records)
            - len(self.ok_records)
            - self.pruned
            - self.timed_out
            - self.unscheduled
        )


def load_fleet_run(out_dir: str | Path, label: str = "") -> FleetRun:
    """Load one fleet run directory (``results.jsonl`` + ``spec.yaml``).

    ``label`` defaults to the directory name.  A missing or unparsable
    ``spec.yaml`` degrades gracefully (``spec=None`` — the spec diff
    then marks the run's knobs as unknown); a missing or empty
    ``results.jsonl`` raises the :func:`load_result_records`
    diagnostics.
    """
    out_dir = Path(out_dir)
    if not out_dir.exists():
        raise SpecError(
            f"fleet run directory {out_dir} does not exist; pass a "
            "directory produced by `repro fleet run`"
        )
    records = load_result_records(out_dir / RESULTS_FILENAME)
    spec_path = out_dir / SPEC_FILENAME
    return FleetRun(
        path=out_dir,
        label=label or out_dir.name,
        spec=_load_stored_spec(spec_path) if spec_path.is_file() else None,
        records=records,
    )


def _load_stored_spec(path: Path) -> "RunSpec | None":
    """The spec a run directory stored, or ``None`` when it is torn.

    Specs stored before a field was removed still load here, while
    :meth:`RunSpec.from_dict` stays strict for specs users write.  None
    of these fields is part of the run's identity:

    * a ``kernel`` key in the ``solver`` section (the removed kernel
      choice never changed what a run computed) is dropped;
    * an ``execution.backend`` that no longer exists, or a host
      inventory on a backend other than ``pool``, loads as ``pool``:
      every removed backend ran its units in worker processes, and
      ``pool`` is the one that reads ``hosts``;
    * an ``asynchronous`` key in ``execution.halving`` (the removed
      streaming plan made the same decisions as the rung-by-rung one)
      is dropped;
    * halving ``rungs`` that a stored spec could set before plans that
      cannot prune were rejected are dropped when the spec would not
      load with them.
    """
    import yaml

    from repro.fleet.spec import BACKEND_KINDS, RunSpec, load_yaml

    try:
        data = load_yaml(path.read_text(encoding="utf-8"))
        if isinstance(data, dict) and isinstance(data.get("solver"), dict):
            data["solver"].pop("kernel", None)
        execution = data.get("execution") if isinstance(data, dict) else None
        if isinstance(execution, dict) and (
            execution.get("backend", "local") not in BACKEND_KINDS
            or execution.get("hosts")
        ):
            execution["backend"] = "pool"
        halving = execution.get("halving") if isinstance(execution, dict) else None
        if isinstance(halving, dict):
            halving.pop("asynchronous", None)
        try:
            return RunSpec.from_dict(data)
        except SpecError:
            if not (isinstance(halving, dict) and halving.pop("rungs", None)):
                raise
            return RunSpec.from_dict(data)
    except (yaml.YAMLError, SpecError):
        return None  # torn spec.yaml: diff falls back to unknowns


def load_fleet_runs(dirs: Sequence[str | Path]) -> list[FleetRun]:
    """Load several run directories, deduplicating display labels."""
    runs = [load_fleet_run(d) for d in dirs]
    seen: dict[str, int] = {}
    for run in runs:
        count = seen.get(run.label, 0)
        seen[run.label] = count + 1
        if count:
            run.label = f"{run.label}#{count + 1}"
    return runs


# --------------------------------------------------------------------- #
# Spec diff                                                             #
# --------------------------------------------------------------------- #


def flatten_spec(data: Mapping, prefix: str = "") -> dict[str, object]:
    """Flatten a spec dict into dotted-path scalars.

    Lists (e.g. ``sweep.axes``) collapse to their compact-JSON form so
    every leaf is one comparable cell.
    """
    flat: dict[str, object] = {}
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            flat.update(flatten_spec(value, path))
        elif isinstance(value, (list, tuple)):
            flat[path] = json.dumps(list(value), sort_keys=True)
        else:
            flat[path] = value
    return flat


def spec_diff(runs: Sequence[FleetRun]) -> list[tuple[str, list[object]]]:
    """Spec fields whose values differ across runs.

    Returns ``(dotted path, [value per run])`` rows in spec declaration
    order; runs without a recoverable spec contribute ``"?"`` cells (and
    never suppress a difference visible among the others).
    """
    flats = [
        flatten_spec(run.spec.to_dict()) if run.spec is not None else None
        for run in runs
    ]
    paths: list[str] = []
    for flat in flats:
        for path in flat or ():
            if path not in paths:
                paths.append(path)
    rows: list[tuple[str, list[object]]] = []
    for path in paths:
        if path in _DIFF_IGNORED:
            continue
        values = [
            "?" if flat is None else flat.get(path, "") for flat in flats
        ]
        known = [value for value, flat in zip(values, flats) if flat is not None]
        if len(set(map(str, known))) > 1:
            rows.append((path, values))
    return rows


# --------------------------------------------------------------------- #
# Metric comparison                                                     #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class MetricStats:
    """Aggregate of one metric over one run's successful records."""

    metric: str
    count: int
    mean: float
    std: float
    ci_lo: float
    ci_hi: float


def metric_stats(records: Sequence[Mapping], metric: str) -> MetricStats | None:
    """Mean/std/bootstrap-CI of ``metric`` over records that carry it."""
    values = [
        float(record[metric])
        for record in records
        if isinstance(record.get(metric), (int, float))
        and not isinstance(record.get(metric), bool)
    ]
    if not values:
        return None
    stats = summarize(values)
    lo, hi = bootstrap_ci(values)
    return MetricStats(
        metric=metric,
        count=len(values),
        mean=stats["mean"],
        std=stats["std"],
        ci_lo=lo,
        ci_hi=hi,
    )


@dataclass
class FleetComparison:
    """Spec diff x metric deltas across one or more fleet runs.

    The first run is the baseline: every other run's metric means are
    reported as absolute and relative deltas against it.  Built by
    :func:`compare_fleets`; rendered by :func:`render_comparison`,
    :func:`comparison_csv` and :func:`repro.analysis.html.render_html`.
    """

    runs: list[FleetRun]
    metrics: tuple[str, ...]
    diff: list[tuple[str, list[object]]]
    #: ``(run label, metric) -> MetricStats`` (absent metric -> None).
    stats: dict[tuple[str, str], MetricStats | None] = field(
        default_factory=dict
    )

    @property
    def baseline(self) -> FleetRun:
        """The run every delta is measured against (the first one)."""
        return self.runs[0]

    def delta(self, label: str, metric: str) -> tuple[float, float] | None:
        """``(absolute, percent)`` mean delta vs the baseline, or None."""
        current = self.stats.get((label, metric))
        base = self.stats.get((self.baseline.label, metric))
        if current is None or base is None:
            return None
        absolute = current.mean - base.mean
        percent = (
            100.0 * absolute / abs(base.mean) if base.mean != 0 else float("inf")
        )
        return (absolute, percent)


def compare_fleets(
    runs: Sequence[FleetRun],
    metrics: tuple[str, ...] = REPORT_METRICS,
) -> FleetComparison:
    """Build the comparison: spec diff + per-run metric aggregates.

    Every run must contribute at least one successful record — a fleet
    whose units all failed cannot anchor a delta, so it is rejected with
    a diagnostic naming the directory.
    """
    if not runs:
        raise SpecError("nothing to compare: no fleet runs given")
    for run in runs:
        if not run.ok_records:
            raise SpecError(
                f"fleet run {run.label!r} ({run.path}) has no successful "
                f"records ({run.failed} failed); inspect its "
                f"{RESULTS_FILENAME} 'error' fields or re-run the fleet"
            )
    comparison = FleetComparison(
        runs=list(runs), metrics=tuple(metrics), diff=spec_diff(runs)
    )
    for run in runs:
        for metric in metrics:
            comparison.stats[(run.label, metric)] = metric_stats(
                run.ok_records, metric
            )
    return comparison


# --------------------------------------------------------------------- #
# Rendering: terminal + CSV                                             #
# --------------------------------------------------------------------- #


def format_spec_value(value: object) -> str:
    """Compact display form of one spec-diff cell (400.0 -> "400")."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _format_delta(delta: tuple[float, float] | None) -> tuple[str, str]:
    if delta is None:
        return ("-", "-")
    absolute, percent = delta
    if percent == float("inf"):
        return (f"{absolute:+.3f}", "n/a")
    return (f"{absolute:+.3f}", f"{percent:+.1f}%")


def render_comparison(comparison: FleetComparison) -> str:
    """Render the comparison as aligned terminal tables.

    Three sections: the run roster, the spec-diff table (which knobs
    varied), and the metric table (mean with 95 % bootstrap CI, plus
    absolute / percent deltas against the baseline run).
    """
    runs = comparison.runs
    lines = [
        f"comparing {len(runs)} fleet run(s); baseline: "
        f"{comparison.baseline.label!r}"
    ]
    for run in runs:
        lines.append(
            f"  {run.label}: {run.path} "
            f"({len(run.ok_records)} ok / {len(run.records)} runs)"
        )
    lines.append("")

    labels = [run.label for run in runs]
    if len(runs) > 1:
        if comparison.diff:
            diff_rows = [
                [path, *[format_spec_value(v) for v in values]]
                for path, values in comparison.diff
            ]
            lines.append(
                render_table(
                    ["spec field", *labels],
                    diff_rows,
                    precision=4,
                    title="spec diff (fields that vary across runs)",
                )
            )
        else:
            lines.append("spec diff: (identical specs)")
        lines.append("")

    metric_rows: list[list[object]] = []
    for metric in comparison.metrics:
        for run in runs:
            stats = comparison.stats.get((run.label, metric))
            if stats is None:
                metric_rows.append([metric, run.label, 0, "-", "-", "-", "-"])
                continue
            delta_abs, delta_pct = (
                ("-", "-")
                if run is comparison.baseline
                else _format_delta(comparison.delta(run.label, metric))
            )
            metric_rows.append(
                [
                    metric,
                    run.label,
                    stats.count,
                    f"{stats.mean:.3f} ± {stats.std:.3f}",
                    f"[{stats.ci_lo:.3f}, {stats.ci_hi:.3f}]",
                    delta_abs,
                    delta_pct,
                ]
            )
    lines.append(
        render_table(
            ["metric", "run", "n", "mean ± std", "95% CI", "Δ", "Δ%"],
            metric_rows,
            title=(
                f"metric deltas vs baseline {comparison.baseline.label!r} "
                "(bootstrap CI over successful runs)"
            ),
        )
    )
    return "\n".join(lines)


def comparison_csv(comparison: FleetComparison) -> str:
    """The comparison as CSV: a spec-diff block and a metrics block.

    Blocks are separated by a blank line and introduced by ``# spec
    diff`` / ``# metrics`` comment lines, each with its own header row —
    trivially splittable downstream while staying a single artifact.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    labels = [run.label for run in comparison.runs]

    buffer.write("# spec diff\n")
    writer.writerow(["spec_field", *labels])
    for path, values in comparison.diff:
        writer.writerow([path, *[format_spec_value(v) for v in values]])

    buffer.write("\n# metrics\n")
    writer.writerow(
        [
            "metric",
            "run",
            "n",
            "mean",
            "std",
            "ci_lo",
            "ci_hi",
            "delta",
            "delta_pct",
        ]
    )
    for metric in comparison.metrics:
        for run in comparison.runs:
            stats = comparison.stats.get((run.label, metric))
            if stats is None:
                writer.writerow([metric, run.label, 0] + [""] * 6)
                continue
            delta = (
                None
                if run is comparison.baseline
                else comparison.delta(run.label, metric)
            )
            delta_abs = "" if delta is None else f"{delta[0]:.6g}"
            delta_pct = (
                ""
                if delta is None or delta[1] == float("inf")
                else f"{delta[1]:.6g}"
            )
            writer.writerow(
                [
                    metric,
                    run.label,
                    stats.count,
                    f"{stats.mean:.6g}",
                    f"{stats.std:.6g}",
                    f"{stats.ci_lo:.6g}",
                    f"{stats.ci_hi:.6g}",
                    delta_abs,
                    delta_pct,
                ]
            )
    return buffer.getvalue()


# --------------------------------------------------------------------- #
# Single-run aggregation (the fleet summary table)                      #
# --------------------------------------------------------------------- #


def aggregate_records(
    records: list[dict],
    metrics: tuple[str, ...] = SUMMARY_METRICS,
    title: str = "fleet summary",
) -> str:
    """Aggregate per-run records into an ASCII table.

    Runs are grouped by their sweep-axis values; seed replicates within a
    group are summarized as ``mean ± std`` via
    :func:`repro.analysis.stats.summarize`.
    """
    ok = [record for record in records if record.get("status") == "ok"]
    if not ok:
        return f"{title}\n(no successful runs)"
    axis_paths: list[str] = []
    for record in ok:
        for path in record.get("axes", {}):
            if path not in axis_paths:
                axis_paths.append(path)

    groups: dict[tuple, list[dict]] = {}
    for record in ok:
        key = tuple(record.get("axes", {}).get(path) for path in axis_paths)
        groups.setdefault(key, []).append(record)

    def order(value: object) -> tuple:
        # Numeric axis values sort numerically (200, 400, 1000), the
        # rest lexicographically after them.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return (0, float(value), "")
        return (1, 0.0, str(value))

    headers = axis_paths + ["runs"] + list(metrics)
    rows = []
    for key in sorted(groups, key=lambda k: tuple(order(v) for v in k)):
        group = groups[key]
        row: list[object] = [
            "" if value is None else value for value in key
        ]
        row.append(len(group))
        for metric in metrics:
            values = [
                record[metric] for record in group if metric in record
            ]
            if not values:
                row.append("-")
                continue
            stats = summarize(values)
            row.append(f"{stats['mean']:.2f} ± {stats['std']:.2f}")
        rows.append(row)
    return render_table(headers, rows, precision=3, title=title)


def render_run_report(run: FleetRun) -> str:
    """Single-directory report: record counts plus the summary table.

    Pruned (halving-abandoned) and timed-out (budget-killed) units are
    reported separately from failures — a pruned unit is a scheduling
    decision, not a broken run.
    """
    counts = [f"{len(run.ok_records)} ok", f"{run.failed} failed"]
    if run.pruned:
        counts.append(f"{run.pruned} pruned")
    if run.timed_out:
        counts.append(f"{run.timed_out} timed out")
    if run.unscheduled:
        counts.append(f"{run.unscheduled} unscheduled")
    lines = [
        f"{len(run.records)} runs recorded ({', '.join(counts)})",
        "",
        aggregate_records(
            run.records, title=f"fleet {run.label!r} summary"
        ),
    ]
    if any("faults_injected" in record for record in run.ok_records):
        lines += [
            "",
            aggregate_records(
                run.records,
                metrics=RESILIENCE_METRICS,
                title=f"fleet {run.label!r} resilience summary",
            ),
        ]
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Telemetry report (``repro fleet report --telemetry``)                  #
# --------------------------------------------------------------------- #


def telemetry_breakdown(run_dir: str | Path) -> dict:
    """Aggregate a run directory's ``telemetry.jsonl`` for reporting.

    Returns ``{"timings": path -> {"count", "total_s"}, "counters":
    name -> value, "units": n, "cache": {"hits", "misses", "hit_rate"}}``
    aggregated over every telemetry record (unit and fleet scopes).
    Raises :class:`SpecError` when the directory has no telemetry —
    the run must be executed with ``--telemetry`` first.
    """
    from repro.telemetry import (
        aggregate_counters,
        aggregate_timings,
        load_run_telemetry,
    )

    telemetry = load_run_telemetry(run_dir)
    if not telemetry.records:
        raise SpecError(
            f"no telemetry at {Path(run_dir)}; re-run the fleet with "
            "--telemetry (or execution.telemetry: true) to collect it"
        )
    counters = aggregate_counters(telemetry.records)
    hits = counters.get("substrate.cache_hits", 0)
    misses = counters.get("substrate.cache_misses", 0)
    total = hits + misses
    return {
        "timings": aggregate_timings(telemetry.records),
        "counters": counters,
        "units": len(telemetry.units),
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else None,
        },
        "dispatch": dispatch_stats(counters),
    }


def dispatch_stats(counters: Mapping) -> list[tuple[str, str]]:
    """Dispatch statistics from fleet counters.

    Surfaces what the scheduler and the pool backend counted while
    dispatching: pool units and worker (re)spawns, the sticky-affinity
    warm-cache hit rate, scheduler retries, pruned and unscheduled
    units, plus per-host unit/crash counts and the number of
    quarantined hosts when the pool ran an explicit host inventory.
    Returns ``(label, value)`` display rows; empty when the run
    recorded no dispatch counters (e.g. a serial fleet without
    telemetry).
    """
    rows: list[tuple[str, str]] = []

    def fmt(value: object) -> str:
        return f"{value:g}" if isinstance(value, float) else str(value)

    units = counters.get("pool.units")
    if units is not None:
        rows.append(("pool units dispatched", fmt(units)))
    spawns = counters.get("pool.spawns")
    if spawns is not None:
        rows.append(("pool worker spawns", fmt(spawns)))
    affinity_hits = counters.get("pool.affinity_hits")
    if affinity_hits is not None and units:
        rate = 100.0 * affinity_hits / units
        rows.append(
            (
                "pool warm-cache (affinity) hits",
                f"{fmt(affinity_hits)} ({rate:.1f}%)",
            )
        )
    hosts = set()
    for name in counters:
        if name.startswith("pool.host."):
            rest = name[len("pool.host."):]
            for suffix in (".units", ".crashes"):
                if rest.endswith(suffix):
                    hosts.add(rest[: -len(suffix)])
    for host in sorted(hosts):
        units = counters.get(f"pool.host.{host}.units", 0)
        crashes = counters.get(f"pool.host.{host}.crashes", 0)
        rows.append(
            (
                f"host {host!r}",
                f"{fmt(units)} unit(s), {fmt(crashes)} crash(es)",
            )
        )
    if hosts:
        rows.append(
            ("hosts quarantined", fmt(counters.get("pool.quarantines", 0)))
        )
    for name, label in (
        ("scheduler.retries", "scheduler crash retries"),
        ("scheduler.pruned", "units pruned by halving"),
        ("scheduler.unscheduled", "units unscheduled by fleet budget"),
    ):
        value = counters.get(name)
        if value is not None:
            rows.append((label, fmt(value)))
    return rows


def render_telemetry_report(run_dir: str | Path) -> str:
    """Phase-time breakdown + counters of one instrumented fleet run.

    Tables: span paths with call counts, total seconds and the share
    of the instrumented time (top-level spans only, so shares sum to
    ~100 %); the named counters; dispatch stats (pool and per-host
    units, retries, quarantines, warm-cache hit rates) when the run
    recorded any; and the substrate cache hit rate called out last.
    """
    breakdown = telemetry_breakdown(run_dir)
    timings: dict[str, dict] = breakdown["timings"]
    top_total = sum(
        slot["total_s"] for path, slot in timings.items() if "/" not in path
    )
    timing_rows = []
    for path in sorted(timings, key=lambda p: -timings[p]["total_s"]):
        slot = timings[path]
        share = (
            f"{100.0 * slot['total_s'] / top_total:.1f}%"
            if top_total and "/" not in path
            else ""
        )
        timing_rows.append(
            [path, slot["count"], f"{slot['total_s']:.3f}", share]
        )
    lines = [
        f"telemetry: {breakdown['units']} instrumented unit(s)",
        "",
        render_table(
            ["span", "count", "total s", "share"],
            timing_rows,
            title="phase-time breakdown (aggregated span trees)",
        ),
    ]
    counter_rows = [
        [name, f"{value:g}" if isinstance(value, float) else value]
        for name, value in sorted(breakdown["counters"].items())
    ]
    if counter_rows:
        lines += [
            "",
            render_table(
                ["counter", "value"], counter_rows, title="counters"
            ),
        ]
    if breakdown["dispatch"]:
        lines += [
            "",
            render_table(
                ["dispatch", "value"],
                [list(row) for row in breakdown["dispatch"]],
                title="dispatch stats (backends, hosts, scheduler)",
            ),
        ]
    cache = breakdown["cache"]
    if cache["hit_rate"] is not None:
        lines.append(
            f"substrate cache: {cache['hits']:g} hit(s) / "
            f"{cache['misses']:g} synthesis(es) "
            f"({100.0 * cache['hit_rate']:.1f}% hit rate)"
        )
    return "\n".join(lines)
