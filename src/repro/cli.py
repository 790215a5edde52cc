"""Command-line interface: paper experiments and the fleet orchestrator.

Examples::

    repro list
    repro run fig4
    repro run table2 --scenarios 100
    repro run fig7 --csv out/fig7.csv
    repro run fig4 --jsonl out/fig4.jsonl

    repro fleet list
    repro fleet run prototype_smoke --workers 2
    repro fleet run my_spec.yaml --out runs/my_spec
    repro fleet run prototype_smoke --backend pool --budget 60
    repro fleet run prototype_smoke --backend pool --workers 4
    repro fleet run prototype_smoke --backend pool --hosts h1,h2
    repro fleet sweep beta_locality --replicates 4 --halving 1,2 --asha
    repro fleet sweep beta_locality --axis solver.beta=200,400 --replicates 3
    repro fleet sweep beta_locality --replicates 4 --halving 1,2
    repro fleet run prototype_smoke --telemetry --progress
    repro fleet report fleet_runs/prototype_smoke
    repro fleet report fleet_runs/prototype_smoke --telemetry
    repro fleet report runs/base --compare runs/beta200 --csv cmp.csv
    repro fleet report --compare runs/base runs/beta200 --html cmp.html

    repro trace generate --kind poisson --rate 0.1 --max-sessions 4 --seed 7 --out churn.csv
    repro trace validate churn.csv --sessions 4
    repro trace play churn.csv --spec prototype_smoke
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.errors import SpecError
from repro.experiments.common import SCENARIOS_ENV
from repro.experiments.registry import experiment_ids, get_experiment, list_experiments
from repro.log import configure as _configure_logging
from repro.log import get_logger

#: CLI status/diagnostic channel: everything conversational goes through
#: this stderr logger (gated by -v/-q); deliverable output — reports,
#: tables, JSON, CSV — stays on stdout via ``print``.
_LOG = get_logger("cli")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Cost-Effective Low-Delay Cloud Video "
            "Conferencing' (ICDCS 2015)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="show debug-level status messages on stderr",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress status messages on stderr (errors still show)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered experiments")

    run = subparsers.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=experiment_ids())
    run.add_argument(
        "--scenarios",
        type=int,
        default=None,
        help="number of random scenarios (Internet-scale experiments; "
        "the paper uses 100)",
    )
    run.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    run.add_argument(
        "--csv",
        default="",
        help="also write raw series rows to this CSV file (figures only)",
    )
    run.add_argument(
        "--jsonl",
        default="",
        metavar="PATH",
        help="also write the result as schema-versioned JSONL records "
        "(the fleet results.jsonl shape; see DESIGN.md 'Result records')",
    )

    fleet = subparsers.add_parser(
        "fleet", help="declarative scenario specs + parallel orchestration"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_sub.add_parser("list", help="list bundled library specs")

    def add_exec_args(sub: argparse.ArgumentParser) -> None:
        from repro.fleet.spec import BACKEND_KINDS

        sub.add_argument(
            "spec", help="path to a YAML/JSON spec, or a library spec name"
        )
        sub.add_argument(
            "--out",
            default="",
            help="output directory (default fleet_runs/<spec name>)",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes (<= 1 runs serially; default: the "
            "spec's execution.workers)",
        )
        sub.add_argument(
            "--backend",
            choices=BACKEND_KINDS,
            default=None,
            help="execution backend (default: the spec's "
            "execution.backend, normally 'local': serial for one "
            "worker without --budget, else pool)",
        )
        sub.add_argument(
            "--budget",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-unit wall-time budget; over-budget units are "
            "recorded as status 'timeout' (default: the spec's "
            "execution.unit_timeout_s)",
        )
        sub.add_argument(
            "--total-budget",
            type=float,
            default=None,
            metavar="SECONDS",
            help="fleet-level wall-clock allowance; once spent, the "
            "scheduler stops dispatching and records remaining units "
            "as status 'unscheduled' (default: the spec's "
            "execution.total_budget_s)",
        )
        sub.add_argument(
            "--halving",
            default="",
            metavar="R1[,R2...]",
            help="successive-halving rungs: after each cumulative "
            "replicate count, keep the best ceil(n/eta) grid points "
            "and record the rest as status 'pruned'",
        )
        sub.add_argument(
            "--asha",
            action="store_true",
            help="asynchronous successive halving: promote/prune grid "
            "points the moment enough completed peers prove the "
            "decision, instead of barriering per rung (records stay "
            "byte-identical to synchronous halving)",
        )
        sub.add_argument(
            "--hosts",
            default="",
            metavar="H1[,H2...]",
            help="host inventory of the pool backend (sets "
            "execution.hosts; use with --backend pool)",
        )
        sub.add_argument(
            "--no-resume",
            action="store_true",
            help="ignore cached results and re-execute every run",
        )
        sub.add_argument(
            "--telemetry",
            action="store_true",
            help="collect span/counter telemetry (telemetry.jsonl beside "
            "results.jsonl + timings/counters record blocks); results "
            "stay bit-identical either way",
        )
        sub.add_argument(
            "--progress",
            action="store_true",
            help="live stderr progress ticker (done/running/pruned/"
            "timeout counts + rolling ETA)",
        )
        sub.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="override a scalar spec field, e.g. solver.beta=200",
        )

    fleet_run = fleet_sub.add_parser(
        "run", help="execute a spec's run matrix end to end"
    )
    add_exec_args(fleet_run)

    fleet_sweep = fleet_sub.add_parser(
        "sweep", help="run a spec with sweep axes given on the command line"
    )
    add_exec_args(fleet_sweep)
    fleet_sweep.add_argument(
        "--axis",
        dest="axes",
        action="append",
        default=[],
        metavar="PATH=V1,V2,...",
        help="sweep axis, e.g. --axis solver.beta=200,400 (repeatable)",
    )
    fleet_sweep.add_argument(
        "--replicates",
        type=int,
        default=None,
        help="seed replicates per grid point",
    )

    fleet_report = fleet_sub.add_parser(
        "report",
        help="re-aggregate finished fleet run directories; with several "
        "directories, render a spec-diff x metric-delta comparison",
    )
    fleet_report.add_argument(
        "out_dir",
        nargs="*",
        help="directories holding results.jsonl (first = baseline)",
    )
    fleet_report.add_argument(
        "--compare",
        dest="compare",
        nargs="+",
        default=[],
        metavar="DIR",
        help="additional run directories to compare against the baseline",
    )
    fleet_report.add_argument(
        "--csv",
        default="",
        metavar="PATH",
        help="write the spec-diff + metric-delta comparison as CSV",
    )
    fleet_report.add_argument(
        "--html",
        default="",
        metavar="PATH",
        help="write a self-contained HTML dashboard (inline SVG sparklines)",
    )
    fleet_report.add_argument(
        "--telemetry",
        action="store_true",
        help="also render the telemetry section (phase-time breakdown, "
        "cache hit rates, solver counters) from each run's "
        "telemetry.jsonl; the HTML dashboard gains a bar-chart panel",
    )

    trace = subparsers.add_parser(
        "trace", help="churn traces: generate, validate and play them"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    generate = trace_sub.add_parser(
        "generate", help="synthesize a seeded stochastic session trace"
    )
    generate.add_argument(
        "--kind",
        choices=("poisson", "mmpp", "diurnal"),
        default="poisson",
        help="arrival process family (default poisson)",
    )
    generate.add_argument(
        "--rate", type=float, default=0.05, help="mean arrivals per second"
    )
    generate.add_argument(
        "--mean-holding",
        type=float,
        default=60.0,
        help="mean session holding time in seconds",
    )
    generate.add_argument(
        "--holding",
        choices=("exponential", "lognormal"),
        default="exponential",
        help="holding-time distribution",
    )
    generate.add_argument(
        "--holding-sigma",
        type=float,
        default=0.5,
        help="lognormal holding shape parameter",
    )
    generate.add_argument(
        "--burst-rate",
        type=float,
        default=0.0,
        help="mmpp: burst-state arrival rate (>= --rate)",
    )
    generate.add_argument(
        "--mean-burst",
        type=float,
        default=20.0,
        help="mmpp: mean burst dwell in seconds",
    )
    generate.add_argument(
        "--mean-calm",
        type=float,
        default=60.0,
        help="mmpp: mean calm dwell in seconds",
    )
    generate.add_argument(
        "--diurnal-period",
        type=float,
        default=240.0,
        help="diurnal: modulation period in seconds",
    )
    generate.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.5,
        help="diurnal: relative rate amplitude in [0, 1)",
    )
    generate.add_argument(
        "--duration", type=float, default=200.0, help="trace horizon in seconds"
    )
    generate.add_argument(
        "--initial", type=int, default=1, help="sessions active at t=0"
    )
    generate.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="session id pool size (arrivals beyond it are blocked)",
    )
    generate.add_argument("--seed", type=int, default=0, help="generator seed")
    generate.add_argument(
        "--out",
        default="",
        metavar="PATH",
        help="trace file to write (default: CSV on stdout)",
    )
    generate.add_argument(
        "--format",
        choices=("csv", "jsonl"),
        default="",
        help="output format (default: by --out suffix, else csv)",
    )

    def add_trace_input(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "trace", help="trace file path, or '-' to read CSV/JSONL from stdin"
        )
        sub.add_argument(
            "--format",
            choices=("csv", "jsonl"),
            default="",
            help="input format (default: by file suffix; csv for stdin)",
        )

    validate = trace_sub.add_parser(
        "validate", help="parse a trace and check its invariants"
    )
    add_trace_input(validate)
    validate.add_argument(
        "--sessions",
        type=int,
        default=None,
        help="also check every sid against this session-pool size",
    )

    play = trace_sub.add_parser(
        "play", help="simulate a trace end to end and print its metrics record"
    )
    add_trace_input(play)
    play.add_argument(
        "--spec",
        default="",
        help="base spec (library name or file) providing workload/solver; "
        "default: a prototype workload sized to the trace",
    )
    play.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulation horizon (default: the spec's, or the trace end "
        "plus two hop intervals)",
    )
    play.add_argument(
        "--seed", type=int, default=None, help="override the simulation seed"
    )

    serve = subparsers.add_parser(
        "serve",
        help="long-lived online placement service (arrive/depart/resize "
        "over HTTP, incremental re-solve; see DESIGN.md 'Service mode')",
    )
    serve.add_argument(
        "--spec",
        default="prototype_smoke",
        help="base spec (library name or file) providing workload/solver "
        "(default prototype_smoke); its churn and sweep sections are "
        "ignored — the service is driven externally",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 = ephemeral; default 8642)",
    )
    serve.add_argument(
        "--initial",
        type=int,
        default=1,
        help="sessions active at startup when not driving a trace "
        "(sids 0..N-1; default 1)",
    )
    serve.add_argument(
        "--drive",
        default="",
        metavar="TRACE",
        help="replay this trace file as service load, print the drive "
        "report and exit (the trace's t=0 arrivals become the initial "
        "conference)",
    )
    serve.add_argument(
        "--http",
        action="store_true",
        help="with --drive: route the replay through a loopback HTTP "
        "server instead of in-process calls",
    )
    serve.add_argument(
        "--budget-ms",
        type=float,
        default=50.0,
        help="per-event latency budget in ms — observational only: "
        "overruns are counted in /metrics, decisions never depend on "
        "wall time (default 50)",
    )
    serve.add_argument(
        "--refine-hops",
        type=int,
        default=2,
        help="greedy re-solve hops after each arrival/resize splice "
        "(deterministic; 0 disables refinement; default 2)",
    )
    serve.add_argument(
        "--decisions",
        default="",
        metavar="PATH",
        help="append every placement decision to this JSONL log "
        "(byte-identical across replays of one request log)",
    )
    serve.add_argument(
        "--metrics-out",
        default="",
        metavar="PATH",
        help="rolling service.jsonl metrics snapshots",
    )
    serve.add_argument(
        "--flush-every",
        type=int,
        default=100,
        help="decisions between rolling metrics snapshots (default 100)",
    )
    serve.add_argument(
        "--seed", type=int, default=None, help="override the simulation seed"
    )
    serve.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override a scalar spec field, e.g. solver.beta=200",
    )
    return parser


def _collect_result_records(result: object) -> list[dict]:
    """Schema-versioned records of an experiment result (if it emits any)."""
    emit = getattr(result, "result_records", None)
    return emit() if callable(emit) else []


def _collect_csv_rows(result: object) -> list[str]:
    rows: list[str] = []
    bundles = getattr(result, "bundles", None)
    if isinstance(bundles, dict):
        for bundle in bundles.values():
            rows.extend(bundle.csv_rows())
    bundle = getattr(result, "bundle", None)
    if bundle is not None:
        rows.extend(bundle.csv_rows())
    return rows


def _parse_scalar(raw: str) -> object:
    """CLI value -> scalar, with the same coercion a YAML spec gets, so
    ``--set solver.beta=200`` and ``beta: 200`` in a file resolve (and
    content-hash) identically."""
    import yaml

    from repro.fleet.spec import load_yaml

    try:
        value = load_yaml(raw)
    except yaml.YAMLError:
        return raw
    return raw if isinstance(value, (dict, list)) or value is None else value


def _split_assignment(raw: str, flag: str) -> tuple[str, str]:
    if "=" not in raw:
        raise SpecError(f"{flag} expects PATH=VALUE, got {raw!r}")
    path, _, value = raw.partition("=")
    if not path or not value:
        raise SpecError(f"{flag} expects PATH=VALUE, got {raw!r}")
    return path, value


def _resolve_spec(reference: str):
    from repro.fleet import load_library_spec, load_spec
    from repro.fleet.library import library_spec_names

    candidate = Path(reference)
    if candidate.suffix.lower() in (".yaml", ".yml", ".json"):
        return load_spec(candidate)
    # Bare names prefer the library, so a stray local file or output
    # directory that happens to share a spec's name cannot shadow it.
    if reference in library_spec_names():
        return load_library_spec(reference)
    if candidate.is_file():
        return load_spec(candidate)
    raise SpecError(
        f"{reference!r} is neither a spec file nor a library spec; "
        f"library specs: {list(library_spec_names())}"
    )


def _run_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import FleetOrchestrator

    spec = _resolve_spec(args.spec)

    from repro.fleet.spec import apply_override

    overrides: dict[str, object] = {}
    for raw in args.overrides:
        path, value = _split_assignment(raw, "--set")
        overrides[path] = _parse_scalar(value)
    axes = getattr(args, "axes", None)
    replicates = getattr(args, "replicates", None)
    if (
        overrides
        or axes
        or replicates is not None
        or args.halving
        or args.asha
        or args.hosts
    ):
        data = spec.to_dict()
        if axes:
            data["sweep"]["axes"] = [
                {
                    "path": path,
                    "values": [_parse_scalar(v) for v in values.split(",")],
                }
                for path, values in (
                    _split_assignment(raw, "--axis") for raw in axes
                )
            ]
        if replicates is not None:
            data["sweep"]["replicates"] = replicates
        if args.halving:
            try:
                rungs = [
                    int(rung) for rung in args.halving.split(",") if rung
                ]
            except ValueError:
                raise SpecError(
                    f"--halving expects comma-separated integers, "
                    f"got {args.halving!r}"
                ) from None
            data["execution"]["halving"]["rungs"] = rungs
        if args.asha:
            data["execution"]["halving"]["asynchronous"] = True
        if args.hosts:
            data["execution"]["hosts"] = [
                host.strip()
                for host in args.hosts.split(",")
                if host.strip()
            ]
            if args.backend:
                # The inventory validates against the backend it runs on.
                data["execution"]["backend"] = args.backend
        for path, value in overrides.items():
            apply_override(data, path, value)
        spec = type(spec).from_dict(data)

    out_dir = args.out or str(Path("fleet_runs") / spec.name)
    orchestrator = FleetOrchestrator(
        out_dir,
        workers=args.workers,
        resume=not args.no_resume,
        backend=args.backend,
        unit_timeout_s=args.budget,
        telemetry=True if args.telemetry else None,
        total_budget_s=args.total_budget,
        progress=args.progress,
    )
    result = orchestrator.run(spec)
    print(result.format_report())
    if args.telemetry or result.telemetry_path.exists():
        _LOG.info("wrote telemetry to %s", result.telemetry_path)
    return 1 if result.failed or result.timed_out else 0


def _read_trace(args: argparse.Namespace):
    """Events of the trace named on the command line (file or stdin)."""
    from repro.runtime.traces import load_trace, parse_trace

    if args.trace == "-":
        fmt = args.format or "csv"
        return parse_trace(sys.stdin.read(), fmt=fmt, origin="<stdin>")
    return load_trace(args.trace, fmt=args.format)


def _generate_trace(args: argparse.Namespace) -> int:
    from repro.runtime.traces import SessionProcess, dump_trace, format_trace

    process = SessionProcess(
        kind=args.kind,
        rate_per_s=args.rate,
        mean_holding_s=args.mean_holding,
        holding=args.holding,
        holding_sigma=args.holding_sigma,
        burst_rate_per_s=args.burst_rate,
        mean_burst_s=args.mean_burst,
        mean_calm_s=args.mean_calm,
        diurnal_period_s=args.diurnal_period,
        diurnal_amplitude=args.diurnal_amplitude,
        initial=args.initial,
        max_sessions=args.max_sessions,
        seed=args.seed,
    )
    events = process.trace(args.duration)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        if args.format:
            Path(args.out).write_text(
                format_trace(events, fmt=args.format), encoding="utf-8"
            )
        else:
            dump_trace(events, args.out)
        _LOG.info("wrote %d trace events to %s", len(events), args.out)
        return 0
    fmt = args.format or "csv"
    sys.stdout.write(format_trace(events, fmt=fmt))
    return 0


def _validate_trace(args: argparse.Namespace) -> int:
    from repro.runtime.traces import validate_trace

    events = _read_trace(args)
    initial = validate_trace(events, max_sessions=args.sessions)
    active = len(initial)
    peak = active
    for event in events:
        if event.time_s == 0.0 and event.kind == "arrive":
            continue
        if event.kind == "arrive":
            active += 1
            peak = max(peak, active)
        elif event.kind == "depart":
            active -= 1
    sids = {event.sid for event in events}
    last = events[-1].time_s if events else 0.0
    print(
        f"trace ok: {len(events)} events, {len(sids)} distinct sessions, "
        f"{len(initial)} initial, peak {peak} concurrent, "
        f"final {active} active, horizon {last:g}s"
    )
    return 0


def _play_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.fleet import execute_trace
    from repro.fleet.spec import RunSpec, apply_override

    events = _read_trace(args)
    if not events:
        raise SpecError("trace is empty: nothing to play")
    horizon = max(event.time_s for event in events)
    if args.spec:
        spec = _resolve_spec(args.spec)
        data = spec.to_dict()
    else:
        pool = max(event.sid for event in events) + 1
        spec = RunSpec(name="trace-play")
        data = spec.to_dict()
        apply_override(data, "workload.num_sessions", max(pool, 2))
        hop_mean = spec.simulation.hop_interval_mean_s
        apply_override(
            data, "simulation.duration_s", horizon + 2.0 * hop_mean
        )
    if args.duration is not None:
        apply_override(data, "simulation.duration_s", args.duration)
    if args.seed is not None:
        apply_override(data, "simulation.seed", args.seed)
    record = execute_trace(events, RunSpec.from_dict(data))
    print(_json.dumps(record, sort_keys=True, indent=2))
    return 0


def _serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.fleet.spec import RunSpec, apply_override
    from repro.service import (
        HTTPServiceClient,
        InProcessClient,
        ServiceConfig,
        ServiceServer,
        drive_trace,
        service_from_spec,
    )
    from repro.service.drive import initial_sids_of
    from repro.runtime.traces import load_trace

    spec = _resolve_spec(args.spec)
    data = spec.to_dict()
    for raw in args.overrides:
        path, value = _split_assignment(raw, "--set")
        apply_override(data, path, _parse_scalar(value))
    if args.seed is not None:
        apply_override(data, "simulation.seed", args.seed)
    spec = RunSpec.from_dict(data)

    events = None
    if args.drive:
        events = load_trace(args.drive)
        initial = initial_sids_of(events)
    else:
        initial = list(range(max(1, args.initial)))

    config = ServiceConfig(
        budget_ms=args.budget_ms,
        refine_hops=args.refine_hops,
        decision_log=args.decisions,
        metrics_log=args.metrics_out,
        metrics_flush_every=args.flush_every,
    )
    service = service_from_spec(spec, initial_sids=initial, config=config)
    _LOG.info(
        "service warm: spec %s, %d initial session(s), refine_hops=%d",
        spec.name,
        len(initial),
        config.refine_hops,
    )

    if events is not None:
        server = None
        try:
            if args.http:
                server = ServiceServer(service, host=args.host, port=0).start()
                client = HTTPServiceClient(server.url)
                _LOG.info("driving over loopback HTTP at %s", server.url)
            else:
                client = InProcessClient(service)
            report = drive_trace(client, events)
        finally:
            if server is not None:
                server.shutdown()
        summary = report.as_dict()
        summary["metrics"] = service.stats.snapshot()
        print(_json.dumps(summary, sort_keys=True, indent=2))
        return 1 if report.errors else 0

    server = ServiceServer(service, host=args.host, port=args.port)
    _LOG.info(
        "serving on %s (POST /v1/arrive|depart|resize|resolve|request, "
        "GET /v1/snapshot /metrics /healthz; POST /v1/shutdown or Ctrl-C "
        "to stop)",
        server.url,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _LOG.info("interrupted; shutting down")
        server.shutdown()
    return 0


def _report_fleet(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        compare_fleets,
        comparison_csv,
        load_fleet_runs,
        render_comparison,
        render_run_report,
    )

    dirs = list(args.out_dir) + list(args.compare)
    if not dirs:
        raise SpecError(
            "fleet report needs at least one run directory "
            "(positional or via --compare)"
        )
    runs = load_fleet_runs(dirs)

    def print_telemetry_sections() -> None:
        from repro.analysis.report import render_telemetry_report

        for run in runs:
            print()
            print(render_telemetry_report(run.path))

    if len(runs) == 1:
        # A lone directory always gets its text report (even when every
        # unit failed); the CSV/HTML artifacts need successful records,
        # so requesting them for an all-failed run raises the
        # compare_fleets diagnostic below instead of silently emitting
        # empty artifacts.
        print(render_run_report(runs[0]))
        if args.telemetry:
            print_telemetry_sections()
        if not (args.csv or args.html):
            return 0
    comparison = compare_fleets(runs)
    if len(runs) > 1:
        print(render_comparison(comparison))
        if args.telemetry:
            print_telemetry_sections()
    if args.csv:
        Path(args.csv).write_text(comparison_csv(comparison), encoding="utf-8")
        _LOG.info("wrote comparison CSV to %s", args.csv)
    if args.html:
        from repro.analysis.html import render_html

        telemetry = None
        if args.telemetry:
            from repro.analysis.report import telemetry_breakdown

            telemetry = {
                run.label: telemetry_breakdown(run.path) for run in runs
            }
        Path(args.html).write_text(
            render_html(comparison, telemetry=telemetry), encoding="utf-8"
        )
        _LOG.info("wrote HTML dashboard to %s", args.html)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (repro list | head).
        # Detach stdout so the interpreter's shutdown flush stays quiet,
        # then exit like a well-behaved unix tool.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(argv: Sequence[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    _configure_logging((-1 if args.quiet else 0) + (1 if args.verbose else 0))

    if args.command == "list":
        specs = list_experiments()
        width = max(len(spec.experiment_id) for spec in specs)
        for spec in specs:
            print(f"{spec.experiment_id:<{width}}  {spec.description}")
        return 0

    if args.command == "fleet":
        try:
            if args.fleet_command == "list":
                from repro.fleet import load_library_spec
                from repro.fleet.library import library_spec_names

                names = library_spec_names()
                if not names:
                    print("(no library specs found)")
                    return 0
                width = max(len(name) for name in names)
                for name in names:
                    spec = load_library_spec(name)
                    summary = " ".join(spec.description.split())
                    print(f"{name:<{width}}  {summary}")
                return 0
            if args.fleet_command == "report":
                return _report_fleet(args)
            return _run_fleet(args)
        except SpecError as error:
            _LOG.error("error: %s", error)
            return 2

    if args.command == "trace":
        from repro.errors import ReproError

        try:
            if args.trace_command == "generate":
                return _generate_trace(args)
            if args.trace_command == "validate":
                return _validate_trace(args)
            return _play_trace(args)
        except ReproError as error:
            _LOG.error("error: %s", error)
            return 2

    if args.command == "serve":
        from repro.errors import ReproError

        try:
            return _serve(args)
        except ReproError as error:
            _LOG.error("error: %s", error)
            return 2

    spec = get_experiment(args.experiment)
    kwargs = {}
    if args.scenarios is not None:
        os.environ[SCENARIOS_ENV] = str(args.scenarios)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    result = spec.runner(**kwargs)
    print(result.format_report())

    if args.csv:
        rows = _collect_csv_rows(result)
        if rows:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write("label,series,time_s,value\n")
                handle.write("\n".join(rows))
                handle.write("\n")
            _LOG.info("wrote %d series rows to %s", len(rows), args.csv)
        else:
            _LOG.warning("(no series data to export for this experiment)")

    if args.jsonl:
        records = _collect_result_records(result)
        if records:
            from repro.analysis.report import validate_record, write_records

            for record in records:
                validate_record(record)  # corrupt records never reach disk
            count = write_records(records, args.jsonl)
            _LOG.info("wrote %d result records to %s", count, args.jsonl)
        else:
            _LOG.warning("(no result records to export for this experiment)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
