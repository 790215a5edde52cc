"""Spec -> concrete objects: resolve a :class:`RunSpec` into a ready run.

The compiler is the bridge between the declarative layer and the existing
engine: it reuses :mod:`repro.workloads` to build the conference,
:mod:`repro.netsim` for the noise model, :mod:`repro.core` for the solver
configuration and :mod:`repro.runtime` for the simulator — and it fails
fast (:class:`~repro.errors.SpecError`) on anything dangling (unknown
regions, infeasible churn plans, capacity envelopes on workloads that do
not model them) *before* any solve starts.

Compilation shares the latency substrate across runs: the workload
builders synthesize ``(D, H)`` through the process-local memo of
:func:`repro.netsim.latency.substrate_matrices`, keyed by the latency
seed plus the ordered region / site identities.  Grid points of a sweep
that vary only solver or simulation knobs therefore compile against one
shared substrate instead of rebuilding identical matrices per point
(ROADMAP "Shared-substrate caching"); :func:`substrate_cache_info`
exposes the hit/build counters.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from typing import Sequence

import repro.telemetry as tele
from repro.analysis.report import record_schema_version
from repro.analysis.series import downsample_series
from repro.core.agrank import AgRankConfig
from repro.core.markov import MarkovConfig
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.errors import ReproError, SpecError
from repro.experiments.common import effective_beta
from repro.fleet.spec import RunSpec
from repro.model.conference import Conference
from repro.model.representation import PAPER_LADDER
from repro.netsim.latency import substrate_cache_stats
from repro.netsim.noise import GaussianNoise, NoiseModel, QuantizedPerturbation
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.faults import (
    Fault,
    FaultSchedule,
    all_sites_outaged_window,
)
from repro.runtime.simulation import (
    ConferencingSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.runtime.traces import TraceEvent, load_trace, schedule_from_trace
from repro.workloads.demand import DemandModel
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference


@dataclass
class CompiledRun:
    """Everything the runtime needs, resolved from one spec."""

    spec: RunSpec
    conference: Conference
    evaluator: ObjectiveEvaluator
    schedule: DynamicsSchedule
    config: SimulationConfig
    noise: NoiseModel | None
    #: Resolved fault schedule; None when the spec injects no faults.
    faults: FaultSchedule | None = None

    def simulator(self) -> ConferencingSimulator:
        """A fresh simulator bound to this run's compiled objects."""
        return ConferencingSimulator(
            self.evaluator,
            self.schedule,
            self.config,
            noise=self.noise,
            faults=self.faults,
        )


def _demand_model(spec: RunSpec) -> DemandModel:
    demand = spec.workload.demand
    return DemandModel(
        PAPER_LADDER,
        preferred=demand.preferred,
        preferred_share=demand.preferred_share,
        downgrade_only=demand.downgrade_only,
    )


def _build_conference(spec: RunSpec) -> Conference:
    workload = spec.workload
    topology = spec.topology
    demand = _demand_model(spec)
    try:
        if workload.kind == "prototype":
            return prototype_conference(
                seed=spec.simulation.seed,
                num_sessions=workload.num_sessions,
                session_sizes=(workload.min_session_size, workload.max_session_size),
                demand=demand,
                regions_override=topology.regions or None,
                locations_override=topology.user_sites or None,
                latency_seed=topology.latency_seed,
            )
        kwargs: dict = {
            "num_user_sites": topology.num_user_sites,
            "num_users": workload.num_users,
            "min_session_size": workload.min_session_size,
            "max_session_size": workload.max_session_size,
            "mean_bandwidth_mbps": workload.mean_bandwidth_mbps,
            "mean_transcode_slots": workload.mean_transcode_slots,
            "latency_seed": topology.latency_seed,
            "session_locality": workload.session_locality,
        }
        if topology.regions:
            kwargs["regions"] = topology.regions
        return scenario_conference(
            spec.simulation.seed, ScenarioParams(**kwargs), demand
        )
    except ReproError as error:
        raise SpecError(f"spec {spec.name!r} does not compile: {error}") from error


def _noise_model(spec: RunSpec) -> NoiseModel | None:
    noise = spec.noise
    if noise.kind == "none":
        return None
    if noise.kind == "gaussian":
        if noise.sigma == 0:
            return None
        return GaussianNoise(sigma=noise.sigma)
    if noise.delta == 0:
        return None
    return QuantizedPerturbation(delta=noise.delta, levels=noise.levels)


def _trace_schedule(spec: RunSpec, num_sessions: int) -> DynamicsSchedule:
    """Resolve a spec's trace section into a validated schedule.

    Load/parse problems (missing file, malformed row) and feasibility
    problems (pool overflow, inactive departures) get distinct
    diagnostics — a bad path is not an infeasibility.
    """
    trace = spec.churn.trace
    events = None
    if trace.kind == "file":
        try:
            events = load_trace(trace.path)
        except ReproError as error:
            raise SpecError(
                f"spec {spec.name!r}: churn trace: {error}"
            ) from error
    try:
        if events is None:
            process = trace._process(
                initial=spec.churn.initial,
                max_sessions=num_sessions,
                seed=trace.seed if trace.seed >= 0 else spec.simulation.seed,
            )
            events = process.trace(spec.simulation.duration_s)
        return schedule_from_trace(events, max_sessions=num_sessions)
    except ReproError as error:
        raise SpecError(
            f"spec {spec.name!r}: trace infeasible for "
            f"{num_sessions} sessions: {error}"
        ) from error


def _schedule(spec: RunSpec, num_sessions: int) -> DynamicsSchedule:
    churn = spec.churn
    if churn.trace.kind != "none":
        return _trace_schedule(spec, num_sessions)
    if churn.initial == 0 and not churn.waves:
        return DynamicsSchedule.static(range(num_sessions))
    try:
        return DynamicsSchedule.churn(
            num_sessions,
            churn.initial,
            [(wave.time_s, wave.arrive, wave.depart) for wave in churn.waves],
        )
    except ReproError as error:
        raise SpecError(
            f"spec {spec.name!r}: churn plan infeasible for "
            f"{num_sessions} sessions: {error}"
        ) from error


def _fault_schedule(spec: RunSpec, num_agents: int) -> FaultSchedule | None:
    """Resolve the spec's ``faults:`` section into a runtime schedule.

    Explicit windows are validated against the compiled conference's
    agent count (the spec alone cannot know it) and against the
    all-sites-dead degeneracy: overlapping outages that leave no live
    site raise a :class:`~repro.errors.SpecError` naming the offending
    window.  Chaos seeds resolve like trace seeds: ``-1`` follows
    ``simulation.seed``.
    """
    section = spec.faults
    if not section.enabled:
        return None
    if section.windows:
        faults = []
        for index, window in enumerate(section.windows):
            if window.site >= num_agents:
                raise SpecError(
                    f"spec {spec.name!r}: faults.windows[{index}] names "
                    f"site {window.site}, but the compiled conference "
                    f"has {num_agents} agents (sites 0..{num_agents - 1})"
                )
            faults.append(
                Fault(
                    kind=window.kind,
                    site=window.site,
                    start_s=window.start_s,
                    end_s=window.end_s,
                    severity=window.severity,
                )
            )
        dead_window = all_sites_outaged_window(faults, num_agents)
        if dead_window is not None:
            raise SpecError(
                f"spec {spec.name!r}: faults.windows outages overlap to "
                f"kill every site during "
                f"[{dead_window[0]:g}, {dead_window[1]:g}] s — no feasible "
                "placement would remain; shorten or stagger the windows"
            )
        return FaultSchedule(faults=tuple(faults), policy=section.policy)
    chaos = section.chaos
    return FaultSchedule.chaos(
        num_sites=num_agents,
        duration_s=spec.simulation.duration_s,
        rate_per_s=chaos.rate_per_s,
        mean_duration_s=chaos.mean_duration_s,
        severity=chaos.severity,
        kinds=chaos.kinds,
        policy=section.policy,
        seed=chaos.seed if chaos.seed >= 0 else spec.simulation.seed,
    )


def substrate_cache_info() -> dict:
    """Hit/build counters of the shared latency-substrate cache.

    Counters are process-local: under a pooled fleet each worker keeps
    its own cache, warmed as units stream through it.
    """
    return substrate_cache_stats()


def compile_spec(spec: RunSpec) -> CompiledRun:
    """Resolve one (sweep-free) spec into concrete engine objects."""
    if spec.sweep.axes or spec.sweep.replicates > 1:
        raise SpecError(
            f"spec {spec.name!r} declares a sweep; expand it with "
            "repro.fleet.orchestrator.expand_matrix() first"
        )
    conference = _build_conference(spec)
    schedule = _schedule(spec, conference.num_sessions)
    solver = spec.solver
    weights = ObjectiveWeights.normalized_for(
        conference,
        alpha1=solver.alpha1,
        alpha2=solver.alpha2,
        alpha3=solver.alpha3,
    )
    evaluator = ObjectiveEvaluator(conference, weights)
    try:
        config = SimulationConfig(
            duration_s=spec.simulation.duration_s,
            sample_interval_s=spec.simulation.sample_interval_s,
            hop_interval_mean_s=spec.simulation.hop_interval_mean_s,
            freeze_duration_s=spec.simulation.freeze_duration_s,
            markov=MarkovConfig(
                beta=effective_beta(solver.beta),
                hop_rule=solver.hop_rule,
            ),
            initial_policy=solver.policy,
            agrank=AgRankConfig(n_ngbr=solver.n_ngbr)
            if solver.policy == "agrank"
            else None,
            seed=spec.simulation.seed,
        )
    except ReproError as error:
        raise SpecError(f"spec {spec.name!r} does not compile: {error}") from error
    return CompiledRun(
        spec=spec,
        conference=conference,
        evaluator=evaluator,
        schedule=schedule,
        config=config,
        noise=_noise_model(spec),
        faults=_fault_schedule(spec, conference.num_agents),
    )


#: Recorded convergence series and their downsampled length (the
#: ``series`` record field rendered as dashboard sparklines).
RECORD_SERIES: tuple[str, ...] = ("traffic", "delay", "phi")
RECORD_SERIES_POINTS = 32


def compile_trace(
    events: Sequence[TraceEvent], spec: RunSpec
) -> CompiledRun:
    """Resolve a spec but drive its dynamics from ``events`` instead of
    the spec's own churn section (``repro trace play``).

    The trace is validated against the compiled workload's session pool
    exactly like a ``churn.trace`` section; infeasible events raise
    :class:`~repro.errors.SpecError` naming the offending event.
    """
    data = spec.to_dict()
    # The played trace supersedes the spec's own churn plan, and a
    # played run is one concrete simulation (no sweep).
    data["churn"] = {}
    data["sweep"] = {"replicates": 1, "axes": []}
    compiled = compile_spec(RunSpec.from_dict(data))
    try:
        schedule = schedule_from_trace(
            events, max_sessions=compiled.conference.num_sessions
        )
    except ReproError as error:
        raise SpecError(
            f"spec {spec.name!r}: trace infeasible for "
            f"{compiled.conference.num_sessions} sessions: {error}"
        ) from error
    compiled.schedule = schedule
    return compiled


def execute_spec(spec: RunSpec) -> dict:
    """Compile + simulate one spec and return a flat metrics record.

    The record is JSON-safe (plain floats/ints/strings) so the
    orchestrator can persist it as one JSONL line; its shape is the
    versioned schema of :mod:`repro.analysis.report` (documented in
    DESIGN.md "Result records").
    """
    with tele.span("unit.compile"):
        compiled = compile_spec(spec)
    return run_record(compiled)


def execute_payload(
    run_id: str, spec_dict: dict, axes: dict, seed: int,
    telemetry: bool = False,
) -> dict:
    """Execute one self-contained run-unit payload into a result record.

    This is the worker-side entry every execution backend funnels
    through — the in-process serial path and the pool's
    ``repro.fleet.backends.worker`` loop workers alike.
    The payload is plain picklable data (no live objects), so it can
    cross process and machine boundaries; a unit that fails to compile
    or simulate comes back as a ``status: "error"`` record rather than
    an exception, so one bad unit never sinks the fleet.

    With ``telemetry`` enabled a unit-scope collector is active for the
    duration: the record gains flattened ``timings``/``counters`` blocks
    plus a transient ``telemetry`` dict (the full span tree), which the
    orchestrator strips into ``telemetry.jsonl`` — so pool-worker
    telemetry rides the existing record frame across the process
    boundary.
    Metrics are derived before telemetry is attached; results are
    bit-identical with telemetry on or off.
    """
    started = time.perf_counter()
    collector = tele.Collector(scope="unit") if telemetry else None
    try:
        if collector is not None:
            with collector.activate():
                record = execute_spec(RunSpec.from_dict(spec_dict))
        else:
            record = execute_spec(RunSpec.from_dict(spec_dict))
        record["status"] = "ok"
    except Exception as error:  # noqa: BLE001 - one bad unit must not sink the fleet
        record = {
            "schema_version": 0,  # re-stamped once the shape is known
            "name": str(spec_dict.get("name", "")),
            "status": "error",
            "error": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(),
        }
        record["schema_version"] = record_schema_version(record)
    record["run_id"] = run_id
    record["axes"] = axes
    record["seed"] = seed
    record["wall_time_s"] = time.perf_counter() - started
    if collector is not None:
        record["timings"] = collector.timings()
        record["counters"] = collector.counters_dict()
        record["telemetry"] = collector.to_dict()
    return record


def execute_trace(events: Sequence[TraceEvent], spec: RunSpec) -> dict:
    """Compile + simulate one spec against an externally supplied trace
    and return the standard flat metrics record."""
    return run_record(compile_trace(events, spec))


def run_record(compiled: CompiledRun) -> dict:
    """Simulate a compiled run and shape its flat metrics record."""
    spec = compiled.spec
    with tele.span("unit.solve"):
        simulation: SimulationResult = compiled.simulator().run()
    conference = compiled.conference
    record: dict = {
        "schema_version": 0,  # placeholder; re-stamped once the shape is known
        "name": spec.name,
        "seed": spec.simulation.seed,
        "num_agents": conference.num_agents,
        "num_users": conference.num_users,
        "num_sessions": conference.num_sessions,
        "traffic0_mbps": simulation.initial_value("traffic"),
        "traffic_mbps": simulation.steady_state_mean("traffic"),
        "delay0_ms": simulation.initial_value("delay"),
        "delay_ms": simulation.steady_state_mean("delay"),
        "phi": simulation.final_value("phi"),
        "hops": simulation.hops,
        "migrations": len(simulation.migrations),
        "freezes": simulation.freezes,
        "overhead_kb": simulation.total_overhead_kb,
        "series": {
            name: downsample_series(
                *simulation.series(name), max_points=RECORD_SERIES_POINTS
            )
            for name in RECORD_SERIES
        },
    }
    if compiled.faults is not None:
        # Resilience metrics only exist for fault-injected runs: a
        # no-fault record keeps its pre-chaos-layer shape (and bytes).
        recovery = simulation.recovery_times
        record["faults_injected"] = simulation.faults_injected
        record["fault_migrations"] = simulation.fault_migrations
        record["sessions_dropped"] = simulation.sessions_dropped
        record["sla_violation_s"] = simulation.sla_violation_s
        record["recovery_mean_s"] = (
            sum(recovery) / len(recovery) if recovery else 0.0
        )
    # Records stamp the *lowest* schema version that describes them, so
    # runs without a faults section serialize bit-identically to output
    # written before the fault layer existed.
    record["schema_version"] = record_schema_version(record)
    return {
        key: (float(value) if isinstance(value, float) else value)
        for key, value in record.items()
    }
