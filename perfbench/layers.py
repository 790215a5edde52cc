"""The layer entry points the traced run times, and the per-layer
metrics derived from their spans.

Every target is a public function or method of ``repro``; a span name
``<layer>.<call>`` becomes the metrics ``<layer>.<call>_s`` (self
seconds) and a call count, as listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
from collections import defaultdict
from typing import Sequence

from perfbench.common import CheckFailed
from perfbench.spans import SpanRecorder, Target, install, self_times
from perfbench.stats import MIN_BEYOND, percentile, tail_q

#: Every module whose functions are targets or that imports a target by
#: name; all are imported before the wrappers go in.
MODULES = (
    "repro.analysis.report",
    "repro.cli",
    "repro.core.agrank",
    "repro.core.arrays",
    "repro.core.bootstrap",
    "repro.core.delay",
    "repro.core.fastpath",
    "repro.core.markov",
    "repro.core.objective",
    "repro.core.search",
    "repro.fleet.backends.pool",
    "repro.fleet.compile",
    "repro.fleet.orchestrator",
    "repro.fleet.spec",
    "repro.netsim.latency",
    "repro.runtime.events",
    "repro.runtime.faults",
    "repro.runtime.live",
    "repro.runtime.simulation",
    "repro.runtime.traces",
    "repro.service",
    "repro.workloads",
)


def _add(counts: dict, key: str, amount: float) -> None:
    counts[key] = counts.get(key, 0.0) + amount


def _hop(counts, args, kwargs, result) -> None:
    _add(counts, "core.markov.moved", float(result.moved))


def _batch(counts, args, kwargs, result) -> None:
    _add(counts, "core.search.candidates", result.evaluation.size)
    _add(counts, "core.search.feasible", result.num_feasible)


def _evaluate(counts, args, kwargs, result) -> None:
    _add(counts, "core.arrays.candidates", result.size)


def _pop(counts, args, kwargs, result) -> None:
    _add(counts, "runtime.events.live_pops", float(result is not None))


def _refine(counts, args, kwargs, result) -> None:
    offered = kwargs.get("max_hops", args[2] if len(args) > 2 else 0)
    _add(counts, "runtime.live.refine_offered", max(0, offered))
    _add(counts, "runtime.live.refine_taken", result)


class _SubstrateHits:
    """Counts cache hits from the substrate cache's own counters."""

    def __init__(self) -> None:
        from repro.netsim.latency import substrate_cache_stats

        self._stats = substrate_cache_stats
        self._hits = substrate_cache_stats()["hits"]

    def __call__(self, counts, args, kwargs, result) -> None:
        hits = self._stats()["hits"]
        _add(counts, "netsim.substrate_hits", hits - self._hits)
        self._hits = hits


def process_age_s() -> float:
    """Seconds since this process was created (Linux ``/proc``)."""
    fields = open("/proc/self/stat", encoding="ascii").read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def targets() -> list[Target]:
    """The traced entry points, one span name each."""
    requests = itertools.count()

    def request_uid(args, kwargs) -> str:
        payload = args[1] if len(args) > 1 else kwargs.get("payload")
        op = payload.get("op", "?") if isinstance(payload, dict) else "?"
        return f"{next(requests)}:{op}"

    return [
        Target("repro.fleet.orchestrator", "FleetOrchestrator.run", "fleet.sweep"),
        Target("repro.fleet.spec", "RunSpec.from_dict", "fleet.spec.parse"),
        Target("repro.fleet.compile", "compile_spec", "fleet.compile.compile"),
        Target("repro.fleet.compile", "run_record", "fleet.compile.solve"),
        Target(
            "repro.fleet.compile", "execute_payload", "fleet.backends.execute",
            uid=lambda args, kwargs: str(args[0]),
        ),
        Target("repro.analysis.report", "aggregate_records", "analysis.report.aggregate"),
        Target(
            "repro.netsim.latency", "substrate_matrices", "netsim.substrate",
            observe=_SubstrateHits(),
        ),
        Target("repro.workloads.scenarios", "scenario_conference", "workloads.conference"),
        Target("repro.workloads.prototype", "prototype_conference", "workloads.conference"),
        Target("repro.runtime.simulation", "ConferencingSimulator.run", "runtime.simulation.run"),
        Target("repro.runtime.events", "EventQueue.schedule", "runtime.events.schedule"),
        Target("repro.runtime.events", "EventQueue.reschedule", "runtime.events.reschedule"),
        Target("repro.runtime.events", "EventQueue.pop", "runtime.events.pop", observe=_pop),
        Target("repro.core.delay", "average_conferencing_delay", "core.delay.average"),
        Target("repro.runtime.live", "LiveConference.arrive", "runtime.live.arrive"),
        Target("repro.runtime.live", "LiveConference.depart", "runtime.live.depart"),
        Target("repro.runtime.live", "LiveConference.resize", "runtime.live.resize"),
        Target("repro.runtime.live", "LiveConference.refine", "runtime.live.refine", observe=_refine),
        Target("repro.runtime.live", "LiveConference.resolve_from_scratch", "runtime.live.resolve"),
        Target("repro.runtime.live", "LiveConference.swap_evaluator", "runtime.live.swap"),
        Target("repro.runtime.faults", "apply_faults", "runtime.faults.apply"),
        Target("repro.runtime.traces", "TracePlayer.next_batch", "runtime.traces.batch"),
        Target("repro.core.markov", "MarkovAssignmentSolver.session_hop", "core.markov.hop", observe=_hop),
        Target("repro.core.search", "SearchContext.candidate_batch", "core.search.batch", observe=_batch),
        Target("repro.core.arrays", "ConferenceArrays.evaluate_candidates", "core.arrays.evaluate", observe=_evaluate),
        Target("repro.core.search", "SearchContext.commit", "core.search.commit"),
        Target("repro.core.search", "SearchContext.add_session", "core.search.splice"),
        Target("repro.core.search", "SearchContext.remove_session", "core.search.splice"),
        Target("repro.core.search", "SearchContext.best_candidate", "core.search.best"),
        Target("repro.core.objective", "ObjectiveEvaluator.session_cost", "core.objective.cost"),
        Target("repro.core.objective", "ObjectiveEvaluator.with_conference", "core.objective.swap"),
        Target("repro.core.fastpath", "ConferenceProfile.__init__", "core.fastpath.profile"),
        Target("repro.core.bootstrap", "bootstrap_assignment", "core.bootstrap.bootstrap"),
        Target("repro.core.agrank", "agrank_assignment", "core.agrank.place"),
        Target(
            "repro.service.service", "PlacementService.request", "service.request",
            uid=request_uid,
        ),
        Target("repro.service.metrics", "DecisionStats.observe", "service.metrics.observe"),
    ]


def install_all(recorder: SpanRecorder) -> list[str]:
    """Import every traced module, then wrap every target."""
    for module in MODULES:
        importlib.import_module(module)
    return install(recorder, targets())


# --------------------------------------------------------------------- #
# Per-layer metrics                                                     #
# --------------------------------------------------------------------- #

#: Span name -> (self-seconds metric, call-count metric).
TIMED = {
    "fleet.spec.parse": ("fleet.spec.parse_s", "fleet.spec.parses"),
    "fleet.compile.compile": ("fleet.compile.compile_s", "fleet.compile.compiles"),
    "fleet.compile.solve": ("fleet.compile.solve_s", "fleet.compile.solves"),
    "analysis.report.aggregate": ("analysis.report.aggregate_s", "analysis.report.aggregates"),
    "netsim.substrate": ("netsim.substrate_s", "netsim.substrate_calls"),
    "workloads.conference": ("workloads.conference_s", "workloads.conferences"),
    "runtime.simulation.run": ("runtime.simulation.run_s", "runtime.simulation.runs"),
    "core.delay.average": ("core.delay.average_s", "core.delay.average_calls"),
    "runtime.live.arrive": ("runtime.live.arrive_s", "runtime.live.arrives"),
    "runtime.live.depart": ("runtime.live.depart_s", "runtime.live.departs"),
    "runtime.live.resize": ("runtime.live.resize_s", "runtime.live.resizes"),
    "runtime.live.refine": ("runtime.live.refine_s", "runtime.live.refines"),
    "runtime.live.resolve": ("runtime.live.resolve_s", "runtime.live.resolves"),
    "runtime.live.swap": ("runtime.live.swap_s", "runtime.live.swaps"),
    "runtime.faults.apply": ("runtime.faults.apply_s", "runtime.faults.views"),
    "runtime.traces.batch": ("runtime.traces.batch_s", "runtime.traces.batches"),
    "core.markov.hop": ("core.markov.hop_s", "core.markov.hops"),
    "core.search.batch": ("core.search.batch_s", "core.search.batches"),
    "core.arrays.evaluate": ("core.arrays.evaluate_s", "core.arrays.evaluations"),
    "core.search.commit": ("core.search.commit_s", "core.search.commits"),
    "core.search.splice": ("core.search.splice_s", "core.search.splices"),
    "core.search.best": ("core.search.best_s", "core.search.bests"),
    "core.objective.cost": ("core.objective.cost_s", "core.objective.costs"),
    "core.objective.swap": ("core.objective.swap_s", "core.objective.swaps"),
    "core.fastpath.profile": ("core.fastpath.profile_s", "core.fastpath.profiles_built"),
    "core.bootstrap.bootstrap": ("core.bootstrap.bootstrap_s", "core.bootstrap.bootstraps"),
    "core.agrank.place": ("core.agrank.place_s", "core.agrank.placements"),
}

#: Event-queue entry points, reported together as one layer.
EVENT_OPS = ("runtime.events.schedule", "runtime.events.reschedule", "runtime.events.pop")

#: Service error codes reported one metric each (``service.errors.<code>``);
#: ``http`` counts requests that got no service answer at all.
ERROR_CODES = (
    "malformed",
    "unknown_session",
    "time_regression",
    "fault_window",
    "duplicate_session",
    "inactive_session",
    "empty_conference",
    "infeasible",
    "http",
)

#: Spans that must record calls on each workload, or the traced run
#: fails: a wrapper that never fires means a binding was missed.
MUST_FIRE = {
    "sweep-internet": (
        "fleet.sweep", "fleet.compile.compile", "fleet.compile.solve",
        "netsim.substrate", "workloads.conference", "runtime.simulation.run",
        "runtime.events.pop", "runtime.events.reschedule", "core.delay.average",
        "core.markov.hop", "core.search.batch", "core.arrays.evaluate",
        "core.fastpath.profile", "core.bootstrap.bootstrap", "core.agrank.place",
        "analysis.report.aggregate", "fleet.backends.execute",
    ),
    "sweep-churn": (
        "fleet.sweep", "fleet.spec.parse", "fleet.compile.compile",
        "fleet.backends.execute",
        "runtime.simulation.run", "runtime.events.pop", "runtime.live.arrive",
        "runtime.live.depart", "runtime.live.swap", "runtime.faults.apply",
        "runtime.traces.batch", "core.markov.hop", "core.search.splice",
        "core.objective.swap", "core.delay.average",
    ),
    "serve-http": (
        "service.request", "service.metrics.observe", "runtime.live.arrive",
        "runtime.live.depart", "runtime.live.resize", "runtime.live.refine",
        "core.search.best", "core.search.splice", "core.agrank.place",
        "fleet.compile.compile", "core.bootstrap.bootstrap",
    ),
}


class MissingSpans(CheckFailed):
    """A target that should fire on the workload recorded no calls."""


def percentile_or_highest(values, q) -> float:
    """The ``q``-th percentile, or the highest one ``values`` allow
    (short runs); 0 without enough samples for a median."""
    if len(values) < 2 * MIN_BEYOND:
        return 0.0
    return percentile(values, min(q, tail_q(len(values)))).value


def layer_metrics(
    workload: str,
    dumps: Sequence[dict],
    wall_s: float,
    workers: int = 1,
) -> dict[str, float]:
    """Per-layer metrics of one traced workload run.

    ``dumps`` are the span files of every process that took part;
    ``wall_s`` is the traced phase's wall time and ``workers`` the
    number of processes that execute units (busy-share denominator).
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    requests: dict[str, list[float]] = defaultdict(list)
    request_total = service_self = 0.0
    execute_s = 0.0
    spawn_s = []
    for dump in dumps:
        spans = dump["spans"]
        own = self_times(spans)
        for span, seconds in zip(spans, own):
            name, start, end = span[0], span[1], span[2]
            self_s[name] += seconds
            calls[name] += 1
            if name == "service.request":
                op = span[4].split(":", 1)[1]
                requests[op].append((end - start) * 1000.0)
                request_total += end - start
                service_self += seconds
            elif name == "service.metrics.observe":
                service_self += seconds
            elif name == "fleet.backends.execute":
                execute_s += end - start
        for key, value in dump["counts"].items():
            counts[key] += value
        if "spawn_s" in dump.get("meta", {}):
            spawn_s.append(dump["meta"]["spawn_s"])

    missing = [name for name in MUST_FIRE.get(workload, ()) if not calls[name]]
    if workload == "sweep-churn" and not spawn_s:
        missing.append("pool worker start-up")
    if missing:
        raise MissingSpans(f"{workload}: no calls recorded for {missing}")

    def share(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {}
    for span_name, (seconds_key, calls_key) in TIMED.items():
        metrics[seconds_key] = self_s[span_name]
        metrics[calls_key] = float(calls[span_name])
    metrics["fleet.backends.spawn_s"] = sum(spawn_s)
    metrics["fleet.backends.spawns"] = float(len(spawn_s))
    metrics["fleet.backends.busy_share"] = share(execute_s, workers * wall_s)
    metrics["netsim.substrate_hit_share"] = share(
        counts["netsim.substrate_hits"], calls["netsim.substrate"]
    )
    live_pops = counts["runtime.events.live_pops"]
    metrics["runtime.simulation.events"] = live_pops
    run_total = sum(
        end - start
        for dump in dumps
        for name, start, end, _, _ in dump["spans"]
        if name == "runtime.simulation.run"
    )
    metrics["runtime.simulation.events_per_s"] = share(live_pops, run_total)
    metrics["runtime.events.ops"] = float(sum(calls[name] for name in EVENT_OPS))
    metrics["runtime.events.busy_s"] = sum(self_s[name] for name in EVENT_OPS)
    metrics["runtime.events.live_share"] = share(
        live_pops, calls["runtime.events.schedule"]
    )
    metrics["runtime.live.refine_take_share"] = share(
        counts["runtime.live.refine_taken"], counts["runtime.live.refine_offered"]
    )
    metrics["runtime.live.fallback_share"] = share(
        calls["runtime.live.resolve"],
        calls["runtime.live.arrive"] + calls["runtime.live.resize"],
    )
    metrics["core.markov.move_share"] = share(
        counts["core.markov.moved"], calls["core.markov.hop"]
    )
    metrics["core.search.candidates"] = counts["core.search.candidates"]
    metrics["core.search.feasible_share"] = share(
        counts["core.search.feasible"], counts["core.search.candidates"]
    )
    metrics["core.arrays.candidates_per_s"] = share(
        counts["core.arrays.candidates"], self_s["core.arrays.evaluate"]
    )
    for op in ("arrive", "depart", "resize", "snapshot", "metrics"):
        values = requests.get(op, [])
        metrics[f"service.request_ms.{op}.p50"] = percentile_or_highest(values, 50)
    writes = [v for op in ("arrive", "depart", "resize") for v in requests.get(op, [])]
    reads = [v for op in ("snapshot", "metrics") for v in requests.get(op, [])]
    metrics["service.request_ms.write.p99"] = percentile_or_highest(writes, 99)
    metrics["service.request_ms.read.p95"] = percentile_or_highest(reads, 95)
    metrics["service.self_share"] = share(service_self, request_total)
    metrics["service.observe_us"] = 1e6 * share(
        self_s["service.metrics.observe"], calls["service.metrics.observe"]
    )
    metrics["trace.spans"] = float(sum(calls.values()))
    return metrics


#: Every per-layer metric, in ``BENCHMARK.json`` order.  Each traced run
#: prints all of them; a layer a workload does not reach reads 0.
PER_LAYER: tuple[str, ...] = (
    *(name for pair in TIMED.values() for name in pair),
    "fleet.backends.spawn_s",
    "fleet.backends.spawns",
    "fleet.backends.busy_share",
    "fleet.scheduler.retries",
    "fleet.scheduler.timeouts",
    "fleet.scheduler.crashes",
    "netsim.substrate_hit_share",
    "runtime.simulation.events",
    "runtime.simulation.events_per_s",
    "runtime.events.ops",
    "runtime.events.busy_s",
    "runtime.events.live_share",
    "runtime.live.refine_take_share",
    "runtime.live.fallback_share",
    "core.markov.move_share",
    "core.search.candidates",
    "core.search.feasible_share",
    "core.arrays.candidates_per_s",
    *(f"service.request_ms.{op}.p50" for op in ("arrive", "depart", "resize", "snapshot", "metrics")),
    "service.request_ms.write.p99",
    "service.request_ms.read.p95",
    "service.transport_ms.p50",
    "service.self_share",
    "service.observe_us",
    *(f"service.errors.{code}" for code in ERROR_CODES),
    "loadgen.late_p99_ms",
    "loadgen.write_p99_ms",
    "loadgen.read_p95_ms",
    "trace.spans",
    "trace.wall_s",
    "trace.remainder_s",
    "trace.remainder_share",
    "trace.overhead_share",
)


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    return "count"
