"""Bench: fleet orchestrator throughput — serial vs pooled execution.

Runs an 8-unit sweep matrix (2 betas x 2 hop intervals x 2 seeds) of a
tiny prototype conference through the fleet orchestrator, serially and
on a 2-process pool, and reports end-to-end runs/sec.  A third target
measures the skip/resume cache: re-running an unchanged spec must do no
solver work at all; a fourth measures the shared-substrate cache: a
solver-axis sweep synthesizes its latency matrices exactly once.  The
backend targets run the same matrix through each execution backend
(serial / local / pool) asserting identical canonical results, the
pool target records the pool's absolute runs/sec on short units, and
the halving target checks a budgeted sweep executes (and pays for)
fewer units than the full grid.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.report import canonical_results_digest
from repro.fleet.compile import compile_spec, substrate_cache_info
from repro.fleet.orchestrator import FleetOrchestrator, expand_matrix
from repro.fleet.spec import (
    AxisSpec,
    ExecutionSpec,
    HalvingSpec,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.netsim.latency import clear_substrate_cache


def _sweep_spec(seed: int) -> RunSpec:
    return RunSpec(
        name="bench-fleet",
        workload=WorkloadSpec(kind="prototype", num_sessions=2),
        simulation=SimulationSpec(
            duration_s=6.0, hop_interval_mean_s=3.0, seed=seed
        ),
        sweep=SweepSpec(
            replicates=2,
            axes=(
                AxisSpec(path="solver.beta", values=(200, 400)),
                AxisSpec(path="simulation.hop_interval_mean_s", values=(3, 6)),
            ),
        ),
    )


def _check(result, expected_runs: int) -> None:
    assert len(result.records) == expected_runs
    assert result.failed == 0


def test_fleet_serial_throughput(benchmark, tmp_path, prototype_seed):
    spec = _sweep_spec(prototype_seed)
    expected = len(expand_matrix(spec))

    counter = iter(range(1_000_000))

    def run():
        out = tmp_path / f"serial-{next(counter)}"
        return FleetOrchestrator(out, workers=1).run(spec)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _check(result, expected)
    assert result.executed == expected
    runs_per_sec = expected / benchmark.stats.stats.mean
    benchmark.extra_info["runs"] = expected
    benchmark.extra_info["runs_per_sec"] = runs_per_sec
    print(f"\n  serial: {expected} runs, {runs_per_sec:.2f} runs/sec")


def test_fleet_pooled_throughput(benchmark, tmp_path, prototype_seed):
    spec = _sweep_spec(prototype_seed)
    expected = len(expand_matrix(spec))

    counter = iter(range(1_000_000))

    def run():
        out = tmp_path / f"pooled-{next(counter)}"
        return FleetOrchestrator(out, workers=2).run(spec)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _check(result, expected)
    runs_per_sec = expected / benchmark.stats.stats.mean
    benchmark.extra_info["runs"] = expected
    benchmark.extra_info["workers"] = 2
    benchmark.extra_info["runs_per_sec"] = runs_per_sec
    print(f"\n  pooled(2): {expected} runs, {runs_per_sec:.2f} runs/sec")


def test_fleet_cache_skip(benchmark, tmp_path, prototype_seed):
    """Re-running an unchanged spec is pure cache: zero executions."""
    spec = _sweep_spec(prototype_seed)
    out = tmp_path / "cached"
    warm = FleetOrchestrator(out, workers=1).run(spec)
    _check(warm, len(expand_matrix(spec)))

    result = benchmark.pedantic(
        lambda: FleetOrchestrator(out, workers=1).run(spec),
        rounds=3,
        iterations=1,
    )
    assert result.executed == 0
    assert result.skipped == len(warm.records)
    benchmark.extra_info["cached_runs"] = result.skipped
    # A cache hit must be orders of magnitude faster than solving.
    assert benchmark.stats.stats.mean < 1.0


@pytest.mark.parametrize("backend", ["serial", "local", "pool"])
def test_fleet_backend_throughput(benchmark, tmp_path, prototype_seed, backend):
    """End-to-end runs/sec of the 8-unit matrix on each backend.

    Besides the timing, every backend must reproduce the identical
    canonical results digest — dispatch mechanics never show in the
    records.
    """
    spec = _sweep_spec(prototype_seed)
    expected = len(expand_matrix(spec))

    counter = iter(range(1_000_000))

    def run():
        out = tmp_path / f"{backend}-{next(counter)}"
        result = FleetOrchestrator(out, workers=2, backend=backend).run(spec)
        return result, canonical_results_digest(out)

    result, digest = benchmark.pedantic(run, rounds=1, iterations=1)
    _check(result, expected)
    reference_out = tmp_path / "reference"
    FleetOrchestrator(reference_out, workers=1, backend="serial").run(spec)
    assert digest == canonical_results_digest(reference_out)
    runs_per_sec = expected / benchmark.stats.stats.mean
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["runs_per_sec"] = runs_per_sec
    print(f"\n  {backend}: {expected} runs, {runs_per_sec:.2f} runs/sec")


def test_fleet_halving_executes_fewer_units(benchmark, tmp_path, prototype_seed):
    """A successive-halving sweep pays for fewer units than the grid.

    4 beta points x 2 replicates with one rung after the first
    replicate: 4 + ceil(4/2) = 6 of 8 units execute; the other 2 are
    recorded as pruned without a single solve.
    """
    spec = RunSpec(
        name="bench-halving",
        workload=WorkloadSpec(kind="prototype", num_sessions=2),
        simulation=SimulationSpec(
            duration_s=6.0, hop_interval_mean_s=3.0, seed=prototype_seed
        ),
        sweep=SweepSpec(
            replicates=2,
            axes=(AxisSpec(path="solver.beta", values=(100, 200, 400, 800)),),
        ),
        execution=ExecutionSpec(halving=HalvingSpec(rungs=(1,))),
    )
    total = len(expand_matrix(spec))

    counter = iter(range(1_000_000))

    def run():
        out = tmp_path / f"halved-{next(counter)}"
        return FleetOrchestrator(out, workers=1).run(spec)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.executed == 6 < total == 8
    assert result.pruned == 2
    assert result.failed == 0
    benchmark.extra_info["executed"] = result.executed
    benchmark.extra_info["pruned"] = result.pruned
    print(f"\n  halving: {result.executed}/{total} executed, "
          f"{result.pruned} pruned")


def test_fleet_pool_throughput(benchmark, tmp_path, prototype_seed):
    """Absolute pool runs/sec on a sweep of short units.

    The pool pays interpreter start-up + package import once per worker
    and then streams framed payloads, so a short-unit sweep is
    dominated by actual solve time.  The rate lands in ``extra_info``
    to be tracked run over run; there is no floor, and the records must
    match the serial digest.
    """
    data = _sweep_spec(prototype_seed).to_dict()
    data["sweep"]["replicates"] = 3  # 12 short units: startup dominates
    spec = RunSpec.from_dict(data)
    expected = len(expand_matrix(spec))

    counter = iter(range(1_000_000))

    def run_pool():
        out = tmp_path / f"pool-{next(counter)}"
        started = time.monotonic()
        result = FleetOrchestrator(out, workers=2, backend="pool").run(spec)
        elapsed = time.monotonic() - started
        _check(result, expected)
        assert result.executed == expected
        return elapsed, canonical_results_digest(out)

    pool_s, pool_digest = benchmark.pedantic(run_pool, rounds=1, iterations=1)
    reference_out = tmp_path / "reference"
    FleetOrchestrator(reference_out, workers=1, backend="serial").run(spec)
    assert pool_digest == canonical_results_digest(reference_out)
    benchmark.extra_info["runs"] = expected
    benchmark.extra_info["pool_s"] = round(pool_s, 3)
    benchmark.extra_info["runs_per_sec"] = round(expected / pool_s, 2)
    print(f"\n  pool: {expected} runs, {expected / pool_s:.2f} runs/sec")


def test_fleet_asha_executes_no_more_units(benchmark, tmp_path, prototype_seed):
    """Asynchronous halving never pays for more units than synchronous.

    The conservative promotion rule proves each rung decision before
    acting, so ASHA's executed-unit count is bounded by the synchronous
    plan's (the CI ceiling) and every persisted record is
    byte-identical — only the dispatch schedule changes.
    """
    def halved(asynchronous: bool) -> RunSpec:
        return RunSpec(
            name="bench-asha",
            workload=WorkloadSpec(kind="prototype", num_sessions=2),
            simulation=SimulationSpec(
                duration_s=6.0, hop_interval_mean_s=3.0, seed=prototype_seed
            ),
            sweep=SweepSpec(
                replicates=4,
                axes=(
                    AxisSpec(path="solver.beta", values=(100, 200, 400, 800)),
                ),
            ),
            execution=ExecutionSpec(
                halving=HalvingSpec(rungs=(1, 2), asynchronous=asynchronous)
            ),
        )

    sync_out = tmp_path / "sync"
    sync_result = FleetOrchestrator(sync_out, workers=2).run(halved(False))
    assert sync_result.failed == 0

    counter = iter(range(1_000_000))

    def run_asha():
        out = tmp_path / f"asha-{next(counter)}"
        return FleetOrchestrator(out, workers=2).run(halved(True)), out

    (asha_result, asha_out) = benchmark.pedantic(
        run_asha, rounds=1, iterations=1
    )
    assert asha_result.failed == 0
    assert asha_result.executed <= sync_result.executed
    assert asha_result.pruned == sync_result.pruned
    assert canonical_results_digest(asha_out) == canonical_results_digest(
        sync_out
    )
    benchmark.extra_info["sync_executed"] = sync_result.executed
    benchmark.extra_info["asha_executed"] = asha_result.executed
    print(
        f"\n  asha: {asha_result.executed} executed "
        f"(sync {sync_result.executed}), {asha_result.pruned} pruned, "
        f"records byte-identical"
    )


def test_fleet_substrate_cache_compile(benchmark):
    """Compile a 4-point solver-axis sweep: one substrate synthesis.

    The BENCH json captures warm-vs-cold compile time and the cache
    counters — the ROADMAP "Shared-substrate caching" item made real.
    """
    spec = RunSpec(
        name="bench-substrate",
        workload=WorkloadSpec(kind="scenario", num_users=60),
        topology=TopologySpec(num_user_sites=96, latency_seed=5),
        simulation=SimulationSpec(
            duration_s=6.0, hop_interval_mean_s=3.0, seed=4
        ),
        sweep=SweepSpec(
            axes=(AxisSpec(path="solver.beta", values=(100, 200, 400, 800)),)
        ),
    )
    units = expand_matrix(spec)

    def compile_all():
        clear_substrate_cache()
        for unit in units:
            compile_spec(unit.spec)
        return substrate_cache_info()

    info = benchmark.pedantic(compile_all, rounds=3, iterations=1)
    assert info["builds"] == 1
    assert info["hits"] == len(units) - 1
    benchmark.extra_info["grid_points"] = len(units)
    benchmark.extra_info["substrate_builds"] = info["builds"]
    print(
        f"\n  substrate cache: {len(units)} grid points, "
        f"{info['builds']} synthesis, {info['hits']} hits"
    )
