"""Tests for the shared latency-substrate cache (ROADMAP
"Shared-substrate caching").

Fleet sweeps compile one scenario per grid point; when only solver or
simulation knobs vary, the latency substrate is identical across points
and must be synthesized exactly once per process.  Correctness bar: a
warm cache changes nothing about the results — records are byte-identical
to a cold run (modulo wall time).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fleet.compile import compile_spec, substrate_cache_info
from repro.fleet.orchestrator import FleetOrchestrator, expand_matrix
from repro.fleet.scheduler import substrate_affinity
from repro.fleet.spec import (
    AxisSpec,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.netsim.latency import (
    LatencyModel,
    clear_substrate_cache,
    substrate_cache_stats,
    substrate_matrices,
)
from repro.netsim.sites import region, sample_user_sites
from tests.conftest import with_execution


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from cross-test cache state."""
    clear_substrate_cache()
    yield
    clear_substrate_cache()


@pytest.fixture()
def synthesis_spy(monkeypatch):
    """Count actual matrix syntheses through the LatencyModel kernels."""
    calls = {"inter_agent": 0, "agent_user": 0}
    original_inter = LatencyModel.inter_agent_matrix
    original_user = LatencyModel.agent_user_matrix

    def counting_inter(self, regions):
        calls["inter_agent"] += 1
        return original_inter(self, regions)

    def counting_user(self, regions, sites):
        calls["agent_user"] += 1
        return original_user(self, regions, sites)

    monkeypatch.setattr(LatencyModel, "inter_agent_matrix", counting_inter)
    monkeypatch.setattr(LatencyModel, "agent_user_matrix", counting_user)
    return calls


def sweep_spec(latency_seed: int = 99, replicates: int = 1) -> RunSpec:
    """A solver-axis sweep: every grid point shares the substrate."""
    return RunSpec(
        name="substrate-sweep",
        workload=WorkloadSpec(kind="scenario", num_users=12),
        topology=TopologySpec(num_user_sites=24, latency_seed=latency_seed),
        simulation=SimulationSpec(duration_s=6.0, hop_interval_mean_s=3.0, seed=2),
        sweep=SweepSpec(
            replicates=replicates,
            axes=(AxisSpec(path="solver.beta", values=(100, 200, 400)),),
        ),
    )


class TestSubstrateMemo:
    def test_same_key_synthesizes_once(self, synthesis_spy):
        regions = [region(n) for n in ("Virginia", "Tokyo")]
        sites = sample_user_sites(8, np.random.default_rng(0))
        model = LatencyModel(seed=5)
        first = substrate_matrices(model, regions, sites)
        second = substrate_matrices(LatencyModel(seed=5), regions, sites)
        assert synthesis_spy["inter_agent"] == 1
        assert synthesis_spy["agent_user"] == 1
        assert first[0] is second[0] and first[1] is second[1]
        stats = substrate_cache_stats()
        assert stats["builds"] == 1 and stats["hits"] == 1

    def test_different_seed_or_sites_do_not_share(self, synthesis_spy):
        regions = [region(n) for n in ("Virginia", "Tokyo")]
        sites = sample_user_sites(8, np.random.default_rng(0))
        base = substrate_matrices(LatencyModel(seed=5), regions, sites)
        other_seed = substrate_matrices(LatencyModel(seed=6), regions, sites)
        other_sites = substrate_matrices(
            LatencyModel(seed=5), regions, sites[:-1]
        )
        assert synthesis_spy["inter_agent"] == 3
        assert not np.array_equal(base[0], other_seed[0])
        assert base[1].shape != other_sites[1].shape
        assert substrate_cache_stats()["builds"] == 3

    def test_cached_matrices_are_read_only(self):
        regions = [region(n) for n in ("Virginia", "Tokyo")]
        sites = sample_user_sites(4, np.random.default_rng(1))
        inter_agent, agent_user = substrate_matrices(
            LatencyModel(seed=3), regions, sites
        )
        with pytest.raises(ValueError):
            inter_agent[0, 1] = 1.0
        with pytest.raises(ValueError):
            agent_user[0, 0] = 1.0

    def test_eviction_is_lru_not_fifo(self, synthesis_spy, monkeypatch):
        """A hit must promote its entry: with the cache full, the *least
        recently used* substrate is evicted, not the oldest-inserted one
        (the FIFO regression rebuilt a sweep's hottest substrate on
        every grid point once the working set exceeded the limit)."""
        import repro.netsim.latency as latency_module

        monkeypatch.setattr(latency_module, "_SUBSTRATE_CACHE_LIMIT", 2)
        regions = [region("Virginia"), region("Tokyo")]
        sites = sample_user_sites(4, np.random.default_rng(1))
        model_a, model_b, model_c = (LatencyModel(seed=s) for s in (1, 2, 3))

        first_a = substrate_matrices(model_a, regions, sites)
        substrate_matrices(model_b, regions, sites)
        # Touch A: under LRU the next eviction must take B.
        substrate_matrices(model_a, regions, sites)
        substrate_matrices(model_c, regions, sites)
        assert synthesis_spy["inter_agent"] == 3

        # A survived the eviction (FIFO would have dropped it) ...
        again_a = substrate_matrices(model_a, regions, sites)
        assert synthesis_spy["inter_agent"] == 3
        assert again_a[0] is first_a[0]
        # ... and B is the one that was evicted.
        substrate_matrices(model_b, regions, sites)
        assert synthesis_spy["inter_agent"] == 4
        assert substrate_cache_stats()["entries"] == 2

    def test_clear_resets_counters(self):
        regions = [region("Virginia"), region("Tokyo")]
        sites = sample_user_sites(4, np.random.default_rng(1))
        substrate_matrices(LatencyModel(seed=3), regions, sites)
        clear_substrate_cache()
        stats = substrate_cache_stats()
        assert stats == {"builds": 0, "hits": 0, "entries": 0}


class TestFleetCompileSharing:
    def test_grid_points_share_one_substrate(self, synthesis_spy):
        units = expand_matrix(sweep_spec())
        assert len(units) == 3
        for unit in units:
            compile_spec(unit.spec)
        # One synthesis for three grid points: the sweep only varies beta.
        assert synthesis_spy["inter_agent"] == 1
        assert synthesis_spy["agent_user"] == 1
        info = substrate_cache_info()
        assert info["builds"] == 1
        assert info["hits"] == 2

    def test_distinct_latency_seeds_compile_distinct_substrates(self, synthesis_spy):
        compile_spec(expand_matrix(sweep_spec(latency_seed=99))[0].spec)
        compile_spec(expand_matrix(sweep_spec(latency_seed=100))[0].spec)
        assert synthesis_spy["inter_agent"] == 2
        assert substrate_cache_info()["builds"] == 2

    def test_seed_replicates_do_not_share_site_draws(self, synthesis_spy):
        """Replicates redraw users (different sites) -> separate entries."""
        units = expand_matrix(
            RunSpec(
                name="replicated",
                workload=WorkloadSpec(kind="scenario", num_users=10),
                topology=TopologySpec(num_user_sites=16, latency_seed=1),
                simulation=SimulationSpec(
                    duration_s=6.0, hop_interval_mean_s=3.0, seed=0
                ),
                sweep=SweepSpec(replicates=2),
            )
        )
        for unit in units:
            compile_spec(unit.spec)
        assert substrate_cache_info()["builds"] == 2

    def test_compiled_conference_identical_with_and_without_cache(self):
        spec = expand_matrix(sweep_spec())[0].spec
        cold = compile_spec(spec).conference
        warm = compile_spec(spec).conference  # second compile hits the cache
        assert np.array_equal(
            cold.topology.inter_agent_ms, warm.topology.inter_agent_ms
        )
        assert np.array_equal(
            cold.topology.agent_user_ms, warm.topology.agent_user_ms
        )
        # The model layer copies on ingest: cache hits share no state.
        assert cold.topology.inter_agent_ms is not warm.topology.inter_agent_ms


class TestFaultViewsKeepCachePristine:
    """Fault injection builds substrate *views*; the shared cache (and
    every conference compiled from it) must never see faulted values."""

    def faulted_spec(self) -> RunSpec:
        data = sweep_spec().to_dict()
        data["name"] = "substrate-chaos"
        data["sweep"] = {}
        data["faults"] = {
            "policy": "migrate",
            "chaos": {"rate_per_s": 1.0, "mean_duration_s": 3.0, "seed": 5},
        }
        return RunSpec.from_dict(data)

    def test_chaos_run_leaves_cached_matrices_pristine(self, synthesis_spy):
        from repro.fleet.compile import execute_spec

        clean = expand_matrix(sweep_spec())[0].spec
        cold = compile_spec(clean).conference
        cold_inter = cold.topology.inter_agent_ms.copy()
        cold_user = cold.topology.agent_user_ms.copy()
        assert synthesis_spy["inter_agent"] == 1

        # Simulate under chaos: every fault boundary derives a view from
        # the cached substrate.  An in-place mutation would either raise
        # (the cached arrays are write-protected) or corrupt what the
        # clean compile below reads back.
        record = execute_spec(self.faulted_spec())
        assert record["faults_injected"] > 0

        warm = compile_spec(clean).conference
        assert synthesis_spy["inter_agent"] == 1  # served from cache
        assert np.array_equal(warm.topology.inter_agent_ms, cold_inter)
        assert np.array_equal(warm.topology.agent_user_ms, cold_user)

    def test_faulted_and_clean_units_share_the_substrate(self, synthesis_spy):
        """A faults section changes computation, not the substrate key:
        faulted and clean grid points still compile against one cache
        entry."""
        compile_spec(self.faulted_spec())
        compile_spec(expand_matrix(sweep_spec())[0].spec)
        assert synthesis_spy["inter_agent"] == 1
        assert substrate_cache_info()["hits"] >= 1


def _normalized_lines(path):
    """results.jsonl lines with the only nondeterministic field removed."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("wall_time_s", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


class TestOrchestratorWithCache:
    def test_warm_cache_runs_are_byte_identical(self, tmp_path):
        spec = with_execution(sweep_spec(replicates=2), workers=1)
        cold_result = FleetOrchestrator(tmp_path / "cold").run(spec)
        assert cold_result.failed == 0
        # Substrate cache is now warm; a second fleet must produce
        # byte-identical solver output.
        warm_result = FleetOrchestrator(tmp_path / "warm").run(spec)
        assert warm_result.failed == 0
        cold_lines = _normalized_lines(cold_result.results_path)
        warm_lines = _normalized_lines(warm_result.results_path)
        assert cold_lines == warm_lines

    def test_pending_units_ordered_by_substrate_affinity(self):
        spec = RunSpec(
            name="affinity",
            workload=WorkloadSpec(kind="scenario", num_users=10),
            topology=TopologySpec(num_user_sites=16),
            simulation=SimulationSpec(
                duration_s=6.0, hop_interval_mean_s=3.0, seed=0
            ),
            sweep=SweepSpec(
                replicates=2,
                axes=(AxisSpec(path="solver.beta", values=(200, 400)),),
            ),
        )
        units = expand_matrix(spec)
        ordered = sorted(units, key=substrate_affinity)
        seeds = [unit.seed for unit in ordered]
        # Same-substrate (same seed) units are adjacent after ordering.
        assert seeds == sorted(seeds)
