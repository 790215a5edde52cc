"""Tests for the fleet compiler: spec -> concrete engine objects."""

import gc
import math
import weakref

import pytest

from repro.core.agrank import AgRankConfig
from repro.errors import SpecError
from repro.experiments.common import effective_beta
from repro.fleet.compile import compile_spec, execute_spec
from repro.fleet.library import library_spec_names, load_library_spec
from repro.fleet.orchestrator import expand_matrix
from repro.fleet.spec import (
    ChurnSpec,
    ChurnWave,
    NoiseSpec,
    RunSpec,
    SimulationSpec,
    SolverSpec,
    SweepSpec,
    AxisSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.netsim.noise import GaussianNoise, QuantizedPerturbation

FAST_SIM = SimulationSpec(duration_s=10.0, hop_interval_mean_s=5.0, seed=3)


def small_prototype(**kwargs) -> RunSpec:
    defaults = dict(
        name="t",
        workload=WorkloadSpec(kind="prototype", num_sessions=3),
        simulation=FAST_SIM,
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestCompile:
    def test_prototype_compiles(self):
        compiled = compile_spec(small_prototype())
        assert compiled.conference.num_agents == 6
        assert compiled.conference.num_sessions == 3
        assert compiled.config.markov.beta == effective_beta(400.0)
        assert compiled.noise is None

    def test_scenario_compiles_with_custom_regions(self):
        spec = RunSpec(
            name="t",
            workload=WorkloadSpec(kind="scenario", num_users=20),
            topology=TopologySpec(
                regions=("Virginia", "Sydney"), num_user_sites=16
            ),
            simulation=FAST_SIM,
        )
        compiled = compile_spec(spec)
        assert compiled.conference.num_agents == 2
        names = {agent.name for agent in compiled.conference.agents}
        assert names == {"Virginia", "Sydney"}

    def test_scenario_capacity_envelopes_applied(self):
        spec = RunSpec(
            name="t",
            workload=WorkloadSpec(
                kind="scenario",
                num_users=20,
                mean_bandwidth_mbps=800.0,
                mean_transcode_slots=40.0,
            ),
            topology=TopologySpec(num_user_sites=16),
            simulation=FAST_SIM,
        )
        compiled = compile_spec(spec)
        for agent in compiled.conference.agents:
            assert not math.isinf(agent.upload_mbps)
            assert not math.isinf(agent.transcode_slots)

    def test_agrank_policy_builds_config(self):
        compiled = compile_spec(
            small_prototype(solver=SolverSpec(policy="agrank", n_ngbr=3))
        )
        assert compiled.config.initial_policy == "agrank"
        assert compiled.config.agrank == AgRankConfig(n_ngbr=3)

    def test_noise_models_resolve(self):
        gauss = compile_spec(
            small_prototype(noise=NoiseSpec(kind="gaussian", sigma=0.1))
        )
        assert isinstance(gauss.noise, GaussianNoise)
        quant = compile_spec(
            small_prototype(noise=NoiseSpec(kind="quantized", delta=0.2, levels=2))
        )
        assert isinstance(quant.noise, QuantizedPerturbation)
        zero = compile_spec(
            small_prototype(noise=NoiseSpec(kind="gaussian", sigma=0.0))
        )
        assert zero.noise is None

    def test_churn_schedule_resolves(self):
        spec = small_prototype(
            workload=WorkloadSpec(kind="prototype", num_sessions=4),
            churn=ChurnSpec(
                initial=2,
                waves=(ChurnWave(time_s=2.0, arrive=2, depart=1),),
            ),
        )
        schedule = compile_spec(spec).schedule
        assert schedule.initial_sids == (0, 1)
        assert len(schedule.events) == 3

    def test_infeasible_churn_fails_fast(self):
        spec = small_prototype(
            workload=WorkloadSpec(kind="prototype", num_sessions=2),
            churn=ChurnSpec(
                initial=1, waves=(ChurnWave(time_s=2.0, arrive=5),)
            ),
        )
        with pytest.raises(SpecError, match="churn plan infeasible"):
            compile_spec(spec)

    def test_sweep_spec_must_be_expanded_first(self):
        spec = small_prototype(
            sweep=SweepSpec(axes=(AxisSpec(path="solver.beta", values=(200,)),))
        )
        with pytest.raises(SpecError, match="expand"):
            compile_spec(spec)
        resolved = expand_matrix(spec)
        assert len(resolved) == 1
        compile_spec(resolved[0].spec)  # expanded unit compiles


class TestExecute:
    def test_execute_returns_json_safe_record(self):
        import json

        record = execute_spec(small_prototype())
        assert record["num_sessions"] == 3
        assert record["traffic_mbps"] >= 0.0
        assert record["delay_ms"] > 0.0
        assert record["schema_version"] >= 1
        # Strict-JSON safe: round-trips without NaN/Infinity literals.
        assert json.loads(json.dumps(record, allow_nan=False)) == record
        series = record["series"]
        assert set(series) == {"traffic", "delay", "phi"}
        for payload in series.values():
            assert len(payload["t"]) == len(payload["v"]) <= 32

    def test_execute_deterministic_under_seed(self):
        a = execute_spec(small_prototype())
        b = execute_spec(small_prototype())
        assert a == b

    def test_failed_unit_record_carries_traceback(self):
        """One-bad-unit diagnostics: the error record keeps the formatted
        traceback (schema-v5 envelope field), so a fleet failure is
        diagnosable from results.jsonl alone."""
        from repro.analysis.report import (
            record_schema_version,
            validate_record,
        )
        from repro.fleet.compile import execute_payload

        bad = small_prototype().to_dict()
        bad["workload"]["num_sessions"] = 0  # fails validation in-worker
        record = execute_payload("unit-1", bad, axes={}, seed=3)
        assert record["status"] == "error"
        assert record["error"].startswith("SpecError")
        assert "Traceback (most recent call last)" in record["traceback"]
        assert "SpecError" in record["traceback"]
        assert record["schema_version"] == 5
        assert record_schema_version(record) == 5
        validate_record(record)  # the field is schema-registered

    def test_traceback_is_digest_volatile(self, tmp_path):
        """Tracebacks name worker-specific frames, so the canonical
        results digest must ignore them (backends still compare equal)."""
        import json

        from repro.analysis.report import canonical_results_digest
        from repro.fleet.compile import execute_payload

        bad = small_prototype().to_dict()
        bad["workload"]["num_sessions"] = 0
        record = execute_payload("unit-1", bad, axes={}, seed=3)
        for out, mutate in (("a", False), ("b", True)):
            out_dir = tmp_path / out
            out_dir.mkdir()
            shaped = dict(record)
            if mutate:
                shaped["traceback"] = "File worker.py, line 1\nboom"
                shaped["wall_time_s"] = 123.0
            (out_dir / "results.jsonl").write_text(
                json.dumps(shaped, sort_keys=True) + "\n", encoding="utf-8"
            )
        assert canonical_results_digest(
            tmp_path / "a"
        ) == canonical_results_digest(tmp_path / "b")


#: Units whose state must be freed by reference counting: an
#: Internet-style scenario draw, and a prototype with trace churn and
#: chaos faults under ``migrate``, which builds and replaces fault views.
LIFETIME_UNITS = {
    "scenario": {
        "name": "lifetime-scenario",
        "workload": {"kind": "scenario", "num_users": 40},
        "topology": {"num_user_sites": 32},
        "solver": {"policy": "agrank"},
        "simulation": {"duration_s": 10, "hop_interval_mean_s": 4, "seed": 3},
    },
    "churn-chaos": {
        "name": "lifetime-churn-chaos",
        "workload": {
            "kind": "prototype",
            "num_sessions": 8,
            "min_session_size": 3,
            "max_session_size": 4,
        },
        "churn": {
            "initial": 4,
            "trace": {"kind": "poisson", "rate_per_s": 0.3, "mean_holding_s": 20},
        },
        "faults": {
            "policy": "migrate",
            "chaos": {"rate_per_s": 0.1, "mean_duration_s": 10, "severity": 0.5},
        },
        "simulation": {"duration_s": 60, "hop_interval_mean_s": 4, "seed": 2},
    },
}


class TestUnitLifetime:
    """A unit's conference, profile, kernel layouts and fault views form
    no reference cycle, so they are freed as the unit returns (and a
    fault view as it is swapped out), with the collector off."""

    @pytest.mark.parametrize("unit", sorted(LIFETIME_UNITS))
    def test_unit_leaves_no_cyclic_garbage(self, unit, monkeypatch):
        import repro.runtime.simulation as simulation

        spec = RunSpec.from_dict(LIFETIME_UNITS[unit])
        execute_spec(spec)  # first-run imports and caches
        views: list[weakref.ref] = []
        alive_at_build: list[int] = []
        apply_faults = simulation.apply_faults

        def tracked(*args, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in views))
            view = apply_faults(*args, **kwargs)
            views.append(weakref.ref(view))
            return view

        monkeypatch.setattr(simulation, "apply_faults", tracked)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            record = execute_spec(spec)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        if unit == "churn-chaos":
            assert record["faults_injected"] > 0
            assert len(views) > 2
            # Only the view in use is alive when the next one is built.
            assert max(alive_at_build) == 1
        assert all(ref() is None for ref in views)


class TestLibrary:
    def test_library_has_six_specs(self):
        assert len(library_spec_names()) >= 6

    def test_every_library_spec_parses_and_expands(self):
        for name in library_spec_names():
            spec = load_library_spec(name)
            assert spec.name == name
            units = expand_matrix(spec)
            assert units
            assert len({unit.run_id for unit in units}) == len(units)

    def test_unknown_library_spec_rejected(self):
        with pytest.raises(SpecError, match="unknown library spec"):
            load_library_spec("does_not_exist")

    def test_artifact_references_resolve_via_registry(self):
        from repro.experiments.registry import experiment_ids

        referenced = [
            load_library_spec(name).artifact for name in library_spec_names()
        ]
        assert any(referenced), "library should link some paper artifacts"
        for artifact in filter(None, referenced):
            assert artifact in experiment_ids()
