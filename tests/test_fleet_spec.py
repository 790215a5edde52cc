"""Tests for the fleet spec layer: round-trips and fail-fast validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.fleet.spec import (
    AxisSpec,
    ChurnSpec,
    ChurnWave,
    DemandSpec,
    NoiseSpec,
    RunSpec,
    SimulationSpec,
    SolverSpec,
    SweepSpec,
    TopologySpec,
    WorkloadSpec,
    dump_spec,
    load_spec,
    spec_hash,
)
from tests.conftest import with_execution


@st.composite
def run_specs(draw):
    """Random valid RunSpecs spanning both workload kinds."""
    kind = draw(st.sampled_from(["prototype", "scenario"]))
    workload = WorkloadSpec(
        kind=kind,
        num_sessions=draw(st.integers(1, 12)),
        num_users=draw(st.integers(4, 60)),
        min_session_size=2,
        max_session_size=draw(st.integers(2, 5)),
        session_locality=draw(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
        ),
        mean_bandwidth_mbps=math.inf
        if kind == "prototype"
        else draw(st.sampled_from([math.inf, 500.0, 1200.0])),
        demand=DemandSpec(
            preferred=draw(st.sampled_from(["480p", "720p", "1080p"])),
            preferred_share=draw(
                st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
            ),
            downgrade_only=draw(st.booleans()),
        ),
    )
    topology = TopologySpec(
        regions=draw(
            st.sampled_from(
                [(), ("Virginia", "Tokyo"), ("Oregon", "Ireland", "Singapore")]
            )
        ),
        num_user_sites=256 if kind == "prototype" else draw(st.integers(1, 300)),
        latency_seed=draw(st.integers(0, 2**31 - 1)),
    )
    solver = SolverSpec(
        policy=draw(st.sampled_from(["nearest", "agrank"])),
        beta=draw(st.floats(1.0, 1000.0, allow_nan=False, allow_infinity=False)),
        hop_rule=draw(st.sampled_from(["paper", "metropolis"])),
        n_ngbr=draw(st.integers(1, 4)),
    )
    noise = NoiseSpec(
        kind=draw(st.sampled_from(["none", "gaussian", "quantized"])),
        sigma=draw(st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)),
        delta=draw(st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)),
        levels=draw(st.integers(1, 8)),
    )
    simulation = SimulationSpec(
        duration_s=draw(
            st.floats(1.0, 500.0, allow_nan=False, allow_infinity=False)
        ),
        seed=draw(st.integers(0, 10_000)),
    )
    sweep = SweepSpec(
        replicates=draw(st.integers(1, 4)),
        axes=draw(
            st.sampled_from(
                [
                    (),
                    (AxisSpec(path="solver.beta", values=(200, 400)),),
                    (
                        AxisSpec(path="solver.beta", values=(200.0, 400.0)),
                        AxisSpec(
                            path="workload.session_locality", values=(0.5, 0.9)
                        ),
                    ),
                ]
            )
        ),
    )
    return RunSpec(
        name=draw(st.sampled_from(["alpha", "run-1", "big sweep"])),
        description=draw(st.sampled_from(["", "a spec"])),
        workload=workload,
        topology=topology,
        solver=solver,
        noise=noise,
        churn=draw(
            st.sampled_from(
                [
                    ChurnSpec(),
                    ChurnSpec(initial=1, waves=(ChurnWave(time_s=10, arrive=1),)),
                ]
            )
        ),
        simulation=simulation,
        sweep=sweep,
    )


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(spec=run_specs())
    def test_yaml_round_trip(self, spec):
        assert RunSpec.from_yaml(spec.to_yaml()) == spec

    @settings(max_examples=40, deadline=None)
    @given(spec=run_specs())
    def test_json_round_trip(self, spec):
        assert RunSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=20, deadline=None)
    @given(spec=run_specs())
    def test_hash_stable_across_round_trip(self, spec):
        assert spec_hash(RunSpec.from_yaml(spec.to_yaml())) == spec_hash(spec)

    def test_infinity_survives_json(self):
        spec = RunSpec(
            name="inf",
            workload=WorkloadSpec(kind="scenario", mean_bandwidth_mbps=math.inf),
        )
        back = RunSpec.from_json(spec.to_json())
        assert math.isinf(back.workload.mean_bandwidth_mbps)

    def test_file_io_yaml_and_json(self, tmp_path):
        spec = RunSpec(name="file-io")
        for suffix in (".yaml", ".json"):
            path = tmp_path / f"spec{suffix}"
            dump_spec(spec, path)
            assert load_spec(path) == spec

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_spec(tmp_path / "nope.yaml")

    def test_constructor_scalars_normalized(self):
        # ints where floats are declared compare equal after parsing
        a = RunSpec(name="n", solver=SolverSpec(beta=200))
        b = RunSpec.from_yaml(a.to_yaml())
        assert a == b and isinstance(b.solver.beta, float)


class TestValidation:
    def test_unknown_region_rejected(self):
        with pytest.raises(SpecError, match="unknown cloud region"):
            TopologySpec(regions=("Atlantis",))

    def test_unknown_region_keeps_cause_chain(self):
        """The region check narrows to ModelError and chains the lookup
        failure (``from error``, not ``from None``), so the diagnostic
        shows *why* the catalog rejected the name."""
        from repro.errors import ModelError

        with pytest.raises(SpecError) as excinfo:
            TopologySpec(regions=("Atlantis",))
        assert isinstance(excinfo.value.__cause__, ModelError)
        assert "Atlantis" in str(excinfo.value.__cause__)

    def test_region_check_propagates_programming_errors(self, monkeypatch):
        """A non-ModelError failure inside region() is a bug, not an
        unknown region — it must surface as itself, never be rewritten
        into the 'unknown cloud region' diagnostic."""
        import repro.fleet.spec as spec_module

        def boom(name):
            raise RuntimeError("catalog corrupted")

        monkeypatch.setattr(spec_module, "region", boom)
        with pytest.raises(RuntimeError, match="catalog corrupted"):
            TopologySpec(regions=("Frankfurt",))

    def test_unknown_user_site_rejected(self):
        with pytest.raises(SpecError, match="unknown user site"):
            TopologySpec(user_sites=("Gotham City",))

    def test_negative_horizon_rejected(self):
        with pytest.raises(SpecError, match="duration_s must be positive"):
            SimulationSpec(duration_s=-10.0)

    def test_zero_sample_interval_rejected(self):
        with pytest.raises(SpecError, match="sample_interval_s"):
            SimulationSpec(sample_interval_s=0.0)

    def test_unknown_solver_policy_rejected(self):
        with pytest.raises(SpecError, match="solver.policy"):
            SolverSpec(policy="simulated-annealing")

    def test_unknown_hop_rule_rejected(self):
        with pytest.raises(SpecError, match="hop_rule"):
            SolverSpec(hop_rule="greedy")

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(SpecError, match="workload.kind"):
            WorkloadSpec(kind="planet-scale")

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(SpecError, match="noise.kind"):
            NoiseSpec(kind="cauchy")

    def test_bad_preferred_share_rejected(self):
        with pytest.raises(SpecError, match="preferred_share"):
            DemandSpec(preferred_share=1.5)

    def test_unknown_representation_rejected(self):
        with pytest.raises(SpecError, match="ladder"):
            DemandSpec(preferred="4K")

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            RunSpec.from_yaml("name: x\nsolvr: {}\n")

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(SpecError, match="spec.solver"):
            RunSpec.from_yaml("name: x\nsolver: {betta: 100}\n")

    def test_non_numeric_beta_rejected(self):
        with pytest.raises(SpecError, match="expected a number"):
            RunSpec.from_yaml("name: x\nsolver: {beta: fast}\n")

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SpecError, match="not a registered experiment"):
            RunSpec(name="x", artifact="fig99")

    def test_known_artifact_accepted(self):
        assert RunSpec(name="x", artifact="fig4").artifact == "fig4"

    def test_prototype_with_capacity_rejected(self):
        with pytest.raises(SpecError, match="capacity envelopes"):
            RunSpec(
                name="x",
                workload=WorkloadSpec(kind="prototype", mean_bandwidth_mbps=500.0),
            )

    def test_prototype_with_site_pool_rejected(self):
        with pytest.raises(SpecError, match="scenario workloads only"):
            RunSpec(
                name="x",
                workload=WorkloadSpec(kind="prototype"),
                topology=TopologySpec(num_user_sites=50),
            )

    def test_scenario_with_user_sites_rejected(self):
        with pytest.raises(SpecError, match="prototype workloads only"):
            RunSpec(
                name="x",
                workload=WorkloadSpec(kind="scenario"),
                topology=TopologySpec(user_sites=("Berkeley, CA",)),
            )

    def test_bad_sweep_path_rejected(self):
        with pytest.raises(SpecError, match="does not resolve"):
            RunSpec(
                name="x",
                sweep=SweepSpec(
                    axes=(AxisSpec(path="solver.betamax", values=(1,)),)
                ),
            )

    def test_sweep_outside_sections_rejected(self):
        with pytest.raises(SpecError, match="must start with"):
            RunSpec(
                name="x", sweep=SweepSpec(axes=(AxisSpec(path="name", values=(1,)),))
            )

    def test_seed_axis_reserved(self):
        with pytest.raises(SpecError, match="reserved"):
            RunSpec(
                name="x",
                sweep=SweepSpec(
                    axes=(AxisSpec(path="simulation.seed", values=(1, 2)),)
                ),
            )

    def test_section_axis_rejected(self):
        with pytest.raises(SpecError, match="scalar field"):
            RunSpec(
                name="x",
                sweep=SweepSpec(
                    axes=(AxisSpec(path="workload.demand", values=(1,)),)
                ),
            )

    def test_duplicate_axes_rejected(self):
        with pytest.raises(SpecError, match="repeat"):
            SweepSpec(
                axes=(
                    AxisSpec(path="solver.beta", values=(1,)),
                    AxisSpec(path="solver.beta", values=(2,)),
                )
            )

    def test_empty_axis_values_rejected(self):
        with pytest.raises(SpecError, match="at least one value"):
            AxisSpec(path="solver.beta", values=())

    def test_churn_waves_need_reserve(self):
        with pytest.raises(SpecError, match="reserve pool"):
            ChurnSpec(waves=(ChurnWave(time_s=5.0, arrive=1),))

    def test_negative_wave_time_rejected(self):
        with pytest.raises(SpecError, match="wave time"):
            ChurnWave(time_s=-1.0)

    def test_wave_at_t0_rejected_naming_churn_initial(self):
        """A t=0 arrival is an initial session: a t=0 wave would not
        survive writing the schedule out as a trace."""
        with pytest.raises(SpecError, match="wave time must be > 0.*churn.initial"):
            ChurnWave(time_s=0.0, arrive=2)

    def test_empty_name_rejected(self):
        with pytest.raises(SpecError, match="name"):
            RunSpec(name="")

    def test_missing_name_rejected_as_spec_error(self):
        with pytest.raises(SpecError, match="missing required field"):
            RunSpec.from_yaml("workload: {kind: prototype}\n")

    def test_empty_document_rejected_as_spec_error(self):
        with pytest.raises(SpecError, match="missing required field"):
            RunSpec.from_yaml("")

    def test_nan_rejected(self):
        with pytest.raises(SpecError, match="NaN"):
            RunSpec.from_yaml("name: x\nsimulation: {duration_s: .nan}\n")
        with pytest.raises(SpecError, match="NaN"):
            SimulationSpec(duration_s=float("nan"))
        with pytest.raises(SpecError, match="NaN"):
            RunSpec.from_yaml('name: x\nsolver: {beta: "nan"}\n')

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(SpecError, match="repeats a value"):
            AxisSpec(path="solver.beta", values=(200, 200))


class TestOverridesAndHash:
    def test_with_overrides_changes_field_and_drops_sweep(self):
        spec = RunSpec(
            name="x",
            sweep=SweepSpec(axes=(AxisSpec(path="solver.beta", values=(200,)),)),
        )
        resolved = spec.with_overrides({"solver.beta": 200, "simulation.seed": 9})
        assert resolved.solver.beta == 200.0
        assert resolved.simulation.seed == 9
        assert not resolved.sweep.axes

    def test_override_bad_path_rejected(self):
        with pytest.raises(SpecError, match="no such field"):
            RunSpec(name="x").with_overrides({"solver.nope": 1})

    def test_hash_differs_on_change(self):
        base = RunSpec(name="x")
        assert spec_hash(base) != spec_hash(
            base.with_overrides({"solver.beta": 123})
        )


class TestYamlLoader:
    """Spec reads go through libyaml's ``CSafeLoader`` when PyYAML has
    it; the values (and so every content hash) match the pure-Python
    ``SafeLoader``, which remains the fallback."""

    @staticmethod
    def both(text):
        import yaml

        loaders = [yaml.SafeLoader]
        if hasattr(yaml, "CSafeLoader"):
            loaders.append(yaml.CSafeLoader)
        return [yaml.load(text, Loader=loader) for loader in loaders]

    def test_library_specs_load_identically(self):
        from repro.fleet.library import library_dir, library_spec_names

        from repro.fleet.spec import load_yaml

        for name in library_spec_names():
            text = (library_dir() / f"{name}.yaml").read_text(encoding="utf-8")
            parsed = self.both(text)
            assert all(value == parsed[0] for value in parsed), name
            assert load_yaml(text) == parsed[0], name

    def test_stored_spec_loads_identically(self, tmp_path):
        from repro.analysis.report import load_fleet_run
        from repro.fleet.library import load_library_spec
        from repro.fleet.orchestrator import FleetOrchestrator

        spec = load_library_spec("prototype_smoke").with_overrides(
            {"simulation.duration_s": 4.0, "workload.num_sessions": 2}
        )
        spec = with_execution(spec, backend="serial")
        FleetOrchestrator(tmp_path).run(spec)
        text = (tmp_path / "spec.yaml").read_text(encoding="utf-8")
        parsed = self.both(text)
        assert all(value == parsed[0] for value in parsed)
        stored = load_fleet_run(tmp_path).spec
        assert stored == spec
        assert spec_hash(stored) == spec_hash(spec)

    def test_scalars_coerce_identically(self):
        for raw in ["200", "2.5", "1e3", "1.0e3", ".inf", "-.inf", "inf",
                    "true", "yes", "off", "null", "~", "0x10", "0o17",
                    "2026-10-17", "'quoted'", "a b", "[1, 2]", "{a: 1}"]:
            parsed = self.both(raw)
            assert all(repr(value) == repr(parsed[0]) for value in parsed), raw

    def test_fallback_without_libyaml(self, monkeypatch):
        import yaml

        from repro.cli import _parse_scalar
        from repro.fleet.library import load_library_spec

        used = []
        real_load = yaml.load

        def spy(stream, Loader):
            used.append(Loader)
            return real_load(stream, Loader=Loader)

        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        monkeypatch.setattr(yaml, "load", spy)
        spec = load_library_spec("chaos_storm")
        assert RunSpec.from_yaml(spec.to_yaml()) == spec
        assert _parse_scalar("1e3") == "1e3" and _parse_scalar("200") == 200
        assert used and set(used) == {yaml.SafeLoader}

    @pytest.mark.parametrize("fallback", [False, True])
    def test_bad_document_raises_spec_error(self, monkeypatch, fallback):
        import yaml

        if fallback:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        with pytest.raises(SpecError, match="not valid YAML"):
            RunSpec.from_yaml("name: [unclosed\nworkload: {kind: prototype")
