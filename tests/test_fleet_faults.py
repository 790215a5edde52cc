"""Fleet-level fault injection: the ``faults:`` spec section, run-id
folding, compile-time diagnostics, cross-backend byte-stability of a
canonical outage sweep, and minimal schema stamping (faulted records
stamp v4; everything else keeps its pre-fault-layer bytes)."""

import json

import pytest

from repro.analysis.report import canonical_results_digest
from repro.errors import SpecError
from repro.fleet.compile import compile_spec
from repro.fleet.matrix import expand_matrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.spec import (
    AxisSpec,
    ChaosSpec,
    FaultsSpec,
    FaultWindow,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    WorkloadSpec,
    spec_hash,
)
from tests.conftest import with_execution


def outage_spec(**kwargs) -> RunSpec:
    """The canonical resilience golden: staggered outages + migrate."""
    defaults = dict(
        name="outage-golden",
        workload=WorkloadSpec(kind="prototype", num_sessions=3),
        simulation=SimulationSpec(
            duration_s=12.0, hop_interval_mean_s=4.0, seed=3
        ),
        faults=FaultsSpec(
            policy="migrate",
            windows=(
                FaultWindow(kind="outage", site=1, start_s=3.0, end_s=8.0),
                FaultWindow(
                    kind="latency",
                    site=0,
                    start_s=5.0,
                    end_s=9.0,
                    severity=1.0,
                ),
            ),
        ),
        sweep=SweepSpec(replicates=2),
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


def plain_spec(**kwargs) -> RunSpec:
    defaults = dict(
        name="plain",
        workload=WorkloadSpec(kind="prototype", num_sessions=2),
        simulation=SimulationSpec(
            duration_s=8.0, hop_interval_mean_s=4.0, seed=3
        ),
    )
    defaults.update(kwargs)
    return RunSpec(**defaults)


def on_disk_records(out_dir) -> list[dict]:
    lines = (out_dir / "results.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


class TestFaultsSpecValidation:
    def test_windows_and_chaos_mutually_exclusive(self):
        with pytest.raises(SpecError, match="mutually exclusive"):
            FaultsSpec(
                windows=(
                    FaultWindow(kind="outage", site=0, start_s=0.0, end_s=1.0),
                ),
                chaos=ChaosSpec(rate_per_s=0.1),
            )

    def test_policy_validated(self):
        with pytest.raises(SpecError, match="policy"):
            FaultsSpec(policy="hope")

    @pytest.mark.parametrize(
        "window,rule",
        [
            ({"kind": "meteor"}, "fault kind 'meteor' is unknown"),
            ({"site": -1}, "fault site must be >= 0"),
            ({"start_s": -1.0}, "fault start must be >= 0"),
            ({"start_s": 4.0, "end_s": 4.0}, "must have end > start"),
            (
                {"kind": "capacity", "severity": 1.5},
                "capacity fault severity must be in (0, 1]",
            ),
            (
                {"kind": "latency", "severity": 0.0},
                "latency fault severity must be > 0",
            ),
        ],
        ids=["kind", "site", "start", "end", "capacity", "latency"],
    )
    def test_window_rules_are_the_fault_layer_rules(self, window, rule):
        """A spec window is checked by the runtime ``Fault`` itself, and
        the error names the spec section it came from."""
        data = plain_spec().to_dict()
        data["faults"] = {
            "windows": [
                {"kind": "outage", "site": 0, "start_s": 1.0, "end_s": 2.0}
                | window
            ]
        }
        with pytest.raises(SpecError) as raised:
            RunSpec.from_dict(data)
        assert str(raised.value).startswith("faults.windows: ")
        assert rule in str(raised.value)

    def test_chaos_severity_above_one_needs_latency_only(self):
        ChaosSpec(rate_per_s=0.1, severity=2.0, kinds=("latency",))
        with pytest.raises(SpecError, match="severity"):
            ChaosSpec(rate_per_s=0.1, severity=2.0)

    def test_yaml_round_trip(self):
        spec = outage_spec()
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.faults.enabled


class TestRunIdFolding:
    def test_empty_section_hashes_like_absent_section(self):
        """Declaring `faults: {}` must not move run ids or invalidate
        resume caches of pre-fault-layer runs."""
        bare = plain_spec()
        with_section = RunSpec.from_dict(
            {**plain_spec().to_dict(), "faults": {}}
        )
        assert spec_hash(bare) == spec_hash(with_section)
        assert [u.run_id for u in expand_matrix(bare)] == [
            u.run_id for u in expand_matrix(with_section)
        ]

    def test_fault_content_folds_into_run_ids(self):
        bare_ids = {u.run_id for u in expand_matrix(plain_spec())}
        faulted = plain_spec(
            faults=FaultsSpec(
                windows=(
                    FaultWindow(kind="outage", site=0, start_s=1.0, end_s=2.0),
                )
            )
        )
        faulted_ids = {u.run_id for u in expand_matrix(faulted)}
        assert bare_ids.isdisjoint(faulted_ids)

    def test_chaos_axis_gets_one_id_per_grid_point(self):
        spec = plain_spec(
            faults=FaultsSpec(chaos=ChaosSpec(rate_per_s=0.05)),
            sweep=SweepSpec(
                axes=(
                    AxisSpec(
                        path="faults.chaos.rate_per_s",
                        values=(0.02, 0.05, 0.1),
                    ),
                )
            ),
        )
        units = expand_matrix(spec)
        assert len(units) == 3
        assert len({u.run_id for u in units}) == 3


class TestCompileDiagnostics:
    def test_window_site_validated_against_conference(self):
        spec = plain_spec(
            faults=FaultsSpec(
                windows=(
                    FaultWindow(
                        kind="outage", site=99, start_s=1.0, end_s=2.0
                    ),
                )
            )
        )
        with pytest.raises(SpecError, match=r"faults\.windows\[0\].*site 99"):
            compile_spec(spec)

    def test_all_sites_dead_names_the_window(self):
        num_agents = compile_spec(plain_spec()).conference.num_agents
        spec = plain_spec(
            faults=FaultsSpec(
                windows=tuple(
                    FaultWindow(
                        kind="outage", site=s, start_s=2.0, end_s=10.0
                    )
                    for s in range(num_agents)
                )
            )
        )
        with pytest.raises(SpecError, match=r"kill every site during \[2, 10\]"):
            compile_spec(spec)

    def test_chaos_seed_follows_simulation_seed(self):
        """`chaos.seed: -1` (default) draws per-replicate storms; a
        pinned seed holds the schedule fixed across simulation seeds."""

        def schedule(sim_seed, chaos_seed):
            spec = plain_spec(
                simulation=SimulationSpec(
                    duration_s=8.0, hop_interval_mean_s=4.0, seed=sim_seed
                ),
                faults=FaultsSpec(
                    chaos=ChaosSpec(rate_per_s=0.5, seed=chaos_seed)
                ),
            )
            return compile_spec(spec).faults

        assert schedule(3, -1) != schedule(4, -1)
        assert schedule(3, 9) == schedule(4, 9)

    def test_disabled_section_compiles_to_no_schedule(self):
        assert compile_spec(plain_spec()).faults is None


class TestByteStability:
    def test_empty_section_digests_identically_to_absent(self, tmp_path):
        """The no-fault acceptance criterion at the results.jsonl level:
        an empty `faults:` section changes nothing on disk."""
        bare = plain_spec()
        with_section = RunSpec.from_dict({**bare.to_dict(), "faults": {}})
        FleetOrchestrator(tmp_path / "bare").run(
            with_execution(bare, backend="serial")
        )
        FleetOrchestrator(tmp_path / "empty").run(
            with_execution(with_section, backend="serial")
        )
        assert canonical_results_digest(
            tmp_path / "bare"
        ) == canonical_results_digest(tmp_path / "empty")
        for record in on_disk_records(tmp_path / "bare"):
            assert record["schema_version"] == 3
            assert "faults_injected" not in record

    def test_outage_spec_bit_identical_across_backends(self, tmp_path):
        """The faulted acceptance criterion: serial, local and pool
        agree bit-for-bit on the canonical outage spec, resilience
        metrics included."""
        digests = {}
        for backend, workers in (
            ("serial", 1),
            ("local", 2),
            ("pool", 2),
        ):
            out = tmp_path / backend
            result = FleetOrchestrator(out).run(
                with_execution(outage_spec(), workers=workers, backend=backend)
            )
            assert result.executed == 2 and result.failed == 0
            digests[backend] = canonical_results_digest(out)
        assert len(set(digests.values())) == 1, digests
        for record in on_disk_records(tmp_path / "serial"):
            assert record["schema_version"] == 4
            assert record["faults_injected"] == 2
            for metric in (
                "fault_migrations",
                "sessions_dropped",
                "sla_violation_s",
                "recovery_mean_s",
            ):
                assert metric in record

    def test_resume_cache_replays_faulted_units(self, tmp_path):
        out = tmp_path / "run"
        spec = with_execution(outage_spec(), backend="serial")
        first = FleetOrchestrator(out).run(spec)
        assert first.executed == 2
        second = FleetOrchestrator(out, resume=True).run(spec)
        assert second.executed == 0 and second.skipped == 2

    def test_report_renders_resilience_summary(self, tmp_path):
        from repro.analysis.report import load_fleet_run, render_run_report

        out = tmp_path / "run"
        FleetOrchestrator(out).run(
            with_execution(outage_spec(), backend="serial")
        )
        report = render_run_report(load_fleet_run(out))
        assert "resilience summary" in report
        assert "faults_injected" in report


class TestDropPolicyUnderChurn:
    """``faults.policy: drop`` with trace churn: a session dropped at a
    fault boundary still has its departure in the trace, and drops can
    empty the conference before the next boundary.  Both used to abort
    the run (``ModelError: session N is not active`` and ``SolverError:
    at least one active session is required``); the same spec under
    ``migrate`` always ran."""

    @staticmethod
    def spec(seed: int, policy: str = "drop") -> RunSpec:
        return RunSpec.from_dict(
            {
                "name": "drop-under-churn",
                "workload": {
                    "kind": "prototype",
                    "num_sessions": 8,
                    "min_session_size": 3,
                    "max_session_size": 4,
                },
                "churn": {
                    "initial": 4,
                    "trace": {
                        "kind": "poisson",
                        "rate_per_s": 0.3,
                        "mean_holding_s": 20,
                    },
                },
                "simulation": {
                    "duration_s": 60,
                    "hop_interval_mean_s": 4,
                    "seed": seed,
                },
                "faults": {
                    "policy": policy,
                    "chaos": {
                        "rate_per_s": 0.1,
                        "mean_duration_s": 10,
                        "severity": 0.5,
                        "kinds": ["outage"],
                    },
                },
            }
        )

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_trace_departure_of_a_dropped_session(self, seed):
        result = compile_spec(self.spec(seed)).simulator().run()
        assert result.sessions_dropped > 0
        assert result.faults_injected > 0

    @pytest.mark.parametrize("seed", [1, 10, 11])
    def test_fault_boundary_after_drops_emptied_the_conference(self, seed):
        result = compile_spec(self.spec(seed)).simulator().run()
        assert result.sessions_dropped > 0
        # Arrivals after the empty spell re-seat the solver and keep
        # hopping and sampling.
        times, counts = result.series("sessions")
        assert counts.min() >= 1
        assert times[-1] == 60.0

    def test_migrate_keeps_every_session(self):
        for seed in (1, 2):
            result = compile_spec(self.spec(seed, "migrate")).simulator().run()
            assert result.sessions_dropped == 0
