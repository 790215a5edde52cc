"""Fleet scheduler: successive-halving early abort (fewer units than
the full grid, surviving aggregates identical to an unbudgeted run,
the same decisions on every backend and under NaN metrics or crash
retries), halving plans that cannot prune rejected at parse time,
fleet-level budgets, execution-spec validation/sweepability, and
scheduling determinism."""

import json
import math

import pytest

from repro.analysis.report import canonical_results_digest
from repro.errors import SpecError
from repro.fleet.backends.base import crash_record
from repro.fleet.backends.serial import SerialBackend
from repro.fleet.matrix import expand_matrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.scheduler import FleetScheduler, substrate_affinity
from repro.fleet.spec import (
    AxisSpec,
    ExecutionSpec,
    HalvingSpec,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    WorkloadSpec,
    spec_hash,
)
from tests.conftest import with_execution

FAST_SIM = SimulationSpec(duration_s=8.0, hop_interval_mean_s=4.0, seed=3)


def grid_spec(execution: ExecutionSpec | None = None, replicates: int = 2) -> RunSpec:
    """4 beta grid points x seed replicates over a tiny prototype."""
    kwargs = {}
    if execution is not None:
        kwargs["execution"] = execution
    return RunSpec(
        name="halving-grid",
        workload=WorkloadSpec(kind="prototype", num_sessions=2),
        simulation=FAST_SIM,
        sweep=SweepSpec(
            replicates=replicates,
            axes=(AxisSpec(path="solver.beta", values=(100, 200, 400, 800)),),
        ),
        **kwargs,
    )


class TestExecutionSpec:
    def test_defaults_round_trip(self):
        spec = grid_spec()
        assert spec.execution.backend == "local"
        assert RunSpec.from_yaml(spec.to_yaml()) == spec

    @pytest.mark.parametrize("backend", ["cluster", "subprocess", "remote"])
    def test_unknown_backend_rejected(self, backend):
        """Unknown names and the removed backends fail the same way,
        from the dataclass and from a spec document alike."""
        with pytest.raises(SpecError, match="execution.backend"):
            ExecutionSpec(backend=backend)
        data = grid_spec().to_dict()
        data["execution"]["backend"] = backend
        with pytest.raises(SpecError, match="execution.backend"):
            RunSpec.from_dict(data)

    def test_negative_knobs_rejected(self):
        with pytest.raises(SpecError, match="workers"):
            ExecutionSpec(workers=-1)
        with pytest.raises(SpecError, match="unit_timeout_s"):
            ExecutionSpec(unit_timeout_s=-1.0)
        with pytest.raises(SpecError, match="max_retries"):
            ExecutionSpec(max_retries=-1)

    def test_halving_rungs_must_increase(self):
        with pytest.raises(SpecError, match="strictly increasing"):
            HalvingSpec(rungs=(2, 1))
        with pytest.raises(SpecError, match="strictly increasing"):
            HalvingSpec(rungs=(1, 1))

    def test_halving_metric_and_eta_validated(self):
        with pytest.raises(SpecError, match="halving.metric"):
            HalvingSpec(metric="hops")
        with pytest.raises(SpecError, match="halving.eta"):
            HalvingSpec(eta=1.0)

    def test_rungs_must_leave_room_to_prune(self):
        with pytest.raises(SpecError, match="stay below"):
            grid_spec(
                execution=ExecutionSpec(halving=HalvingSpec(rungs=(2,))),
                replicates=2,
            )

    @pytest.mark.parametrize(
        "replicates,axes,eta,match",
        [
            (
                1,
                (AxisSpec(path="solver.beta", values=(100, 200, 400, 800)),),
                2.0,
                "stay below",
            ),
            (3, (), 2.0, "cannot prune"),
            (
                2,
                (
                    AxisSpec(
                        path="execution.backend", values=("serial", "local")
                    ),
                ),
                2.0,
                "cannot prune",
            ),
            (
                2,
                (AxisSpec(path="solver.beta", values=(100, 200)),),
                1.5,
                "cannot prune",
            ),
        ],
        ids=["one-replicate", "one-point", "execution-axes-only", "eta-keeps-all"],
    )
    def test_halving_that_cannot_prune_rejected(
        self, replicates, axes, eta, match
    ):
        """A sweep whose halving plan could never prune a unit fails at
        parse time instead of silently running every unit: one replicate
        leaves nothing after the rung, and a rung that keeps
        ``ceil(n / eta) == n`` of its grid points drops none (one point,
        execution axes only, or two points under ``eta`` 1.5)."""
        with pytest.raises(SpecError, match=match):
            RunSpec(
                name="cannot-prune",
                workload=WorkloadSpec(kind="prototype", num_sessions=2),
                simulation=FAST_SIM,
                sweep=SweepSpec(replicates=replicates, axes=axes),
                execution=ExecutionSpec(
                    halving=HalvingSpec(rungs=(1,), eta=eta)
                ),
            )

    def test_asynchronous_halving_key_rejected(self):
        """The one halving plan has no asynchronous mode; a spec still
        setting the key fails like any unknown key."""
        data = grid_spec().to_dict()
        data["execution"]["halving"]["asynchronous"] = True
        with pytest.raises(SpecError, match="unknown key.*asynchronous"):
            RunSpec.from_dict(data)

    def test_execution_excluded_from_run_identity(self):
        """Two specs differing only in execution config denote the same
        computation: same spec hash, same unit run ids (so a resume
        cache written on one backend serves any other)."""
        plain = grid_spec()
        tuned = grid_spec(
            execution=ExecutionSpec(
                backend="pool",
                workers=8,
                unit_timeout_s=120.0,
                halving=HalvingSpec(rungs=(1,)),
            )
        )
        assert spec_hash(plain) == spec_hash(tuned)
        assert [u.run_id for u in expand_matrix(plain)] == [
            u.run_id for u in expand_matrix(tuned)
        ]

    def test_execution_axis_gets_distinct_cache_slots(self):
        """Sweeping an execution knob (backend comparisons) folds the
        axis value into the run id, so grid points do not collapse onto
        one cached record."""
        spec = RunSpec(
            name="backend-compare",
            workload=WorkloadSpec(num_sessions=2),
            simulation=FAST_SIM,
            sweep=SweepSpec(
                axes=(
                    AxisSpec(
                        path="execution.backend",
                        values=("serial", "local"),
                    ),
                )
            ),
        )
        units = expand_matrix(spec)
        assert len(units) == 2
        assert units[0].run_id != units[1].run_id
        assert [u.spec.execution.backend for u in units] == [
            "serial",
            "local",
        ]

    def test_execution_axis_executes_both_groups(self, tmp_path):
        spec = RunSpec(
            name="backend-compare",
            workload=WorkloadSpec(num_sessions=2),
            simulation=FAST_SIM,
            sweep=SweepSpec(
                axes=(
                    AxisSpec(
                        path="execution.backend",
                        values=("serial", "local"),
                    ),
                )
            ),
        )
        result = FleetOrchestrator(tmp_path / "out").run(spec)
        assert result.executed == 2 and result.failed == 0
        stripped = [
            {
                k: v
                for k, v in record.items()
                # axes and the axis-folded run_id differ by construction;
                # wall time is nondeterministic.
                if k not in ("wall_time_s", "axes", "run_id")
            }
            for record in result.records
        ]
        # Identical computation on both backends; only the axis differs.
        assert stripped[0] == stripped[1]


class TestHalving:
    def test_halved_sweep_executes_fewer_units(self, tmp_path):
        """The acceptance criterion: a successive-halving sweep executes
        provably fewer units than the full grid while surviving points'
        aggregates stay identical to the unbudgeted run."""
        full = FleetOrchestrator(tmp_path / "full").run(grid_spec())
        halved = FleetOrchestrator(tmp_path / "halved").run(
            grid_spec(execution=ExecutionSpec(halving=HalvingSpec(rungs=(1,))))
        )
        total = len(full.records)
        assert full.executed == total == 8
        # Rung 0 runs 4 points x 1 replicate; 2 survivors finish.
        assert halved.executed == 6 < full.executed
        assert halved.pruned == 2
        assert halved.executed + halved.pruned == total

        by_id = {record["run_id"]: record for record in full.records}
        survivors = [r for r in halved.records if r["status"] == "ok"]
        assert len(survivors) == 6
        for record in survivors:
            full_record = by_id[record["run_id"]]
            strip = lambda r: {
                k: v for k, v in r.items() if k != "wall_time_s"
            }
            assert strip(record) == strip(full_record)

    def test_pruned_records_are_first_class(self, tmp_path):
        result = FleetOrchestrator(tmp_path / "out").run(
            grid_spec(execution=ExecutionSpec(halving=HalvingSpec(rungs=(1,))))
        )
        pruned = [r for r in result.records if r["status"] == "pruned"]
        assert len(pruned) == 2
        for record in pruned:
            assert record["rung"] == 0
            assert record["run_id"]
            assert record["seed"] == 4  # only the second replicate pruned
            assert "solver.beta" in record["axes"]
            json.dumps(record, allow_nan=False)

    def test_halving_prunes_dominated_points(self, tmp_path):
        """The pruned points are exactly the worst-scoring half on the
        halving metric over the rung replicates."""
        result = FleetOrchestrator(tmp_path / "out").run(
            grid_spec(execution=ExecutionSpec(halving=HalvingSpec(rungs=(1,))))
        )
        rung_scores = {
            record["axes"]["solver.beta"]: record["phi"]
            for record in result.records
            if record["status"] == "ok" and record["seed"] == 3
        }
        assert len(rung_scores) == 4  # every point ran its first replicate
        pruned_betas = {
            record["axes"]["solver.beta"]
            for record in result.records
            if record["status"] == "pruned"
        }
        # The scheduler keeps ceil(4/2)=2 points ranked by (score,
        # matrix order) — ties break towards earlier grid points.
        matrix_order = [100, 200, 400, 800]
        ranked = sorted(
            matrix_order,
            key=lambda beta: (rung_scores[beta], matrix_order.index(beta)),
        )
        assert pruned_betas == set(ranked[2:])

    def test_halving_is_deterministic_on_resume(self, tmp_path):
        spec = grid_spec(
            execution=ExecutionSpec(halving=HalvingSpec(rungs=(1,)))
        )
        out = tmp_path / "out"
        first = FleetOrchestrator(out).run(spec)
        again = FleetOrchestrator(out).run(spec)
        assert again.executed == 0
        assert again.pruned == first.pruned
        assert [r["status"] for r in again.records] == [
            r["status"] for r in first.records
        ]

    def test_unbudgeted_rerun_completes_pruned_points(self, tmp_path):
        """Dropping the halving plan on a later run executes exactly the
        previously pruned replicates — the cache carries over."""
        out = tmp_path / "out"
        halved = FleetOrchestrator(out).run(
            grid_spec(execution=ExecutionSpec(halving=HalvingSpec(rungs=(1,))))
        )
        completed = FleetOrchestrator(out).run(grid_spec())
        assert completed.executed == halved.pruned
        assert completed.failed == 0
        assert all(r["status"] == "ok" for r in completed.records)

    def test_multi_rung_halving(self, tmp_path):
        """Two rungs: 4 points -> 2 -> 1; executed = 4 + 2 + 2 = 8 of 16."""
        spec = grid_spec(
            execution=ExecutionSpec(halving=HalvingSpec(rungs=(1, 2))),
            replicates=4,
        )
        result = FleetOrchestrator(tmp_path / "out").run(spec)
        assert result.executed == 4 + 2 + 2
        assert result.pruned == 16 - result.executed
        rungs = sorted(
            r["rung"] for r in result.records if r["status"] == "pruned"
        )
        assert set(rungs) == {0, 1}

    def test_report_distinguishes_pruned_from_failed(self, tmp_path):
        result = FleetOrchestrator(tmp_path / "out").run(
            grid_spec(execution=ExecutionSpec(halving=HalvingSpec(rungs=(1,))))
        )
        headline = result.format_report().splitlines()[0]
        assert "2 pruned" in headline
        assert "0 failed" in headline

        from repro.analysis.report import load_fleet_run, render_run_report

        run = load_fleet_run(tmp_path / "out")
        assert run.pruned == 2 and run.failed == 0
        assert "2 pruned" in render_run_report(run)


class TestSchedulerMechanics:
    def test_dispatch_orders_by_substrate_affinity(self):
        spec = RunSpec(
            name="affinity",
            workload=WorkloadSpec(kind="scenario", num_users=20),
            simulation=FAST_SIM,
            sweep=SweepSpec(
                replicates=2,
                axes=(
                    AxisSpec(path="topology.latency_seed", values=(7, 5, 9)),
                ),
            ),
        )
        units = expand_matrix(spec)
        ordered = sorted(units, key=substrate_affinity)
        seeds = [unit.spec.topology.latency_seed for unit in ordered]
        # Same-substrate units land back-to-back (warm-cache dispatch).
        assert seeds == sorted(seeds)
        assert ordered != units  # matrix order (7, 5, 9) was regrouped

    def test_score_treats_missing_metric_as_worst(self):
        scheduler = FleetScheduler()
        from repro.fleet.scheduler import SchedulerOutcome

        unit = expand_matrix(grid_spec())[0]
        outcome = SchedulerOutcome()
        score = scheduler._score([unit], 1, "phi", {}, outcome)
        assert math.isinf(score)
        outcome.fresh[unit.run_id] = {"status": "error", "run_id": unit.run_id}
        assert math.isinf(
            scheduler._score([unit], 1, "phi", {}, outcome)
        )
        outcome.fresh[unit.run_id] = {
            "status": "ok",
            "run_id": unit.run_id,
            "phi": 2.5,
        }
        assert scheduler._score([unit], 1, "phi", {}, outcome) == 2.5

    def test_score_treats_non_finite_metric_as_worst(self):
        """A NaN metric must rank a point *last*, never poison the sort.

        NaN passes ``isinstance(..., float)`` but compares false against
        everything, so before the finite guard one NaN record left the
        halving ranking arbitrary — a crashed point could rank as best
        and prune every healthy competitor.
        """
        scheduler = FleetScheduler()
        from repro.fleet.scheduler import SchedulerOutcome

        unit = expand_matrix(grid_spec())[0]
        outcome = SchedulerOutcome()
        for bad in (math.nan, math.inf, -math.inf, True):
            outcome.fresh[unit.run_id] = {
                "status": "ok",
                "run_id": unit.run_id,
                "phi": bad,
            }
            score = scheduler._score([unit], 1, "phi", {}, outcome)
            assert score == math.inf, f"phi={bad!r} must score worst"
        # The inf sentinel sorts deterministically behind healthy points.
        assert sorted([math.inf, 2.5, 3.5]) == [2.5, 3.5, math.inf]

    def test_replicate_index_recorded_on_units(self):
        units = expand_matrix(grid_spec())
        assert [u.replicate for u in units[:4]] == [0, 1, 0, 1]
        points = {u.point for u in units}
        assert len(points) == 4


class TestClusterExecutionSpec:
    def test_new_fields_round_trip(self):
        execution = ExecutionSpec(
            backend="pool",
            hosts=("node1", "node2"),
            worker_cmd="ssh {host} python -m repro.fleet.backends.worker --loop",
            quarantine_after=2,
            total_budget_s=3600.0,
            halving=HalvingSpec(rungs=(1,)),
        )
        spec = grid_spec(execution=execution)
        assert RunSpec.from_yaml(spec.to_yaml()) == spec

    def test_invalid_cluster_knobs_rejected(self):
        with pytest.raises(SpecError, match="total_budget_s"):
            ExecutionSpec(total_budget_s=-1.0)
        with pytest.raises(SpecError, match="total_budget_s"):
            ExecutionSpec(total_budget_s=math.inf)
        with pytest.raises(SpecError, match="quarantine_after"):
            ExecutionSpec(quarantine_after=0)
        with pytest.raises(SpecError, match="hosts"):
            ExecutionSpec(hosts=("node1", ""))
        for backend in ("serial", "local"):
            data = grid_spec().to_dict()
            data["execution"]["backend"] = backend
            data["execution"]["hosts"] = ["node1"]
            with pytest.raises(SpecError, match="hosts"):
                RunSpec.from_dict(data)


class _PoisonMetricBackend(SerialBackend):
    """Serial execution with one run's metric rewritten to NaN."""

    def __init__(self, poison_run_id: str) -> None:
        super().__init__()
        self.poison_run_id = poison_run_id

    def execute(self, payloads, timeout_s=None):
        for record in super().execute(payloads, timeout_s):
            if record.get("run_id") == self.poison_run_id:
                record = {**record, "phi": math.nan}
            yield record


class _AlwaysCrashBackend(SerialBackend):
    """Serial execution with one unit crashing on every attempt."""

    def __init__(self, crash_run_id: str) -> None:
        super().__init__()
        self.crash_run_id = crash_run_id

    def execute(self, payloads, timeout_s=None):
        for payload in payloads:
            if payload.run_id == self.crash_run_id:
                yield crash_record(payload, "synthetic crash", 0.0)
            else:
                yield from super().execute([payload], timeout_s)


class TestHalvingRobustness:
    def halved_spec(self) -> RunSpec:
        return grid_spec(
            execution=ExecutionSpec(halving=HalvingSpec(rungs=(1,)))
        )

    @pytest.mark.parametrize(
        "backend,hosts,rungs,replicates,executed",
        [
            ("serial", (), (1,), 2, 6),
            ("local", (), (1,), 2, 6),
            ("pool", (), (1,), 2, 6),
            ("pool", ("localhost", "127.0.0.1"), (1,), 2, 6),
            # 4 points -> 2 -> 1 over two rungs: 4 + 2 + 2 of 16 units.
            ("pool", (), (1, 2), 4, 8),
        ],
        ids=["serial", "local", "pool", "pool-hosts", "pool-two-rungs"],
    )
    def test_halving_agrees_across_backends(
        self, tmp_path, backend, hosts, rungs, replicates, executed
    ):
        """Record arrival order varies wildly between backends; the
        halving decisions, and so every persisted record, must not."""
        spec = grid_spec(
            execution=ExecutionSpec(halving=HalvingSpec(rungs=rungs)),
            replicates=replicates,
        )
        reference = tmp_path / "reference"
        FleetOrchestrator(reference).run(
            with_execution(spec, backend="serial")
        )
        result = FleetOrchestrator(tmp_path / "out").run(
            with_execution(spec, backend=backend, hosts=hosts, workers=2)
        )
        assert result.executed == executed
        assert result.executed + result.pruned == 4 * replicates
        assert canonical_results_digest(
            tmp_path / "out"
        ) == canonical_results_digest(reference)

    def test_halving_counts_pruned(self, tmp_path):
        """Telemetry counts each pruned unit once, and the dispatch
        table of ``repro fleet report --telemetry`` shows the count."""
        from repro.analysis.report import dispatch_stats
        from repro.telemetry import load_run_telemetry

        out = tmp_path / "out"
        FleetOrchestrator(out).run(
            with_execution(self.halved_spec(), telemetry=True)
        )
        counters = load_run_telemetry(out).fleet["counters"]
        # 4 points, keep 2: the other 2 points' second replicates.
        assert counters["scheduler.pruned"] == 2
        assert dict(dispatch_stats(counters))["units pruned by halving"] == "2"

    def test_nan_metric_is_pruned(self, tmp_path, monkeypatch):
        """The non-finite guard end to end: a NaN metric scores worst,
        never poisons the ranking, and its point is pruned."""
        from repro.fleet import scheduler as scheduler_module

        poison = expand_matrix(grid_spec())[0].run_id  # beta=100, rep 0
        monkeypatch.setattr(
            scheduler_module,
            "create_backend",
            lambda execution: _PoisonMetricBackend(poison),
        )
        result = FleetOrchestrator(tmp_path / "out").run(self.halved_spec())
        pruned_betas = {
            r["axes"]["solver.beta"]
            for r in result.records
            if r["status"] == "pruned"
        }
        assert 100 in pruned_betas

    def test_retry_exhaustion_is_pruned(self, tmp_path, monkeypatch):
        """A unit crashing through all its retries becomes an error
        record, scores inf, and its point is pruned."""
        from repro.fleet import scheduler as scheduler_module

        crash = expand_matrix(grid_spec())[0].run_id
        monkeypatch.setattr(
            scheduler_module,
            "create_backend",
            lambda execution: _AlwaysCrashBackend(crash),
        )
        result = FleetOrchestrator(tmp_path / "out").run(
            with_execution(self.halved_spec(), max_retries=1)
        )
        by_status = {}
        for record in result.records:
            by_status.setdefault(record["status"], []).append(record)
        assert len(by_status["error"]) == 1
        assert by_status["error"][0]["attempts"] == 2
        pruned_betas = {r["axes"]["solver.beta"] for r in by_status["pruned"]}
        assert 100 in pruned_betas


def starved_spec() -> RunSpec:
    """The grid on the serial backend with a fleet budget spent at once."""
    return with_execution(grid_spec(), backend="serial", total_budget_s=1e-9)


class TestFleetBudget:
    def test_spent_budget_unschedules_everything(self, tmp_path):
        out = tmp_path / "out"
        result = FleetOrchestrator(out).run(starved_spec())
        assert result.executed == 0 and result.failed == 0
        assert result.unscheduled == len(result.records) == 8
        for record in result.records:
            assert record["status"] == "unscheduled"
            assert record["schema_version"] == 6
            assert "FleetBudget" in record["error"]
            assert "total_budget_s" in record["error"]

    def test_unscheduled_is_not_failed_in_report(self, tmp_path):
        result = FleetOrchestrator(tmp_path / "out").run(starved_spec())
        headline = result.format_report().splitlines()[0]
        assert "8 unscheduled" in headline
        assert "0 failed" in headline

        from repro.analysis.report import load_fleet_run, render_run_report

        run = load_fleet_run(tmp_path / "out")
        assert run.unscheduled == 8 and run.failed == 0
        assert "8 unscheduled" in render_run_report(run)

    def test_unbudgeted_rerun_completes_unscheduled_units(self, tmp_path):
        """Unscheduled records are never cached, so rerunning without
        the budget executes exactly the starved units."""
        out = tmp_path / "out"
        starved = FleetOrchestrator(out).run(starved_spec())
        assert starved.unscheduled == 8
        completed = FleetOrchestrator(out).run(
            with_execution(grid_spec(), backend="serial")
        )
        assert completed.executed == 8 and completed.unscheduled == 0
        assert all(r["status"] == "ok" for r in completed.records)

    def test_ample_budget_changes_nothing(self, tmp_path):
        out = tmp_path / "out"
        ample = with_execution(
            grid_spec(), backend="serial", total_budget_s=3600.0
        )
        result = FleetOrchestrator(out).run(ample)
        assert result.executed == 8 and result.unscheduled == 0
        reference = tmp_path / "reference"
        FleetOrchestrator(reference).run(
            with_execution(grid_spec(), backend="serial")
        )
        assert canonical_results_digest(out) == canonical_results_digest(
            reference
        )

    def test_budget_starved_halving_unschedules_not_prunes(self, tmp_path):
        """When the budget dies mid-halving, un-run replicates are a
        resource decision (unscheduled), never a ranking decision
        (pruned on a starved rung)."""
        spec = grid_spec(
            execution=ExecutionSpec(
                halving=HalvingSpec(rungs=(1,)),
                total_budget_s=1e-9,
            )
        )
        result = FleetOrchestrator(tmp_path / "out").run(spec)
        assert result.executed == 0 and result.pruned == 0
        assert result.unscheduled == 8

    def test_spec_budget_round_trips_and_cli_override_wins(self, tmp_path):
        spec = grid_spec(
            execution=ExecutionSpec(total_budget_s=1e-9)
        )
        assert RunSpec.from_yaml(spec.to_yaml()) == spec
        # A flag's edit (``--total-budget 3600``) replaces the budget.
        result = FleetOrchestrator(tmp_path / "out").run(
            with_execution(spec, backend="serial", total_budget_s=3600.0)
        )
        assert result.executed == 8 and result.unscheduled == 0
