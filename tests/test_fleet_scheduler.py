"""Fleet scheduler: successive-halving early abort (fewer units than
the full grid, surviving aggregates identical to an unbudgeted run),
asynchronous halving's byte-identity guarantee, fleet-level budgets,
execution-spec validation/sweepability, and scheduling determinism."""

import json
import math
from dataclasses import replace

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

    def test_scheduler_overrides_trump_spec(self):
        scheduler = FleetScheduler(backend="serial", workers=7)
        unit = expand_matrix(grid_spec())[0]
        effective = scheduler.effective_execution(unit)
        assert effective.backend == "serial"
        assert effective.workers == 7
        # Un-overridden fields defer to the unit's spec.
        assert effective.unit_timeout_s == 0.0

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
            halving=HalvingSpec(rungs=(1,), asynchronous=True),
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


class TestAsyncHalving:
    def asha_spec(self, replicates: int = 2, rungs=(1,)) -> RunSpec:
        return grid_spec(
            execution=ExecutionSpec(
                halving=HalvingSpec(rungs=rungs, asynchronous=True)
            ),
            replicates=replicates,
        )

    def sync_spec(self, replicates: int = 2, rungs=(1,)) -> RunSpec:
        return grid_spec(
            execution=ExecutionSpec(halving=HalvingSpec(rungs=rungs)),
            replicates=replicates,
        )

    def test_asha_byte_identical_to_sync_single_rung(self, tmp_path):
        sync = FleetOrchestrator(tmp_path / "sync").run(self.sync_spec())
        asha = FleetOrchestrator(tmp_path / "asha").run(self.asha_spec())
        assert asha.executed == sync.executed == 6
        assert asha.pruned == sync.pruned == 2
        assert canonical_results_digest(
            tmp_path / "asha"
        ) == canonical_results_digest(tmp_path / "sync")

    def test_asha_byte_identical_to_sync_multi_rung(self, tmp_path):
        sync = FleetOrchestrator(tmp_path / "sync").run(
            self.sync_spec(replicates=4, rungs=(1, 2))
        )
        asha = FleetOrchestrator(tmp_path / "asha").run(
            self.asha_spec(replicates=4, rungs=(1, 2))
        )
        assert asha.executed == sync.executed == 8
        assert asha.pruned == sync.pruned == 8
        assert canonical_results_digest(
            tmp_path / "asha"
        ) == canonical_results_digest(tmp_path / "sync")

    @pytest.mark.parametrize(
        "backend,hosts",
        [
            ("serial", ()),
            ("local", ()),
            ("pool", ()),
            ("pool", ("localhost", "127.0.0.1")),
        ],
        ids=["serial", "local", "pool", "pool-hosts"],
    )
    def test_asha_agrees_across_backends(self, tmp_path, backend, hosts):
        """The byte-identity guarantee holds on every backend — record
        arrival order varies wildly between them, the decisions must
        not."""
        spec = self.asha_spec()
        if hosts:
            spec = replace(
                spec,
                execution=replace(
                    spec.execution, backend=backend, hosts=hosts
                ),
            )
        result = FleetOrchestrator(
            tmp_path / "out", backend=backend, workers=2
        ).run(spec)
        assert result.executed == 6 and result.pruned == 2
        reference = tmp_path / "reference"
        FleetOrchestrator(reference, backend="serial").run(self.sync_spec())
        assert canonical_results_digest(
            tmp_path / "out"
        ) == canonical_results_digest(reference)

    def test_asha_resumes_from_cache_like_sync(self, tmp_path):
        out = tmp_path / "out"
        first = FleetOrchestrator(out).run(self.asha_spec())
        again = FleetOrchestrator(out).run(self.asha_spec())
        assert again.executed == 0
        assert again.pruned == first.pruned
        assert [r["status"] for r in again.records] == [
            r["status"] for r in first.records
        ]

    def test_nan_metric_prunes_identically_sync_and_async(
        self, tmp_path, monkeypatch
    ):
        """The non-finite guard and ASHA's unknown-score handling
        compose: a NaN metric scores worst (never poisons the ranking)
        and both plans prune the same point."""
        from repro.fleet import scheduler as scheduler_module

        poison = expand_matrix(grid_spec())[0].run_id  # beta=100, rep 0
        monkeypatch.setattr(
            scheduler_module,
            "create_backend",
            lambda kind, workers=1, **_: _PoisonMetricBackend(poison),
        )
        results = {}
        for label, spec in (
            ("sync", self.sync_spec()),
            ("asha", self.asha_spec()),
        ):
            results[label] = FleetOrchestrator(tmp_path / label).run(spec)
            pruned_betas = {
                r["axes"]["solver.beta"]
                for r in results[label].records
                if r["status"] == "pruned"
            }
            assert 100 in pruned_betas, label
        assert canonical_results_digest(
            tmp_path / "sync"
        ) == canonical_results_digest(tmp_path / "asha")

    def test_retry_exhaustion_prunes_identically_sync_and_async(
        self, tmp_path, monkeypatch
    ):
        """A unit crashing through all its retries becomes an error
        record, scores inf, and is pruned — the same way on both
        plans (the retry/promotion interaction)."""
        from repro.fleet import scheduler as scheduler_module

        crash = expand_matrix(grid_spec())[0].run_id
        monkeypatch.setattr(
            scheduler_module,
            "create_backend",
            lambda kind, workers=1, **_: _AlwaysCrashBackend(crash),
        )
        for label, spec in (
            ("sync", self.sync_spec()),
            ("asha", self.asha_spec()),
        ):
            result = FleetOrchestrator(
                tmp_path / label, max_retries=1
            ).run(spec)
            by_status = {}
            for record in result.records:
                by_status.setdefault(record["status"], []).append(record)
            assert len(by_status["error"]) == 1, label
            assert by_status["error"][0]["attempts"] == 2, label
            pruned_betas = {
                r["axes"]["solver.beta"] for r in by_status["pruned"]
            }
            assert 100 in pruned_betas, label
        assert canonical_results_digest(
            tmp_path / "sync"
        ) == canonical_results_digest(tmp_path / "asha")

    def test_asha_counts_promotions(self, tmp_path):
        from repro.telemetry import load_run_telemetry

        out = tmp_path / "out"
        FleetOrchestrator(out, telemetry=True).run(self.asha_spec())
        counters = load_run_telemetry(out).fleet["counters"]
        # 4 points, keep 2: exactly the survivors promote out of rung 0.
        assert counters["scheduler.asha_promotions"] == 2


class TestFleetBudget:
    def test_spent_budget_unschedules_everything(self, tmp_path):
        out = tmp_path / "out"
        result = FleetOrchestrator(
            out, backend="serial", total_budget_s=1e-9
        ).run(grid_spec())
        assert result.executed == 0 and result.failed == 0
        assert result.unscheduled == len(result.records) == 8
        for record in result.records:
            assert record["status"] == "unscheduled"
            assert record["schema_version"] == 6
            assert "FleetBudget" in record["error"]
            assert "total_budget_s" in record["error"]

    def test_unscheduled_is_not_failed_in_report(self, tmp_path):
        result = FleetOrchestrator(
            tmp_path / "out", backend="serial", total_budget_s=1e-9
        ).run(grid_spec())
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
        starved = FleetOrchestrator(
            out, backend="serial", total_budget_s=1e-9
        ).run(grid_spec())
        assert starved.unscheduled == 8
        completed = FleetOrchestrator(out, backend="serial").run(grid_spec())
        assert completed.executed == 8 and completed.unscheduled == 0
        assert all(r["status"] == "ok" for r in completed.records)

    def test_ample_budget_changes_nothing(self, tmp_path):
        out = tmp_path / "out"
        result = FleetOrchestrator(
            out, backend="serial", total_budget_s=3600.0
        ).run(grid_spec())
        assert result.executed == 8 and result.unscheduled == 0
        reference = tmp_path / "reference"
        FleetOrchestrator(reference, backend="serial").run(grid_spec())
        assert canonical_results_digest(out) == canonical_results_digest(
            reference
        )

    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_budget_starved_halving_unschedules_not_prunes(
        self, tmp_path, asynchronous
    ):
        """When the budget dies mid-halving, un-run replicates are a
        resource decision (unscheduled), never a ranking decision
        (pruned on a starved rung)."""
        spec = grid_spec(
            execution=ExecutionSpec(
                halving=HalvingSpec(
                    rungs=(1,), asynchronous=asynchronous
                ),
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
        # The orchestrator override replaces the spec's budget.
        result = FleetOrchestrator(
            tmp_path / "out", backend="serial", total_budget_s=3600.0
        ).run(spec)
        assert result.executed == 8 and result.unscheduled == 0
