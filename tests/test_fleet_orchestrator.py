"""Tests for the fleet orchestrator: expansion, pooling, caching,
aggregation, and the YAML-file end-to-end path."""

import json

import pytest

from repro.errors import SpecError
from repro.fleet.orchestrator import (
    FleetOrchestrator,
    aggregate_records,
    expand_matrix,
    load_records,
)
from repro.fleet.spec import (
    AxisSpec,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    WorkloadSpec,
    dump_spec,
    load_spec,
)
from tests.conftest import with_execution

FAST_SIM = SimulationSpec(duration_s=8.0, hop_interval_mean_s=4.0, seed=3)


def sweep_spec(replicates: int = 2) -> RunSpec:
    """2-axis sweep over a tiny prototype: 2 x 2 grid x replicates."""
    return RunSpec(
        name="mini-sweep",
        workload=WorkloadSpec(kind="prototype", num_sessions=2),
        simulation=FAST_SIM,
        sweep=SweepSpec(
            replicates=replicates,
            axes=(
                AxisSpec(path="solver.beta", values=(200, 400)),
                AxisSpec(path="simulation.hop_interval_mean_s", values=(4, 8)),
            ),
        ),
    )


class TestExpand:
    def test_grid_times_replicates(self):
        units = expand_matrix(sweep_spec(replicates=2))
        assert len(units) == 2 * 2 * 2
        assert len({unit.run_id for unit in units}) == len(units)
        seeds = {unit.seed for unit in units}
        assert seeds == {3, 4}
        for unit in units:
            assert not unit.spec.sweep.axes  # units are sweep-free
            assert set(unit.axes) == {
                "solver.beta",
                "simulation.hop_interval_mean_s",
            }

    def test_expansion_is_deterministic(self):
        first = [unit.run_id for unit in expand_matrix(sweep_spec())]
        second = [unit.run_id for unit in expand_matrix(sweep_spec())]
        assert first == second

    def test_sweep_free_spec_is_single_unit(self):
        units = expand_matrix(
            RunSpec(name="one", workload=WorkloadSpec(num_sessions=2))
        )
        assert len(units) == 1 and units[0].axes == {}


class TestOrchestrator:
    def test_end_to_end_from_yaml_with_pool(self, tmp_path):
        """The acceptance path: YAML spec -> >= 2 workers -> JSONL +
        summary -> rerun hits the cache."""
        spec_path = tmp_path / "sweep.yaml"
        dump_spec(sweep_spec(replicates=2), spec_path)
        spec = with_execution(load_spec(spec_path), workers=2)

        out = tmp_path / "out"
        result = FleetOrchestrator(out).run(spec)
        assert result.executed == 8 and result.skipped == 0
        assert result.failed == 0

        records = load_records(out)
        assert len(records) == 8
        for record in records:
            assert record["status"] == "ok"
            assert record["traffic_mbps"] >= 0.0
        assert (out / "summary.txt").exists()
        assert (out / "spec.yaml").exists()

        # 2x2 grid -> 4 aggregate rows, each covering both replicates.
        table = result.summary_table()
        assert table.count("\n") >= 5  # title + header + rule + 4 rows
        for line in table.splitlines()[3:]:
            assert "  2  " in line or line.split()[2] == "2"

        # Unchanged spec: everything cached, nothing re-executed.
        again = FleetOrchestrator(out).run(spec)
        assert again.executed == 0 and again.skipped == 8
        assert again.records == records

    def test_serial_and_pooled_agree(self, tmp_path):
        spec = sweep_spec(replicates=1)
        serial = FleetOrchestrator(tmp_path / "serial").run(
            with_execution(spec, workers=0)
        )
        pooled = FleetOrchestrator(tmp_path / "pooled").run(
            with_execution(spec, workers=2)
        )
        strip = lambda records: [
            {k: v for k, v in record.items() if k != "wall_time_s"}
            for record in records
        ]
        assert strip(serial.records) == strip(pooled.records)

    def test_cache_hit_restamps_axes(self, tmp_path):
        """A record cached without sweep labels gets the current unit's
        axes when reused, so summary rows stay labeled."""
        out = tmp_path / "out"
        base = RunSpec(
            name="one", workload=WorkloadSpec(num_sessions=2), simulation=FAST_SIM
        )
        FleetOrchestrator(out).run(base)  # cached with axes={}
        swept = RunSpec(
            name="one",
            workload=WorkloadSpec(num_sessions=2),
            simulation=FAST_SIM,
            sweep=SweepSpec(
                axes=(AxisSpec(path="solver.beta", values=(400, 200)),)
            ),
        )
        result = FleetOrchestrator(out).run(swept)
        assert result.executed == 1 and result.skipped == 1  # beta=400 cached
        by_beta = {
            record["axes"]["solver.beta"]: record for record in result.records
        }
        assert set(by_beta) == {200, 400}
        rows = result.summary_table().splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["200", "400"]

    def test_changed_spec_invalidates_cache(self, tmp_path):
        out = tmp_path / "out"
        base = RunSpec(
            name="one", workload=WorkloadSpec(num_sessions=2), simulation=FAST_SIM
        )
        assert FleetOrchestrator(out).run(base).executed == 1
        changed = base.with_overrides({"solver.beta": 123})
        result = FleetOrchestrator(out).run(changed)
        assert result.executed == 1 and result.skipped == 0

    def test_no_resume_re_executes(self, tmp_path):
        out = tmp_path / "out"
        spec = RunSpec(
            name="one", workload=WorkloadSpec(num_sessions=2), simulation=FAST_SIM
        )
        FleetOrchestrator(out).run(spec)
        result = FleetOrchestrator(out, resume=False).run(spec)
        assert result.executed == 1

    def test_torn_jsonl_line_is_re_executed(self, tmp_path):
        out = tmp_path / "out"
        spec = RunSpec(
            name="one", workload=WorkloadSpec(num_sessions=2), simulation=FAST_SIM
        )
        FleetOrchestrator(out).run(spec)
        results = out / "results.jsonl"
        results.write_text(results.read_text()[: -20], encoding="utf-8")
        result = FleetOrchestrator(out).run(spec)
        assert result.executed == 1

    def test_failed_unit_is_reported_not_fatal(self, tmp_path):
        # A churn plan that only becomes infeasible at compile time
        # (more arrivals than the workload has sessions).
        data = sweep_spec(replicates=1).to_dict()
        data["name"] = "with-bad-unit"
        data["churn"] = {
            "initial": 1,
            "waves": [{"time_s": 2.0, "arrive": 9, "depart": 0}],
        }
        data["sweep"] = {"replicates": 1, "axes": []}
        spec = RunSpec.from_dict(data)
        result = FleetOrchestrator(tmp_path / "out").run(spec)
        assert result.failed == 1
        assert "error" in result.records[0]

    def test_missing_results_dir_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="no fleet results"):
            load_records(tmp_path / "nothing")


class TestAggregate:
    def test_aggregates_by_axes_with_replicates(self):
        records = [
            {
                "status": "ok",
                "axes": {"solver.beta": beta},
                "seed": seed,
                "traffic_mbps": float(10 * beta + seed),
                "delay_ms": 100.0,
                "phi": 1.0,
            }
            for beta in (200, 400)
            for seed in (0, 1)
        ]
        table = aggregate_records(records)
        lines = table.splitlines()
        assert lines[1].split()[:2] == ["solver.beta", "runs"]
        assert len(lines) == 2 + 1 + 2  # title+header, rule, 2 groups
        assert "2000.50" in table and "4000.50" in table

    def test_empty_and_failed_records(self):
        assert "no successful runs" in aggregate_records([])
        assert "no successful runs" in aggregate_records(
            [{"status": "error", "error": "boom"}]
        )

    def test_numeric_axes_sort_numerically(self):
        records = [
            {
                "status": "ok",
                "axes": {"solver.beta": beta},
                "traffic_mbps": 1.0,
                "delay_ms": 1.0,
                "phi": 1.0,
            }
            for beta in (1000, 200, 400)
        ]
        lines = aggregate_records(records).splitlines()[3:]
        assert [line.split()[0] for line in lines] == ["200", "400", "1000"]

    def test_load_records_tolerates_torn_line(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        good = json.dumps({"status": "ok", "run_id": "abc"})
        (out / "results.jsonl").write_text(good + '\n{"status": "o', "utf-8")
        assert load_records(out) == [{"status": "ok", "run_id": "abc"}]

    def test_jsonl_records_are_one_line_each(self, tmp_path):
        out = tmp_path / "out"
        FleetOrchestrator(out).run(
            RunSpec(
                name="one",
                workload=WorkloadSpec(num_sessions=2),
                simulation=FAST_SIM,
            )
        )
        lines = (out / "results.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "ok"


class TestAtomicRewrite:
    """`_rewrite_results` must be all-or-nothing: an interrupt mid-write
    can never leave a torn results.jsonl behind."""

    def _finished_run(self, tmp_path):
        out = tmp_path / "out"
        spec = RunSpec(
            name="one", workload=WorkloadSpec(num_sessions=2), simulation=FAST_SIM
        )
        orchestrator = FleetOrchestrator(out)
        orchestrator.run(spec)
        return orchestrator, out / "results.jsonl"

    def test_crash_mid_rewrite_preserves_previous_file(self, tmp_path):
        """A rewrite that dies halfway (simulated by a record that fails
        to serialize after a first good one) leaves the previous
        complete file untouched and no temp debris behind."""
        orchestrator, results = self._finished_run(tmp_path)
        before = results.read_text(encoding="utf-8")
        poisoned = [{"status": "ok", "run_id": "good"}, {"bad": object()}]
        with pytest.raises(TypeError):
            orchestrator._rewrite_results(poisoned)
        assert results.read_text(encoding="utf-8") == before
        assert not list(results.parent.glob("*.tmp"))

    def test_rewrite_replaces_atomically_via_temp_file(
        self, tmp_path, monkeypatch
    ):
        """The new content only ever lands through os.replace of a
        same-directory temp file (never an in-place truncate+write)."""
        import os as os_module

        orchestrator, results = self._finished_run(tmp_path)
        replaced = {}
        real_replace = os_module.replace

        def spying_replace(src, dst):
            replaced["src"], replaced["dst"] = str(src), str(dst)
            return real_replace(src, dst)

        import repro.fleet.orchestrator as orchestrator_module

        monkeypatch.setattr(orchestrator_module.os, "replace", spying_replace)
        orchestrator._rewrite_results([{"status": "ok", "run_id": "abc"}])
        assert replaced["dst"] == str(results)
        assert replaced["src"].endswith(".tmp")
        assert os_module.path.dirname(replaced["src"]) == str(results.parent)
        assert json.loads(results.read_text())["run_id"] == "abc"
