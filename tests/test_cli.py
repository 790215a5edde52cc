"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    list_experiments,
)


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out


class TestRun:
    def test_run_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "SG" in out

    def test_run_fig3(self, capsys):
        assert main(["run", "fig3"]) == 0
        assert "theory" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_scenarios_flag_sets_env(self, capsys, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SCENARIOS", raising=False)
        assert main(["run", "fig2", "--scenarios", "2"]) == 0
        assert os.environ.get("REPRO_SCENARIOS") == "2"

    def test_csv_export(self, tmp_path, capsys):
        target = tmp_path / "fig4.csv"
        assert (
            main(["run", "fig4", "--seed", "3", "--csv", str(target)]) == 0
        )
        content = target.read_text()
        assert content.startswith("label,series,time_s,value")
        assert "traffic" in content

    def test_csv_without_series_reports(self, tmp_path, capsys):
        target = tmp_path / "fig2.csv"
        assert main(["run", "fig2", "--csv", str(target)]) == 0
        # Status chatter goes through the repro.log stderr handler now,
        # not stdout (PR 6 satellite: no ad-hoc print for diagnostics).
        assert "no series data" in capsys.readouterr().err


class TestRegistryListing:
    def test_experiment_ids_sorted_and_complete(self):
        assert experiment_ids() == tuple(sorted(EXPERIMENTS))

    def test_list_experiments_matches_ids(self):
        specs = list_experiments()
        assert tuple(spec.experiment_id for spec in specs) == experiment_ids()


class TestFleet:
    SPEC_YAML = """\
name: cli-spec
workload:
  kind: prototype
  num_sessions: 2
simulation:
  duration_s: 8
  hop_interval_mean_s: 4
  seed: 3
"""

    def test_fleet_list_names_library(self, capsys):
        from repro.fleet.library import library_spec_names

        assert main(["fleet", "list"]) == 0
        out = capsys.readouterr().out
        for name in library_spec_names():
            assert name in out

    def test_fleet_run_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(self.SPEC_YAML)
        out_dir = tmp_path / "out"
        assert (
            main(["fleet", "run", str(spec_path), "--out", str(out_dir)]) == 0
        )
        assert (out_dir / "results.jsonl").exists()
        assert (out_dir / "summary.txt").exists()
        report = capsys.readouterr().out
        assert "1 executed, 0 cached" in report

        # Unchanged spec: cached.
        assert (
            main(["fleet", "run", str(spec_path), "--out", str(out_dir)]) == 0
        )
        assert "0 executed, 1 cached" in capsys.readouterr().out

    def test_fleet_run_library_name_with_overrides(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "fleet",
                    "run",
                    "prototype_smoke",
                    "--out",
                    str(out_dir),
                    "--set",
                    "simulation.duration_s=8",
                    "--set",
                    "workload.num_sessions=2",
                ]
            )
            == 0
        )
        assert (out_dir / "results.jsonl").exists()

    def test_fleet_sweep_and_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(self.SPEC_YAML)
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "fleet",
                    "sweep",
                    str(spec_path),
                    "--out",
                    str(out_dir),
                    "--axis",
                    "solver.beta=200,400",
                    "--replicates",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 runs" in out and "solver.beta" in out

        assert main(["fleet", "report", str(out_dir)]) == 0
        report = capsys.readouterr().out
        assert "4 runs recorded (4 ok" in report

    def test_fleet_unknown_spec_errors(self, tmp_path, capsys):
        assert main(["fleet", "run", "no_such_spec"]) == 2
        assert "library specs" in capsys.readouterr().err

    def test_fleet_bad_override_errors(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(self.SPEC_YAML)
        assert (
            main(
                [
                    "fleet",
                    "run",
                    str(spec_path),
                    "--out",
                    str(tmp_path / "out"),
                    "--set",
                    "solver.nope=1",
                ]
            )
            == 2
        )
        assert "no such field" in capsys.readouterr().err

    def test_fleet_hosts_need_the_pool_backend(self, tmp_path, capsys):
        """``--hosts`` is a pool inventory: on the spec's default
        ``local`` backend it is an error, not silently ignored."""
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(self.SPEC_YAML)
        argv = ["fleet", "run", str(spec_path), "--out", str(tmp_path / "out")]
        assert main(argv + ["--hosts", "localhost"]) == 2
        assert "execution.hosts" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--backend", "subprocess"])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_fleet_zero_replicates_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(self.SPEC_YAML)
        assert (
            main(
                [
                    "fleet",
                    "sweep",
                    str(spec_path),
                    "--out",
                    str(tmp_path / "out"),
                    "--axis",
                    "solver.beta=200,400",
                    "--replicates",
                    "0",
                ]
            )
            == 2
        )
        assert "replicates must be >= 1" in capsys.readouterr().err

    def test_fleet_halving_that_cannot_prune_errors(self, tmp_path, capsys):
        """``--halving`` on a sweep it could never prune fails before
        any unit runs: one replicate leaves nothing after the rung, and
        one grid point leaves nothing to drop."""
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(self.SPEC_YAML)
        out_dir = tmp_path / "out"
        argv = ["fleet", "sweep", str(spec_path), "--out", str(out_dir)]
        argv += ["--halving", "1"]
        assert main(argv + ["--axis", "solver.beta=200,400"]) == 2
        assert "stay below sweep.replicates" in capsys.readouterr().err
        assert main(argv + ["--replicates", "3"]) == 2
        assert "cannot prune" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_fleet_asha_flag_removed(self, tmp_path, capsys):
        """There is one halving plan, so ``--asha`` is a usage error."""
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(self.SPEC_YAML)
        argv = ["fleet", "sweep", str(spec_path), "--out", str(tmp_path / "out")]
        argv += ["--axis", "solver.beta=200,400", "--replicates", "2"]
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--halving", "1", "--asha"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --asha" in capsys.readouterr().err

    def test_fleet_run_directory_rejected(self, tmp_path, capsys):
        assert main(["fleet", "run", str(tmp_path)]) == 2
        assert "neither a spec file nor a library spec" in capsys.readouterr().err

    def _small_fleet_argv(self, out_dir, *overrides, flags=()):
        argv = [
            "fleet",
            "run",
            "prototype_smoke",
            "--out",
            str(out_dir),
            "--set",
            "simulation.duration_s=8",
            "--set",
            "workload.num_sessions=2",
        ]
        for override in overrides:
            argv += ["--set", override]
        return argv + list(flags)

    def _run_small_fleet(self, tmp_path, name, *overrides, flags=()):
        out_dir = tmp_path / name
        argv = self._small_fleet_argv(out_dir, *overrides, flags=flags)
        assert main(argv) == 0
        return out_dir

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--budget", "inf", "must be finite and >= 0"),
            ("--total-budget", "inf", "must be finite and >= 0"),
            ("--budget", "nan", "NaN is not a valid spec value"),
        ],
        ids=["budget-inf", "total-budget-inf", "budget-nan"],
    )
    def test_fleet_rejected_flag_keeps_the_previous_run(
        self, tmp_path, capsys, flag, value, message
    ):
        """An execution flag the spec rejects fails before the run
        directory is touched: a ``--no-resume`` rerun that exits 2
        leaves the previous run's records and stored spec as they
        were."""
        out_dir = self._run_small_fleet(tmp_path, "run")
        results = (out_dir / "results.jsonl").read_bytes()
        stored = (out_dir / "spec.yaml").read_bytes()
        capsys.readouterr()
        argv = self._small_fleet_argv(
            out_dir,
            "simulation.duration_s=5",
            flags=("--no-resume", flag, value),
        )
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert (out_dir / "results.jsonl").read_bytes() == results
        assert (out_dir / "spec.yaml").read_bytes() == stored

    def test_fleet_execution_axis_beats_the_backend_flag(self, tmp_path):
        """``--backend`` edits the base spec, so an ``execution.backend``
        axis overrides it like any axis overrides its base value: the
        pool-labelled unit runs on the pool, and the stored spec keeps
        the flag's value."""
        from repro.analysis.report import load_fleet_run
        from repro.telemetry import load_run_telemetry

        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(self.SPEC_YAML)
        out_dir = tmp_path / "out"
        argv = ["fleet", "sweep", str(spec_path), "--out", str(out_dir)]
        argv += ["--backend", "serial", "--telemetry"]
        argv += ["--axis", "execution.backend=serial,pool"]
        assert main(argv) == 0
        run = load_fleet_run(out_dir)
        assert [r["axes"]["execution.backend"] for r in run.records] == [
            "serial",
            "pool",
        ]
        counters = load_run_telemetry(out_dir).fleet["counters"]
        assert counters.get("pool.units") == 1
        assert run.spec.execution.backend == "serial"

    def test_fleet_flags_are_stored_in_the_spec(self, tmp_path, capsys):
        """The execution flags are spec edits: ``spec.yaml`` records
        them, so the report's spec diff tells apart two runs that
        differ only in ``--workers``."""
        from repro.analysis.report import (
            load_fleet_run,
            load_fleet_runs,
            spec_diff,
        )

        flags = ("--backend", "pool", "--budget", "60", "--telemetry")
        two = self._run_small_fleet(
            tmp_path, "two", flags=("--workers", "2", *flags)
        )
        one = self._run_small_fleet(
            tmp_path, "one", flags=("--workers", "1", *flags)
        )
        execution = load_fleet_run(two).spec.execution
        assert execution.workers == 2
        assert execution.backend == "pool"
        assert execution.unit_timeout_s == 60.0
        assert execution.telemetry is True
        assert spec_diff(load_fleet_runs([two, one])) == [
            ("execution.workers", [2, 1])
        ]
        capsys.readouterr()
        assert main(["fleet", "report", str(two), "--compare", str(one)]) == 0
        out = capsys.readouterr().out
        assert "spec diff" in out
        assert "execution.workers" in out

    def test_fleet_report_compare_emits_all_artifacts(self, tmp_path, capsys):
        base = self._run_small_fleet(tmp_path, "base")
        b200 = self._run_small_fleet(tmp_path, "beta200", "solver.beta=200")
        capsys.readouterr()
        csv_path = tmp_path / "cmp.csv"
        html_path = tmp_path / "cmp.html"
        assert (
            main(
                [
                    "fleet",
                    "report",
                    str(base),
                    "--compare",
                    str(b200),
                    "--csv",
                    str(csv_path),
                    "--html",
                    str(html_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "spec diff" in out and "solver.beta" in out
        assert "metric deltas vs baseline 'base'" in out
        assert "solver.beta,400,200" in csv_path.read_text()
        html_text = html_path.read_text()
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<svg" in html_text

    def test_fleet_report_without_dirs_errors(self, capsys):
        assert main(["fleet", "report"]) == 2
        assert "at least one run directory" in capsys.readouterr().err

    def test_fleet_report_empty_results_diagnostic(self, tmp_path, capsys):
        """Regression: an interrupted fleet (empty or torn-only
        results.jsonl) gets a clear diagnostic, not a traceback."""
        out_dir = tmp_path / "interrupted"
        out_dir.mkdir()
        (out_dir / "results.jsonl").write_text("", encoding="utf-8")
        assert main(["fleet", "report", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "no complete run records" in err and "interrupted" in err

        (out_dir / "results.jsonl").write_text('{"status": "o', "utf-8")
        assert main(["fleet", "report", str(out_dir)]) == 2
        assert "torn" in capsys.readouterr().err

    def test_fleet_report_missing_dir_diagnostic(self, tmp_path, capsys):
        assert main(["fleet", "report", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_run_jsonl_export(self, tmp_path, capsys):
        import json

        target = tmp_path / "fig2.jsonl"
        assert main(["run", "fig2", "--jsonl", str(target)]) == 0
        assert "result records" in capsys.readouterr().err
        records = [
            json.loads(line)
            for line in target.read_text().strip().splitlines()
        ]
        assert records and all(
            record["schema_version"] >= 1 and record["status"] == "ok"
            for record in records
        )

    def test_fleet_local_file_cannot_shadow_library_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "prototype_smoke").mkdir()  # stray dir with a spec's name
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "fleet",
                    "run",
                    "prototype_smoke",
                    "--out",
                    str(out_dir),
                    "--set",
                    "simulation.duration_s=8",
                    "--set",
                    "workload.num_sessions=2",
                ]
            )
            == 0
        )
        assert (out_dir / "results.jsonl").exists()
