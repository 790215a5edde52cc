"""Trace-driven fleet specs: validation diagnostics, golden stability,
export -> play round-trips and the ``repro trace`` CLI.

The golden tests extend the warm-cache pattern of
``tests/test_fleet_substrate.py``: a trace-driven spec's
``results.jsonl`` must be byte-identical across two fleet runs, and a
trace exported from a schedule must play back into the same metrics
record on every invocation.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import SpecError
from repro.fleet.compile import compile_spec, compile_trace, execute_trace
from repro.fleet.library import library_spec_names, load_library_spec
from repro.fleet.orchestrator import FleetOrchestrator, expand_matrix
from repro.fleet.spec import ChurnSpec, RunSpec, TraceSpec, spec_hash
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.traces import SessionProcess, dump_trace
from tests.conftest import with_execution

TRACE_LIBRARY_SPECS = ("poisson_churn", "bursty_mmpp", "diurnal_cycle")


def trace_spec_yaml(**trace_fields) -> str:
    trace = "\n".join(f"    {key}: {value}" for key, value in trace_fields.items())
    return f"""\
name: trace-spec
workload:
  kind: prototype
  num_sessions: 8
churn:
  initial: 3
  trace:
{trace}
simulation:
  duration_s: 12
  hop_interval_mean_s: 4
  seed: 2
"""


def small_trace_spec(rate: float = 0.2, seed: int = 2) -> RunSpec:
    spec = RunSpec.from_yaml(trace_spec_yaml(kind="poisson", rate_per_s=rate))
    data = spec.to_dict()
    data["simulation"]["seed"] = seed
    return RunSpec.from_dict(data)


# --------------------------------------------------------------------- #
# Spec-section validation                                               #
# --------------------------------------------------------------------- #


class TestTraceSpecValidation:
    def test_default_is_none_and_round_trips(self):
        spec = small_trace_spec()
        assert RunSpec.from_yaml(spec.to_yaml()) == spec
        assert spec.churn.trace.kind == "poisson"

    @pytest.mark.parametrize(
        "fields,fragment",
        [
            (dict(kind="'weibull'"), "churn.trace.kind"),
            (dict(kind="poisson", holding="'pareto'"), "churn.trace.holding"),
            (dict(kind="file"), "churn.trace.path is required"),
            (dict(kind="poisson", path="x.csv"), "applies to kind 'file'"),
            (dict(kind="poisson", rate_per_s=0), "rate_per_s must be > 0"),
            (
                dict(kind="poisson", mean_holding_s=-3),
                "mean_holding_s must be > 0",
            ),
            (
                dict(kind="poisson", holding="'lognormal'", holding_sigma=0),
                "holding_sigma must be > 0",
            ),
            (
                dict(kind="mmpp", rate_per_s=0.5, burst_rate_per_s=0.1),
                "burst_rate_per_s must be >=",
            ),
            (dict(kind="mmpp", burst_rate_per_s=1, mean_calm_s=0), "dwell means"),
            (
                dict(kind="diurnal", diurnal_amplitude=1.0),
                "diurnal_amplitude must be in",
            ),
            (
                dict(kind="diurnal", diurnal_period_s=0),
                "diurnal_period_s must be > 0",
            ),
            (dict(kind="poisson", seed=-2), "churn.trace.seed must be >= -1"),
        ],
    )
    def test_bad_section_rejected(self, fields, fragment):
        with pytest.raises(SpecError, match=fragment):
            RunSpec.from_yaml(trace_spec_yaml(**fields))

    def test_waves_and_trace_mutually_exclusive(self):
        from repro.fleet.spec import ChurnWave

        with pytest.raises(SpecError, match="mutually exclusive"):
            ChurnSpec(
                initial=2,
                waves=(ChurnWave(time_s=5.0, arrive=1),),
                trace=TraceSpec(kind="poisson"),
            )

    def test_file_trace_forbids_initial(self):
        with pytest.raises(SpecError, match="churn.initial applies to generated"):
            ChurnSpec(initial=2, trace=TraceSpec(kind="file", path="t.csv"))

    def test_generated_trace_requires_initial(self):
        with pytest.raises(SpecError, match="churn.initial must be >= 1"):
            ChurnSpec(initial=0, trace=TraceSpec(kind="poisson"))

    def test_trace_knobs_are_sweepable_and_hashed(self):
        base = small_trace_spec()
        data = base.to_dict()
        data["sweep"]["axes"] = [
            {"path": "churn.trace.rate_per_s", "values": [0.1, 0.2]}
        ]
        swept = RunSpec.from_dict(data)
        units = expand_matrix(swept)
        assert [u.axes["churn.trace.rate_per_s"] for u in units] == [0.1, 0.2]
        assert len({u.run_id for u in units}) == 2
        assert spec_hash(units[0].spec) != spec_hash(units[1].spec)


# --------------------------------------------------------------------- #
# Compiler diagnostics                                                  #
# --------------------------------------------------------------------- #


class TestCompilerDiagnostics:
    def file_spec(self, path) -> RunSpec:
        return RunSpec.from_yaml(
            f"""\
name: file-trace
workload:
  kind: prototype
  num_sessions: 4
churn:
  trace:
    kind: file
    path: {path}
simulation:
  duration_s: 12
  hop_interval_mean_s: 4
"""
        )

    def test_file_trace_compiles(self, tmp_path):
        path = tmp_path / "ok.csv"
        dump_trace(
            SessionProcess(
                rate_per_s=0.3, mean_holding_s=10.0, initial=2,
                max_sessions=4, seed=1,
            ).trace(12.0),
            path,
        )
        compiled = compile_spec(self.file_spec(path))
        assert compiled.schedule.initial_sids == (0, 1)

    def test_missing_trace_file_named_without_infeasible_prefix(self, tmp_path):
        """A bad path is a load problem, not a pool infeasibility."""
        with pytest.raises(SpecError, match="churn trace: .*does not exist") as err:
            compile_spec(self.file_spec(tmp_path / "missing.csv"))
        assert "infeasible" not in str(err.value)

    def test_malformed_trace_row_not_labelled_infeasible(self, tmp_path):
        path = tmp_path / "mangled.csv"
        path.write_text("0,arrive,0\nbogus row\n", encoding="utf-8")
        with pytest.raises(SpecError, match="mangled.csv:2") as err:
            compile_spec(self.file_spec(path))
        assert "infeasible" not in str(err.value)

    def test_sid_beyond_workload_pool_names_event_and_line(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text(
            "time_s,event,sid\n0,arrive,0\n3,arrive,9\n", encoding="utf-8"
        )
        with pytest.raises(
            SpecError,
            match=r"trace infeasible for 4 sessions.*line 3.*arrive sid=9",
        ):
            compile_spec(self.file_spec(path))

    def test_departure_of_inactive_sid_names_line(self, tmp_path):
        path = tmp_path / "inactive.csv"
        path.write_text(
            "time_s,event,sid\n0,arrive,0\n5,depart,2\n", encoding="utf-8"
        )
        with pytest.raises(
            SpecError, match=r"line 3.*depart sid=2.*departs while inactive"
        ):
            compile_spec(self.file_spec(path))

    def test_negative_timestamp_names_line(self, tmp_path):
        path = tmp_path / "negative.csv"
        path.write_text(
            "time_s,event,sid\n0,arrive,0\n-4,arrive,1\n", encoding="utf-8"
        )
        with pytest.raises(SpecError, match=r"negative.csv:3.*finite and >= 0"):
            compile_spec(self.file_spec(path))

    def test_generated_more_initial_than_pool(self):
        spec = RunSpec.from_yaml(
            trace_spec_yaml(kind="poisson").replace("initial: 3", "initial: 20")
        )
        with pytest.raises(SpecError, match="trace infeasible for 8 sessions"):
            compile_spec(spec)

    def test_trace_seed_follows_simulation_seed_by_default(self):
        a = compile_spec(small_trace_spec(seed=2)).schedule
        b = compile_spec(small_trace_spec(seed=3)).schedule
        assert a != b  # replicates draw distinct traces

    def test_pinned_trace_seed_holds_trace_fixed(self):
        def pinned(sim_seed: int) -> RunSpec:
            spec = small_trace_spec(seed=sim_seed)
            data = spec.to_dict()
            data["churn"]["trace"]["seed"] = 77
            return RunSpec.from_dict(data)

        a = compile_spec(pinned(2)).schedule
        b = compile_spec(pinned(3)).schedule
        assert a == b


# --------------------------------------------------------------------- #
# Golden stability                                                      #
# --------------------------------------------------------------------- #


def _normalized_lines(path):
    """results.jsonl lines with the only nondeterministic field removed."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("wall_time_s", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


class TestGoldenTrajectories:
    def sweep_spec(self) -> RunSpec:
        data = small_trace_spec().to_dict()
        data["sweep"] = {
            "replicates": 2,
            "axes": [{"path": "churn.trace.rate_per_s", "values": [0.1, 0.3]}],
        }
        return RunSpec.from_dict(data)

    def test_trace_fleet_results_byte_stable_across_runs(self, tmp_path):
        spec = with_execution(self.sweep_spec(), workers=1)
        first = FleetOrchestrator(tmp_path / "a").run(spec)
        second = FleetOrchestrator(tmp_path / "b").run(spec)
        assert first.failed == 0 and second.failed == 0
        assert _normalized_lines(first.results_path) == _normalized_lines(
            second.results_path
        )

    def test_editing_a_file_trace_invalidates_the_resume_cache(self, tmp_path):
        """The run id covers a file trace's contents: editing the file
        under an unchanged spec re-executes instead of serving stale
        cached records."""
        trace_path = tmp_path / "live.csv"
        process = SessionProcess(
            rate_per_s=0.3, mean_holding_s=10.0, initial=2,
            max_sessions=4, seed=1,
        )
        dump_trace(process.trace(12.0), trace_path)
        spec = RunSpec.from_yaml(
            f"""\
name: live-trace
workload:
  kind: prototype
  num_sessions: 4
churn:
  trace:
    kind: file
    path: {trace_path}
simulation:
  duration_s: 12
  hop_interval_mean_s: 4
"""
        )
        spec = with_execution(spec, workers=1)
        out = tmp_path / "out"
        first = FleetOrchestrator(out).run(spec)
        assert (first.executed, first.failed) == (1, 0)
        cached = FleetOrchestrator(out).run(spec)
        assert (cached.executed, cached.skipped) == (0, 1)

        dump_trace(
            SessionProcess(
                rate_per_s=0.3, mean_holding_s=10.0, initial=2,
                max_sessions=4, seed=2,
            ).trace(12.0),
            trace_path,
        )
        rerun = FleetOrchestrator(out).run(spec)
        assert (rerun.executed, rerun.skipped, rerun.failed) == (1, 0, 0)
        assert rerun.records[0]["run_id"] != first.records[0]["run_id"]

    def test_export_play_reproduces_schedule_and_metrics(self, tmp_path):
        spec = small_trace_spec()
        compiled = compile_spec(spec)
        exported = compiled.schedule.events
        # Round trip 1: the exported trace validates to the same schedule.
        assert DynamicsSchedule(exported) == compiled.schedule
        # Round trip 2: playing it twice produces identical records.
        first = execute_trace(exported, spec)
        second = execute_trace(exported, spec)
        assert first == second
        # And the played run equals the spec-compiled run's dynamics.
        played = compile_trace(exported, spec)
        assert played.schedule == compiled.schedule

    def test_library_trace_specs_parse_expand_and_compile(self):
        for name in TRACE_LIBRARY_SPECS:
            assert name in library_spec_names()
            spec = load_library_spec(name)
            units = expand_matrix(spec)
            assert len(units) >= 4
            # Compiling (conference + trace -> schedule) is cheap at the
            # spec's full horizon; only simulation would be slow.
            compiled = compile_spec(units[0].spec)
            assert compiled.schedule.events  # churn actually happens


# --------------------------------------------------------------------- #
# CLI                                                                   #
# --------------------------------------------------------------------- #


class TestTraceCli:
    GENERATE = [
        "trace", "generate", "--rate", "0.2", "--mean-holding", "20",
        "--duration", "40", "--initial", "2", "--max-sessions", "6",
        "--seed", "9",
    ]

    def test_generate_stdout_deterministic(self, capsys):
        assert main(self.GENERATE) == 0
        first = capsys.readouterr().out
        assert main(self.GENERATE) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("time_s,event,sid\n")

    def test_generate_validate_play_pipeline(self, tmp_path, capsys):
        out = tmp_path / "churn.csv"
        assert main(self.GENERATE + ["--out", str(out)]) == 0
        capsys.readouterr()

        assert main(["trace", "validate", str(out), "--sessions", "6"]) == 0
        assert "trace ok" in capsys.readouterr().out

        assert main(["trace", "play", str(out)]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "play", str(out)]) == 0
        assert capsys.readouterr().out == first
        record = json.loads(first)
        assert record["status"] if "status" in record else True
        assert record["num_sessions"] >= 2
        assert record["schema_version"] >= 1

    def test_play_against_library_spec(self, tmp_path, capsys):
        out = tmp_path / "churn.jsonl"
        # Cap the sid pool at the target spec's 4 workload sessions.
        generate = [
            arg if arg != "6" else "4" for arg in self.GENERATE
        ]
        assert main(generate + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "trace", "play", str(out),
                    "--spec", "prototype_smoke",
                    "--duration", "15",
                ]
            )
            == 0
        )
        record = json.loads(capsys.readouterr().out)
        assert record["name"] == "prototype_smoke"

    def test_validate_infeasible_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,arrive,0\n5,depart,3\n", encoding="utf-8")
        assert main(["trace", "validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "departs while inactive" in err and "sid=3" in err

    def test_validate_parse_error_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,arrive,0\nfive,depart,0\n", encoding="utf-8")
        assert main(["trace", "validate", str(bad)]) == 2
        assert "bad.csv:2" in capsys.readouterr().err

    def test_play_pool_mismatch_exits_2(self, tmp_path, capsys):
        out = tmp_path / "wide.csv"
        rows = ["time_s,event,sid"] + [f"0,arrive,{sid}" for sid in range(8)]
        out.write_text("\n".join(rows) + "\n", encoding="utf-8")
        # prototype_smoke's workload has fewer than 8 sessions.
        assert main(["trace", "play", str(out), "--spec", "prototype_smoke"]) == 2
        assert "trace infeasible" in capsys.readouterr().err

    def test_fleet_sweep_on_trace_library_spec(self, tmp_path, capsys):
        """Acceptance: a churn-intensity x seed sweep end to end."""
        out = tmp_path / "sweep"
        assert (
            main(
                [
                    "fleet", "sweep", "poisson_churn",
                    "--axis", "churn.trace.rate_per_s=0.05,0.2",
                    "--replicates", "2",
                    "--set", "simulation.duration_s=12",
                    "--out", str(out),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "4 runs" in output and "0 failed" in output
        records = [
            json.loads(line)
            for line in (out / "results.jsonl").read_text().splitlines()
        ]
        assert {r["axes"]["churn.trace.rate_per_s"] for r in records} == {0.05, 0.2}
        assert {r["seed"] for r in records} == {11, 12}
        assert all(r["status"] == "ok" for r in records)
