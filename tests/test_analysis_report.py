"""Tests for the report layer: record schema, loaders, spec diffs,
comparisons, CSV/HTML artifacts, and the DESIGN.md schema round-trip."""

import json
import re
from html.parser import HTMLParser
from pathlib import Path

import pytest

from repro.analysis.html import render_html, sparkline_svg
from repro.analysis.report import (
    ENVELOPE_FIELDS,
    FLEET_METRIC_FIELDS,
    SCHEMA_VERSION,
    compare_fleets,
    comparison_csv,
    flatten_spec,
    load_fleet_run,
    load_fleet_runs,
    load_result_records,
    metric_stats,
    record_schema_version,
    render_comparison,
    render_run_report,
    spec_diff,
    upgrade_record,
    validate_record,
    write_records,
)
from repro.analysis.series import downsample_series
from repro.analysis.stats import bootstrap_ci
from repro.errors import ExperimentError, SpecError
from repro.fleet import FleetOrchestrator
from repro.fleet.spec import RunSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

def small_spec(name: str = "cmp-base", **solver) -> RunSpec:
    """A 2-replicate prototype spec that runs in ~a second."""
    spec = {
        "name": name,
        "workload": {"kind": "prototype", "num_sessions": 2},
        "simulation": {
            "duration_s": 8.0,
            "hop_interval_mean_s": 4.0,
            "seed": 3,
        },
        "sweep": {"replicates": 2, "axes": []},
        "solver": dict(solver) if solver else {},
    }
    return RunSpec.from_dict(spec)


@pytest.fixture(scope="module")
def fleet_dirs(tmp_path_factory):
    """Two finished fleet runs differing only in solver.beta."""
    root = tmp_path_factory.mktemp("fleets")
    base_dir = root / "base"
    b200_dir = root / "beta200"
    FleetOrchestrator(base_dir).run(small_spec("cmp-base"))
    FleetOrchestrator(b200_dir).run(small_spec("cmp-beta200", beta=200))
    return base_dir, b200_dir


class TestBootstrapCi:
    def test_contains_mean_and_is_deterministic(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo, hi = bootstrap_ci(values)
        assert lo <= 3.0 <= hi
        assert (lo, hi) == bootstrap_ci(values)

    def test_single_value_degenerates(self):
        assert bootstrap_ci([7.0]) == (7.0, 7.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ExperimentError):
            bootstrap_ci([])
        with pytest.raises(ExperimentError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)
        with pytest.raises(ExperimentError):
            bootstrap_ci([1.0, 2.0], n_boot=0)


class TestDownsample:
    def test_short_series_kept_verbatim(self):
        payload = downsample_series([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
        assert payload == {"t": [0.0, 1.0, 2.0], "v": [5.0, 6.0, 7.0]}

    def test_long_series_capped(self):
        times = list(range(200))
        payload = downsample_series(times, [float(t) for t in times], 32)
        assert len(payload["t"]) == 32 == len(payload["v"])
        assert payload["t"][0] == 0.0 and payload["t"][-1] == 199.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ExperimentError):
            downsample_series([0.0], [1.0], max_points=1)


class TestSchemaUpgrade:
    def test_v0_record_is_stamped(self):
        upgraded = upgrade_record({"status": "ok", "name": "x"})
        assert upgraded["schema_version"] == SCHEMA_VERSION

    def test_newer_writer_rejected(self):
        with pytest.raises(SpecError, match="upgrade repro"):
            upgrade_record({"schema_version": SCHEMA_VERSION + 1})

    def test_non_object_rejected(self):
        with pytest.raises(SpecError, match="JSON object"):
            upgrade_record([1, 2])

    def test_hops_per_sec_derived_not_persisted(self, fleet_dirs):
        base_dir, _ = fleet_dirs
        on_disk = [
            json.loads(line)
            for line in (base_dir / "results.jsonl").read_text().splitlines()
        ]
        assert all("hops_per_sec" not in record for record in on_disk)
        loaded = load_result_records(base_dir / "results.jsonl")
        assert all(record["hops_per_sec"] > 0 for record in loaded)

    def test_validate_rejects_undocumented_fleet_field(self):
        record = upgrade_record(
            {"name": "x", "status": "ok", "surprise_metric": 1.0}
        )
        with pytest.raises(SpecError, match="undocumented"):
            validate_record(record, fleet=True)
        validate_record(record)  # experiment records may carry extras

    def test_validate_rejects_missing_required(self):
        with pytest.raises(SpecError, match="missing required"):
            validate_record({"schema_version": SCHEMA_VERSION})


class TestLoader:
    def test_missing_file_diagnostic(self, tmp_path):
        with pytest.raises(SpecError, match="no fleet results"):
            load_result_records(tmp_path / "results.jsonl")

    def test_empty_file_diagnostic(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SpecError, match="no complete run records"):
            load_result_records(path)

    def test_all_torn_lines_diagnostic(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"status": "o\n{"na', encoding="utf-8")
        with pytest.raises(SpecError, match="torn"):
            load_result_records(path)

    def test_missing_directory_diagnostic(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            load_fleet_run(tmp_path / "nope")

    def test_load_fleet_run_recovers_spec(self, fleet_dirs):
        base_dir, _ = fleet_dirs
        run = load_fleet_run(base_dir)
        assert run.label == "base"
        assert run.spec is not None and run.spec.name == "cmp-base"
        assert len(run.ok_records) == 2 and run.failed == 0

    def test_torn_spec_degrades_to_none(self, tmp_path):
        records = [{"name": "x", "status": "ok", "traffic_mbps": 1.0}]
        write_records(records, tmp_path / "results.jsonl")
        (tmp_path / "spec.yaml").write_text("{not yaml", encoding="utf-8")
        run = load_fleet_run(tmp_path)
        assert run.spec is None and len(run.records) == 1

    def test_stored_kernel_key_keeps_the_spec(self, tmp_path, fleet_dirs):
        """Runs stored before the solver's kernel choice was removed
        wrote ``solver: {kernel: arrays}``; their spec still loads, so a
        comparison across the change keeps its spec-diff rows, while
        specs users write stay strict."""
        import yaml

        base_dir, b200_dir = fleet_dirs
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        (old_dir / "results.jsonl").write_bytes(
            (base_dir / "results.jsonl").read_bytes()
        )
        data = yaml.safe_load((base_dir / "spec.yaml").read_text(encoding="utf-8"))
        data["solver"]["kernel"] = "arrays"
        (old_dir / "spec.yaml").write_text(
            yaml.safe_dump(data, sort_keys=False), encoding="utf-8"
        )
        run = load_fleet_run(old_dir)
        assert run.spec == load_fleet_run(base_dir).spec
        rows = dict(spec_diff([run, load_fleet_run(b200_dir)]))
        assert set(rows) == {"name", "solver.beta"}
        with pytest.raises(SpecError, match="unknown key.*'kernel'"):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize(
        "backend,hosts",
        [("subprocess", None), ("remote", ["localhost"]), ("local", ["h1"])],
        ids=["subprocess", "remote", "local-with-hosts"],
    )
    def test_stored_removed_backend_keeps_the_spec(
        self, tmp_path, fleet_dirs, backend, hosts
    ):
        """Runs stored before the backends folded into ``pool`` name a
        removed backend, or a host inventory beside the default
        ``local`` (what ``--backend remote --hosts`` stored); their spec
        loads as a pool spec, so a comparison keeps its spec-diff rows,
        while specs users write stay strict."""
        import yaml

        base_dir, b200_dir = fleet_dirs
        old_dir = tmp_path / "old"
        old_dir.mkdir()
        (old_dir / "results.jsonl").write_bytes(
            (base_dir / "results.jsonl").read_bytes()
        )
        data = yaml.safe_load((base_dir / "spec.yaml").read_text(encoding="utf-8"))
        data["execution"]["backend"] = backend
        if hosts:
            data["execution"]["hosts"] = hosts
        (old_dir / "spec.yaml").write_text(
            yaml.safe_dump(data, sort_keys=False), encoding="utf-8"
        )
        run = load_fleet_run(old_dir)
        assert run.spec is not None
        assert run.spec.execution.backend == "pool"
        assert run.spec.execution.hosts == tuple(hosts or ())
        base = load_fleet_run(base_dir).spec
        assert run.spec.to_dict() | {"execution": {}} == base.to_dict() | {
            "execution": {}
        }
        rows = dict(spec_diff([run, load_fleet_run(b200_dir)]))
        assert {"name", "solver.beta", "execution.backend"} <= set(rows)
        with pytest.raises(SpecError, match="execution"):
            RunSpec.from_dict(data)

    def test_duplicate_labels_deduped(self, tmp_path):
        for sub in ("a/out", "b/out"):
            d = tmp_path / sub
            d.mkdir(parents=True)
            write_records([{"name": "x", "status": "ok"}], d / "results.jsonl")
        runs = load_fleet_runs([tmp_path / "a/out", tmp_path / "b/out"])
        assert [run.label for run in runs] == ["out", "out#2"]


class TestRecordHelpers:
    def test_result_record_rejects_envelope_collision(self):
        from repro.experiments.common import result_record

        with pytest.raises(ExperimentError, match="envelope"):
            result_record("x", {"status": "partial"})
        with pytest.raises(ExperimentError, match="envelope"):
            result_record("x", {"seed": 1})

    def test_result_record_nullifies_non_finite(self):
        from repro.experiments.common import result_record

        record = result_record("x", {"m": float("nan"), "k": float("inf")})
        assert record["m"] is None and record["k"] is None

    def test_write_records_rejects_raw_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_records(
                [{"name": "x", "status": "ok", "m": float("nan")}],
                tmp_path / "out.jsonl",
            )


class TestSpecDiff:
    def test_flatten_collapses_lists(self):
        flat = flatten_spec(
            {"a": {"b": 1}, "sweep": {"axes": [{"path": "p"}]}}
        )
        assert flat["a.b"] == 1
        assert flat["sweep.axes"] == '[{"path": "p"}]'

    def test_diff_names_only_varying_fields(self, fleet_dirs):
        runs = load_fleet_runs(fleet_dirs)
        rows = dict(spec_diff(runs))
        assert set(rows) == {"name", "solver.beta"}
        assert rows["solver.beta"] == [400.0, 200.0]

    def test_missing_spec_shows_unknown(self, tmp_path, fleet_dirs):
        write_records(
            [{"name": "x", "status": "ok"}], tmp_path / "results.jsonl"
        )
        runs = load_fleet_runs([fleet_dirs[0], tmp_path])
        rows = dict(spec_diff(runs))
        assert all(values[1] == "?" for values in rows.values())


class TestComparison:
    def test_metric_stats_skips_non_numeric(self):
        records = [
            {"m": 1.0},
            {"m": 3.0},
            {"m": "oops"},
            {"m": True},
            {},
        ]
        stats = metric_stats(records, "m")
        assert stats.count == 2 and stats.mean == 2.0
        assert metric_stats(records, "absent") is None

    def test_compare_rejects_all_failed_run(self, tmp_path):
        write_records(
            [{"name": "x", "status": "error", "error": "boom"}],
            tmp_path / "results.jsonl",
        )
        run = load_fleet_run(tmp_path)
        with pytest.raises(SpecError, match="no successful records"):
            compare_fleets([run])

    def test_compare_rejects_nothing(self):
        with pytest.raises(SpecError, match="nothing to compare"):
            compare_fleets([])

    def test_deltas_vs_baseline(self, fleet_dirs):
        comparison = compare_fleets(load_fleet_runs(fleet_dirs))
        assert comparison.baseline.label == "base"
        delta = comparison.delta("beta200", "phi")
        assert delta is not None
        base = comparison.stats[("base", "phi")]
        other = comparison.stats[("beta200", "phi")]
        assert delta[0] == pytest.approx(other.mean - base.mean)
        assert base.ci_lo <= base.mean <= base.ci_hi

    def test_render_comparison_tables(self, fleet_dirs):
        text = render_comparison(compare_fleets(load_fleet_runs(fleet_dirs)))
        assert "spec diff" in text and "solver.beta" in text
        assert "400" in text and "200" in text
        assert "metric deltas vs baseline 'base'" in text
        for metric in ("traffic_mbps", "delay_ms", "phi", "hops_per_sec"):
            assert metric in text

    def test_csv_blocks_parse(self, fleet_dirs):
        csv_text = comparison_csv(compare_fleets(load_fleet_runs(fleet_dirs)))
        blocks = csv_text.split("\n\n")
        assert blocks[0].startswith("# spec diff\n")
        assert blocks[1].startswith("# metrics\n")
        spec_lines = blocks[0].splitlines()
        assert spec_lines[1] == "spec_field,base,beta200"
        assert "solver.beta,400,200" in spec_lines
        import csv as csv_module

        rows = list(
            csv_module.DictReader(blocks[1].splitlines()[1:])
        )
        phi_rows = {r["run"]: r for r in rows if r["metric"] == "phi"}
        assert set(phi_rows) == {"base", "beta200"}
        assert phi_rows["base"]["delta"] == ""
        assert float(phi_rows["beta200"]["mean"]) > 0
        assert phi_rows["beta200"]["delta_pct"] != ""

    def test_single_run_report(self, fleet_dirs):
        text = render_run_report(load_fleet_run(fleet_dirs[0]))
        assert "2 runs recorded (2 ok, 0 failed)" in text
        assert "fleet 'base' summary" in text


class _HtmlChecker(HTMLParser):
    """Asserts balanced tags and counts svg/polyline elements."""

    VOID = {"meta", "br"}

    def __init__(self):
        super().__init__()
        self.stack: list[str] = []
        self.svg = 0
        self.polylines = 0
        self.text = []

    def handle_starttag(self, tag, attrs):
        if tag in self.VOID:
            return
        if tag == "svg":
            self.svg += 1
        self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        if tag == "polyline":
            self.polylines += 1

    def handle_endtag(self, tag):
        assert self.stack and self.stack[-1] == tag, (tag, self.stack[-4:])
        self.stack.pop()

    def handle_data(self, data):
        self.text.append(data)


class TestHtml:
    def test_dashboard_is_self_contained_and_balanced(self, fleet_dirs):
        html_text = render_html(compare_fleets(load_fleet_runs(fleet_dirs)))
        assert html_text.startswith("<!DOCTYPE html>")
        assert "http" not in html_text  # no external assets
        checker = _HtmlChecker()
        checker.feed(html_text)
        assert not checker.stack
        # one sparkline per run per stored series (traffic/delay/phi),
        # one polyline per successful record.
        assert checker.svg == 2 * 3
        assert checker.polylines == 2 * 3 * 2
        body = "".join(checker.text)
        assert "base" in body and "beta200" in body
        assert "solver.beta" in body

    def test_sparkline_handles_empty_series(self):
        assert "no series" in sparkline_svg([], 0.0, 1.0)
        svg = sparkline_svg([{"t": [0, 1], "v": [0.0, 1.0]}], 0.0, 1.0)
        assert svg.startswith("<svg") and "polyline" in svg

    def test_flat_scale_does_not_divide_by_zero(self):
        svg = sparkline_svg([{"t": [0, 1], "v": [2.0, 2.0]}], 2.0, 2.0)
        assert "polyline" in svg


def _documented_fields(text: str, heading: str) -> list[str]:
    section = text.split(heading, 1)[1]
    section = re.split(r"\n#{2,3} ", section)[0]
    return re.findall(r"^\| `([a-z0-9_]+)` \|", section, re.MULTILINE)


class TestSchemaDocRoundTrip:
    """DESIGN.md 'Result records' stays honest against the code and
    against records a real fleet writes."""

    @pytest.fixture(scope="class")
    def design(self):
        return (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")

    def test_envelope_table_matches_code(self, design):
        assert _documented_fields(
            design, "### Envelope (all records)"
        ) == list(ENVELOPE_FIELDS)

    def test_fleet_table_matches_code(self, design):
        assert _documented_fields(
            design, "### Fleet metric payload"
        ) == list(FLEET_METRIC_FIELDS)

    def test_real_record_round_trips_against_doc(self, design, fleet_dirs):
        documented = set(
            _documented_fields(design, "### Envelope (all records)")
        ) | set(_documented_fields(design, "### Fleet metric payload"))
        records = load_result_records(fleet_dirs[0] / "results.jsonl")
        required = {
            name
            for name, (_t, required, _p) in ENVELOPE_FIELDS.items()
            if required
        }
        for record in records:
            validate_record(record, fleet=True)
            fields = set(record) - {"hops_per_sec"}
            assert fields <= documented, fields - documented
            assert required <= fields
            assert record["schema_version"] == SCHEMA_VERSION

    def test_experiment_records_share_envelope(self):
        from repro.experiments.fig2_motivating import run_fig2

        for record in run_fig2().result_records():
            validate_record(record)
            json.dumps(record, allow_nan=False)
            assert record["schema_version"] == record_schema_version(record)


def _check_records(records, expected_axes):
    """Shared assertions for experiment-emitted record lists."""
    assert records
    for record in records:
        validate_record(record)
        json.dumps(record, allow_nan=False)
        assert record["schema_version"] == record_schema_version(record)
        assert set(record["axes"]) == set(expected_axes)


class TestExperimentRecordEmission:
    """Every experiment runner emits the shared record shape (cheap
    configurations; the paper-shape checks live in test_experiments)."""

    def test_fig3(self):
        from repro.experiments.fig3_theory import run_fig3

        _check_records(
            run_fig3().result_records(), {"check", "solver.beta"}
        )

    def test_fig4(self):
        from repro.experiments.fig4_convergence import run_fig4

        result = run_fig4(seed=7, betas=(400.0,), duration_s=10.0)
        _check_records(result.result_records(), {"solver.beta"})

    def test_fig5(self):
        from repro.experiments.fig5_dynamics import run_fig5

        result = run_fig5(
            seed=7, duration_s=50.0, arrival_time_s=15.0,
            departure_time_s=30.0,
        )
        _check_records(result.result_records(), {"phase"})

    def test_fig6(self):
        from repro.experiments.fig6_agrank_init import run_fig6

        records = run_fig6(seed=7, duration_s=10.0).result_records()
        _check_records(records, {"solver.policy"})
        assert {r["axes"]["solver.policy"] for r in records} == {
            "agrank",
            "nearest",
        }

    def test_fig7(self):
        from repro.experiments.fig7_sessions import run_fig7

        result = run_fig7(seed=7, duration_s=20.0)
        _check_records(result.result_records(), {"session"})

    def test_fig9(self):
        from repro.experiments.fig9_success_rate import run_fig9

        result = run_fig9(
            num_scenarios=1, bandwidth_grid=(500.0,), transcode_grid=(30.0,)
        )
        records = result.result_records()
        _check_records(records, {"panel", "capacity"})
        assert any("success_pct_agrank2" in r for r in records)

    def test_fig10(self):
        from repro.experiments.fig10_nngbr import run_fig10
        from repro.workloads.scenarios import ScenarioParams

        result = run_fig10(
            num_scenarios=1,
            n_values=(1, 2),
            params=ScenarioParams(num_user_sites=64, num_users=40),
        )
        _check_records(result.result_records(), {"solver.n_ngbr"})

    def test_noise(self):
        from repro.experiments.noise_robustness import run_noise_robustness

        result = run_noise_robustness(
            seed=7, deltas=(0.0, 0.1), trials=1, hops=50
        )
        _check_records(result.result_records(), {"noise.delta"})

    def test_fig8_and_table2_from_synthetic_sweep(self):
        from repro.experiments.alpha_sweep import ALPHA_CONFIGS, POLICIES
        from repro.experiments.alpha_sweep import SweepOutcome
        from repro.experiments.fig8_delay_boxplot import Fig8Result
        from repro.experiments.table2_alpha import Table2Result

        columns = ("init",) + tuple(label for label, *_ in ALPHA_CONFIGS)
        outcomes = [
            SweepOutcome(
                scenario_seed=seed,
                policy=policy,
                column=column,
                traffic_mbps=100.0 + seed,
                delay_ms=150.0 + seed,
            )
            for policy in POLICIES
            for column in columns
            for seed in (0, 1, 2)
        ]
        fig8 = Fig8Result(outcomes=outcomes, num_scenarios=3)
        _check_records(fig8.result_records(), {"solver.policy", "alpha"})
        table2 = Table2Result(outcomes=outcomes, num_scenarios=3)
        _check_records(table2.result_records(), {"solver.policy", "alpha"})
