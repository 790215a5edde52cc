"""Integration tests: telemetry through real fleets, backends, reports.

The two load-bearing guarantees (ISSUE 6 acceptance):

* telemetry **off** is the default and results are bit-identical to a
  telemetry-**on** run — instrumentation reads only the wall clock and
  its record fields are volatile, so the canonical digest cannot move;
* telemetry **on** survives every backend's transport (in-process,
  pickle, JSON-over-pipe) as well-formed span trees with the same span
  taxonomy everywhere.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.report import (
    canonical_results_digest,
    render_telemetry_report,
    telemetry_breakdown,
    validate_record,
)
from repro.errors import SpecError
from repro.fleet.orchestrator import FleetOrchestrator, load_records
from repro.fleet.spec import (
    AxisSpec,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    WorkloadSpec,
)
from repro.netsim.latency import clear_substrate_cache
from repro.telemetry import load_run_telemetry, span_names


def golden_spec() -> RunSpec:
    """The same golden sweep the backend-equivalence tests pin."""
    return RunSpec(
        name="golden",
        workload=WorkloadSpec(kind="prototype", num_sessions=2),
        simulation=SimulationSpec(
            duration_s=8.0, hop_interval_mean_s=4.0, seed=3
        ),
        sweep=SweepSpec(
            replicates=2,
            axes=(AxisSpec(path="solver.beta", values=(200, 400)),),
        ),
    )


#: Unit-scope span paths every instrumented unit must report.
UNIT_SPANS = {
    "unit.compile",
    "unit.solve",
    "unit.solve/sim.bootstrap",
    "unit.solve/solver.hop_batch",
}


def run_fleet(out_dir, telemetry: bool, backend: str = "serial", workers=1):
    result = FleetOrchestrator(
        out_dir, workers=workers, backend=backend, telemetry=telemetry or None
    ).run(golden_spec())
    assert result.executed == 4 and result.failed == 0
    return result


class TestDisabledPath:
    def test_results_bit_identical_with_telemetry_on_or_off(self, tmp_path):
        """The canonical digest — already blind to wall_time_s — ignores
        the volatile timings/counters blocks, so a telemetry run and a
        plain run produce the same canonical results.jsonl."""
        run_fleet(tmp_path / "off", telemetry=False)
        run_fleet(tmp_path / "on", telemetry=True)
        assert canonical_results_digest(
            tmp_path / "off"
        ) == canonical_results_digest(tmp_path / "on")

    def test_off_is_really_off(self, tmp_path):
        result = run_fleet(tmp_path / "off", telemetry=False)
        assert not result.telemetry_path.exists()
        for record in load_records(tmp_path / "off"):
            assert "timings" not in record and "counters" not in record
            assert "telemetry" not in record  # transient key never lands


class TestEnabledPath:
    def test_telemetry_jsonl_round_trips(self, tmp_path):
        result = run_fleet(tmp_path / "run", telemetry=True)
        assert result.telemetry_path.exists()
        # load_run_telemetry validates every line on the way in.
        telemetry = load_run_telemetry(tmp_path / "run")
        assert len(telemetry.units) == 4
        for record in telemetry.units.values():
            assert UNIT_SPANS <= span_names(record)
            counters = record["counters"]
            assert counters["solver.hops_proposed"] >= 1
            assert counters["solver.candidates"] >= 1
            assert counters["sim.samples"] >= 1
        assert telemetry.fleet is not None
        assert "fleet.sweep" in span_names(telemetry.fleet)

    def test_records_carry_volatile_envelope_blocks(self, tmp_path):
        run_fleet(tmp_path / "run", telemetry=True)
        for record in load_records(tmp_path / "run"):
            validate_record(record, fleet=True)
            assert UNIT_SPANS <= set(record["timings"])
            assert record["counters"]["solver.hops_proposed"] >= 1

    def test_cached_rerun_keeps_unit_telemetry(self, tmp_path):
        """A warm re-run executes nothing, but must not wipe the unit
        profiles of the first run — cached run ids carry their
        telemetry records forward like their result records."""
        run_fleet(tmp_path / "run", telemetry=True)
        result = FleetOrchestrator(
            tmp_path / "run", workers=1, backend="serial", telemetry=True
        ).run(golden_spec())
        assert result.executed == 0 and result.skipped == 4
        telemetry = load_run_telemetry(tmp_path / "run")
        assert len(telemetry.units) == 4
        for record in telemetry.units.values():
            assert UNIT_SPANS <= span_names(record)

    @pytest.mark.parametrize("backend,workers", [("local", 2), ("pool", 2)])
    def test_backend_spans_match_serial(self, tmp_path, backend, workers):
        """The pool's JSON-over-pipe transport (reached directly, or
        through the ``local`` rule) must deliver the same span taxonomy
        per unit as the in-process serial path."""
        run_fleet(tmp_path / "serial", telemetry=True)
        run_fleet(tmp_path / backend, telemetry=True, backend=backend,
                  workers=workers)
        serial = load_run_telemetry(tmp_path / "serial")
        other = load_run_telemetry(tmp_path / backend)
        assert set(serial.units) == set(other.units)
        for run_id, record in serial.units.items():
            assert span_names(record) == span_names(other.units[run_id])

    def test_warm_cache_reports_one_synthesis_per_substrate(self, tmp_path):
        """Regression for the substrate-cache counters: the golden sweep
        spans 2 seeds x 2 betas over one workload, and the substrate
        depends only on the seed — so a serial run must synthesize
        exactly 2 substrates and hit the warm cache for the other 2
        units, with the telemetry counters agreeing with the cache's
        own stats API."""
        from repro.netsim.latency import substrate_cache_stats

        clear_substrate_cache()
        run_fleet(tmp_path / "run", telemetry=True)
        telemetry = load_run_telemetry(tmp_path / "run")
        misses = sum(
            record["counters"].get("substrate.cache_misses", 0)
            for record in telemetry.units.values()
        )
        hits = sum(
            record["counters"].get("substrate.cache_hits", 0)
            for record in telemetry.units.values()
        )
        distinct_seeds = 2  # replicates; betas share a seed's substrate
        assert misses == distinct_seeds
        assert hits == len(telemetry.units) - distinct_seeds
        stats = substrate_cache_stats()
        assert stats["builds"] == misses and stats["hits"] == hits


class TestTelemetryReport:
    def test_breakdown_and_report_render(self, tmp_path):
        clear_substrate_cache()
        run_fleet(tmp_path / "run", telemetry=True)
        breakdown = telemetry_breakdown(tmp_path / "run")
        assert breakdown["units"] == 4
        assert UNIT_SPANS <= set(breakdown["timings"])
        assert breakdown["cache"]["misses"] == 2  # one per seed substrate
        assert 0.0 < breakdown["cache"]["hit_rate"] < 1.0
        text = render_telemetry_report(tmp_path / "run")
        assert "4 instrumented unit(s)" in text
        assert "phase-time breakdown" in text
        assert "solver.hop_batch" in text
        assert "solver.hops_proposed" in text
        assert "substrate cache:" in text

    def test_report_without_telemetry_has_actionable_error(self, tmp_path):
        run_fleet(tmp_path / "plain", telemetry=False)
        with pytest.raises(SpecError, match="--telemetry"):
            render_telemetry_report(tmp_path / "plain")

    def test_html_panel_renders_bars(self, tmp_path):
        from repro.analysis.html import render_html
        from repro.analysis.report import compare_fleets, load_fleet_runs

        run_fleet(tmp_path / "run", telemetry=True)
        runs = load_fleet_runs([tmp_path / "run"])
        html = render_html(
            compare_fleets(runs),
            telemetry={runs[0].label: telemetry_breakdown(runs[0].path)},
        )
        assert "<h2>Telemetry</h2>" in html
        assert 'class="bar"' in html
        assert "solver.hop_batch" in html


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_PERF"),
    reason="perf guard is opt-in; set REPRO_PERF=1",
)
def test_enabled_telemetry_overhead_below_five_percent():
    """Opt-in guard: running the solver under an active collector may
    cost at most 5% hops/sec versus the disabled path (median of 5)."""
    import repro.telemetry as tele
    from repro.core.markov import MarkovAssignmentSolver, MarkovConfig
    from repro.core.nearest import nearest_assignment
    from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
    from repro.workloads.scenarios import ScenarioParams, scenario_conference

    conference = scenario_conference(
        seed=11, params=ScenarioParams(num_user_sites=96, num_users=160)
    )
    evaluator = ObjectiveEvaluator(
        conference, ObjectiveWeights.normalized_for(conference)
    )

    def hops_per_second(instrumented: bool, num_hops: int = 200) -> float:
        solver = MarkovAssignmentSolver(
            evaluator,
            nearest_assignment(conference),
            config=MarkovConfig(beta=64.0),
            rng=np.random.default_rng(0),
        )
        solver.run(20)  # warm caches outside the timed window
        if instrumented:
            with tele.collect():
                start = time.perf_counter()
                solver.run(num_hops)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            solver.run(num_hops)
            elapsed = time.perf_counter() - start
        return num_hops / elapsed

    def median_rate(instrumented: bool) -> float:
        rates = sorted(hops_per_second(instrumented) for _ in range(5))
        return rates[2]

    plain = median_rate(False)
    instrumented = median_rate(True)
    assert instrumented >= 0.95 * plain, (
        f"telemetry overhead too high: {instrumented:.0f} hops/s "
        f"instrumented vs {plain:.0f} plain"
    )
