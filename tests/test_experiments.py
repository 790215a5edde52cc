"""Smoke + shape tests for the experiment harness (small scales)."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.common import (
    PAPER_BETA_CALIBRATION,
    SeriesBundle,
    effective_beta,
    percent_change,
    scenarios_from_env,
)
from repro.experiments.fig2_motivating import run_fig2
from repro.experiments.fig3_theory import run_fig3
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.workloads.scenarios import ScenarioParams


class TestCommon:
    def test_effective_beta(self):
        assert effective_beta(400.0) == pytest.approx(400.0 / PAPER_BETA_CALIBRATION)
        with pytest.raises(ExperimentError):
            effective_beta(0.0)

    def test_percent_change(self):
        assert percent_change(100.0, 50.0) == -50.0
        with pytest.raises(ExperimentError):
            percent_change(0.0, 1.0)

    def test_scenarios_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCENARIOS", raising=False)
        assert scenarios_from_env(7) == 7
        monkeypatch.setenv("REPRO_SCENARIOS", "3")
        assert scenarios_from_env(7) == 3
        monkeypatch.setenv("REPRO_SCENARIOS", "zero")
        with pytest.raises(ExperimentError):
            scenarios_from_env(7)

    def test_series_bundle(self):
        bundle = SeriesBundle(label="x")
        bundle.add("traffic", np.array([0.0, 1.0]), np.array([5.0, 4.0]))
        times, values = bundle.get("traffic")
        assert list(values) == [5.0, 4.0]
        rows = bundle.csv_rows()
        assert rows[0].startswith("x,traffic,0.000,")
        with pytest.raises(ExperimentError):
            bundle.get("delay")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10", "table2",
        }
        assert expected <= set(EXPERIMENTS)

    def test_extension_experiments_registered(self):
        assert "noise" in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_descriptions_non_empty(self):
        assert all(spec.description for spec in EXPERIMENTS.values())

    def test_every_target_resolves_to_its_runner(self):
        for spec in EXPERIMENTS.values():
            module, function = spec.target.split(":")
            assert module.startswith("repro.experiments."), spec.target
            assert callable(spec.runner), spec.target
            assert spec.runner.__name__ == function, spec.target
            assert spec.runner.__module__ == module, spec.target


class TestFig2:
    def test_paper_claims(self):
        result = run_fig2()
        assert result.nearest_agent_of_user4 == "SG"
        traffic = {row["assignment of user 4"]: row["traffic (Mbps)"] for row in result.rows}
        delay = {row["assignment of user 4"]: row["delay cost F (ms)"] for row in result.rows}
        # Claim: TO beats SG on both traffic and delay.
        assert traffic["TO (session-aware)"] < traffic["SG (nearest)"]
        assert delay["TO (session-aware)"] < delay["SG (nearest)"]
        # Claim: SG transcodes faster.
        assert result.sg_transcode_ms < result.to_transcode_ms
        assert "Fig. 2" in result.format_report()


class TestFig3:
    def test_theory_checks(self):
        result = run_fig3(beta=6.0)
        assert result.num_states == 8
        assert result.tv_metropolis_rule < 1e-8
        assert result.tv_paper_rule > result.tv_metropolis_rule
        assert result.eq10_lower <= result.eq10_phi_hat <= result.eq10_upper
        assert 0.0 <= result.eq12_gap <= result.eq12_bound
        assert 0.0 <= result.eq13_gap <= result.eq13_bound_value
        assert "theory" in result.format_report()


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.fig4_convergence import run_fig4

        return run_fig4(seed=7, betas=(200.0, 400.0), duration_s=120.0)

    def test_traffic_drops_from_nrst(self, result):
        for beta, sim in result.simulations.items():
            assert sim.steady_state_mean("traffic") < 0.6 * sim.initial_value(
                "traffic"
            )

    def test_higher_beta_converges_lower(self, result):
        ss200 = result.simulations[200.0].steady_state_mean("traffic")
        ss400 = result.simulations[400.0].steady_state_mean("traffic")
        assert ss400 <= ss200

    def test_report_renders(self, result):
        text = result.format_report()
        assert "beta" in text and "200" in text and "400" in text


class TestFig5:
    def test_dynamics_shape(self):
        from repro.experiments.fig5_dynamics import run_fig5

        result = run_fig5(seed=7, duration_s=120.0)
        rows = {row["phase"]: row for row in result.phase_rows()}
        # Arrival raises traffic relative to the pre-arrival converged level.
        assert (
            rows["after arrival (10)"]["traffic@start"]
            > rows["initial (6 sessions)"]["traffic@end"]
        )
        # Departure lowers traffic relative to the pre-departure level.
        assert (
            rows["after departure (7)"]["traffic@start"]
            < rows["after arrival (10)"]["traffic@end"] * 1.5
        )
        assert rows["after departure (7)"]["sessions"] == 7.0


class TestFig10:
    def test_nngbr_shape(self):
        from repro.experiments.fig10_nngbr import run_fig10

        params = ScenarioParams(num_user_sites=64, num_users=40)
        result = run_fig10(num_scenarios=2, n_values=(1, 3, 7), params=params)
        traffic = {n: result.points[n][0] for n in result.points}
        delay = {n: result.points[n][1] for n in result.points}
        assert traffic[1] > traffic[3] > traffic[7]
        assert delay[7] >= delay[1]
        assert "n_ngbr" in result.format_report()


class TestFig9:
    def test_success_rate_shape(self):
        from repro.experiments.fig9_success_rate import run_fig9

        result = run_fig9(
            num_scenarios=4,
            bandwidth_grid=(500.0, 1000.0),
            transcode_grid=(30.0, 70.0),
        )
        band = result.rates["bandwidth"]
        # Success increases with capacity for every policy.
        for label in ("Nrst", "AgRank#2", "AgRank#3"):
            assert band[1000.0][label] >= band[500.0][label]
        # AgRank beats Nrst at high capacity.
        assert band[1000.0]["AgRank#3"] >= band[1000.0]["Nrst"]
        assert "Fig. 9" in result.format_report()


class TestRunExperiment:
    def test_run_by_id(self):
        result = run_experiment("fig2")
        assert result.nearest_agent_of_user4 == "SG"
