"""Tests for repro.runtime.simulation — the event-driven control plane."""

import numpy as np
import pytest

from repro.core.feasibility import is_feasible
from repro.core.markov import MarkovConfig
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.errors import SimulationError
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.simulation import ConferencingSimulator, SimulationConfig
from repro.workloads.prototype import prototype_conference


@pytest.fixture(scope="module")
def evaluator():
    conference = prototype_conference(seed=3, num_sessions=4)
    return ObjectiveEvaluator(
        conference, ObjectiveWeights.normalized_for(conference)
    )


def quick_config(**overrides):
    defaults = dict(
        duration_s=40.0,
        sample_interval_s=2.0,
        hop_interval_mean_s=4.0,
        markov=MarkovConfig(beta=32.0),
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(SimulationError):
            SimulationConfig(duration_s=0.0)
        with pytest.raises(SimulationError):
            SimulationConfig(sample_interval_s=0.0)
        with pytest.raises(SimulationError):
            SimulationConfig(hop_interval_mean_s=-1.0)
        with pytest.raises(SimulationError):
            SimulationConfig(freeze_duration_s=-0.1)


class TestStaticRun:
    def test_series_cover_duration(self, evaluator):
        conference = evaluator.conference
        simulator = ConferencingSimulator(
            evaluator,
            DynamicsSchedule.static(range(conference.num_sessions)),
            quick_config(),
        )
        result = simulator.run()
        times, values = result.series("traffic")
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(40.0)
        assert len(times) == 21  # every 2 s inclusive
        assert (values >= 0).all()

    def test_traffic_decreases_from_nrst(self, evaluator):
        conference = evaluator.conference
        simulator = ConferencingSimulator(
            evaluator,
            DynamicsSchedule.static(range(conference.num_sessions)),
            quick_config(duration_s=60.0),
        )
        result = simulator.run()
        assert result.steady_state_mean("traffic") < result.initial_value("traffic")

    def test_final_assignment_feasible(self, evaluator):
        conference = evaluator.conference
        simulator = ConferencingSimulator(
            evaluator,
            DynamicsSchedule.static(range(conference.num_sessions)),
            quick_config(),
        )
        result = simulator.run()
        assert is_feasible(conference, result.final_assignment)

    def test_migrations_match_hops_with_paper_rule(self, evaluator):
        """The paper rule migrates on every wake (when candidates exist)."""
        conference = evaluator.conference
        simulator = ConferencingSimulator(
            evaluator,
            DynamicsSchedule.static(range(conference.num_sessions)),
            quick_config(),
        )
        result = simulator.run()
        assert len(result.migrations) == result.hops > 0
        assert result.freezes == len(result.migrations)
        assert result.total_overhead_kb > 0

    def test_deterministic_under_seed(self, evaluator):
        conference = evaluator.conference

        def run():
            return ConferencingSimulator(
                evaluator,
                DynamicsSchedule.static(range(conference.num_sessions)),
                quick_config(),
            ).run()

        a, b = run(), run()
        assert np.array_equal(a.series("traffic")[1], b.series("traffic")[1])
        assert a.final_assignment == b.final_assignment

    def test_per_session_tracking(self, evaluator):
        conference = evaluator.conference
        simulator = ConferencingSimulator(
            evaluator,
            DynamicsSchedule.static(range(conference.num_sessions)),
            quick_config(track_sessions=(0, 2)),
        )
        result = simulator.run()
        _, s0 = result.series("s0/traffic")
        assert (s0 >= 0).all()
        assert "s2/delay" in result.recorder


class TestDynamicsRun:
    def test_arrival_and_departure_change_session_count(self, evaluator):
        conference = evaluator.conference
        schedule = DynamicsSchedule.fig5(
            initial_sids=[0, 1],
            arriving_sids=[2, 3],
            departing_sids=[0],
            arrival_time_s=10.0,
            departure_time_s=25.0,
        )
        simulator = ConferencingSimulator(evaluator, schedule, quick_config())
        result = simulator.run()
        times, sessions = result.series("sessions")
        assert sessions[times < 10.0].max() == 2
        assert sessions[(times > 11.0) & (times < 25.0)].max() == 4
        assert sessions[times > 26.0].max() == 3

    def test_departed_session_stops_contributing(self, evaluator):
        conference = evaluator.conference
        # Departing everything leaves nothing to sample; keep one session.
        schedule = DynamicsSchedule.fig5(
            initial_sids=[0, 1, 2],
            arriving_sids=[],
            departing_sids=[0, 1],
            arrival_time_s=5.0,
            departure_time_s=20.0,
        )
        simulator = ConferencingSimulator(evaluator, schedule, quick_config())
        result = simulator.run()
        times, sessions = result.series("sessions")
        assert sessions[times > 21.0].max() == 1

    def test_agrank_bootstrap_policy(self, evaluator):
        conference = evaluator.conference
        simulator = ConferencingSimulator(
            evaluator,
            DynamicsSchedule.static(range(conference.num_sessions)),
            quick_config(initial_policy="agrank"),
        )
        result = simulator.run()
        assert is_feasible(conference, result.final_assignment)
