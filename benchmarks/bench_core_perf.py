"""Performance microbenchmarks of the hot paths.

These are classic pytest-benchmark measurements (multiple rounds): the
per-assignment usage and delay functions, a full HOP at Internet scale
(hops/sec captured in the BENCH json), AgRank ranking, and the
synthetic-latency substrate.  They guard against regressions in the code
the experiments spend their time in; ``test_perf_arrays_hop_rate``
records the struct-of-arrays kernel's absolute hops/sec at 10x
huge_conference scale, a number to track over time rather than a floor.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.agrank import AgRankConfig, rank_agents
from repro.core.arrays import arrays_for
from repro.core.fastpath import ConferenceProfile
from repro.core.markov import MarkovAssignmentSolver, MarkovConfig
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.netsim.latency import LatencyModel
from repro.netsim.sites import region, sample_user_sites
from repro.workloads.scenarios import ScenarioParams, scenario_conference


@pytest.fixture(scope="module")
def scenario():
    conference = scenario_conference(seed=42)
    evaluator = ObjectiveEvaluator(
        conference, ObjectiveWeights.normalized_for(conference)
    )
    return conference, evaluator


@pytest.fixture(scope="module")
def massive_scenario():
    """10x the huge_conference library shape: 5000 users, 3840 sites.

    Session plans and the struct-of-arrays layouts are prebuilt here so
    the timed windows measure steady-state hop throughput, not one-time
    construction.
    """
    conference = scenario_conference(
        seed=11, params=ScenarioParams(num_user_sites=3840, num_users=5000)
    )
    evaluator = ObjectiveEvaluator(
        conference, ObjectiveWeights.normalized_for(conference)
    )
    profile = evaluator.profile
    sids = [session.sid for session in conference.sessions]
    for sid in sids:
        profile.plan(sid)
    arrays_for(profile).warm(sids)
    return conference, evaluator


def _hop_solver(evaluator, conference):
    return MarkovAssignmentSolver(
        evaluator,
        nearest_assignment(conference),
        config=MarkovConfig(beta=32.0),
        rng=np.random.default_rng(0),
    )


def test_perf_session_usage_kernel(benchmark, scenario):
    conference, evaluator = scenario
    profile = evaluator.profile
    assignment = nearest_assignment(conference)
    benchmark(
        profile.session_usage, assignment.user_agent, assignment.task_agent, 0
    )


def test_perf_session_delay_kernel(benchmark, scenario):
    conference, evaluator = scenario
    profile = evaluator.profile
    assignment = nearest_assignment(conference)
    benchmark(
        profile.session_delays, assignment.user_agent, assignment.task_agent, 0
    )


def test_perf_full_hop_internet_scale(benchmark, scenario):
    """Hop throughput at Internet scale."""
    conference, evaluator = scenario
    solver = _hop_solver(evaluator, conference)
    sids = solver.context.active_sessions

    counter = iter(range(10**9))

    def one_hop():
        solver.session_hop(sids[next(counter) % len(sids)])

    benchmark(one_hop)
    benchmark.extra_info["hops_per_sec"] = 1.0 / benchmark.stats.stats.mean


def test_perf_arrays_hop_rate(benchmark, massive_scenario):
    """Arrays hops/sec at 10x huge_conference scale.

    The BENCH json records the best-of-windows rate as an absolute
    number to track over time; there is no floor.
    """
    conference, evaluator = massive_scenario
    solver = _hop_solver(evaluator, conference)
    solver.run(20)  # warm caches outside the timed windows
    # Best-of windows: scheduler noise on a shared box only ever *slows*
    # a window, so the max rate is the robust throughput estimator.
    rate = 0.0
    num_hops = 200
    for _window in range(5):
        start = time.perf_counter()
        solver.run(num_hops)
        rate = max(rate, num_hops / (time.perf_counter() - start))

    sids = solver.context.active_sessions
    counter = iter(range(10**9))
    benchmark(lambda: solver.session_hop(sids[next(counter) % len(sids)]))

    benchmark.extra_info["hops_per_sec_arrays"] = rate
    print(f"\n  10x-scale HOP: arrays {rate:.0f} hops/s")


def test_perf_agrank_ranking(benchmark, scenario):
    conference, _evaluator = scenario
    benchmark(rank_agents, conference, 0, None, AgRankConfig(n_ngbr=3))


def test_perf_profile_construction(benchmark, scenario):
    conference, _evaluator = scenario
    benchmark(ConferenceProfile, conference)


def test_perf_latency_synthesis(benchmark):
    regions = [region(n) for n in ("Virginia", "Oregon", "Tokyo", "Singapore")]
    sites = sample_user_sites(64, np.random.default_rng(0))
    model = LatencyModel(seed=1)
    benchmark(model.agent_user_matrix, regions, sites)
