"""Benches: ablation experiments A3-A5 (DESIGN.md).

A3 — hop rule: paper softmax vs Metropolis correction (stationary error
     and solution quality);
A4 — AgRank resource prior: residual-aware vs delay-only ranking under
     tight capacities;
A5 — solver shoot-out: Markov vs greedy vs annealing vs exact on an
     enumerable instance.

A6 (the paper's mu formula vs the explicit router on solver-visited
states) is a test now, ``tests/test_core_flows.py``: the router is part of
the test-only flow oracle.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.agrank import AgRankConfig
from repro.core.annealing import AnnealingConfig, simulated_annealing
from repro.core.bootstrap import try_bootstrap
from repro.core.exact import solve_exact
from repro.core.greedy import greedy_descent
from repro.core.markov import MarkovAssignmentSolver, MarkovConfig
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.core.theory import (
    build_state_space,
    generator_matrix,
    gibbs_distribution,
    stationary_distribution,
    total_variation,
)
from repro.experiments.common import effective_beta
from repro.workloads.motivating import motivating_conference
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference
from repro.workloads.toy import toy_conference


def test_a3_hop_rule_stationary_error(benchmark):
    """The paper's normalized HOP deviates from Gibbs; the Metropolis
    variant restores it exactly (reproduction finding, DESIGN.md)."""

    def run():
        conference = toy_conference()
        evaluator = ObjectiveEvaluator(
            conference, ObjectiveWeights.normalized_for(conference)
        )
        space = build_state_space(evaluator)
        rows = []
        for beta in (2.0, 6.0, 12.0):
            gibbs = gibbs_distribution(space.phis, beta)
            tv = {}
            for rule in ("paper", "metropolis"):
                q = generator_matrix(conference, space, beta, rule=rule)
                tv[rule] = total_variation(stationary_distribution(q), gibbs)
            rows.append((beta, tv["paper"], tv["metropolis"]))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nA3 - TV distance to the Gibbs target:")
    print(f"{'beta':>6}  {'paper rule':>12}  {'metropolis':>12}")
    for beta, tv_paper, tv_metro in rows:
        print(f"{beta:6.1f}  {tv_paper:12.4f}  {tv_metro:12.4f}")
        assert tv_metro < 1e-8
        assert tv_paper > tv_metro


def test_a3_hop_rule_solution_quality(benchmark):
    """Both rules find comparable best states on the prototype; the paper
    rule hops more (it never rejects)."""

    def run():
        conference = prototype_conference(seed=7)
        evaluator = ObjectiveEvaluator(
            conference, ObjectiveWeights.normalized_for(conference)
        )
        initial = nearest_assignment(conference)
        out = {}
        for rule in ("paper", "metropolis"):
            solver = MarkovAssignmentSolver(
                evaluator,
                initial,
                config=MarkovConfig(beta=effective_beta(400.0), hop_rule=rule),
                rng=np.random.default_rng(11),
            )
            solver.run(600)
            out[rule] = (solver.best_phi, solver.migrations)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nA3 - solution quality by hop rule (equal wake budget):")
    for rule, (phi, migrations) in out.items():
        print(f"  {rule:>10}: best phi {phi:.3f}, migrations {migrations}")
    print(
        "  (finding: the softmax rule targets good candidates directly and"
        " mixes much faster per wake; Metropolis pays for exact detailed"
        " balance with uniform proposals and high rejection rates)"
    )
    paper_phi, paper_migrations = out["paper"]
    metro_phi, metro_migrations = out["metropolis"]
    assert paper_migrations > metro_migrations
    # Within an equal budget the paper rule is at least as good.
    assert paper_phi <= metro_phi + 1e-9


def test_a4_agrank_resource_prior(benchmark):
    """Under tight bandwidth, the residual-aware prior (low damping)
    admits more scenarios than a delay-only ranking (damping -> 1)."""

    def run():
        params = ScenarioParams(
            mean_bandwidth_mbps=800.0, mean_transcode_slots=math.inf
        )
        success = {"resource-aware (d=0.3)": 0, "delay-only (d=0.999)": 0}
        count = 8
        for i in range(count):
            conference = scenario_conference(seed=7000 + i, params=params)
            for label, damping in (
                ("resource-aware (d=0.3)", 0.3),
                ("delay-only (d=0.999)", 0.999),
            ):
                config = AgRankConfig(n_ngbr=3, damping=damping)
                if try_bootstrap(conference, "agrank", config=config).success:
                    success[label] += 1
        return success, count

    success, count = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nA4 - AgRank admission success by ranking prior:")
    for label, wins in success.items():
        print(f"  {label:>24}: {100.0 * wins / count:.0f}%")
    assert success["resource-aware (d=0.3)"] >= success["delay-only (d=0.999)"]


def test_a5_solver_shootout(benchmark):
    """Markov vs greedy vs annealing vs exact on the Fig. 2 instance."""

    def run():
        conference = motivating_conference()
        evaluator = ObjectiveEvaluator(
            conference, ObjectiveWeights.normalized_for(conference)
        )
        initial = nearest_assignment(conference)
        exact = solve_exact(evaluator)
        greedy = greedy_descent(evaluator, initial)
        annealed = simulated_annealing(
            evaluator,
            initial,
            config=AnnealingConfig(hops=800),
            rng=np.random.default_rng(5),
        )
        markov = MarkovAssignmentSolver(
            evaluator,
            initial,
            config=MarkovConfig(beta=12.0),
            rng=np.random.default_rng(5),
        )
        markov.run(800)
        return {
            "exact": exact.phi,
            "markov (best)": markov.best_phi,
            "annealing": annealed.phi,
            "greedy": greedy.phi,
            "nearest init": evaluator.total(initial).phi,
        }

    phis = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nA5 - solver shoot-out on the Fig. 2 instance (phi, lower=better):")
    for name, phi in sorted(phis.items(), key=lambda item: item[1]):
        print(f"  {name:>14}: {phi:.4f}")
    assert phis["exact"] <= min(phis.values()) + 1e-9
    assert phis["markov (best)"] <= phis["greedy"] + 1e-9
    assert phis["markov (best)"] <= phis["nearest init"]
    # Markov lands within 5 % of the exact optimum on this instance.
    assert phis["markov (best)"] <= phis["exact"] * 1.05
