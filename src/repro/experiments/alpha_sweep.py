"""The Internet-scale alpha sweep shared by Table II and Fig. 8.

For each random scenario (256 sites, 7 agents, 200 users) and each initial
policy (Nrst / AgRank), records the metrics of the initial assignment and
of Alg. 1's best state under the paper's three design-parameter mixes:

* ``alpha2 = 0`` — delay only (``alpha = (1, 0, 0)``);
* ``alpha1 = alpha2`` — the hybrid objective (``alpha = (1, 1, 1)``);
* ``alpha1 = 0`` — traffic cost only (``alpha = (0, 1, 1)``).

The transcoding weight alpha3 follows alpha2 (both are provider-cost
terms), matching the paper's delay-vs-cost framing of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.agrank import AgRankConfig
from repro.core.bootstrap import bootstrap_assignment
from repro.core.markov import MarkovAssignmentSolver, MarkovConfig
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.experiments.common import effective_beta
from repro.workloads.scenarios import ScenarioParams, scenario_conference

#: ``(label, alpha1, alpha2, alpha3)`` in the paper's column order.
ALPHA_CONFIGS: tuple[tuple[str, float, float, float], ...] = (
    ("a2=0 (delay only)", 1.0, 0.0, 0.0),
    ("a1=a2", 1.0, 1.0, 1.0),
    ("a1=0 (traffic only)", 0.0, 1.0, 1.0),
)

#: Initial-policy labels in the paper's row order.
POLICIES: tuple[str, ...] = ("nearest", "agrank")


@dataclass(frozen=True)
class SweepOutcome:
    """One measured cell: scenario x policy x column."""

    scenario_seed: int
    policy: str
    column: str  # "init" or an ALPHA_CONFIGS label
    traffic_mbps: float
    delay_ms: float


def sweep_scenario(
    scenario_seed: int,
    params: ScenarioParams | None = None,
    beta: float = 400.0,
    hops_per_session: int = 40,
    agrank: AgRankConfig | None = None,
    alpha_configs: tuple[tuple[str, float, float, float], ...] = ALPHA_CONFIGS,
    policies: tuple[str, ...] = POLICIES,
) -> list[SweepOutcome]:
    """All outcomes of one scenario (init + alpha configs per policy)."""
    conference = scenario_conference(seed=scenario_seed, params=params)
    base_weights = ObjectiveWeights.normalized_for(conference)
    evaluator = ObjectiveEvaluator(conference, base_weights)
    num_sessions = conference.num_sessions
    outcomes: list[SweepOutcome] = []

    for policy in policies:
        if policy == "nearest":
            initial = nearest_assignment(conference)
        else:
            # Admit on capacity only; Alg. 1's hop filter enforces the
            # delay cap from the first migration onwards.
            initial = bootstrap_assignment(conference, "agrank", config=agrank)
        init_total = evaluator.total(initial)
        outcomes.append(
            SweepOutcome(
                scenario_seed=scenario_seed,
                policy=policy,
                column="init",
                traffic_mbps=init_total.inter_agent_mbps,
                delay_ms=init_total.average_delay_ms,
            )
        )
        for label, a1, a2, a3 in alpha_configs:
            run_evaluator = evaluator.with_weights(
                base_weights.with_alphas(a1, a2, a3)
            )
            solver = MarkovAssignmentSolver(
                run_evaluator,
                initial,
                config=MarkovConfig(beta=effective_beta(beta)),
                rng=np.random.default_rng(
                    (scenario_seed, hash(policy) & 0xFFFF, len(label))
                ),
            )
            solver.run_until_stable(
                min_hops=4 * num_sessions,
                max_hops=hops_per_session * num_sessions,
            )
            best = evaluator.total(solver.best_assignment)
            outcomes.append(
                SweepOutcome(
                    scenario_seed=scenario_seed,
                    policy=policy,
                    column=label,
                    traffic_mbps=best.inter_agent_mbps,
                    delay_ms=best.average_delay_ms,
                )
            )
    return outcomes


def run_alpha_sweep(
    num_scenarios: int,
    first_seed: int = 1000,
    params: ScenarioParams | None = None,
    beta: float = 400.0,
    hops_per_session: int = 40,
) -> list[SweepOutcome]:
    """Run ``num_scenarios`` scenarios (seeds ``first_seed + i``)."""
    outcomes: list[SweepOutcome] = []
    for i in range(num_scenarios):
        outcomes.extend(
            sweep_scenario(
                scenario_seed=first_seed + i,
                params=params,
                beta=beta,
                hops_per_session=hops_per_session,
            )
        )
    return outcomes


def aggregate(
    outcomes: list[SweepOutcome], policy: str, column: str
) -> tuple[float, float]:
    """Mean ``(traffic, delay)`` over scenarios for one cell."""
    cells = [o for o in outcomes if o.policy == policy and o.column == column]
    if not cells:
        raise ValueError(f"no outcomes for policy={policy!r} column={column!r}")
    return (
        float(np.mean([o.traffic_mbps for o in cells])),
        float(np.mean([o.delay_ms for o in cells])),
    )


def delays_of(outcomes: list[SweepOutcome], policy: str, column: str) -> np.ndarray:
    """Per-scenario delay sample for one cell (Fig. 8 boxes)."""
    return np.array(
        [o.delay_ms for o in outcomes if o.policy == policy and o.column == column]
    )
