"""Fig. 10 — the impact of n_ngbr on AgRank's initial assignment.

Sweeps ``n_ngbr`` from 1 (equivalent to Nrst) to L (whole session on the
single best-ranked agent) and reports the traffic and delay of the
*initial* assignment, averaged over random scenarios.

Paper shape: traffic is highest at n_ngbr = 1 and falls as the candidate
pool grows; delay rises towards n_ngbr = L, where sessions consolidate
onto one agent regardless of member locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import render_table
from repro.core.agrank import AgRankConfig
from repro.core.bootstrap import bootstrap_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.experiments.common import result_record, scenarios_from_env
from repro.workloads.scenarios import ScenarioParams, scenario_conference


@dataclass
class Fig10Result:
    num_scenarios: int
    #: n_ngbr -> (mean traffic Mbps, mean delay ms).
    points: dict[int, tuple[float, float]] = field(default_factory=dict)

    def rows(self) -> list[dict[str, object]]:
        return [
            {
                "n_ngbr": n,
                "traffic (Mbps)": self.points[n][0],
                "delay (ms)": self.points[n][1],
            }
            for n in sorted(self.points)
        ]

    def result_records(self) -> list[dict]:
        """Schema-versioned records: one per candidate-pool size."""
        return [
            result_record(
                "fig10",
                {
                    "traffic_mbps": row["traffic (Mbps)"],
                    "delay_ms": row["delay (ms)"],
                    "scenarios": self.num_scenarios,
                },
                axes={"solver.n_ngbr": row["n_ngbr"]},
            )
            for row in self.rows()
        ]

    def format_report(self) -> str:
        return render_table(
            ["n_ngbr", "traffic (Mbps)", "delay (ms)"],
            self.rows(),
            title=f"Fig. 10 - AgRank initial assignment vs n_ngbr "
            f"({self.num_scenarios} scenarios)",
        )


def run_fig10(
    num_scenarios: int | None = None,
    first_seed: int = 3000,
    n_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
    params: ScenarioParams | None = None,
) -> Fig10Result:
    """Run the n_ngbr sweep on unlimited-capacity scenarios."""
    count = num_scenarios if num_scenarios is not None else scenarios_from_env(12)
    result = Fig10Result(num_scenarios=count)
    for n in n_values:
        traffics: list[float] = []
        delays: list[float] = []
        for i in range(count):
            conference = scenario_conference(seed=first_seed + i, params=params)
            evaluator = ObjectiveEvaluator(
                conference, ObjectiveWeights.normalized_for(conference)
            )
            # The sweep reports raw initial-assignment metrics; large
            # n_ngbr consolidations may exceed Dmax on single flows
            # (AgRank is not delay-aware, and the bootstrap admits on
            # capacity only), exactly like the paper's long-delay right
            # end of Fig. 10(b).
            assignment = bootstrap_assignment(
                conference, "agrank", config=AgRankConfig(n_ngbr=n)
            )
            total = evaluator.total(assignment)
            traffics.append(total.inter_agent_mbps)
            delays.append(total.average_delay_ms)
        result.points[n] = (float(np.mean(traffics)), float(np.mean(delays)))
    return result
