"""Fig. 2 — the motivating example, solved exactly.

Checks the paper's three claims on the 4-user / 4-agent instance:

1. under the nearest policy user 4 attaches to SG (20 ms < 27 ms);
2. attaching user 4 to TO instead lowers both the session's delay cost
   and its inter-agent traffic (TO is closer to the other agents, and
   user 3 is already there);
3. SG still wins on transcoding latency (it is the powerful agent), which
   is exactly the tension the joint optimization resolves.

Also reports the exact UAP optimum of the instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import render_table
from repro.core.delay import average_conferencing_delay
from repro.experiments.common import result_record
from repro.core.exact import solve_exact
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.workloads.motivating import motivating_conference


@dataclass
class Fig2Result:
    nearest_agent_of_user4: str
    rows: list[dict[str, object]]
    sg_transcode_ms: float
    to_transcode_ms: float
    optimal_traffic: float
    optimal_delay_cost: float

    def result_records(self) -> list[dict]:
        """Schema-versioned records: one per candidate assignment."""
        records = [
            result_record(
                "fig2",
                {
                    "traffic_mbps": row["traffic (Mbps)"],
                    "delay_cost_ms": row["delay cost F (ms)"],
                },
                axes={"assignment": row["assignment of user 4"]},
            )
            for row in self.rows
        ]
        records.append(
            result_record(
                "fig2",
                {
                    "traffic_mbps": self.optimal_traffic,
                    "delay_cost_ms": self.optimal_delay_cost,
                },
                axes={"assignment": "exact optimum"},
            )
        )
        return records

    def format_report(self) -> str:
        table = render_table(
            ["assignment of user 4", "traffic (Mbps)", "delay cost F (ms)"],
            self.rows,
            title="Fig. 2 - motivating scenario (others at nearest agents)",
        )
        return "\n".join(
            [
                table,
                "",
                f"Nearest agent of user 4: {self.nearest_agent_of_user4} "
                "(the paper's nearest policy picks SG)",
                f"Transcoding latency: SG {self.sg_transcode_ms:.1f} ms vs "
                f"TO {self.to_transcode_ms:.1f} ms (SG is the powerful agent)",
                f"Exact UAP optimum: traffic {self.optimal_traffic:.1f} Mbps, "
                f"delay cost {self.optimal_delay_cost:.1f} ms",
            ]
        )


def run_fig2() -> Fig2Result:
    """Evaluate the Fig. 2 claims and the exact optimum."""
    conference = motivating_conference()
    weights = ObjectiveWeights.normalized_for(conference)
    evaluator = ObjectiveEvaluator(conference, weights)

    nearest = nearest_assignment(conference)
    user4 = 3
    name_of = {a.aid: a.name for a in conference.agents}
    nearest_name = name_of[nearest.agent_of(user4)]

    to_agent = next(a.aid for a in conference.agents if a.name == "TO")
    sg_agent = next(a.aid for a in conference.agents if a.name == "SG")

    rows: list[dict[str, object]] = []
    for label, agent in (("SG (nearest)", sg_agent), ("TO (session-aware)", to_agent)):
        candidate = nearest.with_user(user4, agent)
        # Transcoding tasks follow the source agent (the Nrst convention).
        rows.append(
            {
                "assignment of user 4": label,
                "traffic (Mbps)": evaluator.total(candidate).inter_agent_mbps,
                "delay cost F (ms)": average_conferencing_delay(
                    conference, candidate, [0]
                ),
            }
        )

    ladder = conference.representations
    source_rep, target_rep = ladder["720p"], ladder["480p"]
    exact = solve_exact(evaluator)
    return Fig2Result(
        nearest_agent_of_user4=nearest_name,
        rows=rows,
        sg_transcode_ms=conference.agent(sg_agent).transcoding_latency_ms(
            source_rep, target_rep
        ),
        to_transcode_ms=conference.agent(to_agent).transcoding_latency_ms(
            source_rep, target_rep
        ),
        optimal_traffic=evaluator.total(exact.assignment).inter_agent_mbps,
        optimal_delay_cost=average_conferencing_delay(
            conference, exact.assignment, [0]
        ),
    )
