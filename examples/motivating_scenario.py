#!/usr/bin/env python3
"""The paper's Fig. 2 motivating scenario, dissected step by step.

Four users (California, Brazil, Japan, Hong Kong) in one session; four
agents: Oregon (OR), Tokyo (TO), Singapore (SG), Sao Paulo (SP).  The
script walks through the paper's argument:

1. the nearest policy sends user 4 (Hong Kong) to SG (20 ms vs 27 ms);
2. TO is nevertheless the better agent for user 4 once the rest of the
   session is taken into account — lower inter-user delay and less
   inter-agent traffic (user 3 is already on TO);
3. yet SG is the *transcoding-fastest* agent — so the transcoding task
   placement is a separate, coupled decision;
4. the exact UAP optimum resolves the tension jointly.

Run:  python examples/motivating_scenario.py
"""

from __future__ import annotations

from repro import (
    ObjectiveEvaluator,
    ObjectiveWeights,
    average_conferencing_delay,
    nearest_assignment,
    solve_exact,
)
from repro.workloads.motivating import motivating_conference


def main() -> None:
    conference = motivating_conference()
    agents = {a.name: a.aid for a in conference.agents}
    users = {u.name: u.uid for u in conference.users}
    evaluator = ObjectiveEvaluator(
        conference, ObjectiveWeights.normalized_for(conference)
    )
    print(conference.describe())

    # --- Step 1: the nearest policy ----------------------------------- #
    nearest = nearest_assignment(conference)
    u4 = users["user4"]
    chosen = conference.agent(nearest.agent_of(u4)).name
    h = conference.topology.agent_user_ms
    print(
        f"\n1. Nearest policy: user4 -> {chosen} "
        f"(H[SG]={h[agents['SG'], u4]:.0f} ms < H[TO]={h[agents['TO'], u4]:.0f} ms)"
    )

    # --- Step 2: the session-aware alternative ------------------------ #
    via_to = nearest.with_user(u4, agents["TO"])
    d = conference.topology.inter_agent_ms
    u1 = users["user1"]
    for label, assignment in (("via SG", nearest), ("via TO", via_to)):
        traffic = evaluator.total(assignment).inter_agent_mbps
        delay_cost = average_conferencing_delay(conference, assignment, [0])
        # user4 -> user1 needs no transcoding: last miles plus one D hop.
        a, b = assignment.agent_of(u4), assignment.agent_of(u1)
        d41 = h[a, u4] + h[b, u1] + d[a, b]
        print(
            f"2. user4 {label}: traffic {traffic:5.1f} Mbps, "
            f"F(d) {delay_cost:6.1f} ms, delay user4->user1 {d41:6.1f} ms"
        )

    # --- Step 3: but SG transcodes faster ------------------------------ #
    r720 = conference.representations["720p"]
    r480 = conference.representations["480p"]
    sg_ms = conference.agent(agents["SG"]).transcoding_latency_ms(r720, r480)
    to_ms = conference.agent(agents["TO"]).transcoding_latency_ms(r720, r480)
    print(
        f"3. Transcoding 720p->480p: SG {sg_ms:.1f} ms vs TO {to_ms:.1f} ms "
        "(SG is the powerful agent -> task placement is its own decision)"
    )

    # --- Step 4: the joint optimum ------------------------------------- #
    exact = solve_exact(evaluator)
    placement = ", ".join(
        f"{conference.user(u).name}->{conference.agent(exact.assignment.agent_of(u)).name}"
        for u in range(conference.num_users)
    )
    tasks = ", ".join(
        f"{conference.user(s).name}->{conference.user(d).name}@"
        f"{conference.agent(exact.assignment.task_agent_of(i)).name}"
        for i, (s, d) in enumerate(conference.transcode_pairs)
    )
    print(f"4. Exact UAP optimum (phi={exact.phi:.3f} over {exact.num_feasible} feasible states):")
    print(f"   users: {placement}")
    print(f"   tasks: {tasks}")
    print(
        f"   traffic {evaluator.total(exact.assignment).inter_agent_mbps:.1f} Mbps, "
        f"F(d) {average_conferencing_delay(conference, exact.assignment, [0]):.1f} ms"
    )


if __name__ == "__main__":
    main()
