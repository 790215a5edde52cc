#!/usr/bin/env python3
"""Capacity planning with AgRank: how much agent bandwidth does a
deployment need, and how much does candidate diversity (n_ngbr) buy?

A miniature of the paper's Fig. 9: sweeps the mean per-agent bandwidth and
reports how many random 60-user scenarios each policy can admit (all users
subscribed within capacity).  Shows why the resource-oblivious nearest
policy needs far more provisioned bandwidth than AgRank.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

import math

from repro import AgRankConfig, try_bootstrap
from repro.workloads.scenarios import ScenarioParams, scenario_conference

POLICIES = (
    ("Nrst", "nearest", 1),
    ("AgRank#2", "agrank", 2),
    ("AgRank#3", "agrank", 3),
)


def admission_rate(policy: str, n_ngbr: int, bandwidth: float, scenarios: int) -> float:
    admitted = 0
    for i in range(scenarios):
        params = ScenarioParams(
            num_user_sites=96,
            num_users=60,
            mean_bandwidth_mbps=bandwidth,
            mean_transcode_slots=math.inf,
        )
        conference = scenario_conference(seed=9000 + i, params=params)
        if policy == "nearest":
            result = try_bootstrap(conference, "nearest")
        else:
            result = try_bootstrap(
                conference, "agrank", config=AgRankConfig(n_ngbr=n_ngbr)
            )
        admitted += int(result.success)
    return 100.0 * admitted / scenarios


def main() -> None:
    scenarios = 10
    grid = (150.0, 200.0, 250.0, 300.0, 400.0)
    print(
        f"Admission success over {scenarios} random 60-user scenarios "
        "(7 agents, transcoding unlimited)\n"
    )
    header = f"{'bandwidth':>10}" + "".join(f"{label:>10}" for label, *_ in POLICIES)
    print(header)
    print("-" * len(header))
    for bandwidth in grid:
        row = f"{bandwidth:>10.0f}"
        for label, policy, n_ngbr in POLICIES:
            rate = admission_rate(policy, n_ngbr, bandwidth, scenarios)
            row += f"{rate:>9.0f}%"
        print(row)
    print(
        "\nReading: AgRank admits full load at a fraction of the bandwidth"
        " the nearest policy needs — candidate diversity (n_ngbr) turns"
        " stranded capacity into usable capacity."
    )


if __name__ == "__main__":
    main()
