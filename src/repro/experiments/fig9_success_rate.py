"""Fig. 9 — bootstrap success rate under capacity limits.

Panel (a) sweeps the mean per-agent bandwidth capacity (transcoding
unlimited); panel (b) sweeps the mean transcoding capacity (bandwidth
unlimited).  A scenario counts as successful when every session can be
admitted — all users subscribed and capacities respected (the delay cap is
not part of this notion).  Policies: Nrst (resource-oblivious),
AgRank#2 (n_ngbr=2) and AgRank#3 (n_ngbr=3).

Paper shape: success increases with capacity; AgRank#3 >= AgRank#2 >>
Nrst; AgRank#3 reaches 100 % around 750 Mbps while Nrst admits only a few
percent of scenarios there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.analysis.tables import render_table
from repro.core.agrank import AgRankConfig
from repro.core.bootstrap import try_bootstrap
from repro.experiments.common import result_record, scenarios_from_env
from repro.workloads.scenarios import ScenarioParams, scenario_conference

#: Sweep grids.  The paper sweeps 400-900 Mbps and 20-60 slots; our
#: synthetic workload carries a somewhat heavier per-agent load, so the
#: grids extend upward to capture the full S-curve (EXPERIMENTS.md).
BANDWIDTH_GRID_MBPS: tuple[float, ...] = (400, 500, 600, 700, 750, 800, 900, 1000, 1100)
TRANSCODE_GRID: tuple[float, ...] = (20, 30, 40, 50, 60, 70)

#: ``(label, policy, n_ngbr)`` rows of both panels.
POLICY_VARIANTS: tuple[tuple[str, str, int], ...] = (
    ("Nrst", "nearest", 1),
    ("AgRank#2", "agrank", 2),
    ("AgRank#3", "agrank", 3),
)


def _attempt(conference, policy: str, n_ngbr: int) -> bool:
    if policy == "nearest":
        result = try_bootstrap(conference, "nearest")
    else:
        result = try_bootstrap(
            conference, "agrank", config=AgRankConfig(n_ngbr=n_ngbr)
        )
    return result.success


@dataclass
class Fig9Result:
    num_scenarios: int
    #: panel -> capacity value -> policy label -> success %.
    rates: dict[str, dict[float, dict[str, float]]] = field(default_factory=dict)

    def panel_rows(self, panel: str) -> list[dict[str, object]]:
        rows = []
        for capacity in sorted(self.rates[panel]):
            row: dict[str, object] = {"capacity": capacity}
            row.update(self.rates[panel][capacity])
            rows.append(row)
        return rows

    def result_records(self) -> list[dict]:
        """Schema-versioned records: one per (panel, capacity) grid point."""
        records = []
        for panel in sorted(self.rates):
            for capacity in sorted(self.rates[panel]):
                metrics = {
                    "success_pct_"
                    + label.lower().replace("#", ""): rate
                    for label, rate in self.rates[panel][capacity].items()
                }
                metrics["scenarios"] = self.num_scenarios
                records.append(
                    result_record(
                        "fig9",
                        metrics,
                        axes={"panel": panel, "capacity": capacity},
                    )
                )
        return records

    def format_report(self) -> str:
        labels = [label for label, *_ in POLICY_VARIANTS]
        parts = []
        for panel, unit in (
            ("bandwidth", "mean bandwidth capacity (Mbps)"),
            ("transcode", "mean transcoding capacity (#)"),
        ):
            parts.append(
                render_table(
                    ["capacity"] + labels,
                    self.panel_rows(panel),
                    title=f"Fig. 9 - % successful scenarios vs {unit} "
                    f"({self.num_scenarios} scenarios)",
                )
            )
        return "\n\n".join(parts)


def run_fig9(
    num_scenarios: int | None = None,
    first_seed: int = 5000,
    bandwidth_grid: tuple[float, ...] = BANDWIDTH_GRID_MBPS,
    transcode_grid: tuple[float, ...] = TRANSCODE_GRID,
) -> Fig9Result:
    """Run both Fig. 9 panels."""
    count = num_scenarios if num_scenarios is not None else scenarios_from_env(20)
    result = Fig9Result(num_scenarios=count)
    result.rates["bandwidth"] = {}
    result.rates["transcode"] = {}

    for capacity in bandwidth_grid:
        params = ScenarioParams(
            mean_bandwidth_mbps=capacity, mean_transcode_slots=math.inf
        )
        successes = {label: 0 for label, *_ in POLICY_VARIANTS}
        for i in range(count):
            conference = scenario_conference(seed=first_seed + i, params=params)
            for label, policy, n_ngbr in POLICY_VARIANTS:
                if _attempt(conference, policy, n_ngbr):
                    successes[label] += 1
        result.rates["bandwidth"][capacity] = {
            label: 100.0 * successes[label] / count for label, *_ in POLICY_VARIANTS
        }

    for capacity in transcode_grid:
        params = ScenarioParams(
            mean_bandwidth_mbps=math.inf, mean_transcode_slots=capacity
        )
        successes = {label: 0 for label, *_ in POLICY_VARIANTS}
        for i in range(count):
            conference = scenario_conference(seed=first_seed + i, params=params)
            for label, policy, n_ngbr in POLICY_VARIANTS:
                if _attempt(conference, policy, n_ngbr):
                    successes[label] += 1
        result.rates["transcode"][capacity] = {
            label: 100.0 * successes[label] / count for label, *_ in POLICY_VARIANTS
        }
    return result
