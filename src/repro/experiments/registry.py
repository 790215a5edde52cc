"""Registry of all experiments, keyed by the paper's artifact ids.

The registry is data: each entry names its runner as a
``"module:function"`` target and imports it only when it runs, so
listing experiments or validating a fleet spec's ``artifact`` loads no
runner (and not scipy, which fig3's theory needs).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ExperimentError


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: its runner's ``"module:function"``
    target and a one-line description."""

    experiment_id: str
    description: str
    target: str

    @property
    def runner(self) -> Callable[..., Any]:
        """The runner function, imported on first access."""
        module, function = self.target.split(":")
        return getattr(importlib.import_module(module), function)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec(
            "fig2",
            "Motivating example: nearest vs session-aware assignment of user 4",
            "repro.experiments.fig2_motivating:run_fig2",
        ),
        ExperimentSpec(
            "fig3",
            "Toy chain: 8 states, stationary vs Gibbs, Eqs. (10)/(12)/(13)",
            "repro.experiments.fig3_theory:run_fig3",
        ),
        ExperimentSpec(
            "fig4",
            "Traffic/delay evolution of Alg. 1, beta in {200, 400}, Nrst init",
            "repro.experiments.fig4_convergence:run_fig4",
        ),
        ExperimentSpec(
            "fig5",
            "Alg. 1 under session arrivals (t=40 s) and departures (t=80 s)",
            "repro.experiments.fig5_dynamics:run_fig5",
        ),
        ExperimentSpec(
            "fig6",
            "Alg. 1 bootstrapped by AgRank(n_ngbr=2), 100 s",
            "repro.experiments.fig6_agrank_init:run_fig6",
        ),
        ExperimentSpec(
            "fig7",
            "Per-session case study: 3 sessions (5/4/3 users)",
            "repro.experiments.fig7_sessions:run_fig7",
        ),
        ExperimentSpec(
            "table2",
            "Impact of alpha: Internet-scale sweep, Nrst/AgRank x 3 mixes",
            "repro.experiments.table2_alpha:run_table2",
        ),
        ExperimentSpec(
            "fig8",
            "Delay box plots across the alpha sweep",
            "repro.experiments.fig8_delay_boxplot:run_fig8",
        ),
        ExperimentSpec(
            "fig9",
            "Bootstrap success rate vs bandwidth/transcoding capacity",
            "repro.experiments.fig9_success_rate:run_fig9",
        ),
        ExperimentSpec(
            "fig10",
            "AgRank initial assignment vs n_ngbr",
            "repro.experiments.fig10_nngbr:run_fig10",
        ),
        ExperimentSpec(
            "noise",
            "A7: Alg. 1 robustness to noisy objective measurements (Sec. IV-A.4)",
            "repro.experiments.noise_robustness:run_noise_robustness",
        ),
    )
}


def experiment_ids() -> tuple[str, ...]:
    """Sorted ids of every registered experiment.

    The single source of truth for artifact names: the CLI builds its
    ``run`` choices and ``list`` output from this, and the fleet spec
    layer validates ``artifact`` references against it.
    """
    return tuple(sorted(EXPERIMENTS))


def list_experiments() -> tuple[ExperimentSpec, ...]:
    """All registered experiments in id order (programmatic listing)."""
    return tuple(EXPERIMENTS[eid] for eid in experiment_ids())


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up a registered experiment."""
    spec = EXPERIMENTS.get(experiment_id)
    if spec is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return spec


def run_experiment(experiment_id: str, **kwargs: Any) -> Any:
    """Run a registered experiment and return its result object."""
    return get_experiment(experiment_id).runner(**kwargs)
