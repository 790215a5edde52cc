"""Core optimization library: the paper's primary contribution.

Layers, bottom-up:

* state — :mod:`assignment` (the decision variables ``lambda`` / ``gamma``
  as dense vectors);
* accounting — :mod:`fastpath` (the per-conference flow model's static
  structure), :mod:`arrays` (its evaluator: a session's usage per the
  paper's ``mu_klu`` formula and the objective's delay terms, for one
  assignment or a whole move set), :mod:`delay` (the recorded end-to-end
  delay ``d_uv`` over every flow, and constraint (8)'s input);
* objective — :mod:`costs` (convex cost-function library), :mod:`objective`
  (``Phi = alpha1 F + alpha2 G + alpha3 H``);
* constraints — :mod:`feasibility` (constraints (1)-(8)), :mod:`capacity`
  (multi-session residual ledger);
* search — :mod:`neighborhood` (single-decision moves), :mod:`search`
  (shared local-search context over :mod:`arrays`' move-set
  evaluation), :mod:`markov` (Alg. 1),
  :mod:`agrank` (Alg. 2), :mod:`nearest` (the Nrst baseline),
  :mod:`greedy` / :mod:`annealing` / :mod:`exact` (reference solvers);
* bootstrap — :mod:`bootstrap` (whole-conference admission, capacity
  only);
* theory — :mod:`theory` (Gibbs distributions, exact chain analysis,
  optimality-gap bounds of Eqs. (10), (12), (13)).
"""

from repro.core.agrank import AgRankConfig, agrank_assignment, rank_agents
from repro.core.annealing import AnnealingConfig, simulated_annealing
from repro.core.arrays import BatchEvaluation, MoveBatch
from repro.core.assignment import Assignment
from repro.core.capacity import CapacityLedger
from repro.core.delay import average_conferencing_delay
from repro.core.exact import enumerate_assignments, solve_exact
from repro.core.fastpath import SessionUsage
from repro.core.feasibility import FeasibilityReport, check_assignment, is_feasible
from repro.core.greedy import greedy_descent
from repro.core.markov import HopResult, MarkovConfig, MarkovAssignmentSolver
from repro.core.nearest import nearest_assignment
from repro.core.neighborhood import Move, session_moves
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights, SessionCost

__all__ = [
    "AgRankConfig",
    "AnnealingConfig",
    "Assignment",
    "BatchEvaluation",
    "CapacityLedger",
    "FeasibilityReport",
    "HopResult",
    "MarkovAssignmentSolver",
    "MarkovConfig",
    "Move",
    "MoveBatch",
    "ObjectiveEvaluator",
    "ObjectiveWeights",
    "SessionCost",
    "SessionUsage",
    "agrank_assignment",
    "average_conferencing_delay",
    "check_assignment",
    "enumerate_assignments",
    "greedy_descent",
    "is_feasible",
    "nearest_assignment",
    "rank_agents",
    "session_moves",
    "simulated_annealing",
    "solve_exact",
]
