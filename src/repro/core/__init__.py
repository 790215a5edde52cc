"""Core optimization library: the paper's primary contribution.

Layers, bottom-up:

* state — :mod:`assignment` (the decision variables ``lambda`` / ``gamma``
  as dense vectors), :mod:`transcoding` (the derived ``nu`` indicators);
* accounting — :mod:`traffic` (the paper's ``mu_klu`` formula and agent
  usage), :mod:`flows` (an explicit per-edge flow router used as
  cross-check), :mod:`delay` (end-to-end delay ``d_uv``);
* objective — :mod:`costs` (convex cost-function library), :mod:`objective`
  (``Phi = alpha1 F + alpha2 G + alpha3 H``);
* constraints — :mod:`feasibility` (constraints (1)-(8)), :mod:`capacity`
  (multi-session residual ledger);
* search — :mod:`neighborhood` (single-decision moves), :mod:`arrays`
  (vectorized whole-move-set evaluation), :mod:`search` (shared
  local-search context), :mod:`markov` (Alg. 1),
  :mod:`agrank` (Alg. 2), :mod:`nearest` (the Nrst baseline),
  :mod:`greedy` / :mod:`annealing` / :mod:`exact` (reference solvers);
* theory — :mod:`theory` (Gibbs distributions, exact chain analysis,
  optimality-gap bounds of Eqs. (10), (12), (13)).
"""

from repro.core.agrank import AgRankConfig, agrank_assignment, rank_agents
from repro.core.annealing import AnnealingConfig, simulated_annealing
from repro.core.arrays import BatchEvaluation, MoveBatch
from repro.core.assignment import Assignment
from repro.core.capacity import CapacityLedger
from repro.core.delay import average_conferencing_delay, flow_delay, session_user_delays
from repro.core.exact import enumerate_assignments, solve_exact
from repro.core.feasibility import FeasibilityReport, check_assignment, is_feasible
from repro.core.flows import route_session_flows
from repro.core.greedy import greedy_descent
from repro.core.markov import HopResult, MarkovConfig, MarkovAssignmentSolver
from repro.core.nearest import nearest_assignment
from repro.core.neighborhood import Move, session_moves
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights, SessionCost
from repro.core.traffic import SessionUsage, compute_session_usage
from repro.core.transcoding import active_transcodes, transcode_counts

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
    "active_transcodes",
    "agrank_assignment",
    "average_conferencing_delay",
    "check_assignment",
    "compute_session_usage",
    "enumerate_assignments",
    "flow_delay",
    "greedy_descent",
    "is_feasible",
    "nearest_assignment",
    "rank_agents",
    "route_session_flows",
    "session_moves",
    "session_user_delays",
    "simulated_annealing",
    "solve_exact",
    "transcode_counts",
]
