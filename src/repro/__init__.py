"""repro — reproduction of "Cost-Effective Low-Delay Cloud Video
Conferencing" (Hajiesmaili et al., IEEE ICDCS 2015).

The library implements the paper's joint **user-to-agent assignment** and
**transcoding-task assignment** problem (UAP) for cloud-assisted video
conferencing, its **Markov-approximation** solver (Alg. 1), the **AgRank**
bootstrap (Alg. 2), the **Nrst** baseline, a discrete-event runtime that
mirrors the paper's prototype experiments, and workload/experiment
harnesses regenerating every table and figure of the evaluation section.

Quickstart::

    from repro import (
        ObjectiveEvaluator, ObjectiveWeights, MarkovAssignmentSolver,
        nearest_assignment,
    )
    from repro.workloads import prototype_conference

    conference = prototype_conference(seed=7)
    weights = ObjectiveWeights.normalized_for(conference)
    evaluator = ObjectiveEvaluator(conference, weights)
    initial = nearest_assignment(conference)
    solver = MarkovAssignmentSolver(evaluator, initial)
    solver.run(500)
    traffic, delay = solver.metrics()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro._version import __version__
from repro.core.agrank import AgRankConfig, AgRankResult, agrank_assignment, rank_agents
from repro.core.annealing import AnnealingConfig, AnnealingResult, simulated_annealing
from repro.core.assignment import Assignment
from repro.core.bootstrap import BootstrapResult, bootstrap_assignment, try_bootstrap
from repro.core.capacity import CapacityLedger
from repro.core.delay import average_conferencing_delay
from repro.core.exact import ExactResult, enumerate_assignments, solve_exact
from repro.core.feasibility import FeasibilityReport, check_assignment, is_feasible
from repro.core.greedy import GreedyResult, greedy_descent
from repro.core.markov import (
    HopResult,
    MarkovAssignmentSolver,
    MarkovConfig,
    hop_probabilities,
)
from repro.core.nearest import nearest_assignment
from repro.core.objective import (
    ObjectiveEvaluator,
    ObjectiveWeights,
    SessionCost,
    TotalCost,
)
from repro.errors import (
    CapacityError,
    ConvergenceError,
    ExperimentError,
    InfeasibleError,
    ModelError,
    ReproError,
    SimulationError,
    SolverError,
    SpecError,
    UnknownEntityError,
)
from repro.model import (
    Agent,
    Conference,
    ConferenceBuilder,
    LinearTranscodingLatency,
    PAPER_LADDER,
    Representation,
    RepresentationSet,
    Session,
    Topology,
    User,
)

__all__ = [
    "AgRankConfig",
    "AgRankResult",
    "Agent",
    "AnnealingConfig",
    "AnnealingResult",
    "Assignment",
    "BootstrapResult",
    "CapacityError",
    "CapacityLedger",
    "Conference",
    "ConferenceBuilder",
    "ConvergenceError",
    "ExactResult",
    "ExperimentError",
    "FeasibilityReport",
    "GreedyResult",
    "HopResult",
    "InfeasibleError",
    "LinearTranscodingLatency",
    "MarkovAssignmentSolver",
    "MarkovConfig",
    "ModelError",
    "ObjectiveEvaluator",
    "ObjectiveWeights",
    "PAPER_LADDER",
    "Representation",
    "RepresentationSet",
    "ReproError",
    "Session",
    "SessionCost",
    "SimulationError",
    "SolverError",
    "SpecError",
    "Topology",
    "TotalCost",
    "UnknownEntityError",
    "User",
    "__version__",
    "agrank_assignment",
    "average_conferencing_delay",
    "bootstrap_assignment",
    "check_assignment",
    "enumerate_assignments",
    "greedy_descent",
    "hop_probabilities",
    "is_feasible",
    "nearest_assignment",
    "rank_agents",
    "simulated_annealing",
    "solve_exact",
    "try_bootstrap",
]
