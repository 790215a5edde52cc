"""The live-conference placement engine (one code path, two frontends).

:class:`LiveConference` owns what used to live inline in the
simulator's event handlers: a :class:`~repro.core.markov.
MarkovAssignmentSolver` wrapped around the mutable
:class:`~repro.core.search.SearchContext` (assignment, capacity ledger,
per-session cost cache, ``PhiArray``), plus the arrival-placement
policy.  Session dynamics — ``arrive`` / ``depart`` / ``resize`` — are
*incremental*: they splice one session in or out of the live search
state and never rebuild it from scratch, so the same engine backs both
the event-driven :class:`~repro.runtime.simulation.
ConferencingSimulator` and the long-lived ``repro.service`` placement
service.  A trace played through either frontend must land on
bit-identical search state (``tests/test_runtime_live.py`` and
``tests/test_service.py`` pin this).

Division of labour: the engine decides *where sessions go*; frontends
own time (wake scheduling, freezes, migration pricing, sampling, fault
windows are simulator concerns; latency budgets and request validation
are service concerns).  Fault boundaries funnel through
:meth:`LiveConference.swap_evaluator`, which re-seats the solver on a
substrate view while carrying hop counters and the rng object across
the swap.  A swap that finds no active session (the ``drop`` fault
policy can empty the conference) only records the new evaluator; the
next arrival re-seats the solver from scratch against it.
"""

from __future__ import annotations

import numpy as np

from repro.core.agrank import AgRankConfig, agrank_assignment
from repro.core.assignment import Assignment
from repro.core.bootstrap import bootstrap_assignment
from repro.core.markov import MarkovAssignmentSolver, MarkovConfig
from repro.core.nearest import nearest_assignment
from repro.core.objective import ObjectiveEvaluator
from repro.core.search import SearchContext
from repro.errors import InfeasibleError
from repro.model.conference import Conference
from repro.netsim.noise import NoiseModel


class LiveConference:
    """A live placement: incremental session dynamics over warm state.

    Parameters
    ----------
    evaluator:
        Objective evaluator fixing the conference and cost scales.
    initial_assignment:
        Feasible assignment covering ``active_sids``.
    active_sids:
        The initially active sessions.
    markov:
        HOP configuration (beta, hop rule) for the wrapped solver.
    initial_policy / agrank:
        The arrival-placement policy: ``"nearest"`` or ``"agrank"``
        (with its config), evaluated against the *live* residual
        capacities.
    noise / rng:
        Observation noise and the generator shared with the frontend —
        the engine never creates its own stream, so simulator wake
        draws and solver hop draws stay interleaved exactly as before
        the extraction.
    """

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        initial_assignment: Assignment,
        active_sids: list[int],
        markov: MarkovConfig | None = None,
        initial_policy: str = "nearest",
        agrank: AgRankConfig | None = None,
        noise: NoiseModel | None = None,
        rng: np.random.Generator | None = None,
    ):
        self._markov = markov if markov is not None else MarkovConfig()
        self._policy = initial_policy
        self._agrank = agrank
        self._noise = noise
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._evaluator = evaluator
        self._conference: Conference = evaluator.conference
        self._carried_hops = 0
        #: True while the solver still runs on an evaluator an empty-engine
        #: swap replaced (see :meth:`swap_evaluator`).
        self._reseat = False
        self._solver = MarkovAssignmentSolver(
            evaluator,
            initial_assignment,
            config=self._markov,
            active_sids=active_sids,
            noise=noise,
            rng=self._rng,
        )

    @classmethod
    def bootstrap(
        cls,
        evaluator: ObjectiveEvaluator,
        sids: list[int],
        markov: MarkovConfig | None = None,
        initial_policy: str = "nearest",
        agrank: AgRankConfig | None = None,
        noise: NoiseModel | None = None,
        rng: np.random.Generator | None = None,
        initial_assignment: Assignment | None = None,
    ) -> "LiveConference":
        """Build the engine from a cold start.

        Admission checks capacities only (the bootstrap's verdict): the
        hop filter enforces the delay cap from the first migration
        onwards — the exact contract of the simulator's initial
        bootstrap, so both frontends start from the same assignment.
        """
        if initial_assignment is None:
            initial_assignment = bootstrap_assignment(
                evaluator.conference,
                policy=initial_policy,
                config=agrank,
                sids=list(sids),
            )
        return cls(
            evaluator,
            initial_assignment,
            active_sids=list(sids),
            markov=markov,
            initial_policy=initial_policy,
            agrank=agrank,
            noise=noise,
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # State access                                                       #
    # ------------------------------------------------------------------ #

    @property
    def solver(self) -> MarkovAssignmentSolver:
        return self._solver

    @property
    def context(self) -> SearchContext:
        return self._solver.context

    @property
    def assignment(self) -> Assignment:
        return self._solver.assignment

    @property
    def conference(self) -> Conference:
        """The conference currently placed against (a substrate view
        while faults are active)."""
        return self._conference

    @property
    def evaluator(self) -> ObjectiveEvaluator:
        return self._evaluator

    @property
    def active_sessions(self) -> list[int]:
        return self._solver.context.active_sessions

    @property
    def hops(self) -> int:
        """Executed HOP transitions, accumulated across evaluator swaps."""
        return self._carried_hops + self._solver.hops

    def total_phi(self) -> float:
        return self._solver.total_phi()

    # ------------------------------------------------------------------ #
    # Incremental session dynamics                                       #
    # ------------------------------------------------------------------ #

    def placement_for(self, sid: int) -> Assignment:
        """Place one session against the live residual capacities.

        Raises :class:`~repro.errors.InfeasibleError` when no placement
        fits — the caller decides whether that is fatal (simulator) or
        a structured rejection / from-scratch fallback (service).
        """
        base = self._solver.assignment
        if self._policy == "nearest":
            return nearest_assignment(self._conference, [sid], base=base)
        return agrank_assignment(
            self._conference,
            sid,
            ledger=self._solver.context.ledger,
            config=self._agrank,
            base=base,
        )

    def arrive(self, sid: int) -> Assignment:
        """Admit a session: place it incrementally and splice it into
        the live search state.  Returns the merged assignment.

        After an empty-engine :meth:`swap_evaluator` the solver is
        re-seated instead, through :meth:`resolve_from_scratch` on the
        current substrate view.
        """
        if self._reseat:
            return self.resolve_from_scratch(extra_sid=sid)
        self._solver.context.add_session(sid, self.placement_for(sid))
        return self._solver.assignment

    def depart(self, sid: int) -> None:
        """Remove a session and release its capacity."""
        self._solver.context.remove_session(sid)

    def resize(self, sid: int) -> Assignment:
        """Re-admit a live session against the current residuals (a
        placement renegotiation).  On an infeasible re-placement the
        session's previous placement is restored before the error
        propagates, so the live state is never left torn.
        """
        context = self._solver.context
        before = self._solver.assignment
        context.remove_session(sid)
        try:
            context.add_session(sid, self.placement_for(sid))
        except InfeasibleError:
            context.add_session(sid, before)
            raise
        return self._solver.assignment

    def hop(self, sid: int):
        """One Alg. 1 HOP attempt for ``sid`` (simulator wake path)."""
        return self._solver.session_hop(sid)

    def refine(self, sid: int, max_hops: int) -> int:
        """Greedy incremental re-solve of one session's move set: commit
        up to ``max_hops`` strictly-improving best moves (deterministic,
        rng-free — the service's post-splice polish)."""
        if max_hops <= 0:
            return 0
        hops = self._solver.context.greedy_refine(sid, max_hops)
        return hops

    # ------------------------------------------------------------------ #
    # Whole-placement operations                                         #
    # ------------------------------------------------------------------ #

    def resolve_from_scratch(self, extra_sid: int | None = None) -> Assignment:
        """Re-place every active session from a cold ledger (optionally
        admitting ``extra_sid`` as part of the solve).

        The from-scratch assignment is computed *before* any live state
        is touched, so an :class:`~repro.errors.InfeasibleError` leaves
        the engine exactly as it was — the service's fallback can fail
        into a structured rejection without corrupting the placement.
        """
        sids = self._solver.context.active_sessions
        if extra_sid is not None:
            sids = sorted(sids + [extra_sid])
        assignment = bootstrap_assignment(
            self._conference,
            policy=self._policy,
            config=self._agrank,
            sids=sids,
        )
        self._carried_hops += self._solver.hops
        self._solver = MarkovAssignmentSolver(
            self._evaluator,
            assignment,
            config=self._markov,
            active_sids=sids,
            noise=self._noise,
            rng=self._rng,
        )
        self._reseat = False
        return assignment

    def swap_evaluator(self, evaluator: ObjectiveEvaluator) -> None:
        """Re-seat the solver on a new evaluator (fault boundaries).

        The assignment and active set carry over unchanged, hop
        counters accumulate across the swap, and the rng object is
        reused so the frontend's draw sequence is untouched.  With no
        active session there is nothing to re-seat (a solver needs at
        least one): the new evaluator is recorded and the next
        :meth:`arrive` re-seats.
        """
        active = self._solver.context.active_sessions
        self._evaluator = evaluator
        self._conference = evaluator.conference
        if not active:
            self._reseat = True
            return
        self._carried_hops += self._solver.hops
        assignment = self._solver.assignment
        self._solver = MarkovAssignmentSolver(
            evaluator,
            assignment,
            config=self._markov,
            active_sids=active,
            noise=self._noise,
            rng=self._rng,
        )
