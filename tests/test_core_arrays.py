"""The struct-of-arrays kernel against the per-assignment oracle.

:mod:`repro.core.arrays` is the only evaluator of the objective's flow
model, so both of its passes are pinned bit for bit against the slow
loops of ``tests/kernel_oracle.py``.  The move-set pass: the move
enumeration order, every candidate row (usage, transcodes, delays) on
arbitrary assignments, the feasibility masks, the observed ``phi`` with
capacity, alphas and noise varied, and a conference whose latency matrix
the topology had to clean first.  The one-assignment pass: usage and
delay terms on random states, fault views, sessions without transcoding
pairs, large sessions and a single-agent conference, with fresh arrays
every call; and the objective's ``session_cost``, ``total`` and
``SearchContext.metrics`` built on it against the oracle's scalar
assembly.  Solver runs on compiled library
scenarios and on scenario draws, with and without observation noise,
check the candidate batch at every state they visit, and a Markov hop
under a fixed rng must make the move that the oracle's candidates
imply.  The suite also covers :class:`PhiArray` and the spec error for
the removed ``kernel`` solver field.
"""

from __future__ import annotations

import copy
import gc
import itertools
import weakref

import numpy as np
import pytest

from repro.core.annealing import AnnealingConfig, simulated_annealing
from repro.core.arrays import (
    ConferenceArrays,
    PhiArray,
    arrays_for,
    capacity_mask,
    delay_mask,
)
from repro.core.assignment import Assignment
from repro.core.costs import PowerCost
from repro.core.fastpath import profile_for
from repro.core.feasibility import CAPACITY_TOLERANCE
from repro.core.greedy import greedy_descent
from repro.core.markov import (
    MarkovAssignmentSolver,
    MarkovConfig,
    hop_probabilities,
    metropolis_log_acceptance,
)
from repro.core.nearest import nearest_assignment
from repro.core.neighborhood import session_moves
from repro.core.objective import ObjectiveEvaluator, ObjectiveWeights
from repro.core.search import SearchContext
from repro.errors import ModelError, SpecError
from repro.fleet.compile import compile_spec
from repro.fleet.library import load_library_spec
from repro.fleet.orchestrator import expand_matrix
from repro.fleet.spec import RunSpec
from repro.model.conference import Conference
from repro.model.topology import Topology
from repro.netsim.noise import GaussianNoise, QuantizedPerturbation
from repro.runtime.faults import Fault, apply_faults
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference
from tests.conftest import build_pair_conference
from tests.kernel_oracle import (
    USAGE_FIELDS,
    assert_assignment_matches_oracle,
    assert_batch_matches_oracle,
    assert_candidates_equal,
    assert_rows_equal,
    oracle_candidates,
    oracle_feasible,
    oracle_rows,
    oracle_session_cost,
    session_delays,
)

#: Randomized instances: unconstrained, capacity-tight, transcode-heavy.
SCENARIO_GRID = [
    (3, ScenarioParams(num_user_sites=32, num_users=12)),
    (5, ScenarioParams(num_user_sites=64, num_users=30)),
    (
        7,
        ScenarioParams(
            num_user_sites=48,
            num_users=24,
            mean_bandwidth_mbps=250.0,
            mean_transcode_slots=25.0,
        ),
    ),
    (
        11,
        ScenarioParams(
            num_user_sites=64,
            num_users=20,
            max_session_size=4,
            session_locality=0.4,
        ),
    ),
]

ALPHAS = [(1.0, 1.0, 1.0), (5.0, 1.0, 0.2)]

#: A capacity-tight draw on which infeasible moves are common.
TIGHT = ScenarioParams(
    num_user_sites=48,
    num_users=24,
    mean_bandwidth_mbps=220.0,
    mean_transcode_slots=20.0,
)

#: A draw on which the transcoding slots, not the bandwidth, reject moves.
SLOT_TIGHT = ScenarioParams(
    num_user_sites=48,
    num_users=24,
    mean_bandwidth_mbps=400.0,
    mean_transcode_slots=12.0,
)

#: A roomy draw with many sessions, on which every solver keeps moving.
ROOMY = ScenarioParams(
    num_user_sites=24,
    num_users=40,
    mean_bandwidth_mbps=5000.0,
    mean_transcode_slots=40.0,
)


#: Sessions of 8-20 users, long enough for a pairwise sum over the
#: per-user worst delays to round differently from a sequential one.
LARGE_SESSIONS = ScenarioParams(
    num_user_sites=48,
    num_users=60,
    min_session_size=8,
    max_session_size=20,
)


def make_evaluator(conference, alphas=(1.0, 1.0, 1.0), convex=False):
    """The normalized objective; ``convex`` prices bandwidth and
    transcoding with non-identity convex costs."""
    a1, a2, a3 = alphas
    costs = {}
    if convex:
        costs = {
            "bandwidth_costs": [PowerCost(0.5, 1.5)] * conference.num_agents,
            "transcode_costs": [PowerCost(2.0, 2.0)] * conference.num_agents,
        }
    return ObjectiveEvaluator(
        conference,
        ObjectiveWeights.normalized_for(conference, alpha1=a1, alpha2=a2, alpha3=a3),
        **costs,
    )


def random_assignment(conference, rng):
    """An arbitrary (not necessarily feasible) full assignment."""
    return Assignment(
        rng.integers(0, conference.num_agents, conference.num_users),
        rng.integers(0, conference.num_agents, conference.theta_sum),
    )


def compiled_library(name):
    return compile_spec(expand_matrix(load_library_spec(name))[0].spec)


class TestMoveEnumeration:
    def test_matches_session_moves_enumeration(self, small_scenario_conf):
        arrays = arrays_for(small_scenario_conf)
        assignment = nearest_assignment(small_scenario_conf)
        for sid in range(small_scenario_conf.num_sessions):
            moves = arrays.evaluate_candidates(assignment, sid).moves
            listed = list(session_moves(small_scenario_conf, assignment, sid))
            assert moves.size == len(listed)
            for i, move in enumerate(listed):
                assert moves.move(i) == move

    def test_single_agent_conference_yields_empty_batch(self):
        conf = prototype_conference(
            seed=1, num_sessions=2, regions_override=("Virginia",)
        )
        assignment = nearest_assignment(conf)
        evaluation = arrays_for(conf).evaluate_candidates(assignment, 0)
        assert evaluation.size == 0
        context = SearchContext(make_evaluator(conf), assignment)
        assert context.candidate_batch(0).num_feasible == 0
        assert context.count_feasible(0, assignment) == 0


class TestKernelRows:
    """Raw candidate rows, feasible or not, on arbitrary assignments."""

    def test_rows_match_oracle_at_nearest(self, small_scenario_conf):
        arrays = arrays_for(small_scenario_conf)
        assignment = nearest_assignment(small_scenario_conf)
        for sid in range(small_scenario_conf.num_sessions):
            assert_rows_equal(
                arrays.evaluate_candidates(assignment, sid),
                oracle_rows(small_scenario_conf, assignment, sid),
                f"sid={sid}",
            )

    @pytest.mark.parametrize("seed,params", SCENARIO_GRID)
    def test_random_states_bitwise_equal(self, seed, params):
        conference = scenario_conference(seed=seed, params=params)
        arrays = arrays_for(conference)
        rng = np.random.default_rng(71)
        for trial in range(25):
            assignment = random_assignment(conference, rng)
            sid = int(rng.integers(conference.num_sessions))
            assert_rows_equal(
                arrays.evaluate_candidates(assignment, sid),
                oracle_rows(conference, assignment, sid),
                f"seed={seed} trial={trial} sid={sid}",
            )

    def test_unclean_agent_matrix_is_stored_clean(self):
        """A D whose diagonal is only close to zero and that holds a -0.0
        is stored with an exact +0.0 diagonal and no -0.0 (the kernel's
        precondition), and the kernel stays bit-identical to the oracle
        on it."""
        base = scenario_conference(
            seed=7, params=ScenarioParams(num_user_sites=48, num_users=24)
        )
        d = np.array(base.topology.inter_agent_ms)
        np.fill_diagonal(d, 1e-12)
        d[0, 1] = d[1, 0] = -0.0
        conference = Conference(
            base.users,
            base.sessions,
            base.agents,
            Topology(d, base.topology.agent_user_ms),
            base.representations,
            dmax_ms=base.dmax_ms,
        )
        stored = conference.topology.inter_agent_ms
        assert np.array_equal(np.diagonal(stored), np.zeros(len(d)))
        assert not np.signbit(stored).any()
        off_diagonal = ~np.eye(len(d), dtype=bool)
        assert np.array_equal(stored[off_diagonal], d[off_diagonal])

        arrays = arrays_for(conference)
        rng = np.random.default_rng(5)
        for trial in range(15):
            assignment = random_assignment(conference, rng)
            sid = int(rng.integers(conference.num_sessions))
            assert_rows_equal(
                arrays.evaluate_candidates(assignment, sid),
                oracle_rows(conference, assignment, sid),
                f"trial={trial} sid={sid}",
            )

    @pytest.mark.parametrize("seed,params", SCENARIO_GRID + [(7, SLOT_TIGHT)])
    def test_masks_match_oracle_on_random_states(self, seed, params):
        """``capacity_mask`` and ``delay_mask`` row by row against
        ``CapacityLedger.fits`` and the delay cap, on arbitrary states:
        the delay cap rejects moves on every draw, the capacities on
        every draw that has any."""
        conference = scenario_conference(seed=seed, params=params)
        context = SearchContext(
            make_evaluator(conference), nearest_assignment(conference)
        )
        arrays = arrays_for(conference)
        cap_ms = conference.dmax_ms + 1e-9
        rng = np.random.default_rng(13)
        rejected = {"capacity": 0, "delay": 0}
        for trial in range(20):
            assignment = random_assignment(conference, rng)
            sid = int(rng.integers(conference.num_sessions))
            where = f"seed={seed} trial={trial} sid={sid}"
            evaluation = arrays.evaluate_candidates(assignment, sid)
            rows = oracle_rows(conference, assignment, sid)
            fits = capacity_mask(
                evaluation,
                *context.ledger.residuals(excluding_sid=sid),
                CAPACITY_TOLERANCE,
            )
            within = delay_mask(evaluation, conference.dmax_ms)
            assert fits.tolist() == [
                context.ledger.fits(usage) for _, usage, _, _ in rows
            ], where
            assert within.tolist() == [
                max_flow <= cap_ms for _, _, _, max_flow in rows
            ], where
            assert context.count_feasible(sid, assignment) == len(
                oracle_feasible(context, sid, assignment)
            ), where
            rejected["capacity"] += int(np.count_nonzero(~fits))
            rejected["delay"] += int(np.count_nonzero(~within))
        assert rejected["delay"] > 0, rejected
        if not context.ledger.unconstrained:
            assert rejected["capacity"] > 0, rejected

    def test_arrays_instance_cached_on_conference(self):
        conference = prototype_conference()
        assert arrays_for(conference) is arrays_for(conference)


class TestCandidates:
    """SearchContext candidates: masks, costs and observed ``phi``."""

    @pytest.mark.parametrize("seed,params", SCENARIO_GRID)
    @pytest.mark.parametrize("alphas", ALPHAS)
    def test_candidates_bitwise_equal(self, seed, params, alphas):
        conference = scenario_conference(seed=seed, params=params)
        evaluator = make_evaluator(conference, alphas)
        context = SearchContext(evaluator, nearest_assignment(conference))
        for sid in range(conference.num_sessions):
            assert_batch_matches_oracle(
                context, sid, context.candidate_batch(sid), f"sid={sid}"
            )

    def test_capacity_masks_bite(self):
        """The tight draw really rejects moves, so the mask check above
        is not vacuous on it."""
        conference = scenario_conference(seed=7, params=SCENARIO_GRID[2][1])
        context = SearchContext(
            make_evaluator(conference), nearest_assignment(conference)
        )
        rejected = sum(
            candidate is None
            for sid in range(conference.num_sessions)
            for candidate in oracle_candidates(context, sid)
        )
        assert rejected > 0

    @pytest.mark.parametrize(
        "noise_factory",
        [
            lambda: GaussianNoise(sigma=0.05),
            lambda: QuantizedPerturbation(delta=0.1, levels=3),
        ],
    )
    def test_noise_consumes_rng_identically(self, noise_factory):
        conference = scenario_conference(seed=9, params=TIGHT)
        context_rng = np.random.default_rng(21)
        context = SearchContext(
            make_evaluator(conference),
            nearest_assignment(conference),
            noise=noise_factory(),
            rng=context_rng,
        )
        noise, rng = noise_factory(), np.random.default_rng(21)
        for sid in range(conference.num_sessions):
            expected = oracle_feasible(context, sid, noise=noise, rng=rng)
            assert_candidates_equal(expected, context.feasible_candidates(sid))
        # Both sides drew the same number of values.
        assert context_rng.random() == rng.random()

    def test_pair_conference_candidates_equal(self):
        conference = build_pair_conference("720p", "360p", "360p", "480p")
        context = SearchContext(
            make_evaluator(conference), Assignment(np.array([0, 1]), np.array([0]))
        )
        assert_batch_matches_oracle(context, 0, context.candidate_batch(0))


class TestAssignmentPass:
    """``evaluate_assignment`` against ``session_usage`` /
    ``session_delays`` of the oracle, bit for bit."""

    @pytest.mark.parametrize(
        "seed,params",
        SCENARIO_GRID + [(7, SLOT_TIGHT), (13, LARGE_SESSIONS)],
    )
    def test_random_states_bitwise_equal(self, seed, params):
        conference = scenario_conference(seed=seed, params=params)
        rng = np.random.default_rng(29)
        for trial in range(6):
            assignment = random_assignment(conference, rng)
            for sid in range(conference.num_sessions):
                assert_assignment_matches_oracle(
                    conference, assignment, sid, f"seed={seed} trial={trial} sid={sid}"
                )

    def test_large_sessions_drawn(self):
        """The draw above has sessions long enough to tell a pairwise
        delay mean from a sequential one."""
        conference = scenario_conference(seed=13, params=LARGE_SESSIONS)
        assert max(len(s.user_ids) for s in conference.sessions) >= 12

    @pytest.mark.parametrize(
        "kinds",
        [("outage",), ("capacity",), ("latency",), ("outage", "capacity", "latency")],
    )
    def test_fault_views_bitwise_equal(self, kinds):
        """A fault view shares its conference's structure and prices it
        against its own D and H: after the base has built every layout
        and move set, both passes on the view equal the oracle, which
        reads D and H from the view's topology.  Dropping the view frees
        its arrays by reference counting alone; the shared profile lives
        on with the base."""
        base = scenario_conference(
            seed=7, params=ScenarioParams(num_user_sites=48, num_users=24)
        )
        faults = [
            Fault(kind=kind, site=site, start_s=0.0, end_s=1.0, severity=0.6)
            for site, kind in enumerate(kinds, start=1)
        ]
        rng = np.random.default_rng(3)
        assignments = [nearest_assignment(base)] + [
            random_assignment(base, rng) for _ in range(4)
        ]
        for sid in range(base.num_sessions):
            arrays_for(base).evaluate_candidates(assignments[0], sid)

        view = apply_faults(base, faults)
        assert view is not base
        # Sharing sigma needs every agent's transcoding latency model.
        assert all(
            faulted.latency is pristine.latency
            for faulted, pristine in zip(view.agents, base.agents)
        )
        assert profile_for(view) is profile_for(base)
        arrays = arrays_for(view)
        assert arrays is not arrays_for(base)
        assert arrays._d is view.topology.inter_agent_ms
        assert arrays._h is view.topology.agent_user_ms
        for trial, assignment in enumerate(assignments):
            for sid in range(view.num_sessions):
                tag = f"{kinds} trial={trial} sid={sid}"
                assert_assignment_matches_oracle(view, assignment, sid, tag)
                assert_rows_equal(
                    arrays.evaluate_candidates(assignment, sid),
                    oracle_rows(view, assignment, sid),
                    tag,
                )

        enabled = gc.isenabled()
        gc.disable()
        try:
            refs = [weakref.ref(view), weakref.ref(arrays)]
            profile = weakref.ref(profile_for(base))
            del view, arrays
            assert [ref() for ref in refs] == [None, None]
            assert profile() is profile_for(base)
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("extra_user", [None, ("720p", "720p")])
    def test_sessions_without_pairs(self, extra_user):
        conference = build_pair_conference(
            "720p", "720p", "720p", "720p", extra_user=extra_user
        )
        assert conference.theta_sum == 0
        for agents in itertools.product(range(2), repeat=conference.num_users):
            assignment = Assignment(np.array(agents), np.zeros(0, dtype=np.int64))
            assert_assignment_matches_oracle(conference, assignment, 0, str(agents))

    def test_single_agent_conference(self):
        conf = prototype_conference(
            seed=1, num_sessions=2, regions_override=("Virginia",)
        )
        assert conf.num_agents == 1
        assignment = nearest_assignment(conf)
        for sid in range(conf.num_sessions):
            assert_assignment_matches_oracle(conf, assignment, sid, f"sid={sid}")

    def test_returned_arrays_are_fresh(self):
        """Evaluations keep their values: nothing handed out is a view of
        a buffer the kernel writes again."""
        conference = scenario_conference(seed=5, params=SCENARIO_GRID[1][1])
        arrays = arrays_for(conference)
        rng = np.random.default_rng(17)
        assignment = random_assignment(conference, rng)
        first = arrays.evaluate_assignment(assignment, 0)
        usage = arrays.assignment_usage(assignment, 0)
        kept = {field: getattr(first.usage, field).copy() for field in USAGE_FIELDS}
        worst = first.user_worst_ms.copy()
        for _ in range(3):
            other = random_assignment(conference, rng)
            arrays.evaluate_assignment(other, 0)
            arrays.assignment_usage(other, 0)
            arrays.evaluate_candidates(other, 0)
        for field in USAGE_FIELDS:
            assert np.array_equal(getattr(first.usage, field), kept[field]), field
            assert np.array_equal(getattr(usage, field), kept[field]), field
        assert np.array_equal(first.user_worst_ms, worst)

    @pytest.mark.parametrize("agent", [-1, "L"])
    def test_rejects_decisions_naming_no_agent(self, agent):
        """An unassigned (-1) or out-of-range decision raises instead of
        charging another slot; the usage half has no delay lookup that
        would fail on its own."""
        conference = scenario_conference(seed=3, params=SCENARIO_GRID[0][1])
        assignment = nearest_assignment(conference)
        agent = conference.num_agents if agent == "L" else agent
        arrays = arrays_for(conference)
        for broken in (
            assignment.with_user(conference.session(0).user_ids[-1], agent),
            assignment.with_task(conference.session_pair_indices(0)[0], agent),
        ):
            for evaluate in (
                arrays.evaluate_assignment,
                arrays.assignment_usage,
                arrays.evaluate_candidates,
            ):
                with pytest.raises(ModelError, match="session 0"):
                    evaluate(broken, 0)

    def test_hop_batches_alone_run_the_move_set_pass(self, monkeypatch):
        """Scoring one assignment never goes through the move-set pass:
        ``evaluate_candidates`` runs exactly once per candidate batch."""
        calls = {"batches": 0, "evaluations": 0}
        batch = SearchContext.candidate_batch
        evaluate = ConferenceArrays.evaluate_candidates

        def counting_batch(context, sid):
            calls["batches"] += 1
            return batch(context, sid)

        def counting_evaluate(arrays, assignment, sid):
            calls["evaluations"] += 1
            return evaluate(arrays, assignment, sid)

        monkeypatch.setattr(SearchContext, "candidate_batch", counting_batch)
        monkeypatch.setattr(
            ConferenceArrays, "evaluate_candidates", counting_evaluate
        )
        compiled = compiled_library("prototype_smoke")
        solver = MarkovAssignmentSolver(
            compiled.evaluator,
            nearest_assignment(compiled.conference),
            config=MarkovConfig(beta=compiled.config.markov.beta),
            rng=np.random.default_rng(5),
        )
        solver.run(40)
        assert calls["batches"] == 40
        assert calls["evaluations"] == calls["batches"]


class TestObjectiveAssembly:
    """``session_cost``, ``total`` and ``SearchContext.metrics`` against
    the oracle's scalar assembly, bit for bit."""

    @staticmethod
    def _assert_costs_equal(expected, actual, tag):
        assert actual.sid == expected.sid, tag
        assert actual.phi == expected.phi, tag
        assert actual.delay_cost_ms == expected.delay_cost_ms, tag
        assert actual.traffic_cost == expected.traffic_cost, tag
        assert actual.transcode_cost == expected.transcode_cost, tag
        for field in USAGE_FIELDS:
            assert np.array_equal(
                getattr(actual.usage, field), getattr(expected.usage, field)
            ), f"{tag}: {field}"

    @pytest.mark.parametrize(
        "seed,params", [SCENARIO_GRID[1], SCENARIO_GRID[2], (13, LARGE_SESSIONS)]
    )
    @pytest.mark.parametrize("alphas", ALPHAS)
    @pytest.mark.parametrize("convex", [False, True])
    def test_session_cost_and_total(self, seed, params, alphas, convex):
        conference = scenario_conference(seed=seed, params=params)
        evaluator = make_evaluator(conference, alphas, convex)
        rng = np.random.default_rng(41)
        for trial in range(3):
            assignment = random_assignment(conference, rng)
            costs = [
                oracle_session_cost(evaluator, assignment, sid)
                for sid in range(conference.num_sessions)
            ]
            for cost in costs:
                self._assert_costs_equal(
                    cost,
                    evaluator.session_cost(assignment, cost.sid),
                    f"trial={trial} sid={cost.sid}",
                )
            sids = list(range(conference.num_sessions))[::-2]
            total = evaluator.total(assignment, sids)
            chosen = [costs[sid] for sid in sids]
            delays = []
            for sid in sids:
                delays.extend(
                    session_delays(
                        evaluator.conference,
                        assignment.user_agent,
                        assignment.task_agent,
                        sid,
                    )[2].values()
                )
            assert total.phi == sum(c.phi for c in chosen)
            assert total.inter_agent_mbps == sum(c.inter_agent_mbps for c in chosen)
            assert total.average_delay_ms == float(sum(delays) / len(delays))
            assert total.transcode_tasks == float(
                sum(c.usage.transcodes.sum() for c in chosen)
            )
            for expected, actual in zip(chosen, total.sessions):
                self._assert_costs_equal(expected, actual, f"trial={trial} total")

    @pytest.mark.parametrize("seed,params", [SCENARIO_GRID[1], (13, LARGE_SESSIONS)])
    def test_search_context_metrics(self, seed, params):
        conference = scenario_conference(seed=seed, params=params)
        evaluator = make_evaluator(conference)
        active = list(range(conference.num_sessions))[1::2]
        context = SearchContext(evaluator, nearest_assignment(conference), active)
        for sid in active:
            context.greedy_refine(sid, 2)
        assignment = context.assignment
        delays = []
        for sid in context.active_sessions:
            delays.extend(
                session_delays(
                    evaluator.conference,
                    assignment.user_agent,
                    assignment.task_agent,
                    sid,
                )[2].values()
            )
        traffic = sum(
            oracle_session_cost(evaluator, assignment, sid).inter_agent_mbps
            for sid in context.active_sessions
        )
        assert context.metrics() == (traffic, float(np.mean(delays)))


class TestVisitedStates:
    """Solver runs check every candidate batch they draw.

    ``SearchContext.candidate_batch`` and ``count_feasible`` are wrapped
    so that each call is compared against the oracle at the state the
    solver is in, observation noise included; the runs must also move,
    so an empty candidate stream cannot pass.
    """

    @pytest.fixture()
    def checked(self, monkeypatch):
        calls = {"batches": 0, "counts": 0}
        batch, count = SearchContext.candidate_batch, SearchContext.count_feasible

        def candidate_batch(context, sid):
            # The oracle replays the noise from the generator's state
            # before the batch draws from it.
            rng = copy.deepcopy(context._rng)
            result = batch(context, sid)
            assert_batch_matches_oracle(
                context, sid, result, f"sid={sid}", noise=context._noise, rng=rng
            )
            calls["batches"] += 1
            return result

        def count_feasible(context, sid, assignment):
            result = count(context, sid, assignment)
            assert result == len(oracle_feasible(context, sid, assignment))
            calls["counts"] += 1
            return result

        monkeypatch.setattr(SearchContext, "candidate_batch", candidate_batch)
        monkeypatch.setattr(SearchContext, "count_feasible", count_feasible)
        return calls

    @pytest.mark.parametrize("library_name", ["prototype_smoke", "beta_locality"])
    @pytest.mark.parametrize("hop_rule", ["paper", "metropolis"])
    def test_markov_run(self, checked, library_name, hop_rule):
        compiled = compiled_library(library_name)
        solver = MarkovAssignmentSolver(
            compiled.evaluator,
            nearest_assignment(compiled.conference),
            config=MarkovConfig(beta=compiled.config.markov.beta, hop_rule=hop_rule),
            rng=np.random.default_rng(97),
        )
        solver.run(150)
        assert checked["batches"] == 150
        assert solver.migrations > 3
        if hop_rule == "metropolis":
            assert checked["counts"] > 3

    @pytest.mark.parametrize("hop_rule,beta", [("paper", 8.0), ("metropolis", 1.0)])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    def test_markov_run_on_scenario(self, checked, hop_rule, beta, sigma):
        conference = scenario_conference(seed=5, params=ROOMY)
        solver = MarkovAssignmentSolver(
            make_evaluator(conference),
            nearest_assignment(conference),
            config=MarkovConfig(beta=beta, hop_rule=hop_rule),
            noise=GaussianNoise(sigma) if sigma else None,
            rng=np.random.default_rng(3),
        )
        solver.run(200)
        assert checked["batches"] == 200
        assert solver.migrations > 3

    def test_metropolis_run_under_capacity(self, checked):
        conference = scenario_conference(seed=17, params=TIGHT)
        solver = MarkovAssignmentSolver(
            make_evaluator(conference),
            nearest_assignment(conference),
            config=MarkovConfig(beta=48.0, hop_rule="metropolis"),
            rng=np.random.default_rng(31),
        )
        solver.run(150)
        assert solver.migrations > 3

    @pytest.mark.parametrize("library_name", ["prototype_smoke", "beta_locality"])
    def test_greedy_run(self, checked, library_name):
        compiled = compiled_library(library_name)
        result = greedy_descent(
            compiled.evaluator, nearest_assignment(compiled.conference)
        )
        assert result.converged
        assert result.iterations > 3
        assert checked["batches"] > result.iterations

    def test_greedy_run_with_noise(self, checked):
        conference = scenario_conference(seed=5, params=ROOMY)
        result = greedy_descent(
            make_evaluator(conference),
            nearest_assignment(conference),
            max_iterations=8,
            noise=GaussianNoise(sigma=0.05),
        )
        assert result.iterations > 3
        assert checked["batches"] > result.iterations

    @pytest.mark.parametrize("library_name", ["prototype_smoke", "beta_locality"])
    def test_annealing_run(self, checked, library_name):
        compiled = compiled_library(library_name)
        result = simulated_annealing(
            compiled.evaluator,
            nearest_assignment(compiled.conference),
            config=AnnealingConfig(hops=150),
            rng=np.random.default_rng(2),
        )
        assert result.accepted > 3
        assert checked["batches"] == 150

    def test_annealing_run_on_scenario(self, checked):
        conference = scenario_conference(seed=5, params=ROOMY)
        result = simulated_annealing(
            make_evaluator(conference),
            nearest_assignment(conference),
            config=AnnealingConfig(hops=300),
            rng=np.random.default_rng(2),
        )
        assert result.accepted > 3
        assert checked["batches"] == 300


class TestChosenHop:
    """Given one rng, ``session_hop`` makes the move that the oracle's
    candidates and the hop rule imply: the kernel's feasible positions
    map back to the right moves, and the Metropolis rule counts the
    neighbours of its proposal."""

    @staticmethod
    def _oracle_hop(context, sid, beta, hop_rule, rng):
        """``(chosen, counted)``: the oracle's hop, or ``None``, and the
        states whose feasible neighbours the hop rule counts."""
        feasible = oracle_feasible(context, sid)
        if not feasible:
            return None, []
        phi_before = context.session_cost(sid).phi
        if hop_rule == "paper":
            phis = np.array([candidate.phi for candidate in feasible])
            probabilities = hop_probabilities(phi_before, phis, beta)
            return feasible[rng.choice(len(feasible), p=probabilities)], []
        proposal = feasible[rng.integers(len(feasible))]
        counted = [proposal.assignment]
        backward = len(oracle_feasible(context, sid, proposal.assignment))
        if backward == 0:
            return None, counted
        log_accept = metropolis_log_acceptance(
            beta, phi_before, proposal.phi, len(feasible), backward
        )
        accepted = np.log(rng.uniform()) < min(0.0, log_accept)
        return (proposal if accepted else None), counted

    @pytest.mark.parametrize("hop_rule,beta", [("paper", 64.0), ("metropolis", 1.0)])
    def test_same_chosen_hop_under_fixed_rng(self, monkeypatch, hop_rule, beta):
        counted = []
        count = SearchContext.count_feasible

        def count_feasible(context, sid, assignment):
            counted.append(assignment)
            return count(context, sid, assignment)

        monkeypatch.setattr(SearchContext, "count_feasible", count_feasible)
        conference = scenario_conference(seed=9, params=TIGHT)
        rng = np.random.default_rng(4)
        solver = MarkovAssignmentSolver(
            make_evaluator(conference),
            nearest_assignment(conference),
            config=MarkovConfig(beta=beta, hop_rule=hop_rule),
            rng=rng,
        )
        moved = 0
        for _ in range(5):
            for sid in range(conference.num_sessions):
                mirror = copy.deepcopy(rng)
                expected, expected_counted = self._oracle_hop(
                    solver.context, sid, beta, hop_rule, mirror
                )
                counted.clear()
                result = solver.session_hop(sid)
                assert result.move == (expected.move if expected else None), sid
                assert counted == expected_counted, sid
                assert mirror.bit_generator.state == rng.bit_generator.state
                moved += result.moved
        assert moved > 3


class TestRemovedKernelField:
    """Specs naming the removed ``solver.kernel`` field fail loudly."""

    def test_spec_with_kernel_rejected(self):
        with pytest.raises(SpecError, match="unknown key.*'kernel'"):
            RunSpec.from_dict({"name": "old", "solver": {"kernel": "arrays"}})

    def test_kernel_sweep_axis_rejected(self):
        data = RunSpec(name="scale").to_dict()
        data["sweep"]["axes"] = [{"path": "solver.kernel", "values": ["arrays"]}]
        with pytest.raises(SpecError, match="solver.kernel"):
            RunSpec.from_dict(data)


class TestPhiArray:
    """The conference-level phi mirror under session dynamics."""

    def test_total_matches_sequential_python_sum(self):
        rng = np.random.default_rng(0)
        phis = {sid: float(phi) for sid, phi in enumerate(rng.normal(size=40))}
        mirror = PhiArray(phis)
        assert mirror.total() == sum(phis.values())

    def test_set_append_remove_track_dict_semantics(self):
        phis = {0: 1.25, 1: 2.5, 2: -0.75}
        mirror = PhiArray(dict(phis))
        mirror.set(1, 9.0)
        phis[1] = 9.0
        assert mirror.total() == sum(phis.values())
        mirror.append(7, 0.5)
        phis[7] = 0.5
        assert mirror.total() == sum(phis.values())
        mirror.remove(0)
        del phis[0]
        assert mirror.total() == sum(phis.values())
        mirror.append(0, 3.25)  # re-arrival lands at the *end*, like a dict
        phis[0] = 3.25
        assert mirror.total() == sum(phis.values())

    def test_empty_total_is_int_zero_like_builtin_sum(self):
        mirror = PhiArray({})
        assert mirror.total() == 0
        assert isinstance(mirror.total(), int)
        mirror.append(4, 1.5)
        mirror.remove(4)
        assert mirror.total() == 0

    def test_search_context_phi_matches_sequential_sum(self):
        conference = scenario_conference(
            seed=3, params=ScenarioParams(num_user_sites=32, num_users=12)
        )
        evaluator = make_evaluator(conference)
        assignment = nearest_assignment(conference)
        context = SearchContext(evaluator, assignment)
        expected = sum(
            evaluator.session_cost(assignment, sid).phi
            for sid in range(conference.num_sessions)
        )
        assert context.total_phi() == expected
