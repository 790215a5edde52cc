"""The test oracle of the :mod:`repro.core.arrays` flow-model kernel.

The kernel evaluates a session's usage and delay terms for one
assignment (``evaluate_assignment``) and for a whole move set
(``evaluate_candidates``).  This module computes the same things the
slow and obvious way, so the tests can pin both passes against it bit
for bit:

* :func:`session_usage` adds each contribution of the paper's
  ``mu_klu`` formula one at a time, looping over streams, transcode
  groups and raw targets with Python sets for the formula's ``max``
  terms;
* :func:`session_delays` loops over flows, adding a transcoded flow's
  terms as ``(h + h) + ((d + d) + sigma)``;
* :func:`assemble_session_cost` builds ``Phi_{s,f}`` from scalars
  (:func:`traffic_cost`, :func:`transcode_cost`);
* :func:`oracle_rows` / :func:`oracle_candidates` score a move set one
  move at a time: enumerate moves with
  :func:`~repro.core.neighborhood.session_moves`, apply each, evaluate
  it with the two loops, reject it when :meth:`CapacityLedger.fits`
  fails or its longest flow exceeds ``dmax_ms + 1e-9`` (constraint
  (8)), assemble its cost and apply the observation noise, if any, per
  feasible candidate in enumeration order.

Only tests use it.  The loops read nothing but the profile's session
plans, demand vector and sigma table, and the conference's own latency
matrices — never the kernel's copy, so a fault view whose kernel kept
its pristine conference's D or H would disagree with them.  The per-flow
oracle in ``tests/flow_oracle.py`` checks the kernel in turn
(``test_core_fastpath.py``): usage exactly, delays only approximately.
The per-flow oracle (like :mod:`repro.core.delay`) adds a transcoded
flow's terms left to right, ``((lastmile + d[a, m]) + d[m, b]) +
sigma``, while the kernel and :func:`session_delays` add ``lastmile +
((d[a, m] + d[m, b]) + sigma)``, so about a quarter of delay costs and
over a third of max-flow delays differ from it in the last bits.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.arrays import arrays_for
from repro.core.fastpath import SessionUsage, profile_for
from repro.core.neighborhood import session_moves
from repro.core.objective import SessionCost
from repro.core.search import Candidate

#: Per-candidate usage arrays compared bit for bit.
USAGE_FIELDS = ("inter_in", "inter_out", "download", "upload", "transcodes")


def session_usage(conference, user_agent, task_agent, sid) -> SessionUsage:
    """Session ``sid``'s per-agent usage per the ``mu_klu`` formula
    (see :mod:`repro.core.arrays`), one contribution at a time."""
    profile = profile_for(conference)
    plan = profile.plans[sid]
    num_agents = profile.num_agents
    inter_in = np.zeros(num_agents)
    inter_out = np.zeros(num_agents)
    lastmile_down = np.zeros(num_agents)
    lastmile_up = np.zeros(num_agents)
    transcodes = np.zeros(num_agents, dtype=np.int64)

    for stream in plan.streams:
        source = stream.source
        a = int(user_agent[source])
        lastmile_down[a] += stream.kappa_up
        lastmile_up[a] += profile.demand_out_mbps[source]

        raw_targets: set[int] = set()
        for kappa, pair_list, dests in stream.transcode_groups:
            task_agents = {int(task_agent[i]) for i in pair_list}
            raw_targets.update(task_agents)
            for agent in task_agents:
                transcodes[agent] += 1
            dest_agents = {int(user_agent[v]) for v in dests}
            for l in dest_agents:
                if l == a:
                    continue  # the mu formula's (1 - lambda_lu) factor
                for k in task_agents:
                    if k != l:
                        inter_out[k] += kappa
                        inter_in[l] += kappa
        for v in stream.raw_dest_users:
            raw_targets.add(int(user_agent[v]))
        for l in raw_targets:
            if l != a:
                inter_out[a] += stream.kappa_up
                inter_in[l] += stream.kappa_up

    return SessionUsage(
        sid=sid,
        inter_in=inter_in,
        inter_out=inter_out,
        download=lastmile_down + inter_in,
        upload=lastmile_up + inter_out,
        transcodes=transcodes,
    )


def session_delays(conference, user_agent, task_agent, sid):
    """``(F(d_s), max flow delay, per-user worst incoming delay)``.

    ``F(d_s)`` is the mean of the per-user worst delays; the per-user
    dict is in session user order.  A transcoded flow adds ``(h + h) +
    ((d + d) + sigma)``.  D and H come from ``conference.topology``.
    """
    profile = profile_for(conference)
    plan = profile.plans[sid]
    h = conference.topology.agent_user_ms
    d = conference.topology.inter_agent_ms
    worst: dict[int, float] = {u: 0.0 for u in plan.users}
    max_flow = 0.0
    for source, destination, pair_index in plan.flows:
        a = int(user_agent[source])
        b = int(user_agent[destination])
        delay = h[a, source] + h[b, destination]
        if pair_index < 0:
            delay += d[a, b]
        else:
            m = int(task_agent[pair_index])
            delay += d[a, m] + d[m, b] + profile.sigma[pair_index, m]
        if delay > worst[destination]:
            worst[destination] = delay
        if delay > max_flow:
            max_flow = delay
    mean = sum(worst.values()) / len(worst)
    return mean, max_flow, worst


def traffic_cost(evaluator, inter_in) -> float:
    """``G(x_s) = sum_l g_l(x_ls)``, from scalars."""
    if evaluator._identity_g:
        return float(inter_in.sum())
    return sum(evaluator._g[l](float(x)) for l, x in enumerate(inter_in))


def transcode_cost(evaluator, transcodes) -> float:
    """``H(y_s) = sum_l h_l(y_ls)``, from scalars."""
    if evaluator._identity_h:
        return float(transcodes.sum())
    return sum(evaluator._h[l](float(y)) for l, y in enumerate(transcodes))


def assemble_session_cost(evaluator, sid, usage, delay_cost_ms) -> SessionCost:
    """``Phi_{s,f}`` of one session from its usage and ``F(d_s)``."""
    traffic = traffic_cost(evaluator, usage.inter_in)
    transcode = transcode_cost(evaluator, usage.transcodes)
    w = evaluator.weights
    phi = (
        w.alpha1 * delay_cost_ms / w.delay_scale
        + w.alpha2 * traffic / w.traffic_scale
        + w.alpha3 * transcode / w.transcode_scale
    )
    return SessionCost(
        sid=sid,
        phi=phi,
        delay_cost_ms=delay_cost_ms,
        traffic_cost=traffic,
        transcode_cost=transcode,
        usage=usage,
    )


def oracle_session_cost(evaluator, assignment, sid) -> SessionCost:
    """:meth:`ObjectiveEvaluator.session_cost`, computed by the oracle."""
    conference = evaluator.conference
    usage = session_usage(
        conference, assignment.user_agent, assignment.task_agent, sid
    )
    delay_cost, _max_flow, _worst = session_delays(
        conference, assignment.user_agent, assignment.task_agent, sid
    )
    return assemble_session_cost(evaluator, sid, usage, delay_cost)


def oracle_rows(conference, assignment, sid):
    """``(move, usage, delay_cost_ms, max_flow_ms)`` for every move of
    ``sid`` at ``assignment``, feasible or not, in enumeration order."""
    rows = []
    for move in session_moves(conference, assignment, sid):
        candidate = move.apply(assignment)
        usage = session_usage(
            conference, candidate.user_agent, candidate.task_agent, sid
        )
        delay_cost, max_flow, _worst = session_delays(
            conference, candidate.user_agent, candidate.task_agent, sid
        )
        rows.append((move, usage, delay_cost, max_flow))
    return rows


def oracle_candidates(context, sid, assignment=None, noise=None, rng=None):
    """One entry per move of ``sid``: its :class:`Candidate`, or ``None``
    when the move is infeasible against ``context``'s ledger.

    ``assignment`` defaults to the context's current one; ``noise`` and
    ``rng`` perturb each feasible candidate's observed ``phi``.
    """
    evaluator = context.evaluator
    assignment = context.assignment if assignment is None else assignment
    dmax_ms = context.conference.dmax_ms
    results = []
    for move, usage, delay_cost, max_flow in oracle_rows(
        context.conference, assignment, sid
    ):
        if not context.ledger.fits(usage) or max_flow > dmax_ms + 1e-9:
            results.append(None)
            continue
        cost = assemble_session_cost(evaluator, sid, usage, delay_cost)
        if noise is not None:
            cost = dataclasses.replace(cost, phi=noise.perturb(cost.phi, rng))
        results.append(
            Candidate(move=move, assignment=move.apply(assignment), cost=cost)
        )
    return results


def oracle_feasible(context, sid, assignment=None, noise=None, rng=None):
    """The feasible candidates of :func:`oracle_candidates`, in order."""
    return [
        candidate
        for candidate in oracle_candidates(context, sid, assignment, noise, rng)
        if candidate is not None
    ]


def oracle_best(context, sid):
    """The first feasible candidate with the lowest ``phi``, or ``None``."""
    best = None
    for candidate in oracle_feasible(context, sid):
        if best is None or candidate.phi < best.phi:
            best = candidate
    return best


def assert_candidates_equal(expected, actual, tag=""):
    """Same candidates in the same order, every value bit for bit."""
    assert len(expected) == len(actual), f"{tag}: {len(expected)} vs {len(actual)}"
    for i, (oracle, fast) in enumerate(zip(expected, actual)):
        where = f"{tag} candidate {i}"
        assert oracle.move == fast.move, where
        assert oracle.assignment == fast.assignment, where
        assert oracle.phi == fast.phi, where
        assert oracle.cost.delay_cost_ms == fast.cost.delay_cost_ms, where
        assert oracle.cost.traffic_cost == fast.cost.traffic_cost, where
        assert oracle.cost.transcode_cost == fast.cost.transcode_cost, where
        for field in USAGE_FIELDS:
            assert np.array_equal(
                getattr(oracle.cost.usage, field), getattr(fast.cost.usage, field)
            ), f"{where}: usage.{field}"


def assert_rows_equal(evaluation, rows, tag=""):
    """A :class:`BatchEvaluation` equals :func:`oracle_rows` bit for bit."""
    assert evaluation.size == len(rows), f"{tag}: {evaluation.size} vs {len(rows)}"
    for i, (move, usage, delay_cost, max_flow) in enumerate(rows):
        where = f"{tag} row {i}"
        assert evaluation.moves.move(i) == move, where
        for field in USAGE_FIELDS:
            assert np.array_equal(
                getattr(evaluation, field)[i], getattr(usage, field)
            ), f"{where}: {field}"
        assert evaluation.delay_cost_ms[i] == delay_cost, where
        assert evaluation.max_flow_ms[i] == max_flow, where


def assert_batch_matches_oracle(context, sid, batch, tag="", noise=None, rng=None):
    """A :class:`CandidateBatch` equals the oracle: same feasibility mask
    over the raw move set, same feasible candidates.

    A noisy batch is compared against ``noise`` drawing from ``rng``, a
    copy of the context's generator taken before the batch was drawn.
    """
    expected = oracle_candidates(context, sid, noise=noise, rng=rng)
    assert batch.feasible_mask.tolist() == [c is not None for c in expected], tag
    assert_candidates_equal(
        [c for c in expected if c is not None], batch.materialize_all(), tag
    )


def assert_assignment_matches_oracle(conference, assignment, sid, tag=""):
    """:meth:`ConferenceArrays.evaluate_assignment` (and its usage half
    :meth:`~ConferenceArrays.assignment_usage`) equal
    :func:`session_usage` and :func:`session_delays` bit for bit."""
    arrays = arrays_for(conference)
    evaluation = arrays.evaluate_assignment(assignment, sid)
    usage = session_usage(
        conference, assignment.user_agent, assignment.task_agent, sid
    )
    delay_cost, max_flow, worst = session_delays(
        conference, assignment.user_agent, assignment.task_agent, sid
    )
    for field in USAGE_FIELDS:
        expected, actual = getattr(usage, field), getattr(evaluation.usage, field)
        assert actual.dtype == expected.dtype, f"{tag}: {field} dtype"
        assert np.array_equal(actual, expected), f"{tag}: {field}"
    assert evaluation.usage.sid == sid, tag
    usage_half = arrays.assignment_usage(assignment, sid)
    for field in USAGE_FIELDS:
        assert np.array_equal(
            getattr(usage_half, field), getattr(usage, field)
        ), f"{tag}: assignment_usage {field}"
    assert evaluation.delay_cost_ms == delay_cost, tag
    assert evaluation.user_worst_ms.max() == max_flow, tag
    assert evaluation.user_worst_ms.tolist() == list(worst.values()), tag
