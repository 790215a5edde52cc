"""Production constraint checks and the bootstrap against the flow oracle.

:func:`repro.core.feasibility.check_assignment` sums the kernel's
:meth:`ConferenceArrays.assignment_usage` for (5)-(7) and reads
(8) off :func:`repro.core.delay.flow_table_delays`;
:func:`try_bootstrap` feeds its ledger from the same kernel pass and
judges the ledger's own totals.  ``tests/flow_oracle.py`` computes both
flow by flow, the way the code did before it read the profile.  These tests pin the verdicts and violation
lines to the oracle on random, capacity-tight, delay-tight, faulted,
partial and unassigned states, and the bootstrap's outcome and
assignment on a capacity grid where it both succeeds and fails.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.core.agrank import AgRankConfig
from repro.core.arrays import arrays_for
from repro.core.assignment import Assignment
from repro.core.bootstrap import try_bootstrap
from repro.core.feasibility import check_assignment
from repro.model.builder import ConferenceBuilder
from repro.model.conference import Conference
from repro.model.representation import PAPER_LADDER
from repro.runtime.faults import Fault, apply_faults
from repro.types import UNASSIGNED
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference
from tests import flow_oracle
from tests.conftest import PAIR_D, PAIR_H


def random_assignment(conference, rng) -> Assignment:
    return Assignment(
        rng.integers(0, conference.num_agents, conference.num_users),
        rng.integers(0, conference.num_agents, conference.theta_sum),
    )


def with_capacities(conference, download, upload, slots) -> Conference:
    """The same conference with per-agent capacities replaced."""
    agents = tuple(
        dataclasses.replace(
            agent,
            download_mbps=float(download[i]),
            upload_mbps=float(upload[i]),
            transcode_slots=float(slots[i]),
        )
        for i, agent in enumerate(conference.agents)
    )
    return Conference(
        conference.users,
        conference.sessions,
        agents,
        conference.topology,
        conference.representations,
        dmax_ms=conference.dmax_ms,
    )


def summed_usage(conference, assignment):
    """Oracle ``(download, upload, transcodes)`` summed over all sessions."""
    totals = [np.zeros(conference.num_agents) for _ in range(3)]
    for sid in range(conference.num_sessions):
        usage = flow_oracle.compute_session_usage(conference, assignment, sid)
        totals[0] += usage.download
        totals[1] += usage.upload
        totals[2] += usage.transcodes
    return totals


def all_flow_delays(conference, assignment, sids):
    """Every flow's oracle delay over ``sids``."""
    return [
        flow_oracle.flow_delay(conference, assignment, source, destination)
        for sid in sids
        for source, destination in flow_oracle.iter_session_flows(conference, sid)
    ]


def draws():
    params = ScenarioParams(num_user_sites=48, num_users=24)
    scenario = scenario_conference(seed=3, params=params)
    prototype = prototype_conference(seed=4)
    return [
        scenario,
        scenario_conference(
            seed=7,
            params=ScenarioParams(
                num_user_sites=48,
                num_users=24,
                mean_bandwidth_mbps=220.0,
                mean_transcode_slots=20.0,
            ),
        ),
        prototype,
        # Substrate views: an outage row (OUTAGE_DELAY_MS), a latency
        # spike and a capacity cut.
        apply_faults(
            prototype,
            [
                Fault(kind="outage", site=1, start_s=0.0, end_s=1.0),
                Fault(kind="latency", site=2, start_s=0.0, end_s=1.0, severity=0.7),
                Fault(kind="capacity", site=3, start_s=0.0, end_s=1.0),
            ],
        ),
        apply_faults(
            scenario,
            [Fault(kind="outage", site=0, start_s=0.0, end_s=1.0)],
        ),
    ]


@pytest.fixture(scope="module")
def conferences():
    return draws()


def assert_same_report(conference, assignment, sids=None, dmax_ms=None):
    """Production and oracle agree on ``ok`` and on the multiset of
    violation lines; returns the production report."""
    if sids is not None:
        sids = list(sids)
    production = check_assignment(conference, assignment, sids, dmax_ms)
    oracle = flow_oracle.check_assignment(conference, assignment, sids, dmax_ms)
    assert production.ok == oracle.ok
    assert Counter(production.violations) == Counter(oracle.violations)
    return production


def fired(report) -> set[str]:
    """The constraint labels, e.g. ``"(5)"``, among the violations."""
    return {line.split()[1].rstrip(":") for line in report.violations}


class TestCheckAssignmentMatchesOracle:
    def test_random_states(self, conferences):
        rng = np.random.default_rng(0)
        for conference in conferences:
            for _ in range(4):
                assert_same_report(conference, random_assignment(conference, rng))

    def test_capacity_envelopes_fire_5_to_7(self, conferences):
        """Capacities cut below the summed usage on some agents and set
        exactly to it on the others (a boundary that must not fire)."""
        rng = np.random.default_rng(1)
        labels: set[str] = set()
        for conference in conferences:
            assignment = random_assignment(conference, rng)
            download, upload, slots = summed_usage(conference, assignment)
            cut = rng.random(conference.num_agents) < 0.5
            tight = with_capacities(
                conference,
                np.where(cut, 0.9 * download, download),
                np.where(cut, 0.9 * upload, upload),
                np.where(cut, np.floor(0.5 * slots), slots),
            )
            report = assert_same_report(tight, assignment, dmax_ms=np.inf)
            labels |= fired(report)
        assert {"(5)", "(6)", "(7)"} <= labels

    def test_delay_cap_at_median_fires_8(self, conferences):
        rng = np.random.default_rng(2)
        for conference in conferences:
            assignment = random_assignment(conference, rng)
            sids = range(conference.num_sessions)
            cap = float(np.median(all_flow_delays(conference, assignment, sids)))
            report = assert_same_report(conference, assignment, dmax_ms=cap)
            assert "(8)" in fired(report)

    def test_delay_cap_equal_to_a_flow_delay_is_not_a_violation(self, conferences):
        """``delay > cap`` (plus the 1e-9 slack): the longest flow sits
        exactly at the cap and is not flagged."""
        rng = np.random.default_rng(3)
        for conference in conferences:
            assignment = random_assignment(conference, rng)
            sids = [0, conference.num_sessions - 1]
            cap = max(all_flow_delays(conference, assignment, sids))
            report = assert_same_report(conference, assignment, sids, dmax_ms=cap)
            assert "(8)" not in fired(report)

    def test_sid_subsets_and_repeats(self, conferences):
        rng = np.random.default_rng(4)
        for conference in conferences:
            assignment = random_assignment(conference, rng)
            count = conference.num_sessions
            cap = float(
                np.median(all_flow_delays(conference, assignment, range(count)))
            )
            for sids in (
                [],
                [count - 1],
                rng.permutation(count)[: count // 2].tolist(),
                [1, 0, 1, 0],
            ):
                assert_same_report(conference, assignment, sids, dmax_ms=cap)

    def test_unassigned_users_and_tasks(self, conferences):
        rng = np.random.default_rng(5)
        for conference in conferences:
            assignment = random_assignment(conference, rng)
            sid = next(
                s for s in range(conference.num_sessions)
                if conference.session_pair_indices(s)
            )
            user = conference.session(sid).user_ids[0]
            pair = conference.session_pair_indices(sid)[0]
            holes = (
                assignment.with_user(user, UNASSIGNED),
                assignment.with_task(pair, UNASSIGNED),
            )
            for broken in holes + (Assignment.empty(conference),):
                assert not assert_same_report(conference, broken).ok
            # Sessions the holes do not touch still check.
            others = [s for s in range(conference.num_sessions) if s != sid]
            for broken in holes:
                assert_same_report(conference, broken, others)


class TestRepeatedSessionIds:
    """A repeated sid counts its session's usage once (the capacity sums
    are over sessions, not over list entries)."""

    @staticmethod
    def exactly_full_conference():
        # Each agent downloads one 720p upstream plus the peer's stream:
        # 5 + 5 = 10 Mbps, exactly at capacity.
        builder = ConferenceBuilder(PAPER_LADDER)
        builder.add_agent(name="L0", download_mbps=10.0)
        builder.add_agent(name="L1", download_mbps=10.0)
        u0 = builder.user("720p", name="u0")
        u1 = builder.user("720p", name="u1")
        builder.add_session(u0, u1)
        return builder.build(inter_agent_ms=PAIR_D, agent_user_ms=PAIR_H)

    @pytest.mark.parametrize("policy", ["nearest", "agrank"])
    def test_bootstrap_counts_a_repeated_sid_once(self, policy):
        conference = self.exactly_full_conference()
        once = try_bootstrap(conference, policy, sids=[0])
        assert once.success
        twice = try_bootstrap(conference, policy, sids=[0, 0])
        assert twice.success, twice.reason
        assert twice.assignment == once.assignment

    def test_check_assignment_counts_a_repeated_sid_once(self):
        conference = self.exactly_full_conference()
        assignment = try_bootstrap(conference, "nearest", sids=[0]).assignment
        assert check_assignment(conference, assignment, [0]).ok
        report = check_assignment(conference, assignment, [0, 0])
        assert report.ok, report.summary()


#: Capacity grid: mean per-agent bandwidth x mean transcoding slots.
CAPACITY_GRID = [
    (bandwidth, slots)
    for bandwidth in (60.0, 120.0, 200.0)
    for slots in (2.0, 4.0, 8.0, np.inf)
]

POLICIES = [
    ("nearest", None),
    ("agrank", AgRankConfig(n_ngbr=2)),
    ("agrank", AgRankConfig(n_ngbr=3)),
]


class TestBootstrapMatchesOracle:
    """The bootstrap against the same algorithm run on the oracle: a
    ledger of per-flow usage and a per-flow final check."""

    @pytest.mark.parametrize("policy,config", POLICIES)
    def test_capacity_grid(self, policy, config):
        outcomes = set()
        for i, (bandwidth, slots) in enumerate(CAPACITY_GRID):
            conference = scenario_conference(
                seed=300 + i,
                params=ScenarioParams(
                    num_user_sites=48,
                    num_users=24,
                    mean_bandwidth_mbps=bandwidth,
                    mean_transcode_slots=slots,
                ),
            )
            production = try_bootstrap(conference, policy, config)
            oracle = flow_oracle.try_bootstrap(conference, policy, config)
            where = f"{policy} {config} bandwidth={bandwidth} slots={slots}"
            assert production.success == oracle.success, where
            assert production.failed_sid == oracle.failed_sid, where
            assert production.reason == oracle.reason, where
            assert production.assignment == oracle.assignment, where
            outcomes.add(production.success)
        assert outcomes == {True, False}

    def test_sid_subset(self):
        conference = scenario_conference(
            seed=11,
            params=ScenarioParams(
                num_user_sites=48, num_users=24, mean_bandwidth_mbps=150.0
            ),
        )
        sids = list(range(conference.num_sessions))[::-2]
        for policy, config in POLICIES:
            production = try_bootstrap(conference, policy, config, sids)
            oracle = flow_oracle.try_bootstrap(conference, policy, config, sids)
            assert production == oracle

    def test_ledger_usage_is_the_oracle_usage(self):
        conference = scenario_conference(
            seed=5, params=ScenarioParams(num_user_sites=48, num_users=24)
        )
        assignment = try_bootstrap(conference, "agrank").assignment
        arrays = arrays_for(conference)
        for sid in range(conference.num_sessions):
            fast = arrays.assignment_usage(assignment, sid)
            ref = flow_oracle.compute_session_usage(conference, assignment, sid)
            for name in ("download", "upload", "transcodes"):
                assert np.array_equal(getattr(fast, name), getattr(ref, name))
