"""Shared fixtures: canonical small conferences used across the suite,
and the spec-level execution edit fleet tests run through."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: opt-in performance tests (set REPRO_PERF=1 to run)",
    )

from repro.model.builder import ConferenceBuilder
from repro.model.representation import PAPER_LADDER
from repro.workloads.motivating import motivating_conference
from repro.workloads.prototype import prototype_conference
from repro.workloads.scenarios import ScenarioParams, scenario_conference
from repro.workloads.toy import toy_conference


def with_execution(spec, **fields):
    """``spec`` with ``fields`` replaced in its ``execution:`` section —
    the spec edit the CLI's ``--workers``/``--backend``/``--budget``/
    ``--total-budget``/``--telemetry`` flags make; the edited section
    validates like a parsed one."""
    return replace(spec, execution=replace(spec.execution, **fields))


#: Hand-checkable delay matrices used by the two-user fixtures.
PAIR_D = np.array([[0.0, 20.0], [20.0, 0.0]])
PAIR_H = np.array([[10.0, 30.0], [25.0, 8.0]])


def build_pair_conference(
    u0_up: str,
    u0_down: str,
    u1_up: str,
    u1_down: str,
    agent_speeds: tuple[float, float] = (1.0, 1.0),
    extra_user: tuple[str, str] | None = None,
):
    """Two agents (L0, L1) and one 2-user (optionally 3-user) session.

    ``u{i}_down`` is the representation user i demands of everyone.  The
    delay matrices are PAIR_D / PAIR_H, extended with a third user column
    (delays 12/28 ms) when ``extra_user`` is given.
    """
    builder = ConferenceBuilder(PAPER_LADDER)
    builder.add_agent(name="L0", speed=agent_speeds[0])
    builder.add_agent(name="L1", speed=agent_speeds[1])
    users = [
        builder.user(upstream=u0_up, downstream=u0_down, name="u0"),
        builder.user(upstream=u1_up, downstream=u1_down, name="u1"),
    ]
    h = PAIR_H
    if extra_user is not None:
        users.append(
            builder.user(upstream=extra_user[0], downstream=extra_user[1], name="u2")
        )
        h = np.hstack([PAIR_H, np.array([[12.0], [28.0]])])
    builder.add_session(*users)
    return builder.build(inter_agent_ms=PAIR_D, agent_user_ms=h)


def build_shared_dest_conference():
    """Three users where u1 and u2 both demand 480p of u0's 720p stream
    and nothing else needs transcoding (exactly 2 pairs, same target rep).

    Achieved with per-source overrides: u1/u2 default-demand what the other
    produces (360p) and override only their demand towards u0.
    """
    builder = ConferenceBuilder(PAPER_LADDER)
    builder.add_agent(name="L0")
    builder.add_agent(name="L1")
    u0 = builder.user(upstream="720p", downstream="360p", name="u0")
    u1 = builder.user(
        upstream="360p",
        downstream="360p",
        name="u1",
        downstream_overrides={u0: "480p"},
    )
    u2 = builder.user(
        upstream="360p",
        downstream="360p",
        name="u2",
        downstream_overrides={u0: "480p"},
    )
    builder.add_session(u0, u1, u2)
    h = np.hstack([PAIR_H, np.array([[12.0], [28.0]])])
    return builder.build(inter_agent_ms=PAIR_D, agent_user_ms=h)


@pytest.fixture(scope="session")
def toy_conf():
    """The Fig. 3 instance (2 users, 2 agents, 1 task, 8 states)."""
    return toy_conference()


@pytest.fixture(scope="session")
def motivating_conf():
    """The Fig. 2 instance (4 users, 4 agents, 3 tasks)."""
    return motivating_conference()


@pytest.fixture(scope="session")
def proto_conf():
    """The Sec. V-A prototype (10 sessions, 6 agents), seed 7."""
    return prototype_conference(seed=7)


@pytest.fixture(scope="session")
def small_scenario_conf():
    """A reduced Internet-scale scenario for faster integration tests."""
    params = ScenarioParams(num_user_sites=64, num_users=30)
    return scenario_conference(seed=11, params=params)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)
