"""The benchmark's workloads, declared as data and drawn from a seed.

Each workload is a fleet spec (the two sweeps) or a base spec plus a
load section (the service).  :func:`sweep_spec`, :func:`serve_spec`,
:func:`write_trace` and :func:`read_schedule` turn a workload and the
benchmark ``--seed`` into the concrete inputs the program receives; the
same seed always yields the same inputs.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass

#: The Internet-scale conference shape (the bundled ``huge_conference``
#: spec): ~500 users over 384 sites, AgRank bootstrap.
INTERNET_SHAPE = {
    "workload": {
        "kind": "scenario",
        "num_users": 500,
        "min_session_size": 2,
        "max_session_size": 5,
        "session_locality": 0.85,
    },
    "topology": {"num_user_sites": 384},
    "solver": {"policy": "agrank", "n_ngbr": 2, "beta": 400},
}

#: Workload name -> declaration.  ``why`` is the reason it is measured.
#: ``one_cpu`` runs the workload's processes on a single CPU: the serial
#: sweep and the request/reply ping-pong of the service need no second
#: CPU, and on a shared virtual machine cross-CPU wake-ups vary two-fold
#: in latency with host load.  The pool sweep keeps every CPU for its
#: workers.
WORKLOADS: dict[str, dict] = {
    "sweep-internet": {
        "why": (
            "long Internet-scale units on the serial backend: simulator "
            "loop, event queue, delay sampling and hop kernel do the work"
        ),
        "kind": "sweep",
        "one_cpu": True,
        "spec": {
            "name": "perfbench-internet",
            **INTERNET_SHAPE,
            "simulation": {"duration_s": 15, "hop_interval_mean_s": 5},
            "execution": {"backend": "serial", "workers": 1},
        },
        # One latency-seed axis value per unit: every unit gets its own
        # substrate and its own conference draw.
        "units": 8,
        # Nominal seconds per sweep: a run of --seconds makes
        # seconds // sweep_s sweeps (at least three).
        "sweep_s": 7.5,
    },
    "sweep-churn": {
        "why": (
            "many short prototype units with trace churn and chaos faults "
            "on the pool backend: spec, compile, dispatch, splicing, faults"
        ),
        "kind": "sweep",
        "one_cpu": False,
        "spec": {
            "name": "perfbench-churn",
            "workload": {
                "kind": "prototype",
                "num_sessions": 14,
                "min_session_size": 3,
                "max_session_size": 5,
            },
            "churn": {
                "initial": 5,
                "trace": {
                    "kind": "mmpp",
                    "rate_per_s": 0.1,
                    "burst_rate_per_s": 0.6,
                    "mean_calm_s": 30,
                    "mean_burst_s": 10,
                    "mean_holding_s": 30,
                },
            },
            "faults": {
                "policy": "migrate",
                "chaos": {"rate_per_s": 0.05, "mean_duration_s": 10, "severity": 0.5},
            },
            "simulation": {"duration_s": 60, "hop_interval_mean_s": 4},
            "sweep": {
                "replicates": 6,
                "axes": [
                    {"path": "churn.trace.rate_per_s", "values": [0.05, 0.1, 0.2]},
                    {"path": "faults.chaos.rate_per_s", "values": [0.02, 0.06]},
                ],
            },
            "execution": {"backend": "pool", "workers": 2},
        },
        "sweep_s": 5.0,
    },
    "serve-http": {
        "why": (
            "repro serve on loopback driven open-loop by a seeded churn "
            "trace: transport, validation, decision log, live splice, refine"
        ),
        "kind": "serve",
        "one_cpu": True,
        # The bundled huge_conference draw.
        "spec": {"name": "perfbench-serve", **INTERNET_SHAPE, "simulation": {"seed": 11}},
        "load": {
            # Session process over sids [0, pool): 500 users in sessions of
            # at most 5 always form at least 100 sessions.
            "pool": 100,
            "initial": 50,
            "arrival_rate_per_s": 0.5,
            "mean_holding_s": 100.0,
            "resize_share": 0.3,
            "refine_hops": 2,
            "budget_ms": 50.0,
            # Base phase: writes and reads at fixed offered rates, for
            # this share of the run's --seconds.
            "base_write_rps": 100.0,
            "base_read_rps": 20.0,
            "base_share": 0.5,
            # Saturation phase: every write due at once, for this share
            # of --seconds.
            "saturate_share": 0.3,
            # Server launches timed for set-up, the driven one included.
            "launches": 7,
        },
    },
}


def _draw(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{salt}")


def sweep_spec(workload: str, seed: int, index: int) -> dict:
    """The fleet spec of the ``index``-th sweep of a run with ``seed``.

    Each sweep of a run draws its own conferences, so a run averages
    over many draws: on ``sweep-internet`` every unit gets its own
    simulation seed and latency substrate; on ``sweep-churn`` the
    replicates' conferences, churn traces and chaos schedules all
    follow the drawn simulation seed.
    """
    declared = WORKLOADS[workload]
    spec = copy.deepcopy(declared["spec"])
    rng = _draw(seed, f"{workload}/{index}")
    spec["simulation"]["seed"] = rng.randrange(1, 1 << 30)
    if "units" in declared:
        latency_seeds = rng.sample(range(1, 1 << 30), declared["units"])
        spec["sweep"] = {
            "replicates": 1,
            "axes": [{"path": "topology.latency_seed", "values": latency_seeds}],
        }
    return spec


def serve_spec(seed: int) -> dict:
    """The base spec ``repro serve`` compiles: one pinned conference,
    whatever the seed (the seed draws the load)."""
    return copy.deepcopy(WORKLOADS["serve-http"]["spec"])


@dataclass(frozen=True)
class Request:
    """One scheduled request: due ``at_s`` after its phase starts."""

    at_s: float
    payload: dict


def write_trace(seed: int, count: int) -> list[dict]:
    """``count`` stationary churn requests over the serve session pool.

    Arrivals and departures come from the repo's ``SessionProcess``
    (Poisson arrivals, exponential holding, never-empty deferral);
    seeded resizes of an active session land between consecutive
    events.  Every request is valid against the state the preceding
    ones leave, so none is refused.
    """
    from repro.runtime.traces import SessionProcess

    load = WORKLOADS["serve-http"]["load"]
    rng = _draw(seed, "serve-trace")
    process = SessionProcess(
        kind="poisson",
        rate_per_s=load["arrival_rate_per_s"],
        mean_holding_s=load["mean_holding_s"],
        initial=load["initial"],
        max_sessions=load["pool"],
        seed=rng.randrange(1 << 30),
    )
    active = set(range(load["initial"]))
    requests: list[dict] = []
    previous = 0.0
    for event in process.stream():
        if event.time_s == 0.0:
            continue  # the initial set the service boots with
        if previous and rng.random() < load["resize_share"]:
            middle = previous + (event.time_s - previous) / 2.0
            sid = rng.choice(sorted(active))
            requests.append({"op": "resize", "sid": sid, "time_s": middle})
        requests.append({"op": event.kind, "sid": event.sid, "time_s": event.time_s})
        if event.kind == "arrive":
            active.add(event.sid)
        else:
            active.discard(event.sid)
        previous = event.time_s
        if len(requests) >= count:
            return requests[:count]
    raise AssertionError("an unbounded session process ended")


def schedule(rate_per_s: float, duration_s: float) -> list[float]:
    """Evenly spaced due times at ``rate_per_s`` over ``duration_s``."""
    count = max(1, int(math.floor(rate_per_s * duration_s)))
    return [i / rate_per_s for i in range(count)]


def read_schedule(seed: int, base_s: float) -> list[Request]:
    """The reader's base-phase requests: snapshot and metrics polls."""
    load = WORKLOADS["serve-http"]["load"]
    rng = _draw(seed, "serve-reads")
    return [
        Request(at, {"op": rng.choice(("snapshot", "metrics"))})
        for at in schedule(load["base_read_rps"], base_s)
    ]
