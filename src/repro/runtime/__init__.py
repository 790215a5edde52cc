"""Discrete-event runtime: the prototype-system substitute.

The paper's Sec. V-A experiments run a C++/OpenCV prototype on EC2: each
session's initiator agent executes Alg. 1's WAIT/HOP loop (exponential
countdown, mean 10 s), hops are serialized across sessions with
FREEZE/UNFREEZE messages, migrations dual-feed briefly to avoid frozen
frames, and the operator observes inter-agent traffic and conferencing
delay over wall-clock time.

This package reproduces that control plane as a deterministic
discrete-event simulation:

* :mod:`repro.runtime.events` — the event queue (lazy cancellation, so
  FREEZE can shift pending countdowns);
* :mod:`repro.runtime.metrics` — time-series recording;
* :mod:`repro.runtime.migration` — the dual-feed overhead model
  (~13.2 kb per 240p migration at a 30 ms overlap, per the paper);
* :mod:`repro.runtime.dynamics` — the session event
  (:class:`~repro.runtime.dynamics.TraceEvent`: arrive / resize /
  depart), its canonical intra-timestamp order, its validator and the
  :class:`~repro.runtime.dynamics.DynamicsSchedule`, a validated trace
  (Fig. 5, churn waves, trace files and generated processes alike);
* :mod:`repro.runtime.traces` — trace file IO (CSV/JSONL), seeded
  stochastic session processes (Poisson / MMPP / diurnal) and the
  open-loop :class:`~repro.runtime.traces.TracePlayer`, which batches a
  schedule by timestamp;
* :mod:`repro.runtime.simulation` — the simulator binding a
  :class:`~repro.core.markov.MarkovAssignmentSolver` to wall-clock time,
  fed one trace batch at a time.
"""

from repro.runtime.dynamics import DynamicsSchedule, TraceEvent
from repro.runtime.events import EventQueue
from repro.runtime.metrics import TimeSeriesRecorder
from repro.runtime.migration import MigrationModel, MigrationRecord
from repro.runtime.simulation import (
    ConferencingSimulator,
    SimulationConfig,
    SimulationResult,
)
from repro.runtime.traces import (
    SessionProcess,
    TracePlayer,
    dump_trace,
    format_trace,
    load_trace,
    parse_trace,
)

__all__ = [
    "ConferencingSimulator",
    "DynamicsSchedule",
    "EventQueue",
    "MigrationModel",
    "MigrationRecord",
    "SessionProcess",
    "SimulationConfig",
    "SimulationResult",
    "TimeSeriesRecorder",
    "TraceEvent",
    "TracePlayer",
    "dump_trace",
    "format_trace",
    "load_trace",
    "parse_trace",
]
