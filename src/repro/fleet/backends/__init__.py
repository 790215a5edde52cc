"""Pluggable execution backends for the fleet orchestrator.

The orchestration stack is layered so *where* run units execute is a
swappable choice (DESIGN.md "Execution backends & budgets"):

* :class:`~repro.fleet.backends.base.RunPayload` — one unit as plain
  picklable data (run id, resolved spec dict, axes, seed);
* :class:`~repro.fleet.backends.base.ExecutionBackend` — the contract:
  a batch of payloads in, one result record per payload streamed back
  (plus :meth:`~repro.fleet.backends.base.ExecutionBackend.execute_stream`
  for live-queue dispatch and ``close()`` for worker reaping);
* :mod:`~repro.fleet.backends.serial` — in-process, sequential;
* :mod:`~repro.fleet.backends.pool` — persistent framed-protocol
  workers spawned once per fleet over an ``execution.hosts`` inventory
  (empty: one local host), least-loaded host first with sticky
  substrate-affinity picks and failure-aware host quarantine.

``local``, the spec default, is not a third implementation but the rule
:func:`create_backend` applies: ``serial`` for at most one worker and no
per-unit budget, ``pool`` otherwise.

Both backends are record-equivalent: the same spec produces bit-for-bit
identical records (modulo the nondeterministic ``wall_time_s``) on
either, which ``tests/test_fleet_backends.py`` and the CI backend
matrix pin.
"""

from __future__ import annotations

from repro.fleet.backends.base import (
    ExecutionBackend,
    RunPayload,
    crash_record,
    timeout_record,
)
from repro.fleet.backends.pool import (
    PoolBackend,
    default_worker_cmd,
    resolve_worker_cmd,
)
from repro.fleet.backends.serial import SerialBackend
from repro.fleet.spec import ExecutionSpec

__all__ = [
    "ExecutionBackend",
    "PoolBackend",
    "RunPayload",
    "SerialBackend",
    "crash_record",
    "create_backend",
    "default_worker_cmd",
    "resolve_worker_cmd",
    "timeout_record",
]


def create_backend(execution: ExecutionSpec) -> ExecutionBackend:
    """The backend one unit group's ``execution`` section names.

    ``execution.backend`` is already one of ``BACKEND_KINDS`` (the spec
    validates it).  ``local`` runs ``serial`` when ``workers <= 1`` and
    ``unit_timeout_s`` is 0 (the in-process path cannot kill a unit),
    ``pool`` otherwise; the pool takes its ``hosts``, ``worker_cmd`` and
    ``quarantine_after`` from the same section.
    """
    kind = execution.backend
    if kind == "local":
        serial = execution.workers <= 1 and not execution.unit_timeout_s
        kind = "serial" if serial else "pool"
    if kind == "serial":
        return SerialBackend(workers=execution.workers)
    return PoolBackend(
        workers=execution.workers,
        hosts=execution.hosts,
        worker_cmd=execution.worker_cmd,
        quarantine_after=execution.quarantine_after,
    )
