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

from repro.errors import SpecError
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
from repro.fleet.spec import BACKEND_KINDS

__all__ = [
    "BACKENDS",
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

#: Registry: ``execution.backend`` spec value -> implementation.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.kind: SerialBackend,
    PoolBackend.kind: PoolBackend,
}


def create_backend(
    kind: str, workers: int = 1, execution=None
) -> ExecutionBackend:
    """Instantiate a backend by its spec name.

    ``execution`` (an :class:`~repro.fleet.spec.ExecutionSpec`) supplies
    the pool's ``hosts``, ``worker_cmd`` and ``quarantine_after``, and
    the per-unit budget the ``local`` rule reads: ``local`` runs
    ``serial`` when ``workers <= 1`` and ``unit_timeout_s`` is 0 (the
    in-process path cannot kill a unit), ``pool`` otherwise.
    """
    if kind == "local":
        budget = execution.unit_timeout_s if execution is not None else 0.0
        kind = "serial" if workers <= 1 and not budget else "pool"
    if kind not in BACKENDS:
        raise SpecError(
            f"unknown execution backend {kind!r}; "
            f"choose from {BACKEND_KINDS}"
        )
    if kind == "pool" and execution is not None:
        return PoolBackend(
            workers=workers,
            hosts=execution.hosts,
            worker_cmd=execution.worker_cmd,
            quarantine_after=execution.quarantine_after,
        )
    return BACKENDS[kind](workers=workers)
