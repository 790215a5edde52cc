"""In-process serial backend: the zero-dependency reference dispatcher.

Runs every payload in the calling process, one after another.  Being
in-process it cannot preempt a running unit, so a wall-time budget is
enforced *post hoc*: an over-budget unit completes its solve and is
then recorded as ``status: "timeout"`` (with the same record shape the
killing backends produce), which keeps budget semantics consistent
across backends at the price of not actually saving the wall time.
Use ``pool`` when budgets must kill (a budgeted ``local`` fleet
resolves to it).
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

import repro.telemetry as tele
from repro.fleet.backends.base import (
    ExecutionBackend,
    RunPayload,
    timeout_record,
)


class SerialBackend(ExecutionBackend):
    """Executes payloads sequentially in the calling process."""

    def execute(
        self,
        payloads: Sequence[RunPayload],
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Run payloads in order; budgets are detected after the fact."""
        batch_start = time.perf_counter()
        for payload in payloads:
            # Queue wait: how long the unit sat behind its predecessors.
            tele.count(
                "backend.queue_wait_s", time.perf_counter() - batch_start
            )
            record = payload.execute()
            wall = record.get("wall_time_s", 0.0)
            if timeout_s and wall > timeout_s:
                record = timeout_record(payload, timeout_s, wall)
            yield record
