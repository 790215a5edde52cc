"""Backend contract: payloads in, result records out.

A :class:`RunPayload` is the wire format of one run unit — plain
picklable data (content-hash id, resolved spec dict, axis labels, seed)
with no live objects, so it crosses process and machine boundaries
unchanged.  An :class:`ExecutionBackend` consumes a batch of payloads
and yields one result record per payload as each completes (completion
order is backend-defined; every record carries its ``run_id`` so the
caller can re-associate them).

Backends never raise for a unit's failure; they *classify* it in the
record's ``status``:

* ``"ok"`` / ``"error"`` — the unit executed (the spec may have failed
  to compile or simulate); produced by
  :func:`repro.fleet.compile.execute_payload` on the worker side.
* ``"timeout"`` — the unit exceeded the caller's per-unit wall-time
  budget and was killed (or, on the serial backend, detected after the
  fact).
* ``"crashed"`` — the worker died without producing a record.  This
  status is internal: the scheduler retries crashed units and persists
  the survivors of ``execution.max_retries`` as ``"error"`` records, so
  ``"crashed"`` never reaches ``results.jsonl``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Sequence

from repro.analysis.report import record_schema_version
from repro.errors import SpecError
from repro.fleet.compile import execute_payload


@dataclass(frozen=True)
class RunPayload:
    """One self-contained, picklable unit of work."""

    run_id: str
    #: The resolved (sweep-free) spec as a plain dict — the payload must
    #: not carry live objects, so it can cross process/host boundaries.
    spec: dict
    axes: dict = field(default_factory=dict)
    seed: int = 0
    #: Collect unit-scope telemetry (the worker embeds its span tree in
    #: the result record so it survives the pickle/JSON boundary).
    telemetry: bool = False
    #: Dispatcher-side substrate-affinity key (see
    #: :func:`repro.fleet.scheduler.substrate_affinity`): the pool
    #: backend routes same-key payloads to the same persistent worker so
    #: its in-process substrate cache stays warm.  Not part of the wire
    #: format — workers never see it.
    affinity: str = ""

    @classmethod
    def from_unit(cls, unit, telemetry: bool = False) -> "RunPayload":
        """The payload of one :class:`~repro.fleet.matrix.RunUnit`."""
        from repro.fleet.scheduler import substrate_affinity

        return cls(
            run_id=unit.run_id,
            spec=unit.spec.to_dict(),
            axes=dict(unit.axes),
            seed=unit.seed,
            telemetry=telemetry,
            affinity="|".join(map(str, substrate_affinity(unit))),
        )

    @property
    def name(self) -> str:
        """The spec name the payload's records are stamped with."""
        return str(self.spec.get("name", ""))

    def execute(self) -> dict:
        """Run the payload in-process via the shared worker entry."""
        return execute_payload(
            self.run_id, self.spec, self.axes, self.seed,
            telemetry=self.telemetry,
        )

    def to_wire(self) -> dict:
        """Plain-dict form shipped to pool workers."""
        return {
            "run_id": self.run_id,
            "spec": self.spec,
            "axes": self.axes,
            "seed": self.seed,
            "telemetry": self.telemetry,
        }


def timeout_record(
    payload: RunPayload, timeout_s: float, wall_time_s: float
) -> dict:
    """The first-class record of a unit killed by its wall-time budget."""
    return {
        "schema_version": record_schema_version({}),
        "name": payload.name,
        "status": "timeout",
        "error": (
            f"UnitTimeout: exceeded execution.unit_timeout_s="
            f"{timeout_s:g}s (ran {wall_time_s:.3f}s)"
        ),
        "run_id": payload.run_id,
        "axes": payload.axes,
        "seed": payload.seed,
        "wall_time_s": wall_time_s,
    }


def crash_record(
    payload: RunPayload, detail: str, wall_time_s: float
) -> dict:
    """The (scheduler-internal) record of a worker that died mid-unit."""
    return {
        "schema_version": record_schema_version({}),
        "name": payload.name,
        "status": "crashed",
        "error": f"WorkerCrash: {detail}",
        "run_id": payload.run_id,
        "axes": payload.axes,
        "seed": payload.seed,
        "wall_time_s": wall_time_s,
    }


class ExecutionBackend(ABC):
    """Dispatches run-unit payloads and streams back result records.

    Implementations differ only in *where* the worker entry
    (:func:`repro.fleet.compile.execute_payload`) runs — the calling
    process or persistent worker processes — and in whether they can
    kill a unit that overruns its per-unit wall-time budget.  Both must
    yield exactly one record per payload, in any order, and must never
    let one unit's failure abandon the rest of the batch.
    """

    #: Registry name of the backend ("serial" / "pool").
    kind: ClassVar[str] = ""

    def __init__(self, workers: int = 1) -> None:
        if workers < 0:
            raise SpecError(f"workers must be >= 0, got {workers}")
        self.workers = workers

    @abstractmethod
    def execute(
        self,
        payloads: Sequence[RunPayload],
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Yield one result record per payload as each completes.

        ``timeout_s`` is the per-unit wall-time budget (None or 0
        disables it); over-budget units come back as ``"timeout"``
        records, dead workers as ``"crashed"`` records.
        """

    def execute_stream(
        self,
        source: "deque[RunPayload]",
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Drain a *live* queue of payloads, yielding records.

        Unlike :meth:`execute`'s fixed batch, ``source`` belongs to the
        caller and may grow between yielded records — the scheduler
        appends crash retries and asynchronous-halving promotions while
        the stream runs.  The stream ends when ``source`` is empty and
        nothing is in flight at a yield point.

        This default drains the queue in chunks of up to ``workers``
        payloads per :meth:`execute` call, so every backend supports
        streaming; the pool backend overrides it to feed workers one
        payload at a time with no chunk barrier.
        """
        chunk_size = max(1, self.workers)
        while source:
            chunk = [
                source.popleft()
                for _ in range(min(len(source), chunk_size))
            ]
            yield from self.execute(chunk, timeout_s)

    def close(self) -> None:
        """Release backend resources (persistent workers, hosts).

        Idempotent; the scheduler closes every backend it creates —
        including on error paths — so pool workers are always reaped.
        Backends without long-lived state inherit this no-op.
        """

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
