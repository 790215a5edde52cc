"""Pool backend: persistent framed-protocol workers over a host inventory.

Starting one interpreter per unit pays interpreter start-up + ``repro``
import + substrate synthesis per *unit*; on short units that overhead
dominates the sweep.  The pool spawns ``workers`` loop workers
(``python -m repro.fleet.backends.worker --loop``) per host once per
fleet and streams many length-prefixed frames over each worker's
stdin/stdout (pickled payload in, JSON record out — see
:mod:`repro.fleet.backends.worker` for the framing), so start-up is paid
once and each worker's in-process substrate cache survives between
units.

``execution.hosts`` is the inventory; empty means one local host.  Each
host's workers run the ``execution.worker_cmd`` template with ``{host}``
substituted (``ssh {host} python -m repro.fleet.backends.worker --loop``
is the canonical remote shape; the empty template runs the bundled loop
worker locally).  The framed protocol only needs stdio, so ssh, ``docker
exec`` or a scheduler shim work unchanged.

Idle workers are offered payloads least-loaded host first (index order
on one host), and each pick is *sticky by substrate affinity*: every
payload carries the scheduler's
:func:`~repro.fleet.scheduler.substrate_affinity` key, and the pool
routes same-key payloads to the worker that served the key last,
maximizing warm-cache hits (``pool.affinity_hits`` / ``pool.units``
telemetry counters).  When every pending key belongs to a busy worker,
an idle worker steals the oldest payload rather than idling —
stickiness is a cache heuristic, never a scheduling barrier.

Over-deadline workers are killed and their unit recorded
``"timeout"``; a worker that closes its stream or emits an unreadable
frame yields a ``"crashed"`` record (with exit code + stderr excerpt)
for the scheduler to retry, and the worker is respawned in place.  A
host whose workers crash ``execution.quarantine_after`` consecutive
units is quarantined — its other workers are drained (their in-flight
units come back ``"crashed"`` for re-dispatch to the other hosts) and
nothing runs on it again — unless it is the last usable host, which
keeps respawning and leaves the verdict to ``execution.max_retries``.
Any completed round trip (``"ok"`` or ``"error"``) resets its host's
streak, so one flaky unit never quarantines a host.  The backend holds
OS resources, so it must be closed — the scheduler context-manages
every backend it creates, including on error paths.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import shlex
import subprocess
import sys
import tempfile
import time
from collections import Counter, deque
from pathlib import Path
from typing import IO, Iterator, Sequence

import repro.telemetry as tele
from repro.errors import SpecError
from repro.fleet.backends.base import (
    ExecutionBackend,
    RunPayload,
    crash_record,
    timeout_record,
)
from repro.fleet.backends.worker import FRAME_HEADER_LEN, MAX_FRAME_LEN

#: Select timeout cap when no unit deadline is nearer (keeps the loop
#: responsive to worker death even on unbudgeted fleets).
_WAIT_CAP_S = 1.0

#: Characters of stderr quoted in crash diagnostics.
_STDERR_EXCERPT = 400


def default_worker_cmd() -> list[str]:
    """The bundled loop worker under the current interpreter."""
    return [sys.executable, "-m", "repro.fleet.backends.worker", "--loop"]


def _worker_env() -> dict[str, str]:
    """Child environment with the ``repro`` package made importable.

    ``PYTHONPATH=src`` style relative entries break when the fleet runs
    from another working directory, so the absolute directory holding
    the installed/checked-out ``repro`` package is prepended.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    entries = [package_root] + [p for p in existing.split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(entries))
    return env


def resolve_worker_cmd(template: str, host: str = "localhost") -> list[str]:
    """A ``worker_cmd`` template rendered into an argv list.

    Empty templates resolve to :func:`default_worker_cmd`; ``{host}`` is
    substituted (``ssh {host} python -m repro.fleet.backends.worker
    --loop`` is the canonical remote shape).
    """
    if not template:
        return default_worker_cmd()
    try:
        rendered = template.format(host=host)
    except (KeyError, IndexError) as exc:
        raise SpecError(
            f"execution.worker_cmd template {template!r} is invalid: "
            f"only {{host}} may be substituted ({exc!r})"
        ) from None
    argv = shlex.split(rendered)
    if not argv:
        raise SpecError(
            f"execution.worker_cmd template {template!r} renders to an "
            f"empty command"
        )
    return argv


class _LoopWorker:
    """One persistent framed-protocol worker process."""

    def __init__(self, index: int, cmd: Sequence[str], host: str) -> None:
        self.index = index
        self.cmd = list(cmd)
        #: Inventory entry the worker runs on ("localhost" when the
        #: pool has no explicit inventory).
        self.host = host
        self.process: subprocess.Popen | None = None
        self.err: IO[bytes] | None = None
        self.buffer = bytearray()
        self.inflight: RunPayload | None = None
        self.sent_at = 0.0
        self.deadline: float | None = None

    def spawn(self) -> None:
        """Start (or restart) the worker process."""
        self.close()
        self.err = tempfile.TemporaryFile()
        self.process = subprocess.Popen(
            self.cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.err,
            env=_worker_env(),
        )
        self.buffer.clear()

    def alive(self) -> bool:
        """True while the worker process is running."""
        return self.process is not None and self.process.poll() is None

    def fileno(self) -> int:
        """The worker's stdout fd (what the dispatch loop selects on)."""
        return self.process.stdout.fileno()

    def send(self, payload: RunPayload, timeout_s: float | None) -> None:
        """Frame one payload onto the worker's stdin.

        Write failures are swallowed: a dead worker's stdout reads EOF,
        so the dispatch loop classifies the crash with the exit code
        and stderr in hand instead of guessing here.
        """
        self.inflight = payload
        self.sent_at = time.monotonic()
        self.deadline = self.sent_at + timeout_s if timeout_s else None
        frame = pickle.dumps(payload.to_wire())
        try:
            stdin = self.process.stdin
            stdin.write(len(frame).to_bytes(FRAME_HEADER_LEN, "big"))
            stdin.write(frame)
            stdin.flush()
        except (BrokenPipeError, OSError):
            pass

    def take_frame(self) -> bytes | None:
        """Pop one complete frame from the receive buffer, if any.

        Raises ``EOFError`` when the header announces an impossible
        length — the stream is desynced and the worker must respawn.
        """
        if len(self.buffer) < FRAME_HEADER_LEN:
            return None
        length = int.from_bytes(self.buffer[:FRAME_HEADER_LEN], "big")
        if length > MAX_FRAME_LEN:
            raise EOFError(
                f"frame header announces {length} bytes; stream desynced"
            )
        if len(self.buffer) < FRAME_HEADER_LEN + length:
            return None
        frame = bytes(self.buffer[FRAME_HEADER_LEN:FRAME_HEADER_LEN + length])
        del self.buffer[:FRAME_HEADER_LEN + length]
        return frame

    def stderr_excerpt(self) -> str:
        """Tail of the worker's spooled stderr, for crash diagnostics."""
        if self.err is None:
            return ""
        self.err.seek(0)
        text = self.err.read().decode("utf-8", "replace")
        return text.strip()[-_STDERR_EXCERPT:]

    def close(self) -> None:
        """Kill the process (if any) and release its resources."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process.stdin.close()
            self.process.stdout.close()
            self.process = None
        if self.err is not None:
            self.err.close()
            self.err = None
        self.buffer.clear()


class PoolBackend(ExecutionBackend):
    """Persistent workers over a host inventory, least-loaded + sticky."""

    def __init__(
        self,
        workers: int = 1,
        hosts: Sequence[str] = (),
        worker_cmd: str = "",
        quarantine_after: int = 3,
    ) -> None:
        super().__init__(workers=workers)
        if quarantine_after < 1:
            raise SpecError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        #: The explicit inventory; empty runs one local host, which the
        #: per-host counters leave out.
        self.hosts = tuple(hosts)
        self.worker_cmd = worker_cmd
        self.quarantine_after = quarantine_after
        self._pool: list[_LoopWorker] = []
        #: Sticky routing: affinity key -> worker index that served it
        #: last.  Persists across batches/rungs for the fleet lifetime.
        self._affinity: dict[str, int] = {}
        #: host -> consecutive crashed units (reset by any round trip).
        self._streak: Counter[str] = Counter()
        self._quarantined: set[str] = set()

    # ------------------------------------------------------------------ #
    # Worker lifecycle                                                   #
    # ------------------------------------------------------------------ #

    def _spawn(self, worker: _LoopWorker) -> None:
        try:
            worker.spawn()
        except OSError as exc:
            raise SpecError(
                f"could not spawn worker command "
                f"{' '.join(worker.cmd)!r}: {exc}"
            ) from exc
        tele.count("pool.spawns")

    def _ensure_pool(self) -> None:
        """Create ``workers`` slots per host once; spawn the usable ones."""
        if not self._pool:
            for host in self.hosts or ("localhost",):
                cmd = resolve_worker_cmd(self.worker_cmd, host=host)
                for _ in range(max(1, self.workers)):
                    self._pool.append(_LoopWorker(len(self._pool), cmd, host))
        for worker in self._pool:
            if worker.host not in self._quarantined and worker.process is None:
                self._spawn(worker)

    def close(self) -> None:
        """Reap every pool worker; the pool respawns if reused."""
        for worker in self._pool:
            worker.close()
        self._pool = []

    # ------------------------------------------------------------------ #
    # Dispatch                                                           #
    # ------------------------------------------------------------------ #

    def _pick(
        self, worker: _LoopWorker, source: "deque[RunPayload]"
    ) -> RunPayload:
        """Sticky pick: owned key first, unclaimed key next, then steal."""
        claim = None
        for i, payload in enumerate(source):
            owner = self._affinity.get(payload.affinity)
            if owner == worker.index:
                tele.count("pool.affinity_hits")
                del source[i]
                return payload
            if claim is None and owner is None:
                claim = i
        if claim is None:
            # Every pending key is owned by another worker; steal the
            # oldest payload rather than idling (ownership unchanged).
            claim = 0
        else:
            self._affinity[source[claim].affinity] = worker.index
        payload = source[claim]
        del source[claim]
        return payload

    def execute(
        self,
        payloads: Sequence[RunPayload],
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Stream a fixed batch through the persistent pool."""
        yield from self.execute_stream(deque(payloads), timeout_s)

    def execute_stream(
        self,
        source: "deque[RunPayload]",
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """Feed workers from a live queue as they idle; yield records.

        The caller may append to ``source`` between yielded records
        (crash retries); the stream ends when the queue is empty and no
        unit is in flight.  The last usable host is never quarantined,
        so a queued payload always has a worker.
        """
        self._ensure_pool()
        batch_start = time.monotonic()
        while True:
            load = Counter(
                w.host for w in self._pool if w.inflight is not None
            )
            idle = sorted(
                (
                    w
                    for w in self._pool
                    if w.inflight is None and w.host not in self._quarantined
                ),
                key=lambda w: (load[w.host], w.index),
            )
            for worker in idle:
                if not source:
                    break
                payload = self._pick(worker, source)
                if not worker.alive():
                    self._spawn(worker)
                tele.count(
                    "backend.queue_wait_s", time.monotonic() - batch_start
                )
                tele.count("pool.units")
                if self.hosts:
                    tele.count(f"pool.host.{worker.host}.units")
                worker.send(payload, timeout_s)
            busy = [w for w in self._pool if w.inflight is not None]
            if not busy:
                return
            yield from self._wait(busy, timeout_s)

    # ------------------------------------------------------------------ #
    # Completion / failure classification                                #
    # ------------------------------------------------------------------ #

    def _wait(
        self, busy: list[_LoopWorker], timeout_s: float | None
    ) -> list[dict]:
        """Block for the next event(s); return the records they yield."""
        now = time.monotonic()
        wait = _WAIT_CAP_S
        for worker in busy:
            if worker.deadline is not None:
                wait = min(wait, max(0.0, worker.deadline - now))
        readable, _, _ = select.select(busy, [], [], wait)
        records: list[dict] = []
        for worker in readable:
            if worker.inflight is None:
                # Drained earlier in this wake-up: a sibling's crash
                # quarantined its host and closed it.
                continue
            try:
                data = os.read(worker.fileno(), 1 << 16)
            except OSError:
                data = b""
            if not data:
                records.extend(
                    self._crashed(worker, "worker closed its stream")
                )
                continue
            worker.buffer.extend(data)
            try:
                frame = worker.take_frame()
            except EOFError as exc:
                records.extend(self._crashed(worker, str(exc)))
                continue
            if frame is None:
                continue
            try:
                record = json.loads(frame.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                record = None
            if not isinstance(record, dict) or "status" not in record:
                records.extend(
                    self._crashed(worker, "worker emitted a non-record frame")
                )
                continue
            worker.inflight = None
            worker.deadline = None
            self._streak[worker.host] = 0
            records.append(record)
        now = time.monotonic()
        for worker in busy:
            if (
                worker.inflight is not None
                and worker.deadline is not None
                and now >= worker.deadline
            ):
                payload, wall = worker.inflight, now - worker.sent_at
                worker.inflight = None
                worker.close()
                self._spawn(worker)
                records.append(timeout_record(payload, timeout_s, wall))
        return records

    def _crashed(self, worker: _LoopWorker, reason: str) -> list[dict]:
        """Classify a dead/desynced worker; respawn it or quarantine its host."""
        now = time.monotonic()
        payload, wall = worker.inflight, now - worker.sent_at
        worker.inflight = None
        try:
            # Stdout EOF usually races the exit by a few ms; a short
            # wait turns "closed its stream" into an exit code.
            detail = f"{reason} (exit code {worker.process.wait(timeout=1.0)})"
        except subprocess.TimeoutExpired:
            detail = reason  # alive but desynced; killed below
        excerpt = worker.stderr_excerpt()
        if excerpt:
            detail = f"{detail}; stderr: {excerpt}"
        worker.close()
        records = [crash_record(payload, detail, wall)]
        host = worker.host
        self._streak[host] += 1
        if self.hosts:
            tele.count(f"pool.host.{host}.crashes")
        usable = {w.host for w in self._pool} - self._quarantined
        if self._streak[host] < self.quarantine_after or usable == {host}:
            self._spawn(worker)
            return records
        self._quarantined.add(host)
        tele.count("pool.quarantines")
        for sibling in self._pool:
            if sibling.host != host:
                continue
            if sibling.inflight is not None:
                records.append(
                    crash_record(
                        sibling.inflight,
                        f"host {host!r} quarantined; "
                        f"unit drained for re-dispatch",
                        now - sibling.sent_at,
                    )
                )
                sibling.inflight = None
            sibling.close()
        return records
