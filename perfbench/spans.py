"""In-memory spans recorded around the program's public entry points.

A :class:`SpanRecorder` wraps functions so that each call records one
span: name, start, end, parent span and the id of the unit or request
it belongs to.  Spans stay in per-thread lists until :meth:`dump`
writes them out.  :func:`install` patches a function at its definition
*and* at every ``repro`` module that imported it by name, so
``repro.runtime.simulation.average_conferencing_delay`` is timed as
well as ``repro.core.delay``'s binding.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

#: (name, start, end, parent index or -1, unit/request id)
Span = tuple


@dataclass(frozen=True)
class Target:
    """One entry point to time: ``module:qualname`` as span ``name``.

    ``observe(counts, args, kwargs, result)`` may add counters derived
    from the call (e.g. candidates evaluated); it runs after the span
    closes, so its cost is not charged to the layer.
    """

    module: str
    qualname: str
    name: str
    observe: Callable | None = None
    #: ``uid(args, kwargs)`` names the unit or request the call serves;
    #: spans opened inside the call carry it too.
    uid: Callable | None = None


class _Buffer:
    """One thread's spans, open-span stack and counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.uid = ""


class SpanRecorder:
    """Collects spans and counters from every thread of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _Buffer()
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable | None = None,
        uid: Callable | None = None,
    ):
        """``fn`` wrapped to record a span named ``name`` per call."""
        clock = self._clock

        def timed(*args, **kwargs):
            buffer = self._buffer()
            if uid is not None:
                buffer.uid = uid(args, kwargs)
            spans = buffer.spans
            stack = buffer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, buffer.uid)
            if observe is not None:
                observe(buffer.counts, args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", name)
        timed.__qualname__ = getattr(fn, "__qualname__", name)
        timed.__doc__ = getattr(fn, "__doc__", None)
        return timed

    def drain(self) -> dict:
        """All spans and counters recorded so far; the buffers restart.

        Call it between units of work, when no span is open.  Parent
        indices are rebased onto the merged span list.
        """
        spans: list[Span] = []
        counts: dict[str, float] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            if buffer.stack:
                raise RuntimeError("spans drained while one is still open")
            offset = len(spans)
            spans.extend(
                (name, start, end, parent + offset if parent >= 0 else -1, uid)
                for name, start, end, parent, uid in buffer.spans
            )
            buffer.spans = []
            for key, value in buffer.counts.items():
                counts[key] = counts.get(key, 0.0) + value
            buffer.counts = {}
        return {"spans": spans, "counts": counts}

    def dump(self, path: str | Path, meta: dict | None = None) -> None:
        """Append the drained spans and counters to ``path`` as one
        JSON line."""
        data = self.drain()
        data["meta"] = meta or {}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(data) + "\n")


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on the same thread, so their
    intervals never overlap one another.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def load_dumps(paths: Iterable[Path]) -> list[dict]:
    """Every JSON line of every span file, in order."""
    dumps = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    dumps.append(json.loads(line))
    return dumps


# --------------------------------------------------------------------- #
# Installing the wrappers                                               #
# --------------------------------------------------------------------- #


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: SpanRecorder, targets: Sequence[Target]) -> list[str]:
    """Wrap every target; returns the import sites that were patched.

    Functions are replaced in every loaded ``repro`` module that holds
    them by name, so import every module that calls a target before
    installing.  Methods are replaced on their class, which every
    caller looks up at call time.
    """
    patched: list[str] = []
    for target in targets:
        owner, attr = _resolve(target)
        raw = inspect.getattr_static(owner, attr)

        def timed(fn, target=target):
            return recorder.wrap(target.name, fn, target.observe, target.uid)

        if inspect.isclass(owner):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(timed(raw.__func__))
            else:
                wrapped = timed(raw)
            setattr(owner, attr, wrapped)
            patched.append(f"{target.module}:{target.qualname}")
            continue
        wrapped = timed(raw)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(loaded)
            for key, value in list(namespace.items()):
                if value is raw:
                    namespace[key] = wrapped
                    patched.append(f"{name}:{key}")
    return patched
