"""Event queue with lazy cancellation.

A standard heap-backed future-event list.  Events can be cancelled or
rescheduled (the simulator moves its one wake timer this way whenever
the earliest WAIT countdown changes); cancellation is lazy — superseded
entries stay in the heap and are skipped on pop — which keeps every
operation O(log n).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError


@dataclass(order=True)
class _Entry:
    time_s: float
    priority: int
    sequence: int
    handle: "EventHandle" = field(compare=False)


class EventHandle:
    """A cancellable reference to one scheduled event."""

    __slots__ = ("kind", "payload", "priority", "cancelled")

    def __init__(self, kind: str, payload: Any, priority: int = 0):
        self.kind = kind
        self.payload = payload
        self.priority = priority
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = " (cancelled)" if self.cancelled else ""
        return f"EventHandle({self.kind}, {self.payload!r}){state}"


class EventQueue:
    """Time-ordered queue of :class:`EventHandle` items."""

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Simulation time of the most recently popped event."""
        return self._now

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry.handle.cancelled)

    def schedule(
        self,
        time_s: float,
        kind: str,
        payload: Any = None,
        priority: int = 0,
    ) -> EventHandle:
        """Add an event; ``time_s`` must not precede the current time.

        Ties at one timestamp pop in ``(priority, insertion order)``:
        lower-priority-number events first, so a caller can guarantee an
        ordering between event classes independent of when each was
        scheduled.  The simulator pins fault transitions (priority -1)
        before session dynamics (0) before samples and the wake timer
        (1) at a shared instant — an arrival coinciding with an outage
        bootstraps against the already-masked substrate view.
        """
        if time_s < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule {kind!r} at {time_s:.6f}s in the past "
                f"(now={self._now:.6f}s)"
            )
        handle = EventHandle(kind, payload, priority)
        heapq.heappush(
            self._heap, _Entry(time_s, priority, next(self._counter), handle)
        )
        return handle

    def reschedule(self, handle: EventHandle, time_s: float) -> EventHandle:
        """Cancel ``handle`` and schedule an identical event at ``time_s``."""
        handle.cancel()
        return self.schedule(time_s, handle.kind, handle.payload, handle.priority)

    def pop(self) -> tuple[float, EventHandle] | None:
        """Next live event as ``(time, handle)``, or None when drained."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.handle.cancelled:
                continue
            self._now = entry.time_s
            return entry.time_s, entry.handle
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the next live event without popping it."""
        while self._heap and self._heap[0].handle.cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time_s if self._heap else None
