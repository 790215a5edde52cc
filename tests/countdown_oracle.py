"""Test-only oracle for the simulator's WAIT countdown bookkeeping.

:class:`~repro.runtime.simulation.ConferencingSimulator` keeps every
pending countdown in one array behind a single queue timer.
:class:`PerSessionWakeSimulator` keeps the direct formulation instead:
one ``"wake"`` event per session carrying its sid, and a FREEZE that
reschedules each other session's event to ``max(wake_at, now) +
duration``.  Everything else (hops, sampling, dynamics, faults) is the
production code, so ``tests/test_runtime_countdowns.py`` can require the
two to produce identical results.  It is not a simulator option.
"""

from __future__ import annotations

import repro.telemetry as tele
from repro.runtime.events import EventHandle
from repro.runtime.simulation import ConferencingSimulator


class PerSessionWakeSimulator(ConferencingSimulator):
    """The simulator with one queue event per pending countdown."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wake_handles: dict[int, tuple[EventHandle, float]] = {}

    def _arm_timer(self) -> None:
        """No timer: every countdown is its own queue event."""

    def _start_countdown(self, sid: int, now: float) -> None:
        wake_at = now + self._draw_wait()
        handle = self._queue.schedule(wake_at, "wake", sid, priority=1)
        self._wake_handles[sid] = (handle, wake_at)

    def _has_countdown(self, sid: int) -> bool:
        return sid in self._wake_handles

    def _stop_countdown(self, sid: int) -> bool:
        entry = self._wake_handles.pop(sid, None)
        if entry is None:
            return False
        entry[0].cancel()
        return True

    def _waking_session(self, timer: EventHandle, now: float) -> int:
        del self._wake_handles[timer.payload]
        return timer.payload

    def _freeze_others(self, now: float) -> None:
        duration = self._config.freeze_duration_s
        if duration <= 0:
            return
        self._freezes += 1
        tele.count("sim.freezes")
        for sid, (handle, wake_at) in list(self._wake_handles.items()):
            shifted = max(wake_at, now) + duration
            new_handle = self._queue.reschedule(handle, shifted)
            self._wake_handles[sid] = (new_handle, shifted)
