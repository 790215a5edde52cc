"""Open-loop load generation.

Requests go out on a fixed schedule whatever the server does: each is
sent at its due time, or at once if the previous reply came back late,
and its latency is timed from when it was *due*, so a stall shows in
every request queued behind it.  How late each send was is recorded
too, which tells whether the generator kept up with its schedule.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class Outcome:
    """One request's timing and result."""

    payload: dict
    due: float
    sent: float
    done: float
    #: "ok", a service error code, or "http" when no answer came back.
    status: str
    #: Server-side handling time the service reported, in ms.
    server_ms: float

    @property
    def latency_ms(self) -> float:
        """From due time to reply."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        """How far behind schedule the send was."""
        return (self.sent - self.due) * 1000.0

    @property
    def transport_ms(self) -> float:
        """Round trip not spent handling the request in the service."""
        return (self.done - self.sent) * 1000.0 - self.server_ms


def classify(response: dict) -> tuple[str, float]:
    """(status, server ms) of a service response dict."""
    if response.get("status") == "ok":
        return "ok", float(response.get("latency_ms", 0.0))
    error = response.get("error") or {}
    return str(error.get("code", "unknown")), float(response.get("latency_ms", 0.0))


def run_open_loop(
    send: Callable[[dict], dict],
    due: Sequence[float],
    payloads: Sequence[dict],
    start: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    until_s: float | None = None,
) -> list[Outcome]:
    """Send ``payloads[i]`` at ``start + due[i]`` through ``send``.

    ``send`` returns the service's response dict; a transport failure,
    timeout or unreadable reply is recorded as status "http".  With
    ``until_s`` nothing is sent once that long has passed since
    ``start``.
    """
    outcomes = []
    for offset, payload in zip(due, payloads):
        at = start + offset
        wait = at - clock()
        if wait > 0:
            sleep(wait)
        elif until_s is not None and clock() - start >= until_s:
            break
        sent = clock()
        try:
            status, server_ms = classify(send(payload))
        except (OSError, http.client.HTTPException, ValueError):
            status, server_ms = "http", 0.0
        outcomes.append(Outcome(payload, at, sent, clock(), status, server_ms))
    return outcomes


class Lane(threading.Thread):
    """One open-loop client on its own thread (its own connection)."""

    def __init__(self, send, due, payloads, start, **kwargs) -> None:
        super().__init__(daemon=True)
        self._args = (send, due, payloads, start)
        self._kwargs = kwargs
        self.outcomes: list[Outcome] = []
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            self.outcomes = run_open_loop(*self._args, **self._kwargs)
        except Exception as error:  # noqa: BLE001 - re-raised by result()
            self.error = error

    def result(self, timeout_s: float) -> list[Outcome]:
        """Join the lane and return its outcomes, re-raising its error."""
        self.join(timeout_s)
        if self.is_alive():
            raise TimeoutError("load lane did not finish in time")
        if self.error is not None:
            raise self.error
        return self.outcomes
