"""Session dynamics: the one event type, its order and its validator.

A session's life in a run is a stream of :class:`TraceEvent` rows —
``arrive``, ``resize``, ``depart`` — stamped with a time.  The paper's
dynamic scenario (Fig. 5: 6 sessions at t=0, 4 arriving at t=40 s, 3
departing at t=80 s), the fleet's churn waves, generated session
processes and recorded trace files are all such streams.

A :class:`DynamicsSchedule` is a validated trace in canonical order;
its arrivals at exactly ``t=0`` are the sessions active when the run
starts.  Events sharing a timestamp execute in one canonical order —
arrivals, then resizes, then departures, each group stable by session
id (:func:`sort_trace`) — so two schedules describing the same event
*set* are the same schedule, however their events were assembled, and
a session can be replaced (depart + arrive) at one instant without
transiently emptying the conference.  :func:`validate_trace` holds the
rules every trace must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

from repro.errors import SimulationError

#: Event verbs a trace row may carry.
TRACE_EVENT_KINDS: tuple[str, ...] = ("arrive", "depart", "resize")

#: Canonical execution rank of events sharing a timestamp: arrivals make
#: room semantics unambiguous (a sid may depart and be replaced at the
#: same instant without ever emptying the conference), resizes act on a
#: live roster, departures go last.
_KIND_RANK = {"arrive": 0, "resize": 1, "depart": 2}


@dataclass(frozen=True)
class TraceEvent:
    """One trace row: session ``sid`` does ``kind`` at ``time_s``.

    ``arrive`` admits the session (it must be bootstrapped), ``depart``
    releases its resources, and ``resize`` re-admits a live session
    against the current residual capacities — conference rosters are
    fixed per sid in this model, so a membership change shows up as a
    placement renegotiation while the session stays active.

    ``line`` remembers the 1-based source line of a parsed file purely
    for diagnostics; it never participates in equality, so a parsed
    trace compares equal to the generated trace it was exported from.
    """

    time_s: float
    kind: str
    sid: int
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in TRACE_EVENT_KINDS:
            raise SimulationError(
                f"{_at(self)}: unknown event kind {self.kind!r}; "
                f"choose from {TRACE_EVENT_KINDS}"
            )
        if not math.isfinite(self.time_s) or self.time_s < 0:
            raise SimulationError(
                f"{_at(self)}: time_s must be finite and >= 0, "
                f"got {self.time_s}"
            )
        if self.sid < 0:
            raise SimulationError(f"{_at(self)}: sid must be >= 0, got {self.sid}")


def _at(event: TraceEvent) -> str:
    """Diagnostic label naming the offending event (and source line)."""
    where = f"line {event.line}: " if event.line else ""
    return f"trace event {where}{event.kind} sid={event.sid} t={event.time_s:g}"


def sort_trace(events: Iterable[TraceEvent]) -> tuple[TraceEvent, ...]:
    """Events in canonical order: time, then arrive < resize < depart,
    then sid."""
    return tuple(
        sorted(events, key=lambda e: (e.time_s, _KIND_RANK[e.kind], e.sid))
    )


def validate_trace(
    events: Iterable[TraceEvent], max_sessions: int | None = None
) -> tuple[int, ...]:
    """Check a trace's invariants in canonical order; return the sids
    active at t=0 (its arrivals at exactly ``t=0``).

    Rejects (naming the offending event, and its source line when the
    trace was parsed from a file): arrivals of already-active sids,
    departures/resizes of inactive sids, departures that would empty the
    conference, an empty active set at t=0, and — when ``max_sessions``
    is given — any sid outside the workload's session pool.
    """
    active: set[int] = set()
    initial: list[int] = []
    for event in sort_trace(events):
        if max_sessions is not None and event.sid >= max_sessions:
            raise SimulationError(
                f"{_at(event)}: sid exceeds the workload's session pool "
                f"[0, {max_sessions})"
            )
        if event.kind == "arrive":
            if event.sid in active:
                raise SimulationError(
                    f"{_at(event)}: session arrives while already active"
                )
            active.add(event.sid)
            if event.time_s == 0.0:
                initial.append(event.sid)
        elif event.kind == "resize":
            if event.sid not in active:
                raise SimulationError(
                    f"{_at(event)}: session resizes while inactive"
                )
        else:
            if event.sid not in active:
                raise SimulationError(
                    f"{_at(event)}: session departs while inactive"
                )
            if len(active) == 1:
                raise SimulationError(
                    f"{_at(event)}: departure would empty the conference"
                )
            active.remove(event.sid)
    if not initial:
        raise SimulationError(
            "trace has no arrivals at t=0: at least one session must be "
            "active when the run starts"
        )
    return tuple(initial)


@dataclass(frozen=True)
class DynamicsSchedule:
    """A validated session trace in canonical order.

    ``events`` holds every event, the initial ``t=0`` arrivals included;
    :attr:`initial_sids` are those arrivals' sids.  Construction sorts
    the events with :func:`sort_trace` and checks them with
    :func:`validate_trace`; ``max_sessions`` additionally bounds every
    sid to a workload's session pool ``[0, max_sessions)``.
    """

    events: tuple[TraceEvent, ...]
    max_sessions: InitVar[int | None] = None
    initial_sids: tuple[int, ...] = field(init=False)

    def __post_init__(self, max_sessions: int | None) -> None:
        events = sort_trace(self.events)
        object.__setattr__(self, "events", events)
        object.__setattr__(
            self, "initial_sids", validate_trace(events, max_sessions)
        )

    @classmethod
    def static(cls, sids: Sequence[int]) -> "DynamicsSchedule":
        """All sessions active for the whole run (Figs. 4, 6, 7)."""
        return cls(tuple(TraceEvent(0.0, "arrive", sid) for sid in sids))

    @classmethod
    def churn(
        cls,
        num_sessions: int,
        initial: int,
        waves: Sequence[tuple[float, int, int]],
    ) -> "DynamicsSchedule":
        """General churn plan: ``initial`` sessions start at t=0 and timed
        ``(time_s, arrivals, departures)`` waves (``time_s > 0``) mutate
        the active set.

        Arrivals draw fresh session ids from the reserve pool
        ``[initial, num_sessions)`` in order; departures retire the
        longest-running active session (FIFO), never emptying the
        conference.  Within one wave (and across waves sharing a
        timestamp) arrivals land before departures — the canonical
        intra-timestamp order.  Used by the fleet compiler's churn specs.
        """
        if not 1 <= initial <= num_sessions:
            raise SimulationError(
                f"initial must be in [1, {num_sessions}], got {initial}"
            )
        pending = list(range(initial, num_sessions))
        active = list(range(initial))
        events = [TraceEvent(0.0, "arrive", sid) for sid in active]
        for time_s, arrivals, departures in sorted(waves, key=lambda w: w[0]):
            if not time_s > 0:
                raise SimulationError(
                    f"churn wave at t={time_s:g}: waves must come after "
                    "t=0 (the initial sessions are the t=0 arrivals)"
                )
            if arrivals < 0 or departures < 0:
                raise SimulationError("wave arrivals/departures must be >= 0")
            for _ in range(arrivals):
                if not pending:
                    raise SimulationError(
                        f"churn plan needs more than {num_sessions} sessions "
                        "to serve all arrivals"
                    )
                sid = pending.pop(0)
                events.append(TraceEvent(time_s, "arrive", sid))
                active.append(sid)
            for _ in range(departures):
                if len(active) <= 1:
                    raise SimulationError(
                        "churn plan would depart the last active session"
                    )
                events.append(TraceEvent(time_s, "depart", active.pop(0)))
        return cls(tuple(events))

    @classmethod
    def fig5(
        cls,
        initial_sids: Sequence[int],
        arriving_sids: Sequence[int],
        departing_sids: Sequence[int],
        arrival_time_s: float = 40.0,
        departure_time_s: float = 80.0,
    ) -> "DynamicsSchedule":
        """The paper's dynamic scenario: arrivals at t=40 s, departures at
        t=80 s (departing sessions must be active by then).  The arrival
        time must be > 0: arrivals at t=0 are initial sessions."""
        if not arrival_time_s > 0:
            raise SimulationError(
                f"arrival time must be > 0, got {arrival_time_s:g} "
                "(sessions active at t=0 are initial_sids)"
            )
        events = [TraceEvent(0.0, "arrive", sid) for sid in initial_sids]
        events.extend(
            TraceEvent(arrival_time_s, "arrive", sid) for sid in arriving_sids
        )
        events.extend(
            TraceEvent(departure_time_s, "depart", sid) for sid in departing_sids
        )
        return cls(tuple(events))
