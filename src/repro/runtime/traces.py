"""Trace files, stochastic session processes and the trace player.

The paper's dynamic evaluation (Fig. 5) drives the runtime with one
hand-written wave schedule.  This module opens the churn axis to
arbitrary inputs, all of them streams of
:class:`~repro.runtime.dynamics.TraceEvent` rows:

* **Trace files** — CSV or JSONL rows of timestamped session
  ``arrive`` / ``depart`` / ``resize`` events (:func:`parse_trace`,
  :func:`load_trace`), written back out losslessly
  (:func:`format_trace`, :func:`dump_trace`).  Arrivals at exactly
  ``t=0`` define the initially active set, so a trace is
  self-contained: a schedule's events written out and read back give
  the same :class:`~repro.runtime.dynamics.DynamicsSchedule`.
* **Session processes** — :class:`SessionProcess`, a seeded generator
  of Poisson arrivals with exponential or lognormal holding times,
  plus bursty (two-state MMPP) and diurnal (sinusoidally modulated
  rate) variants.  Generation is bit-for-bit deterministic per seed
  and streams lazily (:meth:`SessionProcess.stream` never
  materializes an unbounded trace).
* **The player** — :class:`TracePlayer`, the open-loop feed of
  :class:`~repro.runtime.simulation.ConferencingSimulator`: it hands
  out a schedule's events after the initial arrivals one timestamp
  batch at a time.

The event type, its canonical order and the rules every trace must
satisfy live in :mod:`repro.runtime.dynamics`
(:func:`~repro.runtime.dynamics.validate_trace`).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import SimulationError, SpecError
from repro.runtime.dynamics import DynamicsSchedule, TraceEvent, sort_trace

#: Holding-time distributions a session process can draw from.
HOLDING_KINDS: tuple[str, ...] = ("exponential", "lognormal")

#: Session-process families (constant-rate, bursty, day-cycle).
PROCESS_KINDS: tuple[str, ...] = ("poisson", "mmpp", "diurnal")

#: Header line of the CSV trace format.
TRACE_CSV_HEADER = "time_s,event,sid"

#: Entropy tag mixed into every SessionProcess seed ("trac" in hex) so
#: generator streams never alias the simulator stream of the same seed.
_TRACE_STREAM_TAG = 0x74726163


# --------------------------------------------------------------------- #
# File formats                                                          #
# --------------------------------------------------------------------- #


def _parse_csv_line(line: str, lineno: int, origin: str) -> TraceEvent:
    parts = [part.strip() for part in line.split(",")]
    if len(parts) != 3:
        raise SpecError(
            f"{origin}:{lineno}: expected 'time_s,event,sid', got {line!r}"
        )
    raw_time, kind, raw_sid = parts
    try:
        time_s = float(raw_time)
    except ValueError:
        raise SpecError(
            f"{origin}:{lineno}: time_s {raw_time!r} is not a number"
        ) from None
    try:
        sid = int(raw_sid)
    except ValueError:
        raise SpecError(
            f"{origin}:{lineno}: sid {raw_sid!r} is not an integer"
        ) from None
    try:
        return TraceEvent(time_s=time_s, kind=kind, sid=sid, line=lineno)
    except SimulationError as error:
        raise SpecError(f"{origin}:{lineno}: {error}") from None


def _parse_jsonl_line(line: str, lineno: int, origin: str) -> TraceEvent:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as error:
        raise SpecError(f"{origin}:{lineno}: not valid JSON: {error}") from None
    if not isinstance(data, dict):
        raise SpecError(f"{origin}:{lineno}: expected an object, got {data!r}")
    unknown = sorted(set(data) - {"time_s", "event", "sid"})
    if unknown:
        raise SpecError(
            f"{origin}:{lineno}: unknown key(s) {unknown}; "
            "expected time_s, event, sid"
        )
    missing = [key for key in ("time_s", "event", "sid") if key not in data]
    if missing:
        raise SpecError(f"{origin}:{lineno}: missing key(s) {missing}")
    time_s, kind, sid = data["time_s"], data["event"], data["sid"]
    if isinstance(time_s, bool) or not isinstance(time_s, (int, float)):
        raise SpecError(f"{origin}:{lineno}: time_s must be a number, got {time_s!r}")
    if not isinstance(kind, str):
        raise SpecError(f"{origin}:{lineno}: event must be a string, got {kind!r}")
    if isinstance(sid, bool) or not isinstance(sid, int):
        raise SpecError(f"{origin}:{lineno}: sid must be an integer, got {sid!r}")
    try:
        return TraceEvent(time_s=float(time_s), kind=kind, sid=sid, line=lineno)
    except SimulationError as error:
        raise SpecError(f"{origin}:{lineno}: {error}") from None


def parse_trace(
    text: str, fmt: str = "csv", origin: str = "trace"
) -> tuple[TraceEvent, ...]:
    """Parse trace text (``csv`` or ``jsonl``) into canonical event order.

    Blank lines and ``#`` comments are skipped; every malformed row
    raises :class:`~repro.errors.SpecError` naming ``origin:line``.
    """
    if fmt not in ("csv", "jsonl"):
        raise SpecError(f"unknown trace format {fmt!r}; choose csv or jsonl")
    events: list[TraceEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if fmt == "csv":
            if line.replace(" ", "") == TRACE_CSV_HEADER:
                continue
            events.append(_parse_csv_line(line, lineno, origin))
        else:
            events.append(_parse_jsonl_line(line, lineno, origin))
    return sort_trace(events)


def format_trace(events: Sequence[TraceEvent], fmt: str = "csv") -> str:
    """Render events as CSV (with header) or JSONL text."""
    if fmt not in ("csv", "jsonl"):
        raise SpecError(f"unknown trace format {fmt!r}; choose csv or jsonl")
    ordered = sort_trace(events)
    if fmt == "csv":
        rows = [TRACE_CSV_HEADER]
        # repr() is the shortest representation that round-trips the
        # float exactly — a written trace must read back as the same
        # schedule.
        rows.extend(f"{event.time_s!r},{event.kind},{event.sid}" for event in ordered)
    else:
        rows = [
            json.dumps(
                {"time_s": event.time_s, "event": event.kind, "sid": event.sid}
            )
            for event in ordered
        ]
    return "\n".join(rows) + "\n"


def trace_format_for_path(path: str | Path) -> str:
    """``csv`` or ``jsonl``, chosen by the file suffix (default csv)."""
    return "jsonl" if Path(path).suffix.lower() in (".jsonl", ".json") else "csv"


def load_trace(path: str | Path, fmt: str = "") -> tuple[TraceEvent, ...]:
    """Read and parse a trace file; ``fmt`` overrides suffix dispatch."""
    path = Path(path)
    if not path.is_file():
        raise SpecError(f"trace file {path} does not exist")
    return parse_trace(
        path.read_text(encoding="utf-8"),
        fmt=fmt or trace_format_for_path(path),
        origin=str(path),
    )


def dump_trace(events: Sequence[TraceEvent], path: str | Path) -> None:
    """Write a trace file, format chosen by the path suffix."""
    path = Path(path)
    path.write_text(format_trace(events, fmt=trace_format_for_path(path)), encoding="utf-8")


# --------------------------------------------------------------------- #
# Stochastic session processes                                          #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SessionProcess:
    """A seeded stochastic arrival/departure process over a finite pool.

    Arrivals form a Poisson process at ``rate_per_s`` — constant
    (``poisson``), two-state Markov-modulated (``mmpp``: the rate
    switches to ``burst_rate_per_s`` for exponential bursts of mean
    ``mean_burst_s``, back after calms of mean ``mean_calm_s``), or
    sinusoidally modulated with period ``diurnal_period_s`` and relative
    amplitude ``diurnal_amplitude`` (``diurnal``).  Each admitted
    session holds for an exponential or lognormal time with mean
    ``mean_holding_s`` and then departs.

    Sessions draw the lowest free sid from the pool ``[0,
    max_sessions)``; an arrival finding the pool exhausted is blocked
    (dropped — Erlang-loss behaviour), and a departure that would empty
    the conference is deferred to the next admitted arrival's timestamp
    (where canonical ordering lets the arrival land first).  ``initial``
    sessions are active from ``t=0`` (emitted as arrivals at ``t=0``).

    All randomness flows from one :func:`numpy.random.default_rng`
    seeded with ``(seed, stream tag)``: traces are bit-for-bit
    reproducible, and the tag keeps the generator's stream disjoint
    from a simulator seeded with the same integer (identical streams
    make generated event times collide exactly with wake countdowns
    whenever the draw scales match, manufacturing timestamp ties).
    """

    kind: str = "poisson"
    rate_per_s: float = 0.05
    mean_holding_s: float = 60.0
    holding: str = "exponential"
    holding_sigma: float = 0.5
    burst_rate_per_s: float = 0.0
    mean_burst_s: float = 20.0
    mean_calm_s: float = 60.0
    diurnal_period_s: float = 240.0
    diurnal_amplitude: float = 0.5
    initial: int = 1
    max_sessions: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PROCESS_KINDS:
            raise SpecError(
                f"process kind {self.kind!r} is unknown; "
                f"choose from {PROCESS_KINDS}"
            )
        if self.holding not in HOLDING_KINDS:
            raise SpecError(
                f"holding {self.holding!r} is unknown; "
                f"choose from {HOLDING_KINDS}"
            )
        if not self.rate_per_s > 0:
            raise SpecError(f"rate_per_s must be > 0, got {self.rate_per_s}")
        if not self.mean_holding_s > 0:
            raise SpecError(
                f"mean_holding_s must be > 0, got {self.mean_holding_s}"
            )
        if self.holding == "lognormal" and not self.holding_sigma > 0:
            raise SpecError(
                f"holding_sigma must be > 0, got {self.holding_sigma}"
            )
        if self.kind == "mmpp":
            if self.burst_rate_per_s < self.rate_per_s:
                raise SpecError(
                    "mmpp burst_rate_per_s must be >= rate_per_s, got "
                    f"{self.burst_rate_per_s} < {self.rate_per_s}"
                )
            if not self.mean_burst_s > 0 or not self.mean_calm_s > 0:
                raise SpecError("mmpp dwell means must be > 0")
        if self.kind == "diurnal":
            if not 0.0 <= self.diurnal_amplitude < 1.0:
                raise SpecError(
                    f"diurnal_amplitude must be in [0, 1), "
                    f"got {self.diurnal_amplitude}"
                )
            if not self.diurnal_period_s > 0:
                raise SpecError(
                    f"diurnal_period_s must be > 0, got {self.diurnal_period_s}"
                )
        if self.initial < 1:
            raise SpecError(f"initial must be >= 1, got {self.initial}")
        if self.max_sessions < max(2, self.initial):
            raise SpecError(
                f"max_sessions must be >= max(2, initial), "
                f"got {self.max_sessions} (initial={self.initial})"
            )

    # -- draw helpers -------------------------------------------------- #

    def _holding_time(self, rng: np.random.Generator) -> float:
        if self.holding == "exponential":
            return float(rng.exponential(self.mean_holding_s))
        sigma = self.holding_sigma
        mu = math.log(self.mean_holding_s) - 0.5 * sigma * sigma
        return float(rng.lognormal(mu, sigma))

    def _peak_rate(self) -> float:
        if self.kind == "mmpp":
            return self.burst_rate_per_s
        if self.kind == "diurnal":
            return self.rate_per_s * (1.0 + self.diurnal_amplitude)
        return self.rate_per_s

    def stream(self, horizon_s: float = math.inf) -> Iterator[TraceEvent]:
        """Lazily yield the process's events in canonical time order.

        Without a horizon the iterator is unbounded — consumers cut it
        where they need to — and it never materializes more than the
        active-session heap.  Pass ``horizon_s`` to make the generator
        itself stop once every remaining event lies beyond it: that
        bound also covers the saturated-pool regime, where blocked
        arrivals yield nothing and a consumer waiting for the next
        event to cross its cutoff would otherwise spin through
        ~``rate * holding`` rejected candidates first.
        """
        rng = np.random.default_rng([self.seed, _TRACE_STREAM_TAG])
        peak = self._peak_rate()
        # Two-state MMPP trajectory, advanced lazily alongside thinning.
        bursting = False
        next_switch = (
            float(rng.exponential(self.mean_calm_s))
            if self.kind == "mmpp"
            else math.inf
        )

        def rate_at(t: float) -> float:
            nonlocal bursting, next_switch
            if self.kind == "mmpp":
                while t >= next_switch:
                    bursting = not bursting
                    dwell = self.mean_burst_s if bursting else self.mean_calm_s
                    next_switch += float(rng.exponential(dwell))
                return self.burst_rate_per_s if bursting else self.rate_per_s
            if self.kind == "diurnal":
                phase = math.sin(2.0 * math.pi * t / self.diurnal_period_s)
                return self.rate_per_s * (1.0 + self.diurnal_amplitude * phase)
            return self.rate_per_s

        def next_arrival_after(t: float) -> float:
            # Thinning (Lewis-Shedler): exact for every rate shape here.
            while True:
                t += float(rng.exponential(1.0 / peak))
                if rng.random() * peak <= rate_at(t):
                    return t

        free = list(range(self.initial, self.max_sessions))
        heapq.heapify(free)
        departures: list[tuple[float, int]] = []
        active = 0
        pending: list[TraceEvent] = []
        for sid in range(self.initial):
            pending.append(TraceEvent(0.0, "arrive", sid))
            heapq.heappush(departures, (self._holding_time(rng), sid))
            active += 1
        yield from sort_trace(pending)

        next_arrival = next_arrival_after(0.0)
        while True:
            if next_arrival > horizon_s and (
                not departures or departures[0][0] > horizon_s
            ):
                return
            if departures and departures[0][0] < next_arrival:
                depart_at, sid = heapq.heappop(departures)
                if active == 1:
                    # Deferring to the next arrival's own timestamp keeps
                    # the conference occupied: arrivals sort first.
                    heapq.heappush(departures, (next_arrival, sid))
                    continue
                active -= 1
                heapq.heappush(free, sid)
                yield TraceEvent(depart_at, "depart", sid)
                continue
            arrive_at = next_arrival
            next_arrival = next_arrival_after(arrive_at)
            if not free:
                continue  # pool exhausted: the arrival is blocked
            sid = heapq.heappop(free)
            active += 1
            heapq.heappush(
                departures, (arrive_at + self._holding_time(rng), sid)
            )
            yield TraceEvent(arrive_at, "arrive", sid)

    def trace(self, duration_s: float) -> tuple[TraceEvent, ...]:
        """Materialize the stream up to ``duration_s`` (inclusive)."""
        if not duration_s > 0:
            raise SpecError(f"duration_s must be > 0, got {duration_s}")
        events: list[TraceEvent] = []
        for event in self.stream(horizon_s=duration_s):
            if event.time_s > duration_s:
                break
            events.append(event)
        return sort_trace(events)


# --------------------------------------------------------------------- #
# The open-loop player                                                  #
# --------------------------------------------------------------------- #


class TracePlayer:
    """Open-loop event feed for the simulator.

    Hands out a :class:`~repro.runtime.dynamics.DynamicsSchedule`'s
    events after its initial ``t=0`` arrivals one *timestamp batch* at a
    time — all events sharing the next ``time_s``, in canonical order.
    The schedule was validated when it was built, so the player only
    batches it.
    """

    def __init__(self, schedule: DynamicsSchedule) -> None:
        self._initial = schedule.initial_sids
        self._events = schedule.events
        # Canonical order puts the t=0 arrivals first.
        self._next = len(schedule.initial_sids)
        self._streamed = 0

    @property
    def initial_sids(self) -> tuple[int, ...]:
        """Sessions active at ``t=0``."""
        return self._initial

    @property
    def events_streamed(self) -> int:
        """Events handed out so far (the open-loop progress counter)."""
        return self._streamed

    def next_batch(self, limit_s: float = math.inf) -> tuple[TraceEvent, ...]:
        """All events at the next timestamp ``<= limit_s``; empty when the
        schedule is exhausted or the next event lies beyond the horizon,
        which ends the feed."""
        events, start = self._events, self._next
        if start == len(events) or events[start].time_s > limit_s:
            self._next = len(events)
            return ()
        time_s = events[start].time_s
        end = start + 1
        while end < len(events) and events[end].time_s == time_s:
            end += 1
        self._next = end
        self._streamed += end - start
        return events[start:end]
