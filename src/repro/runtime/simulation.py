"""The conferencing control-plane simulator (paper Sec. V-A).

Binds Alg. 1's jump chain to wall-clock time:

* each active session runs WAIT — an exponential countdown with the
  configured mean (the prototype uses 10 s) — then HOP;
* HOP is serialized across sessions: while one session migrates, the
  others' countdowns are paused for the freeze duration (the
  FREEZE/UNFREEZE handshake).  Pending countdowns live in one array
  indexed by session id, and the event queue holds a single wake timer
  at their minimum, so a FREEZE is one vectorized shift of the array
  plus one re-arm of the timer;
* migrations are priced by the dual-feed model and logged;
* metric samples (total inter-agent traffic, average conferencing delay,
  objective, per-session series) are taken on a fixed grid — these are the
  series plotted in Figs. 4-7;
* session arrivals bootstrap a new session against residual capacities and
  join the hop loop; departures release capacity (Fig. 5); resizes
  re-admit a live session against the current residuals;
* infrastructure faults (:mod:`repro.runtime.faults`) swap the solver
  onto a substrate view at each window boundary, recover stranded
  sessions per the schedule's policy, and feed the resilience metrics
  (recovery time, migration churn, SLA-violation seconds).  A sample
  violates the SLA when constraint (8) fails on the current view, judged
  on :func:`~repro.core.delay.flow_table_delays` exactly as
  :func:`~repro.core.feasibility.check_assignment` judges it.

Session dynamics come from one validated
:class:`~repro.runtime.dynamics.DynamicsSchedule`: its ``t=0`` arrivals
are bootstrapped, and a :class:`~repro.runtime.traces.TracePlayer`
feeds every later event open-loop, one timestamp batch at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

import repro.telemetry as tele
from repro.core.agrank import AgRankConfig
from repro.core.assignment import Assignment
from repro.core.delay import average_conferencing_delay, flow_table_delays
from repro.core.markov import MarkovConfig
from repro.core.objective import ObjectiveEvaluator
from repro.errors import InfeasibleError, SimulationError
from repro.model.conference import Conference
from repro.netsim.noise import NoiseModel
from repro.runtime.dynamics import DynamicsSchedule
from repro.runtime.events import EventHandle, EventQueue
from repro.runtime.faults import (
    Fault,
    FaultSchedule,
    apply_faults,
    outaged_sites,
    stranded_sessions,
)
from repro.runtime.live import LiveConference
from repro.runtime.metrics import TimeSeriesRecorder
from repro.runtime.migration import MigrationModel, MigrationRecord
from repro.runtime.traces import TracePlayer

Policy = Literal["nearest", "agrank"]


@dataclass(frozen=True)
class SimulationConfig:
    """Wall-clock parameters of a runtime experiment."""

    duration_s: float = 200.0
    sample_interval_s: float = 1.0
    #: Mean of the WAIT countdown (1 / tau); the prototype uses 10 s.
    hop_interval_mean_s: float = 10.0
    #: How long other sessions stay frozen during one migration.
    freeze_duration_s: float = 0.05
    markov: MarkovConfig = field(default_factory=MarkovConfig)
    initial_policy: Policy = "nearest"
    agrank: AgRankConfig | None = None
    seed: int = 0
    #: Session ids whose individual traffic/delay series are recorded.
    track_sessions: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise SimulationError("duration must be positive")
        if self.sample_interval_s <= 0:
            raise SimulationError("sample interval must be positive")
        if self.hop_interval_mean_s <= 0:
            raise SimulationError("hop interval mean must be positive")
        if self.freeze_duration_s < 0:
            raise SimulationError("freeze duration must be >= 0")


@dataclass
class SimulationResult:
    """Everything a runtime experiment produced."""

    recorder: TimeSeriesRecorder
    migrations: list[MigrationRecord]
    hops: int
    freezes: int
    final_assignment: Assignment
    config: SimulationConfig
    #: Resize (placement-renegotiation) events executed during the run.
    resizes: int = 0
    #: Dynamics events streamed from the trace player (open-loop feed).
    trace_events: int = 0
    #: Fault windows that actually started during the run.
    faults_injected: int = 0
    #: Stranded sessions re-placed by the ``migrate`` fault policy.
    fault_migrations: int = 0
    #: Stranded sessions removed by the ``drop`` policy (or migrate
    #: fallback when no feasible placement remained).
    sessions_dropped: int = 0
    #: Seconds (of sample grid) during which any active session's worst
    #: flow exceeded the delay cap.
    sla_violation_s: float = 0.0
    #: Per-fault recovery time: first violation-free sample after each
    #: fault's start, minus the start (faults unrecovered at the end of
    #: the horizon are not counted).
    recovery_times: tuple[float, ...] = ()

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` of a recorded series (e.g. ``"traffic"``)."""
        return self.recorder.series(name)

    @property
    def total_overhead_kb(self) -> float:
        """Cumulative dual-feed migration overhead."""
        return sum(record.overhead_kb for record in self.migrations)

    def initial_value(self, name: str) -> float:
        _times, values = self.series(name)
        return float(values[0])

    def final_value(self, name: str) -> float:
        return self.recorder.last(name)

    def steady_state_mean(self, name: str, tail_fraction: float = 0.25) -> float:
        """Mean of the series over its trailing ``tail_fraction`` window."""
        times, _values = self.series(name)
        t_start = float(times[-1]) - tail_fraction * (float(times[-1]) - float(times[0]))
        return self.recorder.mean_after(name, t_start)


class ConferencingSimulator:
    """Event-driven execution of Alg. 1 over a conference."""

    def __init__(
        self,
        evaluator: ObjectiveEvaluator,
        schedule: DynamicsSchedule,
        config: SimulationConfig | None = None,
        noise: NoiseModel | None = None,
        migration_model: MigrationModel | None = None,
        initial_assignment: Assignment | None = None,
        faults: FaultSchedule | None = None,
    ):
        self._evaluator = evaluator
        self._conference: Conference = evaluator.conference
        self._player = TracePlayer(schedule)
        self._config = config if config is not None else SimulationConfig()
        self._noise = noise
        self._migration_model = (
            migration_model if migration_model is not None else MigrationModel()
        )
        self._initial_assignment = initial_assignment
        self._rng = np.random.default_rng(self._config.seed)

        self._queue = EventQueue()
        self._recorder = TimeSeriesRecorder()
        self._migrations: list[MigrationRecord] = []
        # WAIT countdowns: the absolute wake-up time of each session's
        # pending countdown (inf = none), and the one queue timer that
        # fires at their minimum.
        self._countdowns = np.full(self._conference.num_sessions, math.inf)
        self._timer: EventHandle | None = None
        self._timer_at = math.inf
        self._freezes = 0
        self._resizes = 0
        self._pending_trace = 0
        self._live: LiveConference | None = None

        # Fault-injection state: the pristine evaluator/conference are
        # kept so every substrate view derives from unfaulted matrices
        # (never view-of-view); the live engine carries hop counters
        # across the solver swap a fault transition performs.
        self._faults = faults
        self._pristine_evaluator = evaluator
        self._pristine_conference = self._conference
        self._active_faults: list[Fault] = []
        self._faults_injected = 0
        self._fault_migrations = 0
        self._sessions_dropped = 0
        self._sla_violation_s = 0.0
        self._recovery_times: list[float] = []
        self._pending_recovery: list[tuple[Fault, float]] = []

    # ------------------------------------------------------------------ #
    # Event handlers                                                     #
    # ------------------------------------------------------------------ #

    def _draw_wait(self) -> float:
        return float(self._rng.exponential(self._config.hop_interval_mean_s))

    def _arm_timer(self) -> None:
        """Point the wake timer at the earliest pending countdown (off
        the queue when none is pending).  The run loop calls this after
        every event, so handlers only edit the countdown array."""
        wake_at = float(self._countdowns.min())
        if wake_at == self._timer_at:
            return
        self._timer_at = wake_at
        if wake_at == math.inf:
            assert self._timer is not None
            self._timer.cancel()
        elif self._timer is None:
            self._timer = self._queue.schedule(wake_at, "wake", priority=1)
        else:
            self._timer = self._queue.reschedule(self._timer, wake_at)

    def _start_countdown(self, sid: int, now: float) -> None:
        """WAIT: draw the session's next wake-up."""
        self._countdowns[sid] = now + self._draw_wait()

    def _has_countdown(self, sid: int) -> bool:
        return bool(self._countdowns[sid] != math.inf)

    def _stop_countdown(self, sid: int) -> bool:
        """Clear a session's pending countdown; False if it had none."""
        if not self._has_countdown(sid):
            return False
        self._countdowns[sid] = math.inf
        return True

    def _waking_session(self, timer: EventHandle, now: float) -> int:
        """The session whose countdown the popped ``timer`` ended.

        The timer carries no payload: the waking session is the one
        holding the earliest countdown, which must equal the popped
        time exactly (anything else means the array and the timer fell
        out of step).  Equal countdowns wake in session-id order.
        """
        del timer
        sid = int(self._countdowns.argmin())
        if self._countdowns[sid] != now:
            raise SimulationError(
                f"wake timer fired at {now!r}s but the earliest countdown "
                f"(session {sid}) ends at {float(self._countdowns[sid])!r}s"
            )
        self._countdowns[sid] = math.inf
        self._timer_at = math.inf
        return sid

    def _freeze_others(self, now: float) -> None:
        """FREEZE: pause every other session's countdown for the handshake
        duration by pushing it back to ``max(wake_at, now) + duration``.

        The hopping session's countdown was cleared when its timer
        popped, and ``inf`` entries stay ``inf``, so one in-place pass
        over the whole array shifts exactly the pending countdowns.
        """
        duration = self._config.freeze_duration_s
        if duration <= 0:
            return
        self._freezes += 1
        tele.count("sim.freezes")
        np.maximum(self._countdowns, now, out=self._countdowns)
        self._countdowns += duration

    def _on_wake(self, sid: int, now: float) -> None:
        assert self._live is not None
        before = self._live.assignment
        result = self._live.hop(sid)
        if result.moved and result.move is not None:
            self._freeze_others(now)
            self._migrations.append(
                self._migration_model.price(self._conference, before, result.move, sid, now)
            )
        self._start_countdown(sid, now)

    def _on_sample(self, now: float) -> None:
        assert self._live is not None
        active = self._live.context.active_sessions
        if active:
            traffic = sum(
                self._live.context.session_cost(sid).inter_agent_mbps
                for sid in active
            )
            delay = average_conferencing_delay(
                self._conference, self._live.assignment, active
            )
            self._recorder.record("traffic", now, traffic)
            self._recorder.record("delay", now, delay)
            self._recorder.record("phi", now, self._live.total_phi())
            self._recorder.record("sessions", now, float(len(active)))
            for sid in self._config.track_sessions:
                if sid in active:
                    cost = self._live.context.session_cost(sid)
                    self._recorder.record(f"s{sid}/traffic", now, cost.inter_agent_mbps)
                    self._recorder.record(
                        f"s{sid}/delay",
                        now,
                        average_conferencing_delay(
                            self._conference, self._live.assignment, [sid]
                        ),
                    )
        if self._faults is not None:
            self._sample_resilience(active, now)
        tele.count("sim.samples")
        next_sample = now + self._config.sample_interval_s
        if next_sample <= self._config.duration_s + 1e-9:
            self._queue.schedule(next_sample, "sample", priority=1)

    def _on_arrival(self, sid: int, now: float) -> None:
        assert self._live is not None
        self._live.arrive(sid)
        self._start_countdown(sid, now)
        tele.count("sim.arrivals")
        self._trace_event_done()

    def _on_departure(self, sid: int, now: float) -> None:
        """Release a session.  A session the ``drop`` fault policy
        already removed has no countdown left: its trace departure only
        closes the batch."""
        assert self._live is not None
        del now
        if self._stop_countdown(sid):
            self._live.depart(sid)
            tele.count("sim.departures")
        self._trace_event_done()

    def _on_resize(self, sid: int, now: float) -> None:
        """Re-admit a live session against the current residual
        capacities (the roster is fixed, so a membership change shows up
        as a placement renegotiation); its WAIT countdown keeps running."""
        assert self._live is not None
        del now
        if self._has_countdown(sid):
            self._live.resize(sid)
            self._resizes += 1
        self._trace_event_done()

    # ------------------------------------------------------------------ #
    # Fault injection                                                    #
    # ------------------------------------------------------------------ #

    def _on_fault(self, payload: tuple[str, Fault], now: float) -> None:
        """Apply one fault boundary: update the active set, rebuild the
        solver against the new substrate view, run the recovery policy."""
        phase, fault = payload
        if phase == "start":
            self._active_faults.append(fault)
            self._faults_injected += 1
            self._pending_recovery.append((fault, now))
            tele.count("sim.faults")
        else:
            self._active_faults.remove(fault)
        self._rebuild_solver()
        self._apply_fault_policy(now)

    def _rebuild_solver(self) -> None:
        """Swap the live engine onto the current substrate view.

        The view evaluator keeps the pristine objective weights and
        per-agent costs (no renormalization mid-run — the objective's
        scales are part of the experiment, not of the substrate); the
        engine carries the assignment, active set, hop counters and the
        rng object across the swap, so the wake/hop draw sequence is
        untouched.
        """
        assert self._live is not None
        if self._active_faults:
            view = apply_faults(self._pristine_conference, self._active_faults)
            evaluator = self._pristine_evaluator.with_conference(view)
        else:
            view = self._pristine_conference
            evaluator = self._pristine_evaluator
        self._conference = view
        self._evaluator = evaluator
        self._live.swap_evaluator(evaluator)

    def _apply_fault_policy(self, now: float) -> None:
        """Recover sessions stranded on outaged sites per the policy."""
        assert self._faults is not None and self._live is not None
        dead = outaged_sites(self._active_faults)
        if not dead or self._faults.policy == "none":
            return
        stranded = stranded_sessions(
            self._conference,
            self._live.assignment,
            self._live.context.active_sessions,
            dead,
        )
        for sid in stranded:
            self._live.depart(sid)
            if self._faults.policy == "migrate":
                try:
                    assignment = self._live.placement_for(sid)
                except InfeasibleError:
                    self._drop_session(sid)
                    continue
                self._live.context.add_session(sid, assignment)
                self._fault_migrations += 1
                tele.count("sim.fault_migrations")
            else:  # "drop"
                self._drop_session(sid)

    def _drop_session(self, sid: int) -> None:
        self._stop_countdown(sid)
        self._sessions_dropped += 1
        tele.count("sim.sessions_dropped")

    def _sample_resilience(self, active: list[int], now: float) -> None:
        """Per-sample SLA/recovery bookkeeping (fault runs only).

        A sample is *violating* when any active session's flow exceeds
        the delay cap on the current substrate view (constraint (8), one
        :func:`~repro.core.delay.flow_table_delays` pass over the active
        sessions); violating samples accumulate SLA-violation seconds,
        and the first clean sample after a fault's start resolves that
        fault's recovery time.  The ``stranded`` series counts sessions
        still touching a dead site (zero at every sample under the
        ``migrate`` policy — the property suite pins exactly that).
        """
        assert self._live is not None
        assignment = self._live.assignment
        selected = np.zeros(self._conference.num_sessions, dtype=bool)
        selected[active] = True
        cap = self._conference.dmax_ms + 1e-9
        _sources, _destinations, delays = flow_table_delays(
            self._conference, assignment, selected
        )
        violating = bool((delays > cap).any())
        if violating:
            self._sla_violation_s += self._config.sample_interval_s
        elif self._pending_recovery:
            for _fault, started in self._pending_recovery:
                self._recovery_times.append(now - started)
            self._pending_recovery.clear()
        dead = outaged_sites(self._active_faults)
        stranded = (
            len(stranded_sessions(self._conference, assignment, active, dead))
            if dead
            else 0
        )
        self._recorder.record("stranded", now, float(stranded))

    # ------------------------------------------------------------------ #
    # Open-loop trace feed                                               #
    # ------------------------------------------------------------------ #

    def _pump_trace(self) -> None:
        """Schedule the player's next timestamp batch (open-loop: one
        batch in flight at a time, pulled only when the previous batch
        has fully executed)."""
        batch = self._player.next_batch(limit_s=self._config.duration_s)
        if batch:
            tele.count("trace.events", len(batch))
        self._pending_trace = len(batch)
        for event in batch:
            self._queue.schedule(event.time_s, event.kind, event.sid)

    def _trace_event_done(self) -> None:
        self._pending_trace -= 1
        if self._pending_trace == 0:
            self._pump_trace()

    # ------------------------------------------------------------------ #
    # Main loop                                                          #
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Execute the simulation and return all recorded artifacts."""
        with tele.span("sim.bootstrap"):
            self._live = LiveConference.bootstrap(
                self._evaluator,
                list(self._player.initial_sids),
                markov=self._config.markov,
                initial_policy=self._config.initial_policy,
                agrank=self._config.agrank,
                noise=self._noise,
                rng=self._rng,
                initial_assignment=self._initial_assignment,
            )
        for sid in self._player.initial_sids:
            self._start_countdown(sid, 0.0)
        self._arm_timer()
        self._pump_trace()
        if self._faults is not None:
            # Priority -1: at a shared instant faults apply before the
            # dynamics (0) and the samples and wake timer (1) they
            # influence.
            for time_s, phase, fault in self._faults.transitions():
                if time_s > self._config.duration_s + 1e-9:
                    continue
                self._queue.schedule(
                    time_s, "fault", (phase, fault), priority=-1
                )
        self._queue.schedule(0.0, "sample", priority=1)

        while True:
            popped = self._queue.pop()
            if popped is None:
                break
            now, handle = popped
            if now > self._config.duration_s + 1e-9:
                break
            if handle.kind == "wake":
                self._on_wake(self._waking_session(handle, now), now)
            elif handle.kind == "sample":
                self._on_sample(now)
            elif handle.kind == "arrive":
                self._on_arrival(handle.payload, now)
            elif handle.kind == "depart":
                self._on_departure(handle.payload, now)
            elif handle.kind == "resize":
                self._on_resize(handle.payload, now)
            elif handle.kind == "fault":
                self._on_fault(handle.payload, now)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {handle.kind!r}")
            self._arm_timer()

        return SimulationResult(
            recorder=self._recorder,
            migrations=self._migrations,
            hops=self._live.hops,
            freezes=self._freezes,
            final_assignment=self._live.assignment,
            config=self._config,
            resizes=self._resizes,
            trace_events=self._player.events_streamed,
            faults_injected=self._faults_injected,
            fault_migrations=self._fault_migrations,
            sessions_dropped=self._sessions_dropped,
            sla_violation_s=self._sla_violation_s,
            recovery_times=tuple(self._recovery_times),
        )
