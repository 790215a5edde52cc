"""Typed, validation-first scenario specs (the fleet input contract).

A :class:`RunSpec` captures everything one run needs — topology/pricing
regions, workload and session mix, solver choice + configuration, noise
model, churn plan, simulation horizon and seed — plus an optional sweep
block expanding it into a run matrix.  Specs load from YAML or JSON and
round-trip losslessly (``from_yaml(spec.to_yaml()) == spec``).

Design rules (after AsyncFlow's ``SimulationPayload`` contract):

* **Separation of concerns** — workload, topology, solver, noise, churn
  and simulation control are independent sections; any one can be swept
  or overridden without touching the others.
* **Validation-first, fail-fast** — every section validates in
  ``__post_init__``; unknown keys, unknown regions/sites/solvers and
  out-of-range values raise :class:`~repro.errors.SpecError` before the
  engine ever starts.  Once a spec parses, the compiler and runtime stay
  lean.
* **Closed vocabularies** — workload kinds, solver policies, hop rules
  and noise kinds are fixed tuples, so a typo fails loudly instead of
  silently selecting a default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from repro.errors import ModelError, SimulationError, SpecError
from repro.netsim.sites import known_region_names, known_site_names, region
from repro.runtime.faults import FAULT_KINDS, FAULT_POLICIES, Fault
from repro.runtime.traces import HOLDING_KINDS, PROCESS_KINDS, SessionProcess

WORKLOAD_KINDS: tuple[str, ...] = ("prototype", "scenario")
SOLVER_POLICIES: tuple[str, ...] = ("nearest", "agrank")
HOP_RULES: tuple[str, ...] = ("paper", "metropolis")
NOISE_KINDS: tuple[str, ...] = ("none", "gaussian", "quantized")
#: Churn-trace sources: a recorded file or a generated session process
#: (derived from the trace layer's vocabularies, never duplicated).
TRACE_KINDS: tuple[str, ...] = ("none", "file") + PROCESS_KINDS
#: Holding-time distributions a generated trace may draw from.
TRACE_HOLDING_KINDS: tuple[str, ...] = HOLDING_KINDS

#: Representation names a demand spec may reference (the paper's ladder).
LADDER_NAMES: tuple[str, ...] = ("360p", "480p", "720p", "1080p")

#: Execution backends the orchestrator can dispatch run units through
#: ("local" is the default's rule: "serial" or "pool", see
#: :func:`repro.fleet.backends.create_backend`).
BACKEND_KINDS: tuple[str, ...] = ("serial", "local", "pool")

#: Metrics a successive-halving rung may rank grid points by (all
#: lower-is-better; see ``repro.analysis.report.LOWER_IS_BETTER``).
HALVING_METRICS: tuple[str, ...] = ("traffic_mbps", "delay_ms", "phi")

#: Top-level sections a sweep axis path may enter.  ``execution`` knobs
#: are sweepable too (e.g. to benchmark backends against each other);
#: because execution is scheduling config rather than computation
#: identity, execution-axis values are folded into unit run ids
#: explicitly (see ``repro.fleet.matrix``).
SWEEPABLE_SECTIONS: tuple[str, ...] = (
    "workload",
    "topology",
    "solver",
    "noise",
    "churn",
    "faults",
    "simulation",
    "execution",
)


# --------------------------------------------------------------------- #
# Scalar coercion helpers                                               #
# --------------------------------------------------------------------- #


def _as_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SpecError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("inf", ".inf", "infinity"):
            return math.inf
        try:
            value = float(value)
        except ValueError:
            raise SpecError(f"{path}: expected a number, got {value!r}") from None
    result = float(value)
    if math.isnan(result):
        # NaN slides through every range check (all comparisons are
        # False) and is not valid strict JSON; reject it up front.
        raise SpecError(f"{path}: NaN is not a valid spec value")
    return result


def _as_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise SpecError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _as_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{path}: expected a boolean, got {value!r}")
    return value


def _as_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{path}: expected a string, got {value!r}")
    return value


def _as_scalar(value: object, path: str) -> object:
    """Axis values: any YAML/JSON scalar, passed through untouched."""
    if isinstance(value, (str, bool, int, float)):
        return value
    raise SpecError(f"{path}: expected a scalar, got {value!r}")


_COERCERS = {float: _as_float, int: _as_int, bool: _as_bool, str: _as_str, object: _as_scalar}


# --------------------------------------------------------------------- #
# Generic mapping <-> dataclass machinery                               #
# --------------------------------------------------------------------- #


def _spec_from_mapping(cls: type, data: object, path: str):
    """Build dataclass ``cls`` from a mapping, rejecting unknown keys."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise SpecError(f"{path}: expected a mapping, got {data!r}")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"{path}: unknown key(s) {unknown}; known keys: {sorted(known)}"
        )
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise SpecError(f"{path}: missing required field(s) {missing}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        kwargs[f.name] = _parse_value(hints[f.name], data[f.name], f"{path}.{f.name}")
    return cls(**kwargs)


def _parse_value(hint: object, value: object, path: str):
    if dataclasses.is_dataclass(hint):
        return _spec_from_mapping(hint, value, path)
    origin = typing.get_origin(hint)
    if origin is tuple:
        (item_hint, _ellipsis) = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            raise SpecError(f"{path}: expected a list, got {value!r}")
        return tuple(
            _parse_value(item_hint, item, f"{path}[{i}]")
            for i, item in enumerate(value)
        )
    coerce = _COERCERS.get(hint)
    if coerce is None:  # pragma: no cover - schema bug, not user input
        raise SpecError(f"{path}: unsupported schema type {hint!r}")
    return coerce(value, path)


def _plain(value: object) -> object:
    """Recursively convert a spec to YAML/JSON-safe builtins.

    ``inf`` becomes the string ``"inf"`` so JSON round-trips (JSON has no
    infinity literal); ``_as_float`` parses it back.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _coerce_declared_scalars(spec: object) -> None:
    """Normalize a frozen dataclass's scalars to their declared types, so
    ``RunSpec(... beta=400 ...)`` equals the same spec parsed from YAML."""
    hints = typing.get_type_hints(type(spec))
    for f in fields(spec):
        hint = hints[f.name]
        value = getattr(spec, f.name)
        if hint in (float, int) and not isinstance(value, bool):
            coerced = _COERCERS[hint](value, f.name)
            object.__setattr__(spec, f.name, coerced)
        elif typing.get_origin(hint) is tuple and isinstance(value, list):
            object.__setattr__(spec, f.name, tuple(value))


# --------------------------------------------------------------------- #
# Sections                                                              #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class DemandSpec:
    """Representation demand mix (Sec. V-B's 80/20 model)."""

    preferred: str = "720p"
    preferred_share: float = 0.8
    downgrade_only: bool = False

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.preferred not in LADDER_NAMES:
            raise SpecError(
                f"demand.preferred {self.preferred!r} is not in the "
                f"representation ladder {LADDER_NAMES}"
            )
        if not 0.0 <= self.preferred_share <= 1.0:
            raise SpecError(
                f"demand.preferred_share must be in [0, 1], "
                f"got {self.preferred_share}"
            )


@dataclass(frozen=True)
class TopologySpec:
    """Agent regions and the user-site substrate."""

    #: Cloud regions hosting agents; empty = the workload kind's default
    #: (6 prototype regions / 7 Internet-scale regions).
    regions: tuple[str, ...] = ()
    #: Prototype only: user metros (catalog names); empty = the paper's 10.
    user_sites: tuple[str, ...] = ()
    #: Scenario only: size of the PlanetLab-like site pool.
    num_user_sites: int = 256
    #: Seed of the synthetic RTT substrate (shared across scenario draws).
    latency_seed: int = 12345

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        for name in self.regions:
            try:
                region(name)
            except ModelError as error:
                raise SpecError(
                    f"topology.regions: unknown cloud region {name!r}; "
                    f"known: {list(known_region_names())}"
                ) from error
        known_sites = known_site_names()
        for name in self.user_sites:
            if name not in known_sites:
                raise SpecError(
                    f"topology.user_sites: unknown user site {name!r}; "
                    f"known: {list(known_sites)}"
                )
        if self.num_user_sites < 1:
            raise SpecError(
                f"topology.num_user_sites must be >= 1, got {self.num_user_sites}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """Session mix and demand model of one run."""

    kind: str = "prototype"
    #: Prototype: number of concurrent sessions.
    num_sessions: int = 10
    #: Scenario: users drawn per scenario (partitioned into sessions).
    num_users: int = 200
    min_session_size: int = 2
    max_session_size: int = 5
    #: Scenario: probability a member shares the session's home continent.
    session_locality: float = 0.85
    #: Scenario: mean agent capacities ("inf" disables the constraint).
    mean_bandwidth_mbps: float = math.inf
    mean_transcode_slots: float = math.inf
    demand: DemandSpec = field(default_factory=DemandSpec)

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.kind not in WORKLOAD_KINDS:
            raise SpecError(
                f"workload.kind {self.kind!r} is unknown; "
                f"choose from {WORKLOAD_KINDS}"
            )
        if self.num_sessions < 1:
            raise SpecError(
                f"workload.num_sessions must be >= 1, got {self.num_sessions}"
            )
        if self.num_users < 2:
            raise SpecError(
                f"workload.num_users must be >= 2, got {self.num_users}"
            )
        if not 2 <= self.min_session_size <= self.max_session_size:
            raise SpecError(
                f"workload session sizes invalid: "
                f"[{self.min_session_size}, {self.max_session_size}]"
            )
        if not 0.0 <= self.session_locality <= 1.0:
            raise SpecError(
                f"workload.session_locality must be in [0, 1], "
                f"got {self.session_locality}"
            )
        if self.mean_bandwidth_mbps <= 0 or self.mean_transcode_slots <= 0:
            raise SpecError("workload capacity means must be positive")


@dataclass(frozen=True)
class SolverSpec:
    """Bootstrap policy + Alg. 1 configuration + objective weights."""

    #: Initial assignment policy: "nearest" (Nrst) or "agrank" (Alg. 2).
    policy: str = "nearest"
    #: Paper-unit beta, mapped through the shared calibration constant.
    beta: float = 400.0
    hop_rule: str = "paper"
    #: AgRank candidate pool size (policy "agrank" only).
    n_ngbr: int = 2
    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 1.0

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.policy not in SOLVER_POLICIES:
            raise SpecError(
                f"solver.policy {self.policy!r} is unknown; "
                f"choose from {SOLVER_POLICIES}"
            )
        if self.hop_rule not in HOP_RULES:
            raise SpecError(
                f"solver.hop_rule {self.hop_rule!r} is unknown; "
                f"choose from {HOP_RULES}"
            )
        if self.beta <= 0:
            raise SpecError(f"solver.beta must be positive, got {self.beta}")
        if self.n_ngbr < 1:
            raise SpecError(f"solver.n_ngbr must be >= 1, got {self.n_ngbr}")
        if min(self.alpha1, self.alpha2, self.alpha3) < 0:
            raise SpecError("solver alpha weights must be non-negative")
        if self.alpha1 == self.alpha2 == self.alpha3 == 0:
            raise SpecError("at least one solver alpha must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Objective-measurement noise (Sec. IV-A.4 / Theorem 1)."""

    kind: str = "none"
    #: Gaussian: standard deviation in normalized phi units.
    sigma: float = 0.0
    #: Quantized: the error bound Delta_f.
    delta: float = 0.0
    #: Quantized: quantization levels per side.
    levels: int = 4

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.kind not in NOISE_KINDS:
            raise SpecError(
                f"noise.kind {self.kind!r} is unknown; choose from {NOISE_KINDS}"
            )
        if self.sigma < 0:
            raise SpecError(f"noise.sigma must be >= 0, got {self.sigma}")
        if self.delta < 0:
            raise SpecError(f"noise.delta must be >= 0, got {self.delta}")
        if self.levels < 1:
            raise SpecError(f"noise.levels must be >= 1, got {self.levels}")


@dataclass(frozen=True)
class ChurnWave:
    """One timed burst of session arrivals/departures."""

    time_s: float
    arrive: int = 0
    depart: int = 0

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if not self.time_s > 0:
            raise SpecError(
                f"churn wave time must be > 0, got {self.time_s}; "
                "sessions active at t=0 are set by churn.initial"
            )
        if self.arrive < 0 or self.depart < 0:
            raise SpecError("churn wave arrive/depart must be >= 0")


@dataclass(frozen=True)
class TraceSpec:
    """Trace-driven churn: a recorded event file or a session process.

    ``kind: file`` replays a CSV/JSONL trace of timestamped
    ``arrive``/``depart``/``resize`` events (see DESIGN.md "Trace
    ingestion" for the row format); the generator kinds (``poisson``,
    ``mmpp``, ``diurnal``) synthesize a seeded stochastic session
    process over the workload's session pool.  ``seed: -1`` (the
    default) derives the trace from ``simulation.seed``, so sweep
    replicates draw distinct traces; pinning ``seed >= 0`` holds the
    trace fixed while other knobs vary.
    """

    kind: str = "none"
    #: ``file`` only: path of the trace file (relative to the cwd).
    path: str = ""
    #: Generators: mean arrival rate (sessions per second).
    rate_per_s: float = 0.05
    #: Generators: mean session holding time.
    mean_holding_s: float = 60.0
    holding: str = "exponential"
    #: Lognormal holding only: shape parameter sigma.
    holding_sigma: float = 0.5
    #: MMPP only: burst-state arrival rate (>= rate_per_s).
    burst_rate_per_s: float = 0.0
    #: MMPP only: mean dwell in the burst / calm state.
    mean_burst_s: float = 20.0
    mean_calm_s: float = 60.0
    #: Diurnal only: modulation period and relative amplitude.
    diurnal_period_s: float = 240.0
    diurnal_amplitude: float = 0.5
    #: Trace seed; -1 follows ``simulation.seed``.
    seed: int = -1

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.kind not in TRACE_KINDS:
            raise SpecError(
                f"churn.trace.kind {self.kind!r} is unknown; "
                f"choose from {TRACE_KINDS}"
            )
        if self.holding not in TRACE_HOLDING_KINDS:
            raise SpecError(
                f"churn.trace.holding {self.holding!r} is unknown; "
                f"choose from {TRACE_HOLDING_KINDS}"
            )
        if self.kind == "file" and not self.path:
            raise SpecError("churn.trace.path is required for kind 'file'")
        if self.kind != "file" and self.path:
            raise SpecError(
                "churn.trace.path applies to kind 'file' only, "
                f"not {self.kind!r}"
            )
        if self.seed < -1:
            raise SpecError(
                f"churn.trace.seed must be >= -1 (-1 follows "
                f"simulation.seed), got {self.seed}"
            )
        if self.kind in PROCESS_KINDS:
            # Delegate the generator-parameter constraints to the trace
            # layer itself (one validator, no drift): a probe process
            # with placeholder population knobs — those are resolved at
            # compile time from churn.initial and the workload pool.
            try:
                self._process(initial=1, max_sessions=2, seed=max(self.seed, 0))
            except SpecError as error:
                raise SpecError(f"churn.trace: {error}") from None

    def _process(
        self, initial: int, max_sessions: int, seed: int
    ) -> SessionProcess:
        """The :class:`~repro.runtime.traces.SessionProcess` these knobs
        describe, bound to a concrete population (pool + t=0 set)."""
        return SessionProcess(
            kind=self.kind,
            rate_per_s=self.rate_per_s,
            mean_holding_s=self.mean_holding_s,
            holding=self.holding,
            holding_sigma=self.holding_sigma,
            burst_rate_per_s=self.burst_rate_per_s,
            mean_burst_s=self.mean_burst_s,
            mean_calm_s=self.mean_calm_s,
            diurnal_period_s=self.diurnal_period_s,
            diurnal_amplitude=self.diurnal_amplitude,
            initial=initial,
            max_sessions=max_sessions,
            seed=seed,
        )


@dataclass(frozen=True)
class ChurnSpec:
    """Session dynamics: which sessions start at t=0 and the churn plan.

    ``initial = 0`` means every session is active from the start (the
    static Figs. 4/6/7 shape).  With waves, arrivals draw from the
    reserve pool ``[initial, num_sessions)`` and departures retire the
    longest-running session; a :class:`TraceSpec` instead drives churn
    from a recorded trace file or a generated session process.  Either
    way the compiler validates the plan against the workload's actual
    session count before any solve starts.
    """

    initial: int = 0
    waves: tuple[ChurnWave, ...] = ()
    trace: TraceSpec = field(default_factory=TraceSpec)

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.initial < 0:
            raise SpecError(f"churn.initial must be >= 0, got {self.initial}")
        if self.waves and self.initial == 0:
            raise SpecError(
                "churn.initial must be set (>= 1) when churn waves are "
                "declared, so arrivals have a reserve pool"
            )
        if self.trace.kind != "none":
            if self.waves:
                raise SpecError(
                    "churn.waves and churn.trace are mutually exclusive: "
                    "a run's dynamics come from one source"
                )
            if self.trace.kind == "file":
                if self.initial != 0:
                    raise SpecError(
                        "churn.initial applies to generated traces only; "
                        "a trace file defines its initial sessions via "
                        "arrivals at t=0"
                    )
            elif self.initial < 1:
                raise SpecError(
                    "churn.initial must be >= 1 for generated traces "
                    "(the sessions active at t=0)"
                )


@dataclass(frozen=True)
class FaultWindow:
    """One explicit fault window: a kind, a site, ``[start_s, end_s)``.

    ``severity`` is the capacity fraction lost (``capacity``) or the
    relative delay inflation (``latency``); outages ignore it.  The
    site index is validated against the compiled conference's agent
    count at compile time (the spec alone does not know it).
    """

    kind: str
    site: int
    start_s: float
    end_s: float
    severity: float = 0.5

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        # Delegate the window rules to the fault layer itself (one
        # validator, no drift), as TraceSpec does with SessionProcess.
        try:
            Fault(
                kind=self.kind,
                site=self.site,
                start_s=self.start_s,
                end_s=self.end_s,
                severity=self.severity,
            )
        except SimulationError as error:
            raise SpecError(f"faults.windows: {error}") from None


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded random fault generation (sweepable chaos axes).

    ``rate_per_s: 0`` (the default) disables the generator.  ``seed:
    -1`` derives the fault stream from ``simulation.seed`` (replicates
    draw distinct chaos); pinning ``seed >= 0`` holds the fault
    schedule fixed while other knobs sweep.  The draws come from a
    dedicated rng stream, so chaos never perturbs wake or trace draws.
    """

    rate_per_s: float = 0.0
    mean_duration_s: float = 20.0
    severity: float = 0.5
    kinds: tuple[str, ...] = FAULT_KINDS
    seed: int = -1

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.rate_per_s < 0:
            raise SpecError(
                f"faults.chaos.rate_per_s must be >= 0, got {self.rate_per_s}"
            )
        if self.mean_duration_s <= 0:
            raise SpecError(
                f"faults.chaos.mean_duration_s must be positive, "
                f"got {self.mean_duration_s}"
            )
        if self.severity <= 0.0:
            raise SpecError(
                f"faults.chaos.severity must be > 0, got {self.severity}"
            )
        if not self.kinds:
            raise SpecError("faults.chaos.kinds needs at least one kind")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise SpecError(
                    f"faults.chaos.kinds {kind!r} is unknown; "
                    f"choose from {FAULT_KINDS}"
                )
        # Severity > 1 only makes sense for latency inflation; a
        # capacity fault cannot lose more than everything.
        if self.severity > 1.0 and "capacity" in self.kinds:
            raise SpecError(
                f"faults.chaos.severity {self.severity} exceeds 1, which "
                'only latency faults support; drop "capacity" from '
                "faults.chaos.kinds or lower the severity"
            )
        if len(set(self.kinds)) != len(self.kinds):
            raise SpecError(
                f"faults.chaos.kinds repeats a kind: {list(self.kinds)}"
            )
        if self.seed < -1:
            raise SpecError(
                f"faults.chaos.seed must be >= -1 (-1 follows "
                f"simulation.seed), got {self.seed}"
            )


@dataclass(frozen=True)
class FaultsSpec:
    """Infrastructure faults: explicit windows or a chaos generator.

    The two sources are mutually exclusive; a spec with neither (the
    default) injects nothing and compiles byte-identically to a spec
    with no ``faults:`` section at all — the default section is
    excluded from :func:`spec_hash`, so adding an empty section never
    moves a run id or a cached result.
    """

    #: Recovery policy for sessions stranded on an outaged site.
    policy: str = "migrate"
    windows: tuple[FaultWindow, ...] = ()
    chaos: ChaosSpec = field(default_factory=ChaosSpec)

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.policy not in FAULT_POLICIES:
            raise SpecError(
                f"faults.policy {self.policy!r} is unknown; "
                f"choose from {FAULT_POLICIES}"
            )
        if self.windows and self.chaos.rate_per_s > 0:
            raise SpecError(
                "faults.windows and faults.chaos are mutually exclusive: "
                "a run's faults come from one source"
            )

    @property
    def enabled(self) -> bool:
        """Whether this section injects any faults at all."""
        return bool(self.windows) or self.chaos.rate_per_s > 0


@dataclass(frozen=True)
class SimulationSpec:
    """Wall-clock controls of the discrete-event runtime."""

    duration_s: float = 200.0
    sample_interval_s: float = 1.0
    hop_interval_mean_s: float = 10.0
    freeze_duration_s: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.duration_s <= 0:
            raise SpecError(
                f"simulation.duration_s must be positive, got {self.duration_s}"
            )
        if self.sample_interval_s <= 0:
            raise SpecError(
                f"simulation.sample_interval_s must be positive, "
                f"got {self.sample_interval_s}"
            )
        if self.hop_interval_mean_s <= 0:
            raise SpecError(
                f"simulation.hop_interval_mean_s must be positive, "
                f"got {self.hop_interval_mean_s}"
            )
        if self.freeze_duration_s < 0:
            raise SpecError(
                f"simulation.freeze_duration_s must be >= 0, "
                f"got {self.freeze_duration_s}"
            )


@dataclass(frozen=True)
class HalvingSpec:
    """Successive-halving early abort of dominated grid points.

    With ``rungs: [r1, r2, ...]`` the scheduler runs each grid point's
    first ``r1`` seed replicates, ranks the points by the mean of
    ``metric`` over the completed replicates (lower is better), keeps
    the best ``ceil(n / eta)``, and abandons the rest — their remaining
    replicates are recorded as first-class ``status: "pruned"`` records
    instead of being executed.  Surviving points run every replicate,
    so their aggregates are identical to an unbudgeted sweep.

    A plan must be able to prune: a spec that declares a sweep (axes or
    ``sweep.replicates > 1``) with rungs set is rejected unless the
    last rung stays below ``sweep.replicates`` and the first rung's
    ``ceil(n / eta)`` drops at least one of the ``n`` grid points that
    the non-``execution`` axes span.
    """

    #: Cumulative replicate counts at which to rank and halve; empty
    #: disables halving.  Must be strictly increasing and strictly
    #: smaller than ``sweep.replicates``.
    rungs: tuple[int, ...] = ()
    #: Survivor fraction per rung: keep the best ``ceil(n / eta)``.
    eta: float = 2.0
    #: Ranking metric (lower is better).
    metric: str = "phi"

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        for rung in self.rungs:
            if _as_int(rung, "execution.halving.rungs") < 1:
                raise SpecError(
                    f"execution.halving.rungs must be >= 1, got {rung}"
                )
        if list(self.rungs) != sorted(set(self.rungs)):
            raise SpecError(
                "execution.halving.rungs must be strictly increasing, "
                f"got {list(self.rungs)}"
            )
        if self.eta <= 1.0:
            raise SpecError(
                f"execution.halving.eta must be > 1, got {self.eta}"
            )
        if self.metric not in HALVING_METRICS:
            raise SpecError(
                f"execution.halving.metric {self.metric!r} is unknown; "
                f"choose from {HALVING_METRICS}"
            )


@dataclass(frozen=True)
class ExecutionSpec:
    """How the run matrix executes: backend, pool size, budgets.

    Unlike every other section, execution knobs describe *scheduling*,
    not the computation — two specs differing only in their execution
    section denote the same runs and share content-hash run ids (and
    therefore resume-cache entries).  See DESIGN.md "Execution backends
    & budgets".
    """

    #: Dispatch mechanism: "serial" (in-process), "pool" (persistent
    #: framed-protocol workers spawned once per fleet over ``hosts``) or
    #: "local", the rule that runs "serial" for ``workers <= 1`` without
    #: a ``unit_timeout_s`` budget and "pool" otherwise.
    backend: str = "local"
    #: Concurrent workers (<= 1 runs serially on "local"; on "pool"
    #: this is the worker count *per host*).
    workers: int = 1
    #: Per-unit wall-time budget in seconds; 0 disables the budget.
    #: Over-budget units are recorded as ``status: "timeout"``.
    unit_timeout_s: float = 0.0
    #: Re-dispatches after a worker crash before the unit is recorded
    #: as failed.
    max_retries: int = 1
    #: Fleet-level wall-clock allowance in seconds; 0 disables it.
    #: Once spent, the scheduler stops dispatching and persists the
    #: remaining units as first-class ``status: "unscheduled"`` records
    #: (a later unbudgeted rerun completes them via the resume cache).
    total_budget_s: float = 0.0
    #: Host inventory of the "pool" backend; empty runs one local host.
    hosts: tuple[str, ...] = ()
    #: Worker command template for "pool" workers; ``{host}``
    #: is substituted per host (e.g. ``ssh {host} python -m
    #: repro.fleet.backends.worker --loop``).  Empty runs the bundled
    #: loop worker under the current interpreter.
    worker_cmd: str = ""
    #: "pool" only: consecutive crashes on one host before it is
    #: quarantined (drained; its in-flight units retried elsewhere).
    #: The last usable host is never quarantined.
    quarantine_after: int = 3
    #: Collect span/counter telemetry (``telemetry.jsonl`` + the
    #: ``timings``/``counters`` envelope block).  Off by default: the
    #: disabled path is a zero-allocation no-op and results are
    #: bit-identical either way (see ``repro.telemetry``).
    telemetry: bool = False
    halving: HalvingSpec = field(default_factory=HalvingSpec)

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.backend not in BACKEND_KINDS:
            raise SpecError(
                f"execution.backend {self.backend!r} is unknown; "
                f"choose from {BACKEND_KINDS}"
            )
        if self.workers < 0:
            raise SpecError(
                f"execution.workers must be >= 0, got {self.workers}"
            )
        if self.unit_timeout_s < 0 or math.isinf(self.unit_timeout_s):
            raise SpecError(
                f"execution.unit_timeout_s must be finite and >= 0, "
                f"got {self.unit_timeout_s}"
            )
        if self.max_retries < 0:
            raise SpecError(
                f"execution.max_retries must be >= 0, got {self.max_retries}"
            )
        if self.total_budget_s < 0 or math.isinf(self.total_budget_s):
            raise SpecError(
                f"execution.total_budget_s must be finite and >= 0, "
                f"got {self.total_budget_s}"
            )
        if self.quarantine_after < 1:
            raise SpecError(
                f"execution.quarantine_after must be >= 1, "
                f"got {self.quarantine_after}"
            )
        for host in self.hosts:
            if not isinstance(host, str) or not host.strip():
                raise SpecError(
                    f"execution.hosts entries must be non-empty strings, "
                    f"got {host!r}"
                )
        if self.hosts and self.backend != "pool":
            raise SpecError(
                f"execution.hosts is an inventory of the 'pool' backend; "
                f"execution.backend is {self.backend!r}"
            )


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: a dotted spec path and its candidate values."""

    path: str
    values: tuple[object, ...] = ()

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if not self.path:
            raise SpecError("sweep axis path must be non-empty")
        if not self.values:
            raise SpecError(f"sweep axis {self.path!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise SpecError(
                f"sweep axis {self.path!r} repeats a value: {list(self.values)}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep + seed replication expanding one spec into a matrix."""

    #: Seed replicates per grid point (seeds ``simulation.seed + i``).
    replicates: int = 1
    axes: tuple[AxisSpec, ...] = ()

    def __post_init__(self) -> None:
        _coerce_declared_scalars(self)
        if self.replicates < 1:
            raise SpecError(
                f"sweep.replicates must be >= 1, got {self.replicates}"
            )
        paths = [axis.path for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise SpecError(f"sweep axes repeat a path: {paths}")


# --------------------------------------------------------------------- #
# The top-level spec                                                    #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunSpec:
    """A complete, validated description of one fleet run (or sweep)."""

    name: str
    description: str = ""
    #: Optional paper-artifact id this spec generalizes (e.g. "fig4"),
    #: validated against the experiment registry's programmatic listing.
    artifact: str = ""
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    faults: FaultsSpec = field(default_factory=FaultsSpec)
    simulation: SimulationSpec = field(default_factory=SimulationSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError("spec name must be a non-empty string")
        rungs = self.execution.halving.rungs
        # Resolved (sweep-free) units inherit the matrix-level plan with
        # the sweep block dropped, so the rules bind only specs that
        # still declare the sweep being halved.
        if rungs and (self.sweep.axes or self.sweep.replicates > 1):
            if rungs[-1] >= self.sweep.replicates:
                raise SpecError(
                    f"execution.halving.rungs must stay below "
                    f"sweep.replicates ({self.sweep.replicates}) so pruning "
                    f"can save work, got {list(rungs)}"
                )
            # Grid points are keyed by non-execution axis values only
            # (``RunUnit.point``): an execution axis splits the fleet
            # into backend groups, each ranking the same points.
            points = math.prod(
                len(axis.values)
                for axis in self.sweep.axes
                if not axis.path.startswith("execution.")
            )
            eta = self.execution.halving.eta
            if math.ceil(points / eta) >= points:
                raise SpecError(
                    f"execution.halving cannot prune: keeping "
                    f"ceil({points} / eta {eta}) of {points} grid "
                    f"point(s) keeps them all (execution.* axes do not "
                    f"make grid points)"
                )
        if self.workload.kind == "prototype":
            if not math.isinf(self.workload.mean_bandwidth_mbps) or not math.isinf(
                self.workload.mean_transcode_slots
            ):
                raise SpecError(
                    "prototype workloads model 'large enough' agents; "
                    "use workload.kind: scenario for capacity envelopes"
                )
            default_pool = TopologySpec.__dataclass_fields__[
                "num_user_sites"
            ].default
            if self.topology.num_user_sites != default_pool:
                raise SpecError(
                    "topology.num_user_sites applies to scenario workloads "
                    "only; prototype runs place users at fixed metros "
                    "(topology.user_sites)"
                )
        else:
            if self.topology.user_sites:
                raise SpecError(
                    "topology.user_sites applies to prototype workloads "
                    "only; scenario runs sample num_user_sites sites"
                )
        if self.artifact:
            from repro.experiments.registry import experiment_ids

            if self.artifact not in experiment_ids():
                raise SpecError(
                    f"artifact {self.artifact!r} is not a registered "
                    f"experiment; known: {list(experiment_ids())}"
                )
        for axis in self.sweep.axes:
            self._validate_axis_path(axis.path)

    def _validate_axis_path(self, path: str) -> None:
        segments = path.split(".")
        if len(segments) < 2 or segments[0] not in SWEEPABLE_SECTIONS:
            raise SpecError(
                f"sweep axis {path!r} must start with one of "
                f"{SWEEPABLE_SECTIONS}"
            )
        if path == "simulation.seed":
            raise SpecError(
                "sweep axis 'simulation.seed' is reserved; use "
                "sweep.replicates for seed replication"
            )
        node: object = self.to_dict()
        for i, segment in enumerate(segments):
            if not isinstance(node, dict) or segment not in node:
                prefix = ".".join(segments[: i + 1])
                raise SpecError(
                    f"sweep axis {path!r} does not resolve: no field "
                    f"{prefix!r} in the spec"
                )
            node = node[segment]
        if isinstance(node, (dict, list)):
            raise SpecError(
                f"sweep axis {path!r} must target a scalar field, "
                f"not a section"
            )

    # ------------------------------------------------------------------ #
    # Serialization                                                      #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Plain-builtin representation (YAML/JSON safe, ``inf``-free)."""
        return _plain(self)  # type: ignore[return-value]

    @classmethod
    def from_dict(cls, data: object, path: str = "spec") -> "RunSpec":
        """Parse and validate; unknown keys and bad values raise
        :class:`~repro.errors.SpecError` with the offending path."""
        return _spec_from_mapping(cls, data, path)

    def to_yaml(self) -> str:
        """Serialize as YAML (section order preserved)."""
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    @classmethod
    def from_yaml(cls, text: str) -> "RunSpec":
        """Parse and validate a YAML spec document."""
        try:
            data = load_yaml(text)
        except yaml.YAMLError as error:
            raise SpecError(f"spec is not valid YAML: {error}") from error
        return cls.from_dict(data)

    def to_json(self, indent: int | None = None) -> str:
        """Serialize as JSON (``inf`` encoded as the string ``"inf"``)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse and validate a JSON spec document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"spec is not valid JSON: {error}") from error
        return cls.from_dict(data)

    # ------------------------------------------------------------------ #
    # Derivation                                                         #
    # ------------------------------------------------------------------ #

    def with_overrides(self, overrides: dict[str, object]) -> "RunSpec":
        """A new spec with dotted-path scalar overrides applied (the sweep
        block is dropped — an overridden spec is one concrete run; the
        ``execution`` section is kept so resolved units carry their
        scheduling config, halving plan included)."""
        data = self.to_dict()
        data["sweep"] = {"replicates": 1, "axes": []}
        for path, value in overrides.items():
            apply_override(data, path, value)
        return RunSpec.from_dict(data)


def apply_override(data: dict, path: str, value: object) -> None:
    """Set a dotted-path scalar in a spec dict (shared by the CLI)."""
    segments = path.split(".")
    node = data
    for i, segment in enumerate(segments[:-1]):
        child = node.get(segment) if isinstance(node, dict) else None
        if not isinstance(child, dict):
            prefix = ".".join(segments[: i + 1])
            raise SpecError(f"override path {path!r}: {prefix!r} is not a section")
        node = child
    leaf = segments[-1]
    if leaf not in node:
        raise SpecError(f"override path {path!r}: no such field {leaf!r}")
    if isinstance(node[leaf], (dict, list)):
        raise SpecError(f"override path {path!r} must target a scalar field")
    node[leaf] = value


# --------------------------------------------------------------------- #
# File IO and identity                                                  #
# --------------------------------------------------------------------- #


def load_yaml(text: str) -> object:
    """Parse one YAML document with PyYAML's safe loader.

    Uses libyaml's ``yaml.CSafeLoader`` when PyYAML was built with it
    (PyPI wheels are), else the pure-Python ``yaml.SafeLoader``.  Both
    share the safe resolver and constructor, so the parsed values — and
    every content hash taken over them — are the same either way; only
    the parse is several times faster.  Raises ``yaml.YAMLError`` on a
    malformed document.
    """
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml.load(text, Loader=loader)


def load_spec(path: str | Path) -> RunSpec:
    """Load a spec from a ``.yaml``/``.yml``/``.json`` file."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file {path} does not exist")
    if not path.is_file():
        raise SpecError(f"spec path {path} is not a file")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        return RunSpec.from_json(text)
    return RunSpec.from_yaml(text)


def dump_spec(spec: RunSpec, path: str | Path) -> None:
    """Write a spec to YAML or JSON, chosen by the file suffix."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(spec.to_json(indent=2) + "\n", encoding="utf-8")
    else:
        path.write_text(spec.to_yaml(), encoding="utf-8")


def spec_hash(spec: RunSpec) -> str:
    """Content-hash run id: stable across processes and sessions, so an
    unchanged resolved spec always maps to the same cached result.

    The ``execution`` section is excluded: it configures *how* units are
    dispatched (backend, pool size, budgets), never what they compute,
    so re-running a spec on a different backend reuses the cache instead
    of re-solving identical units.  A *default* (fault-free) ``faults``
    section is dropped before hashing, so declaring the empty section is
    identical to omitting it — pre-fault run ids and cached results stay
    valid; any non-default faults content (windows, chaos knobs, policy)
    folds into the hash and therefore into every unit's run id.
    """
    data = spec.to_dict()
    data.pop("execution", None)
    if data.get("faults") == _plain(FaultsSpec()):
        data.pop("faults", None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
