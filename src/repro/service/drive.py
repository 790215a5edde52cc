"""Trace files and generators as service load clients.

The PR 4 trace layer already describes realistic churn (Poisson / MMPP
/ diurnal processes, recorded CSV/JSONL files); :func:`drive_trace`
replays any of them against a service client: the trace's t=0 arrivals
are the conference the service was bootstrapped with, every later event
becomes one ``arrive`` / ``depart`` / ``resize`` request stamped with
the trace timestamp.  This is what ``repro serve --drive`` runs — the
same traces that feed the batch simulator double as load generators,
which is also how the service-vs-simulator equivalence pin drives both
sides from one file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.runtime.dynamics import TraceEvent, validate_trace


@dataclass
class DriveReport:
    """Outcome of one trace replay against a service."""

    events: int = 0
    ok: int = 0
    errors: int = 0
    by_error_code: dict = field(default_factory=dict)
    budget_overruns: int = 0
    max_latency_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "ok": self.ok,
            "errors": self.errors,
            "by_error_code": dict(sorted(self.by_error_code.items())),
            "budget_overruns": self.budget_overruns,
            "max_latency_ms": self.max_latency_ms,
        }


def initial_sids_of(events: Sequence[TraceEvent]) -> list[int]:
    """The t=0 active set a service must be bootstrapped with before
    the remaining events are driven (validates the trace)."""
    return list(validate_trace(events))


def drive_trace(client, events: Sequence[TraceEvent]) -> DriveReport:
    """Replay a trace's post-bootstrap events as service requests.

    ``client`` is any object with the :mod:`repro.service.client`
    surface.  Events at t=0 with kind ``arrive`` are skipped — they are
    the initial set (:func:`initial_sids_of`), already live.  The reply
    of every request is tallied; domain rejections (e.g. a request
    landing in a fault window) count as errors but never stop the
    drive, matching the service's own never-die contract.
    """
    report = DriveReport()
    for event in events:
        if event.time_s == 0.0 and event.kind == "arrive":
            continue
        report.events += 1
        response = client.request(
            {"op": event.kind, "sid": event.sid, "time_s": event.time_s}
        )
        if response["status"] == "ok":
            report.ok += 1
        else:
            report.errors += 1
            code = response["error"]["code"]
            report.by_error_code[code] = (
                report.by_error_code.get(code, 0) + 1
            )
        if response.get("budget_overrun"):
            report.budget_overruns += 1
        report.max_latency_ms = max(
            report.max_latency_ms, response.get("latency_ms", 0.0)
        )
    return report
