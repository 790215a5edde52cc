"""Multi-session capacity ledger.

Sessions are optimized independently (each runs its own HOP), but the
capacity constraints (5)-(7) couple them: they cap the *summed* usage of
all sessions at each agent.  The ledger keeps per-session usage vectors and
running totals so a session can test a candidate assignment against the
residual capacity left by everyone else in O(L) — the "fetch the updated
list of residual capacities" step of Alg. 1.  Its callers feed it the
usage that the flow-model kernel of :mod:`repro.core.arrays` computes,
for one assignment or as a committed candidate's row (the two are
bit-identical); the ledger keeps those arrays, so they are never views
of the kernel's scratch buffers.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastpath import SessionUsage
from repro.core.feasibility import CAPACITY_TOLERANCE, agent_capacity_arrays
from repro.errors import ModelError
from repro.model.conference import Conference


class CapacityLedger:
    """Tracks per-agent usage of download / upload / transcoding resources
    across sessions, supporting cheap candidate tests and migrations."""

    def __init__(self, conference: Conference):
        self._conference = conference
        num_agents = conference.num_agents
        self._cap_down, self._cap_up, self._cap_slots = agent_capacity_arrays(conference)
        self._unconstrained = bool(
            np.all(np.isinf(self._cap_down))
            and np.all(np.isinf(self._cap_up))
            and np.all(np.isinf(self._cap_slots))
        )
        self._down = np.zeros(num_agents)
        self._up = np.zeros(num_agents)
        self._slots = np.zeros(num_agents)
        self._sessions: dict[int, SessionUsage] = {}

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #

    def set_session(self, usage: SessionUsage) -> None:
        """Insert or replace one session's usage."""
        self.remove_session(usage.sid)
        self._sessions[usage.sid] = usage
        self._down += usage.download
        self._up += usage.upload
        self._slots += usage.transcodes

    def remove_session(self, sid: int) -> None:
        """Drop one session's usage (no-op if absent)."""
        usage = self._sessions.pop(sid, None)
        if usage is not None:
            self._down -= usage.download
            self._up -= usage.upload
            self._slots -= usage.transcodes

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    @property
    def active_sessions(self) -> tuple[int, ...]:
        return tuple(sorted(self._sessions))

    def session_usage(self, sid: int) -> SessionUsage:
        try:
            return self._sessions[sid]
        except KeyError:
            raise ModelError(f"session {sid} is not tracked by the ledger") from None

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current ``(download, upload, transcodes)`` totals (copies)."""
        return self._down.copy(), self._up.copy(), self._slots.copy()

    def residuals(self, excluding_sid: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residual capacities, optionally with one session's usage returned
        to the pool (the view that session sees while hopping)."""
        down, up, slots = self._down, self._up, self._slots
        if excluding_sid is not None and excluding_sid in self._sessions:
            usage = self._sessions[excluding_sid]
            down = down - usage.download
            up = up - usage.upload
            slots = slots - usage.transcodes
        return (
            self._cap_down - down,
            self._cap_up - up,
            self._cap_slots - slots,
        )

    @property
    def unconstrained(self) -> bool:
        """True when every capacity is infinite (constraints (5)-(7) moot)."""
        return self._unconstrained

    def fits(self, candidate: SessionUsage) -> bool:
        """Would replacing ``candidate.sid``'s usage with ``candidate``
        respect every capacity constraint?"""
        if self._unconstrained:
            return True
        res_down, res_up, res_slots = self.residuals(excluding_sid=candidate.sid)
        return bool(
            np.all(candidate.download <= res_down + CAPACITY_TOLERANCE)
            and np.all(candidate.upload <= res_up + CAPACITY_TOLERANCE)
            and np.all(candidate.transcodes <= res_slots + CAPACITY_TOLERANCE)
        )

    def utilization(self) -> dict[str, np.ndarray]:
        """Fractional utilization per resource (inf capacity -> 0)."""
        def frac(used: np.ndarray, cap: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(np.isfinite(cap) & (cap > 0), used / cap, 0.0)
            return out

        return {
            "download": frac(self._down, self._cap_down),
            "upload": frac(self._up, self._cap_up),
            "transcodes": frac(self._slots, self._cap_slots),
        }
