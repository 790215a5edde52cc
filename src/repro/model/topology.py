"""Delay topology (paper Sec. II).

``D`` is the L x L inter-agent one-way delay matrix and ``H`` the L x U
agent-to-user one-way delay matrix, both in milliseconds.  The paper obtains
them from active measurements (RTT / 2); here they are supplied directly,
typically synthesized by :mod:`repro.netsim.latency`.

Agents are fully connected and do not forward traffic of other agents, so a
single matrix lookup gives every propagation-delay term of the end-to-end
delay formula.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class Topology:
    """Validated, immutable container for the D and H delay matrices.

    D is accepted with a diagonal that is only close to zero and may hold
    ``-0.0``; it is stored with an exact ``+0.0`` diagonal and every
    ``-0.0`` as ``+0.0``.  The flow-model kernel (:mod:`repro.core.
    arrays`) and the recorded delay (:mod:`repro.core.delay`) rely on
    that: both price a direct flow ``a -> b`` as a hop via its own
    source agent, which is exact only when ``d[a, a]`` is ``+0.0``.
    """

    def __init__(self, inter_agent_ms: np.ndarray, agent_user_ms: np.ndarray):
        d = np.asarray(inter_agent_ms, dtype=float)
        h = np.asarray(agent_user_ms, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ModelError(f"D must be square, got shape {d.shape}")
        if h.ndim != 2 or h.shape[0] != d.shape[0]:
            raise ModelError(
                f"H must have one row per agent ({d.shape[0]}), got shape {h.shape}"
            )
        if not np.all(np.isfinite(d)) or not np.all(np.isfinite(h)):
            raise ModelError("delay matrices must be finite")
        if (d < 0).any() or (h < 0).any():
            raise ModelError("delays must be non-negative")
        if not np.allclose(np.diag(d), 0.0):
            raise ModelError("inter-agent delay matrix must have a zero diagonal")
        # The kernel's precondition (see the class docstring): ``d + 0.0``
        # copies D with every -0.0 turned into +0.0 and every other value
        # unchanged.
        d = d + 0.0
        np.fill_diagonal(d, 0.0)
        self._d = d
        self._h = h.copy()
        self._d.setflags(write=False)
        self._h.setflags(write=False)

    @property
    def num_agents(self) -> int:
        return self._d.shape[0]

    @property
    def num_users(self) -> int:
        return self._h.shape[1]

    @property
    def inter_agent_ms(self) -> np.ndarray:
        """The full D matrix (read-only view)."""
        return self._d

    @property
    def agent_user_ms(self) -> np.ndarray:
        """The full H matrix (read-only view)."""
        return self._h

    def agent_to_agent(self, l: int, k: int) -> float:
        """``D_lk`` — one-way delay between agents ``l`` and ``k`` in ms."""
        return float(self._d[l, k])

    def agent_to_user(self, l: int, u: int) -> float:
        """``H_lu`` — one-way delay between agent ``l`` and user ``u`` in ms."""
        return float(self._h[l, u])

    def nearest_agents(self, u: int) -> np.ndarray:
        """Agent ids sorted by increasing delay to user ``u`` (ties by id)."""
        return np.argsort(self._h[:, u], kind="stable")

    def is_symmetric(self, tolerance: float = 1e-9) -> bool:
        """Whether D is symmetric (RTT-derived matrices are)."""
        return bool(np.allclose(self._d, self._d.T, atol=tolerance))

    def __repr__(self) -> str:
        return f"Topology(agents={self.num_agents}, users={self.num_users})"
