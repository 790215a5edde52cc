"""The Conference aggregate: validated model + derived quantities.

A :class:`Conference` binds users, sessions, agents and the delay topology
together, validates global invariants (dense ids, one session per user,
matrix shapes) and precomputes everything the optimization core consumes on
its hot path:

* the global ordered tuple of transcoding pairs ``(u, v)`` — the
  relation ``theta_uv = 1`` of Sec. II, i.e. ``u`` and ``v`` share a
  session and ``v`` demands a representation of ``u``'s stream that
  differs from ``u``'s upstream.  These are the tasks whose placement is
  the second decision dimension (``theta_sum`` of them);
* per-session views (user ids, pair indices) and dense bitrate arrays.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ModelError, UnknownEntityError
from repro.model.agent import Agent
from repro.model.representation import Representation, RepresentationSet
from repro.model.topology import Topology
from repro.model.user import Session, User
from repro.types import DEFAULT_DMAX_MS


class Conference:
    """Immutable description of one conferencing deployment.

    Parameters
    ----------
    users:
        All users, with dense ids ``0..U-1`` (any order).
    sessions:
        All sessions, with dense ids ``0..S-1``; they must partition the
        user set.
    agents:
        All agents, with dense ids ``0..L-1``.
    topology:
        Delay matrices sized ``L x L`` and ``L x U``.
    representations:
        The representation universe R; every upstream/downstream
        representation used by a user must be a member.
    dmax_ms:
        The end-to-end delay cap of constraint (8).
    """

    def __init__(
        self,
        users: Sequence[User],
        sessions: Sequence[Session],
        agents: Sequence[Agent],
        topology: Topology,
        representations: RepresentationSet,
        dmax_ms: float = DEFAULT_DMAX_MS,
    ):
        self._users = tuple(sorted(users, key=lambda u: u.uid))
        self._sessions = tuple(sorted(sessions, key=lambda s: s.sid))
        self._agents = tuple(sorted(agents, key=lambda a: a.aid))
        self._topology = topology
        self._representations = representations
        if dmax_ms <= 0:
            raise ModelError(f"dmax_ms must be positive, got {dmax_ms}")
        self._dmax_ms = float(dmax_ms)
        self._validate()
        self._derive()

    # ------------------------------------------------------------------ #
    # Validation and derivation                                          #
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        if not self._agents:
            raise ModelError("a conference needs at least one agent")
        if [u.uid for u in self._users] != list(range(len(self._users))):
            raise ModelError("user ids must be dense 0..U-1")
        if [s.sid for s in self._sessions] != list(range(len(self._sessions))):
            raise ModelError("session ids must be dense 0..S-1")
        if [a.aid for a in self._agents] != list(range(len(self._agents))):
            raise ModelError("agent ids must be dense 0..L-1")

        seen: dict[int, int] = {}
        for session in self._sessions:
            for uid in session.user_ids:
                if uid >= len(self._users):
                    raise UnknownEntityError(
                        f"session {session.sid} references unknown user {uid}"
                    )
                if uid in seen:
                    raise ModelError(
                        f"user {uid} is in sessions {seen[uid]} and {session.sid}; "
                        "each user participates in exactly one session"
                    )
                seen[uid] = session.sid
        if len(seen) != len(self._users):
            orphans = sorted(set(range(len(self._users))) - set(seen))
            raise ModelError(f"users without a session: {orphans}")

        if self._topology.num_agents != len(self._agents):
            raise ModelError(
                f"topology has {self._topology.num_agents} agents, "
                f"model has {len(self._agents)}"
            )
        if self._topology.num_users != len(self._users):
            raise ModelError(
                f"topology has {self._topology.num_users} users, "
                f"model has {len(self._users)}"
            )

        for user in self._users:
            if user.upstream not in self._representations:
                raise ModelError(
                    f"user {user.uid} upstream {user.upstream} not in the "
                    "representation set"
                )
            if user.downstream_default not in self._representations:
                raise ModelError(
                    f"user {user.uid} downstream default "
                    f"{user.downstream_default} not in the representation set"
                )
            for source, rep in user.downstream_overrides.items():
                if rep not in self._representations:
                    raise ModelError(
                        f"user {user.uid} downstream override for {source} "
                        f"({rep}) not in the representation set"
                    )

    def _derive(self) -> None:
        num_users = len(self._users)
        self._session_of = np.empty(num_users, dtype=np.int64)
        for session in self._sessions:
            for uid in session.user_ids:
                self._session_of[uid] = session.sid
        self._session_of.setflags(write=False)

        self._kappa_up = np.array(
            [u.upstream.bitrate_mbps for u in self._users], dtype=float
        )
        self._kappa_up.setflags(write=False)

        pairs: list[tuple[int, int]] = []
        for session in self._sessions:
            for u in session.user_ids:
                source = self._users[u]
                for v in session.user_ids:
                    if v == u:
                        continue
                    demanded = self._users[v].downstream_from(u)
                    if demanded != source.upstream:
                        pairs.append((u, v))
        self._pairs: tuple[tuple[int, int], ...] = tuple(pairs)
        self._pair_index: dict[tuple[int, int], int] = {
            pair: i for i, pair in enumerate(self._pairs)
        }
        self._session_pairs: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                i
                for i, (u, _v) in enumerate(self._pairs)
                if self._session_of[u] == session.sid
            )
            for session in self._sessions
        )

    # ------------------------------------------------------------------ #
    # Entity access                                                      #
    # ------------------------------------------------------------------ #

    @property
    def users(self) -> tuple[User, ...]:
        return self._users

    @property
    def sessions(self) -> tuple[Session, ...]:
        return self._sessions

    @property
    def agents(self) -> tuple[Agent, ...]:
        return self._agents

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def representations(self) -> RepresentationSet:
        return self._representations

    @property
    def dmax_ms(self) -> float:
        return self._dmax_ms

    @property
    def num_users(self) -> int:
        return len(self._users)

    @property
    def num_sessions(self) -> int:
        return len(self._sessions)

    @property
    def num_agents(self) -> int:
        return len(self._agents)

    def user(self, uid: int) -> User:
        try:
            return self._users[uid]
        except IndexError:
            raise UnknownEntityError(f"unknown user {uid}") from None

    def session(self, sid: int) -> Session:
        try:
            return self._sessions[sid]
        except IndexError:
            raise UnknownEntityError(f"unknown session {sid}") from None

    def agent(self, aid: int) -> Agent:
        try:
            return self._agents[aid]
        except IndexError:
            raise UnknownEntityError(f"unknown agent {aid}") from None

    def session_of(self, uid: int) -> int:
        """``s(u)`` — the session id of user ``uid``."""
        if not 0 <= uid < len(self._users):
            raise UnknownEntityError(f"unknown user {uid}")
        return int(self._session_of[uid])

    def participants(self, uid: int) -> tuple[int, ...]:
        """``P(u)`` — ids of the other users in ``uid``'s session."""
        return self._sessions[self.session_of(uid)].others(uid)

    # ------------------------------------------------------------------ #
    # Transcoding structure                                              #
    # ------------------------------------------------------------------ #

    @property
    def transcode_pairs(self) -> tuple[tuple[int, int], ...]:
        """All ``(source, destination)`` pairs with ``theta = 1``, in a
        fixed global order; the task-assignment vector is aligned to it."""
        return self._pairs

    @property
    def theta_sum(self) -> int:
        """Total number of transcoding tasks (``theta_sum`` in Thm. 1)."""
        return len(self._pairs)

    def pair_index(self, source: int, destination: int) -> int:
        """Position of the ``(source, destination)`` task in the global order."""
        try:
            return self._pair_index[(source, destination)]
        except KeyError:
            raise UnknownEntityError(
                f"no transcoding task for flow {source} -> {destination}"
            ) from None

    def session_pair_indices(self, sid: int) -> tuple[int, ...]:
        """Indices of the transcoding pairs belonging to session ``sid``."""
        if not 0 <= sid < len(self._sessions):
            raise UnknownEntityError(f"unknown session {sid}")
        return self._session_pairs[sid]

    def demanded_representation(self, source: int, destination: int) -> Representation:
        """``r^d_{v,u}`` — what ``destination`` demands of ``source``'s stream."""
        return self._users[destination].downstream_from(source)

    def upstream_kappa(self) -> np.ndarray:
        """Per-user upstream bitrates ``kappa(r^u_u)`` (read-only array)."""
        return self._kappa_up

    # ------------------------------------------------------------------ #
    # Convenience                                                        #
    # ------------------------------------------------------------------ #

    def state_space_log_size(self) -> float:
        """``(U + theta_sum) * log(L)`` — the log of the assignment-space
        size, which calibrates beta (Sec. V-A) and the Eq. (12) bound."""
        return (self.num_users + self.theta_sum) * float(np.log(self.num_agents))

    def describe(self) -> str:
        """A short multi-line summary for logs and examples."""
        lines = [
            f"Conference: {self.num_users} users, {self.num_sessions} sessions, "
            f"{self.num_agents} agents, {self.theta_sum} transcoding tasks",
            f"  dmax = {self._dmax_ms:g} ms; representations: "
            f"{', '.join(self._representations.names)}",
        ]
        for session in self._sessions:
            members = ", ".join(self._users[u].name for u in session.user_ids)
            lines.append(f"  {session.name}: [{members}]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Conference(users={self.num_users}, sessions={self.num_sessions}, "
            f"agents={self.num_agents}, tasks={self.theta_sum})"
        )


def merge_conference_users(users: Iterable[User]) -> tuple[User, ...]:
    """Sort and de-duplicate users by id, raising on conflicting duplicates."""
    by_id: dict[int, User] = {}
    for user in users:
        existing = by_id.get(user.uid)
        if existing is not None and existing != user:
            raise ModelError(f"conflicting definitions for user {user.uid}")
        by_id[user.uid] = user
    return tuple(by_id[uid] for uid in sorted(by_id))
