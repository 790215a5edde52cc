"""Alg. 2 — AgRank: proximity- and resource-aware agent ranking.

AgRank bootstraps Alg. 1 with a close-to-optimal initial assignment:

1. **Candidate construction** — each user contributes its ``n_ngbr``
   nearest agents; the union is the session's potential agent set N(s).
2. **Ranking** — a PageRank-style random walk over N(s).  The initial rank
   of an agent is its normalized residual quadruple (upload, download,
   transcoding slots, transcoding speed), making the ranking
   resource-aware; the walk matrix is the normalized inverse inter-agent
   delay matrix ``Dhat`` (low mutual delay attracts rank), making it
   proximity-aware.  We iterate the damped personalized form
   ``pi <- (1 - d) * pi0 + d * pi @ M`` (M = row-normalized ``Dhat``),
   which keeps the resource prior in the fixed point and inherits
   PageRank's fast geometric convergence; ``d -> 1`` recovers the paper's
   undamped iteration.
3. **Assignment** — each user picks the highest-ranked agent among its own
   candidates N(u), falling back to their next-ranked candidate when the
   choice cannot fit the residual capacities (this is what gives AgRank#3
   its higher success rate than AgRank#2 in Fig. 9 — a larger feasible
   set per user).
4. **Transcoding placement** — the paper's rule of thumb: when at least two
   destinations demand the same representation, transcode at the source
   agent (one task serves all); a single down-scaled destination also
   transcodes at the source (ship the smaller stream), while a single
   up-scaled destination transcodes at its own agent.

``n_ngbr = 1`` reduces to the Nrst policy; ``n_ngbr = L`` subscribes whole
sessions to the single best-ranked agent (the Fig. 10 extremes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.core.arrays import arrays_for
from repro.core.assignment import Assignment
from repro.core.capacity import CapacityLedger
from repro.errors import InfeasibleError, SolverError
from repro.model.conference import Conference
from repro.model.representation import Representation


@dataclass(frozen=True)
class AgRankConfig:
    """Parameters of Alg. 2.

    Placement always searches the users' candidate combinations in rank
    order for the first that fits the residual capacities; there is no
    capacity-oblivious mode.

    Attributes
    ----------
    n_ngbr:
        Candidate agents per user, in ``[1, L]`` (the paper's key knob).
    damping:
        Weight of the delay-driven walk vs. the resource prior; the
        paper's undamped update is the ``damping -> 1`` limit.  The
        default 0.3 keeps 70 % of the weight on the residual-capacity
        prior, which is what makes larger candidate pools strictly help
        under tight capacities (the AgRank#3 >= AgRank#2 ordering of
        Fig. 9); delay-centrality still breaks ties between
        equally-loaded agents.
    epsilon:
        Convergence threshold of the power iteration (paper line 13).
    max_iterations:
        Safety cap; the iteration converges geometrically.
    max_leaf_checks:
        Bound on full-assignment feasibility checks during the fallback
        search (keeps the bootstrap O(1) per session).
    """

    n_ngbr: int = 2
    damping: float = 0.3
    epsilon: float = 1e-10
    max_iterations: int = 500
    max_leaf_checks: int = 512

    def __post_init__(self) -> None:
        if self.n_ngbr < 1:
            raise SolverError(f"n_ngbr must be >= 1, got {self.n_ngbr}")
        if not 0.0 < self.damping <= 1.0:
            raise SolverError(f"damping must be in (0, 1], got {self.damping}")
        if self.epsilon <= 0:
            raise SolverError("epsilon must be positive")


@dataclass(frozen=True)
class AgRankResult:
    """Ranking diagnostics: candidates, scores and iteration count."""

    candidates: tuple[int, ...]
    scores: dict[int, float]
    per_user_candidates: dict[int, tuple[int, ...]]
    iterations: int

    def ordered(self, agents: tuple[int, ...] | None = None) -> list[int]:
        """Agents sorted by decreasing rank (ties: lower id first)."""
        pool = self.candidates if agents is None else agents
        return sorted(pool, key=lambda a: (-self.scores[a], a))


def _reference_latency_ms(conference: Conference, agent: int) -> float:
    """A representative ``sigma_l`` value used for the resource prior."""
    ladder = list(conference.representations)
    high = ladder[-1]
    low: Representation = ladder[0] if len(ladder) > 1 else ladder[-1]
    return conference.agent(agent).transcoding_latency_ms(high, low)


def _residual_quadruple_scores(
    conference: Conference,
    candidates: list[int],
    ledger: CapacityLedger | None,
) -> np.ndarray:
    """Per-candidate normalized residual quadruples (paper line 8)."""
    if ledger is not None:
        res_down, res_up, res_slots = ledger.residuals()
    else:
        res_down = np.array([a.download_mbps for a in conference.agents])
        res_up = np.array([a.upload_mbps for a in conference.agents])
        res_slots = np.array([a.transcode_slots for a in conference.agents])

    def normalize(values: np.ndarray) -> np.ndarray:
        vals = np.array([max(values[c], 0.0) for c in candidates], dtype=float)
        finite = vals[np.isfinite(vals)]
        top = float(finite.max()) if finite.size else 1.0
        if top <= 0:
            top = 1.0
        return np.where(np.isfinite(vals), vals / top, 1.0)

    latencies = np.array(
        [_reference_latency_ms(conference, c) for c in candidates], dtype=float
    )
    speed_score = latencies.min() / latencies  # faster transcoder -> closer to 1

    quad = normalize(res_up) + normalize(res_down) + normalize(res_slots) + speed_score
    total = quad.sum()
    if total <= 0:
        return np.full(len(candidates), 1.0 / len(candidates))
    return quad / total


def _walk_matrix(conference: Conference, candidates: list[int]) -> np.ndarray:
    """Row-stochastic normalized inverse-delay matrix ``Dhat``."""
    size = len(candidates)
    if size == 1:
        return np.ones((1, 1))
    delay = conference.topology.inter_agent_ms
    sub = np.array(
        [[delay[i, j] for j in candidates] for i in candidates], dtype=float
    )
    off = sub[~np.eye(size, dtype=bool)]
    positive = off[off > 0]
    min_delay = float(positive.min()) if positive.size else 1.0
    with np.errstate(divide="ignore"):
        dhat = np.where(sub > 0, min_delay / sub, 0.0)
    np.fill_diagonal(dhat, 0.0)
    row_sums = dhat.sum(axis=1, keepdims=True)
    uniform = np.full((size, size), 1.0 / max(size - 1, 1))
    np.fill_diagonal(uniform, 0.0)
    return np.where(row_sums > 0, dhat / np.where(row_sums > 0, row_sums, 1.0), uniform)


def rank_agents(
    conference: Conference,
    sid: int,
    ledger: CapacityLedger | None = None,
    config: AgRankConfig | None = None,
) -> AgRankResult:
    """Construct N(s) and compute the AgRank scores (Alg. 2 lines 1-14)."""
    config = config if config is not None else AgRankConfig()
    n_ngbr = min(config.n_ngbr, conference.num_agents)
    session = conference.session(sid)

    per_user: dict[int, tuple[int, ...]] = {}
    pool: list[int] = []
    seen: set[int] = set()
    for uid in session.user_ids:
        nearest = tuple(
            int(a) for a in conference.topology.nearest_agents(uid)[:n_ngbr]
        )
        per_user[uid] = nearest
        for agent in nearest:
            if agent not in seen:
                seen.add(agent)
                pool.append(agent)
    pool.sort()

    pi0 = _residual_quadruple_scores(conference, pool, ledger)
    matrix = _walk_matrix(conference, pool)
    pi = pi0.copy()
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        updated = (1.0 - config.damping) * pi0 + config.damping * (pi @ matrix)
        total = updated.sum()
        if total > 0:
            updated = updated / total
        delta = float(np.linalg.norm(updated - pi))
        pi = updated
        if delta < config.epsilon:
            break
    scores = {agent: float(pi[i]) for i, agent in enumerate(pool)}
    return AgRankResult(
        candidates=tuple(pool),
        scores=scores,
        per_user_candidates=per_user,
        iterations=iterations,
    )


def _place_tasks(
    conference: Conference,
    sid: int,
    user_choice: dict[int, int],
    ranking: AgRankResult,
    slot_residual: np.ndarray,
) -> dict[int, int] | None:
    """The rule-of-thumb transcoding placement; None when slots run out.

    Returns pair-index -> agent.  ``slot_residual`` is consumed in place.
    """
    placements: dict[int, int] = {}
    groups: dict[tuple[int, Representation], list[int]] = {}
    for i in conference.session_pair_indices(sid):
        source, destination = conference.transcode_pairs[i]
        rep = conference.demanded_representation(source, destination)
        groups.setdefault((source, rep), []).append(i)

    ranked_pool = ranking.ordered()
    for (source, rep), pair_indices in sorted(
        groups.items(), key=lambda item: (item[0][0], item[0][1].name)
    ):
        source_agent = user_choice[source]
        upstream = conference.user(source).upstream
        preferences: list[int] = []
        if len(pair_indices) >= 2 or rep.bitrate_mbps < upstream.bitrate_mbps:
            preferences.append(source_agent)
        for i in pair_indices:
            dest_agent = user_choice[conference.transcode_pairs[i][1]]
            if dest_agent not in preferences:
                preferences.append(dest_agent)
        if source_agent not in preferences:
            preferences.append(source_agent)
        for agent in ranked_pool:
            if agent not in preferences:
                preferences.append(agent)

        chosen = next((a for a in preferences if slot_residual[a] >= 1), None)
        if chosen is None:
            return None
        slot_residual[chosen] -= 1
        for i in pair_indices:
            placements[i] = chosen
    return placements


def agrank_assignment(
    conference: Conference,
    sid: int,
    ledger: CapacityLedger | None = None,
    config: AgRankConfig | None = None,
    base: Assignment | None = None,
) -> Assignment:
    """Bootstrap session ``sid`` with Alg. 2 against ``ledger``'s
    residual capacities (unbounded without a ledger).

    Raises :class:`InfeasibleError` when no candidate combination fits the
    residual capacities — the "failed scenario" outcome of Fig. 9.
    """
    config = config if config is not None else AgRankConfig()
    ranking = rank_agents(conference, sid, ledger, config)
    session = conference.session(sid)
    base = base if base is not None else Assignment.empty(conference)

    # Per-user candidate lists in rank order (ties broken towards lower
    # user-to-agent delay, then id).
    ordered_candidates: dict[int, list[int]] = {}
    for uid in session.user_ids:
        pool = ranking.per_user_candidates[uid]
        ordered_candidates[uid] = sorted(
            pool,
            key=lambda a: (
                -ranking.scores[a],
                conference.topology.agent_to_user(a, uid),
                a,
            ),
        )

    if ledger is not None:
        res_down, res_up, res_slots = ledger.residuals(excluding_sid=sid)
    else:
        num_agents = conference.num_agents
        res_down = np.full(num_agents, math.inf)
        res_up = np.full(num_agents, math.inf)
        res_slots = np.full(num_agents, math.inf)

    users = list(session.user_ids)
    option_lists = [ordered_candidates[uid] for uid in users]
    arrays = arrays_for(conference)

    checks = 0
    for combo in itertools.product(*option_lists):
        checks += 1
        if checks > config.max_leaf_checks:
            break
        user_choice = dict(zip(users, combo))
        slot_budget = res_slots.copy()
        placements = _place_tasks(conference, sid, user_choice, ranking, slot_budget)
        if placements is None:
            continue
        candidate = base
        user_agent = candidate.user_agent.copy()
        task_agent = candidate.task_agent.copy()
        for uid, agent in user_choice.items():
            user_agent[uid] = agent
        for i, agent in placements.items():
            task_agent[i] = agent
        candidate = Assignment(user_agent, task_agent)
        # The combo loop is NN-GBR's hot path: one kernel evaluation
        # per combo.
        usage = arrays.assignment_usage(candidate, sid)
        fits = bool(
            np.all(usage.download <= res_down + 1e-9)
            and np.all(usage.upload <= res_up + 1e-9)
            and np.all(usage.transcodes <= res_slots + 1e-9)
        )
        if fits:
            return candidate

    raise InfeasibleError(
        f"AgRank found no feasible bootstrap for session {sid} "
        f"(n_ngbr={config.n_ngbr}, {checks} combinations tried)"
    )
