"""Synthetic one-way delay matrices (substitute for PlanetLab/EC2 traces).

The model, per path ``a -> b``:

``delay_ms = distance_km / (2/3 c) * inflation(a, b) + lastmile(a) + lastmile(b)``

* Propagation runs at two-thirds of the speed of light (silica fiber).
* ``inflation`` is a deterministic, pair-specific factor >= 1 drawn
  log-normally around 1.6 — real Internet routes detour around oceans and
  exchange points; trans-continental paths inflate less (they follow
  near-great-circle submarine cables) than short regional paths.
* ``lastmile`` adds a per-endpoint access penalty: small for cloud regions
  (well-peered data centers), larger and more variable for user sites.

The resulting matrices reproduce the properties the algorithms care about:
regional clustering, 10–300 ms magnitudes, symmetric D with zero diagonal,
and user sites that are close to one agent yet far from the session's other
members (the situation that makes nearest-assignment suboptimal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.telemetry as tele
from repro.errors import ModelError
from repro.netsim.geo import GeoPoint, great_circle_km
from repro.netsim.sites import CloudRegion, UserSite

#: Propagation speed in fiber, km per ms (2/3 of c).
FIBER_KM_PER_MS = 199.86


@dataclass(frozen=True)
class LatencySample:
    """One synthesized path delay and its components (for inspection)."""

    distance_km: float
    propagation_ms: float
    inflation: float
    lastmile_ms: float

    @property
    def one_way_ms(self) -> float:
        return self.propagation_ms * self.inflation + self.lastmile_ms


class LatencyModel:
    """Deterministic synthetic latency generator.

    Parameters
    ----------
    seed:
        Seed for the internal generator; the same seed always produces the
        same matrices for the same site lists.
    mean_inflation:
        Median of the log-normal route-inflation factor.
    inflation_sigma:
        Log-space standard deviation of the inflation factor.
    user_lastmile_ms:
        ``(low, high)`` uniform range of the per-user access penalty.
    agent_lastmile_ms:
        ``(low, high)`` uniform range of the per-region access penalty.
    min_floor_ms:
        Lower bound applied to every off-diagonal delay (even co-located
        endpoints traverse a metro network).
    """

    def __init__(
        self,
        seed: int = 0,
        mean_inflation: float = 1.6,
        inflation_sigma: float = 0.18,
        user_lastmile_ms: tuple[float, float] = (2.0, 12.0),
        agent_lastmile_ms: tuple[float, float] = (0.3, 1.5),
        min_floor_ms: float = 0.5,
    ):
        if mean_inflation < 1.0:
            raise ModelError(f"route inflation must be >= 1, got {mean_inflation}")
        if inflation_sigma < 0:
            raise ModelError("inflation_sigma must be >= 0")
        self._seed = seed
        self._mean_inflation = mean_inflation
        self._inflation_sigma = inflation_sigma
        self._user_lastmile = user_lastmile_ms
        self._agent_lastmile = agent_lastmile_ms
        self._min_floor = min_floor_ms

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _pair_rng(self, tag: int, i: int, j: int) -> np.random.Generator:
        """A generator keyed on the unordered pair, so D is symmetric."""
        lo, hi = (i, j) if i <= j else (j, i)
        return np.random.default_rng((self._seed, tag, lo, hi))

    def _inflation(self, tag: int, i: int, j: int, distance_km: float) -> float:
        rng = self._pair_rng(tag, i, j)
        draw = float(rng.lognormal(mean=np.log(self._mean_inflation), sigma=self._inflation_sigma))
        # Long submarine paths hew closer to great circles; short hops detour more.
        if distance_km > 6000.0:
            draw = 1.0 + (draw - 1.0) * 0.75
        elif distance_km < 500.0:
            draw = 1.0 + (draw - 1.0) * 1.5
        return max(1.0, draw)

    def _lastmile(self, tag: int, index: int, bounds: tuple[float, float]) -> float:
        rng = np.random.default_rng((self._seed, tag, index))
        return float(rng.uniform(*bounds))

    def sample_path(
        self,
        a: GeoPoint,
        b: GeoPoint,
        tag: int,
        i: int,
        j: int,
        lastmile_ms: float,
    ) -> LatencySample:
        """Synthesize one path; exposed for tests and inspection."""
        distance = great_circle_km(a, b)
        propagation = distance / FIBER_KM_PER_MS
        inflation = self._inflation(tag, i, j, distance)
        return LatencySample(
            distance_km=distance,
            propagation_ms=propagation,
            inflation=inflation,
            lastmile_ms=lastmile_ms,
        )

    # ------------------------------------------------------------------ #
    # Matrix synthesis                                                   #
    # ------------------------------------------------------------------ #

    def inter_agent_matrix(self, regions: list[CloudRegion]) -> np.ndarray:
        """The L x L one-way delay matrix D (symmetric, zero diagonal)."""
        count = len(regions)
        matrix = np.zeros((count, count), dtype=float)
        for i in range(count):
            for j in range(i + 1, count):
                lastmile = self._lastmile(10, i, self._agent_lastmile) + self._lastmile(
                    10, j, self._agent_lastmile
                )
                sample = self.sample_path(
                    regions[i].point, regions[j].point, tag=1, i=i, j=j, lastmile_ms=lastmile
                )
                matrix[i, j] = matrix[j, i] = max(self._min_floor, sample.one_way_ms)
        return matrix

    def agent_user_matrix(
        self, regions: list[CloudRegion], sites: list[UserSite]
    ) -> np.ndarray:
        """The L x U one-way delay matrix H."""
        matrix = np.zeros((len(regions), len(sites)), dtype=float)
        user_tails = [
            self._lastmile(11, u, self._user_lastmile) for u in range(len(sites))
        ]
        for l, reg in enumerate(regions):
            agent_tail = self._lastmile(10, l, self._agent_lastmile)
            for u, site in enumerate(sites):
                sample = self.sample_path(
                    reg.point, site.point, tag=2, i=l, j=len(regions) + u,
                    lastmile_ms=agent_tail + user_tails[u],
                )
                matrix[l, u] = max(self._min_floor, sample.one_way_ms)
        return matrix

    def matrices(
        self, regions: list[CloudRegion], sites: list[UserSite]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Convenience: ``(D, H)`` for the given regions and user sites."""
        return self.inter_agent_matrix(regions), self.agent_user_matrix(regions, sites)

    def cache_key(
        self, regions: list[CloudRegion], sites: list[UserSite]
    ) -> tuple:
        """Identity of the substrate this model would synthesize.

        Two models with equal keys produce bit-identical ``(D, H)``
        matrices: synthesis is a pure function of the model parameters
        (seed included) and the ordered region / site lists.
        """
        return (
            self._seed,
            self._mean_inflation,
            self._inflation_sigma,
            tuple(self._user_lastmile),
            tuple(self._agent_lastmile),
            self._min_floor,
            tuple(regions),
            tuple(sites),
        )


# --------------------------------------------------------------------- #
# Shared-substrate cache (ROADMAP "Shared-substrate caching")            #
# --------------------------------------------------------------------- #
#
# Fleet sweeps re-compile a scenario per grid point; whenever only solver
# or simulation knobs vary, the latency substrate — the expensive part of
# compilation — is identical across points.  This process-local memo
# returns the same (read-only) matrices for the same (model, regions,
# sites) identity, so a sweep synthesizes each distinct substrate once.

_SUBSTRATE_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_SUBSTRATE_CACHE_LIMIT = 32
_SUBSTRATE_STATS = {"builds": 0, "hits": 0}


def substrate_matrices(
    model: LatencyModel, regions: list[CloudRegion], sites: list[UserSite]
) -> tuple[np.ndarray, np.ndarray]:
    """Memoized ``(D, H)`` synthesis.

    Cache hits return the *same* array objects, marked read-only so a
    consumer cannot corrupt another run's substrate (the model/topology
    layer copies on ingest anyway).  Keyed by the full model parameter
    set plus the ordered region and site identities, so distinct latency
    seeds or site draws never share.

    Eviction is LRU: a hit re-inserts its entry at the back of the
    (insertion-ordered) dict, so eviction removes the least-recently
    *used* substrate.  Without the promotion this degraded to FIFO, and
    a sweep cycling through just over :data:`_SUBSTRATE_CACHE_LIMIT`
    substrates would evict its hottest entry and rebuild every point.
    """
    key = model.cache_key(regions, sites)
    cached = _SUBSTRATE_CACHE.pop(key, None)
    if cached is not None:
        _SUBSTRATE_CACHE[key] = cached
        _SUBSTRATE_STATS["hits"] += 1
        tele.count("substrate.cache_hits")
        return cached
    inter_agent = model.inter_agent_matrix(regions)
    agent_user = model.agent_user_matrix(regions, sites)
    inter_agent.setflags(write=False)
    agent_user.setflags(write=False)
    _SUBSTRATE_STATS["builds"] += 1
    tele.count("substrate.cache_misses")
    _SUBSTRATE_CACHE[key] = (inter_agent, agent_user)
    if len(_SUBSTRATE_CACHE) > _SUBSTRATE_CACHE_LIMIT:
        # Evict the oldest entry (dicts preserve insertion order).
        del _SUBSTRATE_CACHE[next(iter(_SUBSTRATE_CACHE))]
    return inter_agent, agent_user


def substrate_cache_stats() -> dict[str, int]:
    """``{"builds": ..., "hits": ..., "entries": ...}`` counters of the
    process-local substrate cache (for tests and fleet reporting)."""
    return {**_SUBSTRATE_STATS, "entries": len(_SUBSTRATE_CACHE)}


def clear_substrate_cache() -> None:
    """Drop all cached substrates and reset the counters."""
    _SUBSTRATE_CACHE.clear()
    _SUBSTRATE_STATS["builds"] = 0
    _SUBSTRATE_STATS["hits"] = 0
