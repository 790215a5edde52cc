"""Tests for repro.netsim.latency — the synthetic delay substrate."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.netsim.latency import FIBER_KM_PER_MS, LatencyModel
from repro.netsim.sites import CLOUD_REGIONS, region, sample_user_sites

REGIONS = [region(n) for n in ("Virginia", "Oregon", "Tokyo", "Singapore")]


@pytest.fixture(scope="module")
def model():
    return LatencyModel(seed=3)


@pytest.fixture(scope="module")
def matrices(model):
    sites = sample_user_sites(12, np.random.default_rng(0))
    return model.inter_agent_matrix(REGIONS), model.agent_user_matrix(REGIONS, sites)


class TestInterAgentMatrix:
    def test_symmetric_zero_diagonal(self, matrices):
        d, _ = matrices
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_magnitudes_realistic(self, matrices):
        """One-way delays between major regions live in 10-300 ms."""
        d, _ = matrices
        off = d[~np.eye(d.shape[0], dtype=bool)]
        assert off.min() > 5.0
        assert off.max() < 300.0

    def test_regional_clustering(self, model):
        """Virginia-Oregon (same continent) is faster than Virginia-
        Singapore (trans-pacific)."""
        d = model.inter_agent_matrix(REGIONS)
        virginia, oregon, tokyo, singapore = range(4)
        assert d[virginia, oregon] < d[virginia, singapore]
        assert d[tokyo, singapore] < d[oregon, singapore]

    def test_exceeds_speed_of_light_floor(self, model):
        """Synthetic delay can never beat propagation physics."""
        from repro.netsim.geo import great_circle_km

        d = model.inter_agent_matrix(REGIONS)
        for i in range(len(REGIONS)):
            for j in range(i + 1, len(REGIONS)):
                floor = great_circle_km(REGIONS[i].point, REGIONS[j].point) / FIBER_KM_PER_MS
                assert d[i, j] >= floor

    def test_deterministic_under_seed(self):
        a = LatencyModel(seed=9).inter_agent_matrix(REGIONS)
        b = LatencyModel(seed=9).inter_agent_matrix(REGIONS)
        assert np.array_equal(a, b)

    def test_seed_changes_matrix(self):
        a = LatencyModel(seed=1).inter_agent_matrix(REGIONS)
        b = LatencyModel(seed=2).inter_agent_matrix(REGIONS)
        assert not np.array_equal(a, b)


class TestAgentUserMatrix:
    def test_shape_and_positivity(self, matrices):
        _, h = matrices
        assert h.shape == (4, 12)
        assert (h > 0).all()

    def test_user_lastmile_larger_than_agent(self, model):
        """User tails dominate agent tails: the nearest agent is still a
        couple ms away even for a co-located user."""
        sites = sample_user_sites(3, np.random.default_rng(0))
        h = model.agent_user_matrix(REGIONS, sites)
        assert h.min() >= 2.0  # at least the lower user last-mile bound

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_equals_the_per_pair_formula(self, seed):
        """``H[l, u]`` is the documented path model, pair by pair: the
        agent tail (stream 10) and user tail (stream 11) are seeded by
        endpoint index alone, so drawing each once gives the same bits."""
        model = LatencyModel(seed=seed)
        sites = sample_user_sites(20, np.random.default_rng(seed))
        expected = np.zeros((len(REGIONS), len(sites)))
        for l, reg in enumerate(REGIONS):
            agent_tail = float(np.random.default_rng((seed, 10, l)).uniform(0.3, 1.5))
            for u, site in enumerate(sites):
                user_tail = float(np.random.default_rng((seed, 11, u)).uniform(2.0, 12.0))
                sample = model.sample_path(
                    reg.point, site.point, tag=2, i=l, j=len(REGIONS) + u,
                    lastmile_ms=agent_tail + user_tail,
                )
                expected[l, u] = max(0.5, sample.one_way_ms)
        assert np.array_equal(model.agent_user_matrix(REGIONS, sites), expected)


class TestValidation:
    def test_inflation_below_one_rejected(self):
        with pytest.raises(ModelError):
            LatencyModel(mean_inflation=0.9)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ModelError):
            LatencyModel(inflation_sigma=-0.1)

    def test_all_catalog_regions_work(self, model):
        regions = list(CLOUD_REGIONS)
        d = model.inter_agent_matrix(regions)
        assert d.shape == (len(regions), len(regions))
