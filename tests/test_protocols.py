import math

import numpy as np
import pytest
from scipy import stats as sstats

from ramseydesign.model import ratio_arrays
from ramseydesign.particles import PriorSpec, init_prior
from ramseydesign.protocols import (
    SettingGrid,
    TauConfig,
    random_design,
    select_setting,
    tau_design,
    utility_map,
)

GRID = SettingGrid()
FIXED = {"a": 0.8, "c": 0.13, "t2": math.inf}


def cloud_with_omegas(omegas, weights=None):
    spec = PriorSpec(bounds={"omega0": (1.0, 60.0)}, fixed=FIXED, n_particles=100)
    cloud = init_prior(spec, 0)
    cloud.values = np.array([[0.8, 0.13, w, math.inf] for w in omegas])
    n = len(omegas)
    cloud.weights = (
        np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    )
    return cloud


class TestGrid:
    def test_default_has_399_settings(self):
        assert len(GRID) == 399
        taus = GRID.taus
        assert taus[0] == pytest.approx(0.1)
        assert taus[-1] == pytest.approx(20.0)
        assert np.allclose(np.diff(taus), 0.05)

    def test_step_must_divide_range(self):
        # 0.1, 0.16, 0.22 would overshoot tau_max
        with pytest.raises(ValueError, match="must divide"):
            SettingGrid(0.1, 0.2, 0.06)
        with pytest.raises(ValueError):
            SettingGrid(0.1, math.inf, 0.05)
        # steps that divide the range up to float rounding pass
        assert len(SettingGrid(0.05, 5000.0, 0.05)) == 100_000
        assert len(SettingGrid(0.1, 0.3, 0.1)) == 3
        assert SettingGrid(0.1, 0.3, 0.1).nearest(0.3) == pytest.approx(0.3)

    def test_nearest_rounds_down_on_ties(self):
        assert GRID.nearest(1.675) == pytest.approx(1.65)
        assert GRID.nearest(1.6667) == pytest.approx(1.65)
        assert GRID.nearest(-3.0) == pytest.approx(0.1)
        assert GRID.nearest(50.0) == pytest.approx(20.0)


class TestBayesDesign:
    def test_zero_spread_gives_flat_utility_and_uniform_choice(self):
        cloud = cloud_with_omegas([9.4] * 4)
        u = utility_map(cloud, GRID, 0.15, overhead_us=4.07)
        np.testing.assert_allclose(u, 0.0, atol=1e-15)
        rng = np.random.default_rng(0)
        picks = {
            select_setting(utility_map(cloud, GRID, 0.15, 4.07), GRID, rng)
            for _ in range(300)
        }
        assert len(picks) > 100  # spread over the grid, not pinned

    def test_matches_bruteforce_scan(self):
        # independent exhaustive scan of the utility definition
        cloud = cloud_with_omegas([9.0, 9.8])
        lam, oh = 0.15, 4.07
        best_u, best_tau = -1.0, None
        for tau in GRID.taus:
            ys = [
                ratio_arrays(0.8, 0.13, w, math.inf, tau) * lam for w in (9.0, 9.8)
            ]
            mean = 0.5 * (ys[0] + ys[1])
            var = 0.5 * ((ys[0] - mean) ** 2 + (ys[1] - mean) ** 2)
            u = math.log1p(var / mean) / (tau + oh)
            if u > best_u:
                best_u, best_tau = u, tau
        umap = utility_map(cloud, GRID, lam, oh)
        tau_sel = select_setting(umap, GRID, np.random.default_rng(1))
        assert tau_sel == pytest.approx(best_tau)
        assert umap[np.argmax(umap)] == pytest.approx(best_u, rel=1e-12)

    def test_weight_scaling_invariance(self):
        cloud = cloud_with_omegas([8.7, 9.2, 9.9, 10.4], [0.1, 0.2, 0.3, 0.4])
        u1 = utility_map(cloud, GRID, 0.15, overhead_us=4.07)
        cloud.weights = cloud.weights * 13.0 / np.sum(cloud.weights * 13.0)
        u2 = utility_map(cloud, GRID, 0.15, overhead_us=4.07)
        np.testing.assert_allclose(u1, u2, rtol=1e-12)
        s1 = select_setting(u1, GRID, np.random.default_rng(5))
        s2 = select_setting(u2, GRID, np.random.default_rng(5))
        assert s1 == s2

    def test_cost_divisor_prefers_shorter_setting(self):
        # omegas chosen so the predicted y-sets at the two settings are
        # permutations of each other: cos(3*5pi/8) = cos(5*3pi/8) and
        # cos(5*5pi/8) = cos(3*3pi/8) mod 2pi
        grid = SettingGrid(tau_min=3.0, tau_max=5.0, step=2.0)
        cloud = cloud_with_omegas([5.0 * math.pi / 8.0, 3.0 * math.pi / 8.0])
        u_cost = utility_map(cloud, grid, 0.15, overhead_us=4.07)
        # undo the divisor: the information gain alone ties
        u_flat = u_cost * (grid.taus + 4.07)
        assert abs(u_flat[0] - u_flat[1]) < 1e-12
        rng = np.random.default_rng(7)
        picks = {select_setting(u_flat, grid, rng) for _ in range(200)}
        assert picks == {3.0, 5.0}  # tie: either selected
        for seed in range(20):
            assert (
                select_setting(u_cost, grid, np.random.default_rng(seed)) == 3.0
            )

    def test_rejects_nonpositive_rate(self):
        cloud = cloud_with_omegas([9.0, 9.8])
        with pytest.raises(ValueError):
            utility_map(cloud, GRID, 0.0, overhead_us=4.07)


class TestTauDesign:
    CFG = TauConfig(h=0.5, top_fraction=0.1)

    def test_exact_grid_point(self):
        rng = np.random.default_rng(0)
        assert tau_design(0.1, self.CFG, GRID, rng) == pytest.approx(5.0)

    def test_nearest_snap(self):
        rng = np.random.default_rng(0)
        assert tau_design(0.3, self.CFG, GRID, rng) == pytest.approx(1.65)

    def test_fallback_uniform_over_top_decile(self):
        rng = np.random.default_rng(1)
        picks = np.array(
            [tau_design(0.02, self.CFG, GRID, rng) for _ in range(4000)]
        )
        assert picks.min() >= 18.05 - 1e-9
        assert picks.max() <= 20.0 + 1e-9
        assert len(np.unique(np.round(picks, 3))) == 40

    def test_zero_sigma_uses_fallback(self):
        rng = np.random.default_rng(2)
        assert tau_design(0.0, self.CFG, GRID, rng) >= 18.05 - 1e-9

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(3)
        sigmas = np.linspace(0.026, 5.0, 200)
        taus = [tau_design(s, self.CFG, GRID, rng) for s in sigmas]
        assert all(a >= b - 1e-9 for a, b in zip(taus, taus[1:]))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            tau_design(-0.1, self.CFG, GRID, np.random.default_rng(0))


class TestRandomDesign:
    def test_on_grid(self):
        rng = np.random.default_rng(4)
        taus = set(np.round(GRID.taus, 6))
        for _ in range(500):
            assert round(random_design(GRID, rng), 6) in taus

    def test_uniform_chi_square(self):
        rng = np.random.default_rng(5)
        picks = np.array([random_design(GRID, rng) for _ in range(39900)])
        idx = np.round((picks - 0.1) / 0.05).astype(int)
        counts = np.bincount(idx, minlength=399)
        assert sstats.chisquare(counts).pvalue > 0.001

    def test_seeded_stream_reproducible(self):
        a = [random_design(GRID, np.random.default_rng(6)) for _ in range(5)]
        b = [random_design(GRID, np.random.default_rng(6)) for _ in range(5)]
        assert a == b
