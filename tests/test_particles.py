import math

import numpy as np
import pytest

from ramseydesign.likelihood import EpochData
from ramseydesign.model import ratio
from ramseydesign.particles import (
    ParticleCloud,
    PriorSpec,
    bayes_update,
    ci90,
    init_prior,
    resample_if_needed,
    summarize,
)

FIXED = {"a": 0.8, "c": 0.13, "t2": math.inf}


def omega_prior(n=1000, lo=1.0, hi=60.0, **kw):
    return PriorSpec(bounds={"omega0": (lo, hi)}, fixed=FIXED, n_particles=n, **kw)


def two_particle_cloud(omegas, weights, rng_seed=0):
    spec = omega_prior(n=100)
    cloud = init_prior(spec, rng_seed)
    cloud.values = np.array([[0.8, 0.13, w, math.inf] for w in omegas])
    cloud.weights = np.asarray(weights, dtype=float)
    return cloud


class TestInitPrior:
    def test_uniform_moments(self):
        cloud = init_prior(omega_prior(n=1000), seed=7)
        mean = float(cloud.weights @ cloud.column("omega0"))
        # uniform(1, 60): mean 30.5, std 17.03
        assert abs(mean - 30.5) < 3 * 17.031833 / math.sqrt(1000)

    def test_weights_uniform(self):
        cloud = init_prior(omega_prior(n=500), seed=1)
        np.testing.assert_array_equal(cloud.weights, np.full(500, 1 / 500))

    def test_deterministic(self):
        a = init_prior(omega_prior(), seed=123)
        b = init_prior(omega_prior(), seed=123)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            PriorSpec(bounds={"omega0": (5.0, 5.0)}, fixed=FIXED)
        with pytest.raises(ValueError):
            PriorSpec(bounds={"omega0": (1.0, 2.0)}, fixed=FIXED, n_particles=10)
        with pytest.raises(ValueError):
            PriorSpec(bounds={"nope": (0.0, 1.0)}, fixed=FIXED)
        with pytest.raises(ValueError):
            PriorSpec(bounds={"omega0": (1.0, 2.0)})  # a, c, t2 unpinned


class TestBayesUpdate:
    def test_flat_likelihood_keeps_weights(self):
        cloud = init_prior(omega_prior(n=300), seed=2)
        before = cloud.weights.copy()
        bayes_update(cloud, EpochData(0, 5, 0, 5), tau=1.0)
        np.testing.assert_allclose(cloud.weights, before, atol=1e-15)

    def test_two_particle_hand_value(self):
        # R values {0.5, 1.0}: L(R) = R (2/(R+1))^2 -> posterior 8/17, 9/17
        cloud = two_particle_cloud([1.0, 2.0], [0.5, 0.5])
        cloud.values[0] = [0.5, 0.0, 0.0, math.inf]  # R = 0.5
        cloud.values[1] = [1.0, 0.0, 0.0, math.inf]  # R = 1.0
        bayes_update(cloud, EpochData(1, 1, 1, 1), tau=0.0)
        np.testing.assert_allclose(cloud.weights, [8 / 17, 9 / 17], atol=1e-12)

    def test_weights_normalized(self):
        rng = np.random.default_rng(9)
        cloud = init_prior(omega_prior(n=400), seed=3)
        for _ in range(25):
            data = EpochData(
                int(rng.integers(0, 200)), 300, int(rng.integers(0, 900)), 6000
            )
            bayes_update(cloud, data, tau=float(rng.uniform(0.1, 20)))
            assert abs(cloud.weights.sum() - 1.0) < 1e-12

    def test_positions_unchanged(self):
        cloud = init_prior(omega_prior(n=200), seed=4)
        pos = cloud.values.copy()
        bayes_update(cloud, EpochData(40, 300, 900, 6000), tau=2.0)
        np.testing.assert_array_equal(cloud.values, pos)

    def test_doubling_commutes_with_two_updates(self):
        d = EpochData(11, 250, 800, 5000)
        d2 = EpochData(22, 500, 1600, 10000)
        once = init_prior(omega_prior(n=500), seed=5)
        twice = init_prior(omega_prior(n=500), seed=5)
        bayes_update(once, d2, tau=3.0)
        bayes_update(twice, d, tau=3.0)
        bayes_update(twice, d, tau=3.0)
        np.testing.assert_allclose(once.weights, twice.weights, atol=1e-9)


class TestResample:
    def test_uniform_weights_no_resample(self):
        cloud = init_prior(omega_prior(n=300), seed=6)
        pos = cloud.values.copy()
        resample_if_needed(cloud)
        np.testing.assert_array_equal(cloud.values, pos)

    def test_degenerate_weight_triggers(self):
        cloud = init_prior(omega_prior(n=300), seed=7)
        w = np.zeros(300)
        w[17] = 1.0
        cloud.weights = w
        assert cloud.ess() == pytest.approx(1.0)
        resample_if_needed(cloud)
        np.testing.assert_array_equal(cloud.weights, np.full(300, 1 / 300))

    def test_mean_preserved_statistically(self):
        spec = omega_prior(n=2000)
        base = init_prior(spec, seed=8)
        rng = np.random.default_rng(10)
        # skewed weights so that ESS is low and a resample fires
        x = base.column("omega0")
        w = np.exp(-0.5 * ((x - 20.0) / 5.0) ** 2)
        w /= w.sum()
        base.weights = w
        target = float(w @ x)
        means = []
        for trial in range(200):
            cloud = ParticleCloud(
                values=base.values.copy(),
                weights=base.weights.copy(),
                unknown=base.unknown,
                bounds=base.bounds,
                resample_threshold=base.resample_threshold,
                shrinkage=base.shrinkage,
                rng=np.random.default_rng(1000 + trial),
            )
            resample_if_needed(cloud)
            means.append(float(cloud.weights @ cloud.column("omega0")))
        means = np.asarray(means)
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - target) < 4 * se

    def test_variance_roughly_preserved(self):
        base = init_prior(omega_prior(n=5000), seed=12)
        x = base.column("omega0")
        w = np.exp(-0.5 * ((x - 30.0) / 4.0) ** 2)
        base.weights = w / w.sum()
        std_before = math.sqrt(
            float(base.weights @ (x - base.weights @ x) ** 2)
        )
        resample_if_needed(base)
        x2 = base.column("omega0")
        std_after = x2.std()
        assert std_after == pytest.approx(std_before, rel=0.1)

    def test_jitter_respects_bounds(self):
        cloud = init_prior(omega_prior(n=1000, lo=1.0, hi=10.0), seed=13)
        w = np.zeros(1000)
        w[:3] = 1 / 3
        cloud.weights = w
        resample_if_needed(cloud)
        om = cloud.column("omega0")
        assert om.min() >= 1.0 and om.max() <= 10.0


class TestSummarize:
    def test_two_point(self):
        cloud = two_particle_cloud([9.0, 10.0], [0.5, 0.5])
        s = summarize(cloud)
        assert s.mean["omega0"] == pytest.approx(9.5)
        assert s.std["omega0"] == pytest.approx(0.5)

    def test_single_value(self):
        cloud = two_particle_cloud([9.4, 9.4], [0.3, 0.7])
        s = summarize(cloud)
        assert s.std["omega0"] == 0.0
        lo, hi = ci90(cloud)["omega0"]
        assert lo == hi == pytest.approx(9.4)

    def test_uniform_interval(self):
        n = 10001
        spec = omega_prior(n=n, lo=0.0 + 1e-12, hi=1.0)
        cloud = init_prior(spec, seed=14)
        cloud.values[:, 2] = np.linspace(0.0, 1.0, n)
        lo, hi = ci90(cloud)["omega0"]
        spacing = 1.0 / (n - 1)
        assert lo == pytest.approx(0.05, abs=2 * spacing)
        assert hi == pytest.approx(0.95, abs=2 * spacing)
        assert lo <= np.median(cloud.values[:, 2]) <= hi
