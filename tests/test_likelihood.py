import math

import numpy as np
import pytest

from ramseydesign.likelihood import (
    EpochData,
    OracleConvergenceError,
    log_likelihood,
    log_likelihood_counts,
    log_likelihood_general,
    marginal_likelihood_oracle,
)

CASE = EpochData(n_s=1, m_s=10, n_b=15, m_b=100)


def test_peak_at_count_rate_ratio():
    # argmax over R is (n_s/m_s)/(n_b/m_b) = (1/10)/(15/100)
    r_scan = np.linspace(0.05, 3.0, 12001)
    best = r_scan[np.argmax(log_likelihood(CASE, r_scan))]
    assert best == pytest.approx(2.0 / 3.0, abs=5e-4)


def test_zero_counts_flat():
    d = EpochData(n_s=0, m_s=7, n_b=0, m_b=30)
    r_scan = np.linspace(0.1, 5.0, 50)
    np.testing.assert_array_equal(log_likelihood(d, r_scan), 0.0)


def test_value_at_peak_matches_normalization():
    # 0.6667 * (110 / 106.667)^16, from direct arithmetic
    assert math.exp(log_likelihood(CASE, 2.0 / 3.0)) == pytest.approx(
        1.09076734, abs=1e-6
    )


def test_rejects_nonpositive_ratio():
    with pytest.raises(ValueError):
        log_likelihood(CASE, 0.0)
    with pytest.raises(ValueError):
        log_likelihood(CASE, -1.0)
    with pytest.raises(ValueError):
        log_likelihood(CASE, np.array([0.5, -0.5]))


def test_invalid_epoch_data():
    with pytest.raises(ValueError):
        EpochData(n_s=-1, m_s=1, n_b=0, m_b=1)
    with pytest.raises(ValueError):
        EpochData(n_s=0, m_s=0, n_b=0, m_b=1)
    with pytest.raises(ValueError):
        EpochData(n_s=0, m_s=1, n_b=0, m_b=0)


def test_doubling_consistency_identity():
    # 2*logL(data) - logL(doubled data) must be R-independent
    rng = np.random.default_rng(42)
    r_scan = np.linspace(0.1, 2.0, 41)
    for _ in range(100):
        m_s = int(rng.integers(1, 2000))
        m_b = int(rng.integers(1, 20000))
        n_s = int(rng.poisson(0.2 * m_s))
        n_b = int(rng.poisson(0.15 * m_b))
        d = EpochData(n_s, m_s, n_b, m_b)
        d2 = EpochData(2 * n_s, 2 * m_s, 2 * n_b, 2 * m_b)
        q = 2.0 * log_likelihood(d, r_scan) - log_likelihood(d2, r_scan)
        q0 = 2.0 * log_likelihood(d, 1.0) - log_likelihood(d2, 1.0)
        assert np.max(np.abs(q - q0)) < 1e-9


def test_unimodality():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = EpochData(
            n_s=int(rng.integers(1, 50)),
            m_s=int(rng.integers(1, 100)),
            n_b=int(rng.integers(1, 500)),
            m_b=int(rng.integers(1, 2000)),
        )
        star = (d.n_s / d.m_s) / (d.n_b / d.m_b)
        r_scan = np.geomspace(star / 50.0, star * 50.0, 4000)
        y = log_likelihood(d, r_scan)
        diffs = np.sign(np.diff(y))
        # strictly rising then falling: one sign change
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]) != 0)
        assert changes == 1
        peak = r_scan[np.argmax(y)]
        assert peak == pytest.approx(star, rel=0.01)


def test_poisson_limit_with_growing_background_window():
    # fixed background rate, window growing: the curve approaches the
    # known-background Poisson likelihood in R
    n_s, m_s, rate = 3, 10, 0.15
    r_scan = np.linspace(0.05, 3.0, 600)
    mu = m_s * rate * r_scan
    pois = n_s * np.log(mu) - mu
    pois -= pois.max()
    sup_prev = np.inf
    for mult in (1, 10, 100, 1000):
        m_b = mult * m_s
        curve = log_likelihood_counts(n_s, m_s, rate * m_b, m_b, r_scan)
        curve = curve - curve.max()
        sup = np.max(np.abs(np.exp(curve) - np.exp(pois)))
        assert sup < sup_prev + 1e-12
        sup_prev = sup
    assert sup_prev < 1e-3  # measured 5.6e-4 at m_b/m_s = 1000


def test_log_space_no_overflow_huge_counts():
    d = EpochData(n_s=4_000_000, m_s=30_000_000, n_b=6_000_000, m_b=40_000_000)
    for r in (0.01, 0.5, 1.0, 2.0, 100.0):
        assert math.isfinite(log_likelihood(d, r))


def test_general_form_matches_production_at_minus_one():
    r_scan = np.linspace(0.2, 2.0, 19)
    base = log_likelihood(CASE, r_scan) - log_likelihood_general(
        CASE.n_s, CASE.m_s, CASE.n_b, CASE.m_b, r_scan, -1.0
    )
    # differ only by an R-independent constant
    assert np.ptp(base) < 1e-12


class TestOracle:
    def test_matches_closed_form(self):
        rs = (0.2, 0.5, 0.667, 1.0, 1.5)
        vals = np.array(
            [
                marginal_likelihood_oracle(CASE, r) / math.exp(log_likelihood(CASE, r))
                for r in rs
            ]
        )
        assert vals.max() / vals.min() - 1.0 < 1e-6

    def test_doubling_holds_only_for_minus_one(self):
        d2 = EpochData(2 * CASE.n_s, 2 * CASE.m_s, 2 * CASE.n_b, 2 * CASE.m_b)
        rs = (0.2, 0.5, 1.0, 1.5)

        def spread(nu):
            vals = np.array(
                [
                    marginal_likelihood_oracle(CASE, r, nu) ** 2
                    / marginal_likelihood_oracle(d2, r, nu)
                    for r in rs
                ]
            )
            return vals.max() / vals.min() - 1.0

        assert spread(-1.0) < 1e-6
        assert spread(0.0) > 0.01

    def test_non_integrable_rejected(self):
        with pytest.raises(ValueError):
            marginal_likelihood_oracle(EpochData(0, 5, 0, 5), 1.0, -1.0)

    def test_nonconvergence_reported(self):
        with pytest.raises(OracleConvergenceError):
            marginal_likelihood_oracle(CASE, 1.0, rel_tol=1e-16, max_nodes=256)

    def test_random_tuples_match_closed_form(self):
        rng = np.random.default_rng(11)
        r_scan = np.linspace(0.1, 2.0, 8)
        for _ in range(10):
            m_s = int(rng.integers(1, 60))
            m_b = int(rng.integers(m_s, 40 * m_s))
            d = EpochData(
                n_s=int(rng.integers(1, 20)),
                m_s=m_s,
                n_b=int(rng.integers(1, max(2, int(0.3 * m_b)))),
                m_b=m_b,
            )
            log_ratio = np.array(
                [
                    math.log(marginal_likelihood_oracle(d, r)) - log_likelihood(d, r)
                    for r in r_scan
                ]
            )
            assert np.ptp(log_ratio) < 1e-6
