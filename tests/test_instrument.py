import math

import numpy as np
import pytest

from ramseydesign.instrument import (
    DriftSpec,
    TruthConfig,
    background_rate,
    sequence_duration_ns,
    simulate_epoch,
)
from ramseydesign.model import RamseyParams

TRUTH = TruthConfig(params=RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=math.inf))


def test_defaults_match_paper_values():
    t = TruthConfig()
    assert t.params.a == 0.8
    assert t.params.c == 0.13
    assert t.params.omega0 == 9.4
    assert t.params.t2 == 10.0
    assert t.lambda_b0 == 0.15
    assert t.overhead_us == 4.07
    assert t.drift.kind == "none"


def test_epoch_time_is_exact_integer_ns():
    out = simulate_epoch(TRUTH, 10.0, 284, 0.0, np.random.default_rng(0))
    assert out.t_epoch_ns == 284 * (10000 + 4070)
    assert out.t_epoch_ns / 1000.0 == pytest.approx(284 * 14.07)


def test_no_time_drift_over_many_epochs():
    # 1e6 epochs of 14.07 us: totals stay exact in integer ns
    per = sequence_duration_ns(10.0, 4.07)
    total = sum(per * 284 for _ in range(1000)) * 1000
    assert total == 1000 * 1000 * 284 * 14070


def test_poisson_mean_statistics():
    rng = np.random.default_rng(42)
    n = 10_000
    samples = np.array(
        [simulate_epoch(TRUTH, 0.0, 100, 0.0, rng).n_s for _ in range(n)]
    )
    mean = 13.56  # 100 * 0.904 * 0.15
    tol = 3.0 * math.sqrt(mean / n) * math.sqrt(mean)
    assert abs(samples.mean() - mean) < tol


def test_vanishing_background_gives_zero_counts():
    truth = TruthConfig(params=TRUTH.params, lambda_b0=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(50):
        out = simulate_epoch(truth, 5.0, 1, 0.0, rng)
        assert out.n_s == 0 and out.n_b == 0


def test_deterministic_given_seed():
    a = simulate_epoch(TRUTH, 7.5, 300, 12.0, np.random.default_rng(9))
    b = simulate_epoch(TRUTH, 7.5, 300, 12.0, np.random.default_rng(9))
    assert (a.n_s, a.n_b, a.t_epoch_ns) == (b.n_s, b.n_b, b.t_epoch_ns)


def test_signal_background_independence():
    # correlation of n_s and n_b across epochs is ~0 at fixed rate
    rng = np.random.default_rng(7)
    pairs = np.array(
        [
            (out.n_s, out.n_b)
            for out in (simulate_epoch(TRUTH, 0.0, 500, 0.0, rng) for _ in range(4000))
        ]
    )
    r = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(r) < 4.0 / math.sqrt(4000)


class TestBackgroundRate:
    def test_constant_without_drift(self):
        for t in (0.0, 1e3, 1e9):
            assert background_rate(TRUTH, t) == 0.15

    def test_zero_amplitude_sinusoid_matches_none(self):
        truth = TruthConfig(
            params=TRUTH.params,
            drift=DriftSpec(kind="sinusoidal", amplitude=0.0, period_s=10.0),
        )
        for t in (0.0, 123.0, 5e7):
            assert background_rate(truth, t) == background_rate(TRUTH, t)

    def test_sinusoid_bounds(self):
        truth = TruthConfig(
            params=TRUTH.params,
            drift=DriftSpec(kind="sinusoidal", amplitude=0.015, period_s=10.0),
        )
        ts = np.linspace(0, 20e6, 2000)  # two periods in us
        rates = np.array([background_rate(truth, t) for t in ts])
        assert rates.min() >= 0.135 - 1e-12
        assert rates.max() <= 0.165 + 1e-12
        assert rates.min() == pytest.approx(0.135, abs=1e-4)
        assert rates.max() == pytest.approx(0.165, abs=1e-4)

    def test_linear_ramp_saturates(self):
        truth = TruthConfig(
            params=TRUTH.params,
            drift=DriftSpec(kind="linear", amplitude=0.05, period_s=10.0),
        )
        assert background_rate(truth, 0.0) == pytest.approx(0.15)
        assert background_rate(truth, 5e6) == pytest.approx(0.175)
        assert background_rate(truth, 1e8) == pytest.approx(0.20)

    def test_nonpositive_rates_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            TruthConfig(
                params=TRUTH.params,
                drift=DriftSpec(kind="sinusoidal", amplitude=0.2, period_s=1.0),
            )
        with pytest.raises(ValueError):
            TruthConfig(
                params=TRUTH.params,
                drift=DriftSpec(kind="sinusoidal", amplitude=-0.2, period_s=1.0),
            )
        with pytest.raises(ValueError):
            TruthConfig(
                params=TRUTH.params,
                drift=DriftSpec(kind="linear", amplitude=-0.2, period_s=1.0),
            )
        with pytest.raises(ValueError):
            DriftSpec(kind="wobbly", amplitude=0.1, period_s=1.0)
