import math

import numpy as np
import pytest

from ramseydesign.model import RamseyParams, T2_INFINITE, ratio

PARAMS_INF = RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=T2_INFINITE)


def test_ratio_at_zero_tau():
    # cos 0 = 1, envelope 1: R = a (1 + c)
    assert ratio(PARAMS_INF, 0.0) == pytest.approx(0.904, abs=1e-12)


def test_ratio_contrast_cancels_at_half_period():
    tau = math.pi / 9.4
    assert ratio(PARAMS_INF, tau) == pytest.approx(0.8, abs=1e-12)


def test_ratio_finite_t2():
    # frozen from a 40-digit mpmath evaluation of the closed form
    p = RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=10.0)
    assert ratio(p, 10.0) == pytest.approx(0.837675227783, abs=1e-9)


def test_ratio_bounds():
    taus = np.linspace(0.0, 40.0, 4001)
    r_inf = ratio(PARAMS_INF, taus)
    assert np.all(r_inf >= 0.8 - 1e-12)
    assert np.all(r_inf <= 0.904 + 1e-12)
    p = RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=10.0)
    r_fin = ratio(p, taus)
    assert np.all(r_fin >= 0.8 - 1e-12)
    assert np.all(r_fin <= 0.904 + 1e-12)


def test_ratio_periodic_for_infinite_t2():
    period = 2.0 * math.pi / 9.4
    taus = np.linspace(0.0, 5.0, 500)
    np.testing.assert_allclose(
        ratio(PARAMS_INF, taus), ratio(PARAMS_INF, taus + period), atol=1e-10
    )


def test_ratio_decays_to_baseline():
    p = RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=10.0)
    assert ratio(p, 80.0) == pytest.approx(0.8, abs=1e-12)


def test_infinite_t2_envelope_is_exactly_one():
    # no underflow games: the envelope must be identically 1
    p_plain = RamseyParams(a=1.0, c=2.0, omega0=9.4, t2=T2_INFINITE)
    taus = np.array([0.0, 1e3, 1e6])
    np.testing.assert_array_equal(
        ratio(p_plain, taus), 1.0 + (1.0 + np.cos(9.4 * taus))
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(a=0.0, c=0.1, omega0=1.0),
        dict(a=-1.0, c=0.1, omega0=1.0),
        dict(a=0.8, c=-0.1, omega0=1.0),
        dict(a=0.8, c=0.1, omega0=-1.0),
        dict(a=0.8, c=0.1, omega0=1.0, t2=0.0),
        dict(a=0.8, c=0.1, omega0=1.0, t2=-3.0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        RamseyParams(**kwargs)
