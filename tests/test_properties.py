"""Property tests of the likelihood, the design kernel and the resampler
(hypothesis).

Examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ramseydesign.likelihood import EpochData, log_likelihood
from ramseydesign.model import PARAM_NAMES
from ramseydesign.particles import ParticleCloud, resample_if_needed
from ramseydesign.protocols import SettingGrid, _ratio_moments, _rotation_table, utility_map
from ramseydesign.runner import PRIOR_BOUNDS

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

# setting counts: the smallest, a perfect square, primes, the default grid
GRID_SIZES = (1, 2, 3, 49, 97, 399)


@st.composite
def clouds(draw, min_particles=1, infinite_t2=True):
    """Random four-unknown cloud within the prior bounds.

    Any column may be drawn constant, t2 may be infinite, and weights
    are random (exponential, or spiky with a few heavy particles).
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(min_particles, 300))
    rng = np.random.default_rng(seed)
    values = np.empty((n, len(PARAM_NAMES)))
    for j, name in enumerate(PARAM_NAMES):
        lo, hi = PRIOR_BOUNDS[name]
        values[:, j] = rng.uniform(lo, hi, size=1 if draw(st.booleans()) else n)
    if infinite_t2 and draw(st.booleans()):
        values[:, PARAM_NAMES.index("t2")] = math.inf
    w = rng.exponential(size=n)
    if draw(st.booleans()):
        w[rng.integers(n, size=3)] += 100.0
    return ParticleCloud(
        values=values,
        weights=w / w.sum(),
        unknown=PARAM_NAMES,
        bounds=np.array([PRIOR_BOUNDS[name] for name in PARAM_NAMES]),
        resample_threshold=0.5,
        shrinkage=0.98,
        rng=rng,
    )


@PROPERTY_SETTINGS
@given(
    st.integers(1, 3000),
    st.integers(1, 40_000),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
    st.lists(st.floats(0.1, 2.0), min_size=1, max_size=20),
)
def test_likelihood_doubling_is_independent_of_ratio(m_s, m_b, rate_s, rate_b, rs):
    # criterion 1's identity: doubling every count multiplies the
    # likelihood by its square up to an R-independent factor
    d = EpochData(round(rate_s * m_s), m_s, round(rate_b * m_b), m_b)
    d2 = EpochData(2 * d.n_s, 2 * d.m_s, 2 * d.n_b, 2 * d.m_b)
    r = np.array([1.0, *rs])
    q = 2.0 * log_likelihood(d, r) - log_likelihood(d2, r)
    assert np.max(np.abs(q - q[0])) < 1e-9


@st.composite
def grids(draw):
    n_set = draw(st.sampled_from(GRID_SIZES))
    tau_min = draw(st.floats(0.01, 2.0))
    step = draw(st.floats(0.005, 0.1))
    return SettingGrid(tau_min=tau_min, tau_max=tau_min + step * (n_set - 1), step=step)


def direct_moments(cloud, taus):
    """Every particle at every setting, N x G, variance in two passes."""
    a, c, omega0, t2 = (cloud.values[:, j, None] for j in range(4))
    t = taus[None, :]
    r = a * (1.0 + 0.5 * c * (1.0 + np.cos(omega0 * t)) * np.exp(-np.square(t / t2)))
    mean = cloud.weights @ r
    return mean, cloud.weights @ np.square(r - mean)


@PROPERTY_SETTINGS
@given(clouds(), grids())
def test_blocked_moments_match_direct_evaluation(cloud, grid):
    assert len(grid) in GRID_SIZES
    mean_ref, var_ref = direct_moments(cloud, grid.taus)
    mean, var = _ratio_moments(
        cloud.weights, *(cloud.values[:, j] for j in range(4)), grid
    )
    np.testing.assert_allclose(mean, mean_ref, rtol=1e-12, atol=0.0)
    # Both sides round omega*tau, its cosine and R to a few ulp. Where the
    # spread of R is tiny (a nearly cancelling 1 + cos, or no spread at
    # all) that rounding dR, propagated as 2 sqrt(var) dR + dR^2, bounds
    # how well any two float64 evaluations can agree, so it is allowed on
    # top of the relative 1e-12.
    eps = np.finfo(float).eps
    a, c = cloud.column("a"), cloud.column("c")
    d_cos = 8 * eps * (1.0 + cloud.column("omega0").max() * grid.tau_max)
    d_r = np.max(0.5 * a * c) * d_cos + 8 * eps * np.max(a * (1.0 + c))
    tol = 1e-12 * var_ref + 2.0 * np.sqrt(var_ref) * d_r + d_r**2
    assert np.all(np.abs(var - var_ref) <= tol)

    lam, overhead = 0.15, 4.07
    u_ref = np.log1p(lam * var_ref / mean_ref) / (grid.taus + overhead)
    du = lam * tol / mean_ref / (grid.taus + overhead)
    best = int(np.argmax(utility_map(cloud, grid, lam, overhead)))
    top = int(np.argmax(u_ref))
    # the same argmax, or one tied with it to within the tolerance above
    assert best == top or u_ref[best] + du[best] >= u_ref[top] - du[top]


@PROPERTY_SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.floats(1.0, 1e3),
    st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    st.floats(0.005, 2.0),
    # b = 20 blocks of 20 settings for the default 399-setting grid
    st.integers(1, 200),
)
def test_rotation_table_matches_direct_cos_sin(seed, omega_max, x0, dx, n):
    omega = np.random.default_rng(seed).uniform(0.0, omega_max, size=64)
    omega[0] = omega_max
    table = _rotation_table(omega, x0, dx, n)
    phase = omega * (x0 + dx * np.arange(n)[:, None])
    # Error budget in u = eps/2, with tau = x0 + j dx. Angles: the table
    # rounds omega*x0 and omega*dx (the latter carried j times), so
    # |omega tau| u; the reference rounds j*dx, the sum and the product,
    # 3 |omega tau| u. Values: each cos/sin is within 1 ulp (2u): the
    # reference's, row 0's and the turn's, carried j times; each complex
    # product adds sqrt(5) u. Total 4 |omega tau| u + (4 + (2 + sqrt 5) j) u,
    # within the bound below.
    eps = np.finfo(float).eps
    j = np.arange(n)[:, None]
    tol = eps * (2.0 * np.abs(omega) * (x0 + j * dx) + 4.0 * (j + 1))
    assert np.all(np.abs(table.real - np.cos(phase)) <= tol)
    assert np.all(np.abs(table.imag - np.sin(phase)) <= tol)


@PROPERTY_SETTINGS
@given(clouds(), grids())
def test_utility_map_leaves_the_cloud_untouched(cloud, grid):
    # a single-particle cloud's columns are contiguous, so the kernel's
    # contiguous copies of them are the cloud's own arrays
    values, weights = cloud.values.tobytes(), cloud.weights.tobytes()
    utility_map(cloud, grid, 0.15, 4.07)
    assert cloud.values.tobytes() == values
    assert cloud.weights.tobytes() == weights


@PROPERTY_SETTINGS
@given(
    clouds(min_particles=100, infinite_t2=False),
    st.floats(0.9, 1.0),
    st.booleans(),
)
def test_forced_resample_keeps_bounds_mean_and_uniform_weights(cloud, shrinkage, central):
    n = cloud.n_particles
    if central:
        # squeeze the cloud into the middle half of the bounds: the jitter
        # then almost never reaches a bound, so clamping cannot move the mean
        lo, hi = cloud.bounds[:, 0], cloud.bounds[:, 1]
        cloud.values = lo + 0.25 * (hi - lo) + 0.5 * (cloud.values - lo)
    cloud.shrinkage = shrinkage
    cloud.resample_threshold = 0.999
    assume(cloud.ess() < cloud.resample_threshold * n)
    w = cloud.weights
    mean = w @ cloud.values
    std = np.sqrt(w @ np.square(cloud.values - mean))
    before = cloud.values

    resample_if_needed(cloud)

    assert cloud.values is not before
    np.testing.assert_array_equal(cloud.weights, np.full(n, 1.0 / n))
    x = cloud.values
    assert np.all(x >= cloud.bounds[:, 0]) and np.all(x <= cloud.bounds[:, 1])
    if central:
        # index draw plus jitter: the mean moves by O(std / sqrt(N))
        assert np.all(np.abs(x.mean(axis=0) - mean) <= 6.0 * std / math.sqrt(n) + 1e-12)


@PROPERTY_SETTINGS
@given(clouds(min_particles=100, infinite_t2=False), st.floats(0.9, 1.0))
def test_forced_resample_preserves_weighted_variance(cloud, shrinkage):
    # 50 copies of each particle: the same weighted distribution, with
    # N large enough for the tolerance below to be a few percent
    cloud.values = np.tile(cloud.values, (50, 1))
    cloud.weights = np.tile(cloud.weights, 50) / 50
    n = cloud.n_particles
    # squeeze the cloud into the central tenth of its bounds: the jitter
    # sd is then at most sqrt(1 - 0.9^2) * 0.05 = 0.022 of the bound
    # width, 20 sd from either bound, so clamping never changes a value
    lo, hi = cloud.bounds[:, 0], cloud.bounds[:, 1]
    cloud.values = lo + 0.45 * (hi - lo) + 0.1 * (cloud.values - lo)
    cloud.shrinkage = shrinkage
    cloud.resample_threshold = 0.999
    assume(cloud.ess() < cloud.resample_threshold * n)
    w = cloud.weights
    dev = cloud.values - w @ cloud.values
    var = w @ np.square(dev)
    mu4 = w @ dev**4

    resample_if_needed(cloud)

    # x' - mean = s (x - mean) + e with x drawn by weight and e normal of
    # variance (1 - s^2) var: mean var per column, fourth moment m4.
    # The uniform-weight variance of N draws then has sd
    # sqrt((m4 - var^2) / N) about var, less the squared sample mean's
    # offset, E = var / N. Allow 6 sd (~1e-9 two-sided under the normal
    # approximation) plus 36 var / N for a sample mean 6 sd out. A
    # constant column keeps a variance of rounding alone: a mean of N
    # terms is off by at most N ulp, so (N eps max|x|)^2.
    s2 = shrinkage**2
    m4 = s2 * s2 * mu4 + 6.0 * s2 * (1.0 - s2) * var**2 + 3.0 * (1.0 - s2) ** 2 * var**2
    x = cloud.values
    var_new = np.mean(np.square(x - x.mean(axis=0)), axis=0)
    rounding = (n * np.finfo(float).eps * np.abs(x).max(axis=0)) ** 2
    tol = 6.0 * np.sqrt(np.maximum(m4 - var**2, 0.0) / n) + 36.0 * var / n + rounding
    assert np.all(np.abs(var_new - var) <= tol)
