"""Setting-selection protocols: Bayes utility, Tau heuristic, Random.

All three pick the next precession time from a discrete grid. The Bayes
protocol scores every setting with an information-gain proxy per unit
lab time, from the cloud's ratio moments computed by one blocked kernel
for any set of unknowns, and takes the best-scoring setting (ties broken
uniformly at random); Tau applies tau = h / sigma_omega with a
fallback to the top of the grid; Random draws uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .particles import ParticleCloud

# Utility values within this absolute distance of the maximum count as
# ties and are broken uniformly at random.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SettingGrid:
    """Arithmetic progression of allowed precession times (us)."""

    tau_min: float = 0.1
    tau_max: float = 20.0
    step: float = 0.05

    def __post_init__(self):
        if not (0 < self.step < math.inf and 0 < self.tau_min <= self.tau_max < math.inf):
            raise ValueError("grid requires 0 < tau_min <= tau_max < inf and step > 0")
        # sequences are timed in integer nanoseconds
        if not self.tau_max * 1000.0 < math.inf:
            raise ValueError(
                f"grid tau_max {self.tau_max!r} is too large: its nanosecond count is not finite"
            )
        # the last setting must be tau_max itself, up to rounding
        n = (self.tau_max - self.tau_min) / self.step
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ValueError("grid step must divide tau_max - tau_min")

    def __len__(self) -> int:
        return int(round((self.tau_max - self.tau_min) / self.step)) + 1

    @property
    def taus(self) -> np.ndarray:
        return self.tau_min + self.step * np.arange(len(self))

    def nearest(self, tau: float) -> float:
        """Nearest grid value; exact midpoints round toward smaller tau."""
        pos = (tau - self.tau_min) / self.step
        idx = math.floor(pos)
        frac = pos - idx
        if frac > 0.5:
            idx += 1
        idx = min(max(idx, 0), len(self) - 1)
        return self.tau_min + self.step * idx


@dataclass(frozen=True)
class TauConfig:
    """Tuning of the tau = h / sigma_omega heuristic."""

    h: float = 0.5
    top_fraction: float = 0.1

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("h must be > 0")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must lie in (0, 1]")


def utility_map(
    cloud: ParticleCloud,
    grid: SettingGrid,
    lambda_b_estimate: float,
    overhead_us: float,
) -> np.ndarray:
    """Per-setting utility U(tau), aligned with ``grid.taus``.

    For each setting the cloud predicts a distribution of per-sequence
    signal means y = R(theta, tau) * lambda_b. The utility is the
    variance-ratio information-gain proxy

        U = ln(1 + var(y) / mean(y))

    with mean(y) standing in for the Poisson measurement variance,
    divided by the per-sequence duration tau + overhead (lab time is
    the valued resource). This is a documented proxy, not a closed-form
    entropy reduction. The moments of R come from ``_ratio_moments``
    whichever parameters the cloud holds fixed.
    """
    if lambda_b_estimate <= 0:
        raise ValueError("lambda_b_estimate must be > 0")
    mean_r, var_r = _ratio_moments(
        cloud.weights,
        cloud.column("a"),
        cloud.column("c"),
        cloud.column("omega0"),
        cloud.column("t2"),
        grid,
    )
    u = np.log1p(lambda_b_estimate * var_r / mean_r)
    return u / (grid.taus + overhead_us)


def _ratio_moments(w, a, c, omega0, t2, grid: SettingGrid):
    """Weighted mean and variance of R over the particles at every setting.

    With b = ceil(sqrt(G)) each setting is tau_k = tau_min + step*(b*p + q),
    so cos(omega*tau_k) follows by angle addition from per-particle
    cos/sin tables of omega*(tau_min + step*b*p) and omega*step*q. Each
    table is built by complex rotation (``_rotation_table``): two complex
    exponentials per particle, not two per row. The settings are then
    scored one block of b at a time in two (b x N) buffers reused by
    every block, written in place; the variance is taken in two passes
    about the mean. Nothing is written into the arrays passed in.
    """
    n_set = len(grid)
    b = math.isqrt(n_set - 1) + 1
    n_blocks = -(-n_set // b)
    omega0 = np.ascontiguousarray(omega0)
    a = np.ascontiguousarray(a)
    # (setting, particle) layout: per-particle factors broadcast along rows
    rot_q = _rotation_table(omega0, 0.0, grid.step, b)
    cos_q, sin_q = np.ascontiguousarray(rot_q.real), np.ascontiguousarray(rot_q.imag)
    rot_p = _rotation_table(omega0, grid.tau_min, grid.step * b, n_blocks)
    cos_p, sin_p = np.ascontiguousarray(rot_p.real), np.ascontiguousarray(rot_p.imag)
    del rot_q, rot_p  # freed before the block buffers: a lower peak
    taus_sq = np.square(grid.taus)
    amp = 0.5 * a * c
    decay = -1.0 / np.square(t2)  # 0 for t2 = inf: no envelope
    mean_r = np.empty(n_set)
    var_r = np.empty(n_set)
    r_buf = np.empty((b, len(omega0)))
    tmp_buf = np.empty_like(r_buf)
    for p in range(n_blocks):
        k = slice(p * b, min(p * b + b, n_set))
        width = k.stop - k.start
        r, tmp = r_buf[:width], tmp_buf[:width]
        np.multiply(cos_p[p], cos_q[:width], out=r)
        np.multiply(sin_p[p], sin_q[:width], out=tmp)
        r -= tmp
        r += 1.0
        np.multiply.outer(taus_sq[k], decay, out=tmp)
        np.exp(tmp, out=tmp)
        r *= tmp
        r *= amp
        r += a
        m = r @ w
        r -= m[:, None]
        np.square(r, out=r)
        mean_r[k] = m
        var_r[k] = r @ w
    return mean_r, var_r


def _rotation_table(omega, x0, dx, n):
    """e^(i*omega*(x0 + j*dx)) for rows j < n, shape (n, len(omega)).

    Row 0 is a complex exponential and every later row is the one before
    times e^(i*omega*dx), so row j carries about j ulp of rounding. That
    is no worse than the direct form: rounding omega*tau alone is off by
    |omega*tau| ulp, and omega*tau reaches ~1e3 rad.
    """
    table = np.empty((n, len(omega)), dtype=complex)
    table[0] = np.exp(1j * (x0 * omega))
    turn = np.exp(1j * (dx * omega))
    for j in range(1, n):
        np.multiply(table[j - 1], turn, out=table[j])
    return table


def select_setting(
    utilities: np.ndarray,
    grid: SettingGrid,
    rng: np.random.Generator,
) -> float:
    """Setting of maximal utility; ties (within TIE_TOLERANCE of the
    max) are broken uniformly at random."""
    candidates = np.flatnonzero(utilities >= utilities.max() - TIE_TOLERANCE)
    idx = int(candidates[rng.integers(len(candidates))])
    return float(grid.taus[idx])


def bayes_design(
    cloud: ParticleCloud,
    grid: SettingGrid,
    lambda_b_estimate: float,
    overhead_us: float,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Utility-maximizing setting and the full utility map."""
    u = utility_map(cloud, grid, lambda_b_estimate, overhead_us)
    return select_setting(u, grid, rng), u


def tau_design(
    sigma_omega: float,
    config: TauConfig,
    grid: SettingGrid,
    rng: np.random.Generator,
) -> float:
    """tau = h / sigma_omega snapped to the grid.

    When the target exceeds the grid (including sigma_omega == 0) the
    setting is drawn uniformly from the largest ``top_fraction`` of the
    grid.
    """
    if sigma_omega < 0:
        raise ValueError("sigma_omega must be >= 0")
    if sigma_omega > 0:
        target = config.h / sigma_omega
        if target <= grid.tau_max:
            return grid.nearest(target)
    n_top = max(1, math.ceil(config.top_fraction * len(grid)))
    idx = len(grid) - n_top + int(rng.integers(n_top))
    return float(grid.taus[idx])


def random_design(grid: SettingGrid, rng: np.random.Generator) -> float:
    """Uniform draw over the grid."""
    return float(grid.taus[rng.integers(len(grid))])
