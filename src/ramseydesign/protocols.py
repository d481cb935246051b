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
    cos/sin tables of omega*(tau_min + step*b*p) and omega*step*q:
    N*(b + ceil(G/b)) sincos instead of N*G cosines. The settings are
    then scored one block of b at a time, so the working set is N*b;
    the variance is taken in two passes about the mean.
    """
    n_set = len(grid)
    b = math.isqrt(n_set - 1) + 1
    n_blocks = -(-n_set // b)
    # (setting, particle) layout: per-particle factors broadcast along rows
    phase_q = np.multiply.outer(grid.step * np.arange(b), omega0)
    cos_q, sin_q = np.cos(phase_q), np.sin(phase_q)
    phase_p = np.multiply.outer(grid.tau_min + grid.step * b * np.arange(n_blocks), omega0)
    cos_p, sin_p = np.cos(phase_p), np.sin(phase_p)
    taus_sq = np.square(grid.taus)
    amp = 0.5 * a * c
    decay = -1.0 / np.square(t2)  # 0 for t2 = inf: no envelope
    mean_r = np.empty(n_set)
    var_r = np.empty(n_set)
    for p in range(n_blocks):
        k = slice(p * b, min(p * b + b, n_set))
        width = k.stop - k.start
        r = cos_p[p] * cos_q[:width]
        r -= sin_p[p] * sin_q[:width]
        r += 1.0
        r *= np.exp(np.multiply.outer(taus_sq[k], decay))
        r *= amp
        r += a
        m = r @ w
        r -= m[:, None]
        np.square(r, out=r)
        mean_r[k] = m
        var_r[k] = r @ w
    return mean_r, var_r


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
