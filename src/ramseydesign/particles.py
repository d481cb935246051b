"""Weighted-particle posterior over the unknown model parameters.

The posterior is a cloud of parameter samples with normalized weights.
Bayes updates multiply weights by the epoch likelihood; when the
effective sample size 1/sum(w^2) drops below a threshold fraction the
cloud is resampled by weight and jittered with a variance-preserving
shrinkage kernel, clamped to the prior bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .likelihood import EpochData, log_likelihood_general
from .model import PARAM_NAMES, ratio_arrays


class InferenceError(RuntimeError):
    """Posterior weights became non-finite; the run cannot continue."""


@dataclass(frozen=True)
class PriorSpec:
    """Uniform prior bounds per unknown, plus the filter's tuning knobs.

    ``bounds`` maps unknown parameter names (subset of a, c, omega0, t2)
    to (lower, upper); ``fixed`` pins every remaining coordinate. The
    paper does not state priors or filter sizes; these defaults are
    engineering choices and everything is configurable.
    """

    bounds: dict[str, tuple[float, float]]
    fixed: dict[str, float] = field(default_factory=dict)
    n_particles: int = 50_000
    resample_threshold: float = 0.5
    shrinkage: float = 0.98

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("at least one unknown parameter is required")
        for name in (*self.bounds, *self.fixed):
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown parameter name {name!r}")
        missing = set(PARAM_NAMES) - set(self.bounds) - set(self.fixed)
        if missing:
            raise ValueError(f"parameters neither bounded nor fixed: {sorted(missing)}")
        for name, (lo, hi) in self.bounds.items():
            if not lo < hi:
                raise ValueError(f"prior bounds for {name} must satisfy lower < upper")
        if self.n_particles < 100:
            raise ValueError("particle count must be >= 100")
        self.check_resample_threshold(self.resample_threshold)
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError("shrinkage must lie in (0, 1]")

    @staticmethod
    def check_resample_threshold(x: float) -> float:
        """Return ``x`` if it is a valid ESS fraction, in the open interval (0, 1)."""
        if not 0.0 < x < 1.0:
            raise ValueError("resample threshold must lie in (0, 1)")
        return x

    @property
    def unknown(self) -> tuple[str, ...]:
        return tuple(n for n in PARAM_NAMES if n in self.bounds)


@dataclass(frozen=True)
class PosteriorSummary:
    """Weighted mean and std per unknown."""

    mean: dict[str, float]
    std: dict[str, float]


@dataclass
class ParticleCloud:
    """Posterior sample set. Single-writer; updates mutate in place.

    ``values`` has one row per particle and one column per model
    parameter in PARAM_NAMES order; only the columns listed in
    ``unknown`` vary across particles.
    """

    values: np.ndarray
    weights: np.ndarray
    unknown: tuple[str, ...]
    bounds: np.ndarray  # (n_unknown, 2)
    resample_threshold: float
    shrinkage: float
    rng: np.random.Generator

    @property
    def n_particles(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, PARAM_NAMES.index(name)]

    def ess(self) -> float:
        return 1.0 / float(np.sum(np.square(self.weights)))


def init_prior(spec: PriorSpec, seed) -> ParticleCloud:
    """Draw the prior cloud: uniform within bounds, uniform weights.

    ``seed`` may be anything ``np.random.default_rng`` accepts,
    including an existing Generator; identical seeds give bit-identical
    clouds.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_particles
    values = np.empty((n, len(PARAM_NAMES)))
    for j, name in enumerate(PARAM_NAMES):
        if name in spec.bounds:
            lo, hi = spec.bounds[name]
            values[:, j] = rng.uniform(lo, hi, size=n)
        else:
            values[:, j] = spec.fixed[name]
    bounds = np.array([spec.bounds[name] for name in spec.unknown])
    return ParticleCloud(
        values=values,
        weights=np.full(n, 1.0 / n),
        unknown=spec.unknown,
        bounds=bounds,
        resample_threshold=spec.resample_threshold,
        shrinkage=spec.shrinkage,
        rng=rng,
    )


def cloud_ratios(cloud: ParticleCloud, tau: float) -> np.ndarray:
    """Model ratio per particle at setting ``tau``."""
    return ratio_arrays(
        cloud.column("a"), cloud.column("c"), cloud.column("omega0"), cloud.column("t2"), tau
    )


def bayes_update(
    cloud: ParticleCloud,
    data: EpochData,
    tau: float,
    background_prior_exponent: float = -1.0,
) -> ParticleCloud:
    """Multiply weights by the epoch likelihood; renormalize.

    Particle positions are unchanged. Evaluation is in log space with
    the per-cloud maximum subtracted, so weights stay representable for
    arbitrarily large counts.
    """
    r = cloud_ratios(cloud, tau)
    logl = log_likelihood_general(
        data.n_s, data.m_s, data.n_b, data.m_b, r, background_prior_exponent
    )
    logl -= logl.max()
    w = cloud.weights * np.exp(logl)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise InferenceError(
            f"posterior weights degenerate after update (sum={total!r})"
        )
    cloud.weights = w / total
    return cloud


def resample_if_needed(cloud: ParticleCloud) -> ParticleCloud:
    """Resample by weight and jitter when the ESS falls below threshold.

    New positions are shrunk toward the weighted mean and perturbed so
    the per-coordinate variance is preserved:

        x' = s*x + (1-s)*mean + sqrt(1-s^2) * std * normal

    then clamped to the prior bounds. A cloud with zero spread in every
    unknown is only re-weighted (no jitter). Returns the cloud unchanged
    when ESS >= threshold * N.
    """
    n = cloud.n_particles
    if cloud.ess() >= cloud.resample_threshold * n:
        return cloud

    cols = [PARAM_NAMES.index(name) for name in cloud.unknown]
    mean = np.array([np.dot(cloud.weights, cloud.values[:, j]) for j in cols])
    std = np.array(
        [
            np.sqrt(np.dot(cloud.weights, np.square(cloud.values[:, j] - m)))
            for j, m in zip(cols, mean)
        ]
    )

    idx = cloud.rng.choice(n, size=n, p=cloud.weights)
    cloud.values = cloud.values[idx]

    if np.any(std > 0.0):
        s = cloud.shrinkage
        noise_scale = np.sqrt(1.0 - s * s) * std
        for k, j in enumerate(cols):
            x = cloud.values[:, j]
            x = s * x + (1.0 - s) * mean[k]
            if noise_scale[k] > 0.0:
                x = x + noise_scale[k] * cloud.rng.standard_normal(n)
            np.clip(x, cloud.bounds[k, 0], cloud.bounds[k, 1], out=x)
            cloud.values[:, j] = x

    cloud.weights = np.full(n, 1.0 / n)
    return cloud


def summarize(cloud: ParticleCloud) -> PosteriorSummary:
    """Weighted mean and std per unknown."""
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for name in cloud.unknown:
        x = cloud.column(name)
        m = float(np.dot(cloud.weights, x))
        v = float(np.dot(cloud.weights, np.square(x - m)))
        mean[name] = m
        std[name] = np.sqrt(max(v, 0.0))
    return PosteriorSummary(mean=mean, std=std)


def ci90(cloud: ParticleCloud) -> dict[str, tuple[float, float]]:
    """Weighted 5th/95th percentile interval per unknown.

    Sorts every unknown's column, so it is kept out of the per-epoch
    summary and taken only where an interval is read.
    """
    out = {}
    for name in cloud.unknown:
        x = cloud.column(name)
        order = np.argsort(x)
        w = cloud.weights[order]
        # midpoint convention: particle i sits at cumulative weight cw_i - w_i/2
        lo, hi = np.interp((0.05, 0.95), np.cumsum(w) - 0.5 * w, x[order])
        out[name] = (float(lo), float(hi))
    return out
