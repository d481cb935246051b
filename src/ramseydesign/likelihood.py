"""Background-marginalized Poisson count likelihood.

One epoch yields n_s signal photons over m_s sequences while the
background channel yields n_b photons over m_b sequences. Marginalizing
the unknown background rate under a power-law prior with exponent -1
gives a likelihood for the ratio R that is free of factorials:

    P(n_s | m_s, n_b, m_b, R)  propto  R^n_s * [(m_s+m_b)/(m_s R + m_b)]^(n_s+n_b)

All production evaluation is in log space; an additive R-independent
constant is irrelevant because posteriors are renormalized.

``marginal_likelihood_oracle`` performs the background integral by brute
quadrature. It exists as an independent check of the closed form and for
falsifying prior exponents other than -1; it is not on the inference
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OracleConvergenceError(RuntimeError):
    """Raised when quadrature refinement fails to stabilize."""


@dataclass(frozen=True)
class EpochData:
    """Photon counts of one inference update.

    n_b and m_b are window aggregates: background counts and sequences
    summed over the recent epochs feeding this update.
    """

    n_s: int
    m_s: int
    n_b: int
    m_b: int

    def __post_init__(self):
        if self.m_s < 1 or self.m_b < 1:
            raise ValueError("sequence counts m_s, m_b must be >= 1")
        if self.n_s < 0 or self.n_b < 0:
            raise ValueError("photon counts must be non-negative")


def log_likelihood_counts(n_s, m_s, n_b, m_b, r):
    """Log relative likelihood at ratio ``r`` from raw count values.

    The closed form above: ``log_likelihood_general`` at the production
    exponent -1 plus its R-independent constant. Counts may be floats
    (expected values), which the closed form supports; the data path
    uses integer counts via ``log_likelihood``. ``r`` may be an array.
    """
    const = (n_s + n_b) * np.log(m_s + m_b)
    return log_likelihood_general(n_s, m_s, n_b, m_b, r, -1.0) + const


def log_likelihood(data: EpochData, r):
    """Log relative likelihood of one epoch at ratio ``r`` (scalar or array)."""
    return log_likelihood_counts(data.n_s, data.m_s, data.n_b, data.m_b, r)


def log_likelihood_general(n_s, m_s, n_b, m_b, r, background_prior_exponent=-1.0):
    """Log likelihood with an explicit background-prior exponent.

    The marginalization result is R^n_s / (m_s R + m_b)^(n_s+n_b+1+nu)
    up to R-independent factors. nu = -1 is ``log_likelihood_counts``
    without its constant and is the self-consistent production choice;
    other values exist to demonstrate the estimator bias they induce.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("ratio R must be > 0")
    expo = n_s + n_b + 1.0 + background_prior_exponent
    out = n_s * np.log(r) - expo * np.log(m_s * r + m_b)
    return out if out.ndim else float(out)


def _log_integrand(lam, n_s, m_s, n_b, m_b, r, nu):
    # Poisson(n_s; m_s R lam) * (m_b lam)^n_b e^(-m_b lam) * lam^nu,
    # log form without the count factorials (R- and lam-independent).
    with np.errstate(divide="ignore"):
        loglam = np.log(lam)
    out = (
        n_s * (np.log(m_s * r) + loglam)
        - m_s * r * lam
        + n_b * (np.log(m_b) + loglam)
        - m_b * lam
        + nu * loglam
    )
    return out


def marginal_likelihood_oracle(
    data: EpochData,
    r: float,
    prior_exponent: float = -1.0,
    rel_tol: float = 1e-10,
    max_nodes: int = 2**21,
) -> float:
    """Background-marginalized likelihood by adaptive Simpson quadrature.

    Integrates Poisson(n_s; m_s R lam) * lam^(n_b+nu) * e^(-m_b lam)
    over the background rate lam, refining the node count until the
    successive-refinement relative change falls below ``rel_tol``.
    Returns a relative (arbitrarily but consistently scaled) value, so
    ratios across R are meaningful for fixed data.

    Raises
    ------
    OracleConvergenceError
        If refinement does not stabilize within ``max_nodes``.
    ValueError
        If r <= 0 or the integrand is not integrable at 0
        (n_s + n_b + prior_exponent <= -1).
    """
    if r <= 0:
        raise ValueError("ratio R must be > 0")
    nu = prior_exponent
    k = data.n_s + data.n_b + nu + 1.0
    if k <= 0:
        raise ValueError("integrand diverges at 0: need n_s + n_b + nu > -1")
    # Upper limit covers > 12 standard deviations of the gamma-shaped
    # integrand for every R (its rate is at least m_b).
    upper = (k + 12.0 * np.sqrt(k) + 5.0) / data.m_b
    # R-independent scale so returned values are comparable across R.
    lam_hat = k / (data.m_s + data.m_b)
    log_scale = _log_integrand(lam_hat, data.n_s, data.m_s, data.n_b, data.m_b, 1.0, nu)

    lam_power = data.n_s + data.n_b + nu
    if lam_power == 0:
        # e^(-rate*lam) -> 1 as lam -> 0, so the limit is finite and nonzero
        log_f0 = data.n_s * np.log(data.m_s * r) + data.n_b * np.log(data.m_b)
        f0 = float(np.exp(log_f0 - log_scale))
    else:
        f0 = 0.0

    def simpson(n):
        lam = np.linspace(0.0, upper, n + 1)
        logf = _log_integrand(lam[1:], data.n_s, data.m_s, data.n_b, data.m_b, r, nu)
        f = np.empty(n + 1)
        f[0] = f0
        f[1:] = np.exp(logf - log_scale)
        h = upper / n
        return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())

    n = 64
    prev = simpson(n)
    while n <= max_nodes:
        n *= 2
        cur = simpson(n)
        if cur > 0 and abs(cur - prev) <= rel_tol * abs(cur):
            return float(cur)
        prev = cur
    raise OracleConvergenceError(
        f"quadrature did not stabilize to {rel_tol} within {max_nodes} nodes"
    )
