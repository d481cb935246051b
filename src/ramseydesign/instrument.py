"""Virtual Ramsey instrument: Poisson photon counts from true parameters.

Each epoch runs m_s identical sequences at one precession time. Every
sequence contributes a signal collection window and a background window
(during re-initialization), so an epoch yields both a signal count and a
background count over the same m_s sequences at no extra time cost.
Elapsed virtual lab time is tracked in integer nanoseconds so that run
totals are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import RamseyParams, ratio

DRIFT_KINDS = ("none", "linear", "sinusoidal")


@dataclass(frozen=True)
class DriftSpec:
    """Optional slow background-rate drift.

    linear: rate ramps by ``amplitude`` (photons/sequence) over
    ``period_s`` seconds, then holds. sinusoidal: rate oscillates with
    the given absolute amplitude and period.
    """

    kind: str = "none"
    amplitude: float = 0.0
    period_s: float = 10.0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"drift kind must be one of {DRIFT_KINDS}")
        if self.kind != "none" and self.period_s <= 0:
            raise ValueError("drift period must be > 0")


@dataclass(frozen=True)
class TruthConfig:
    """Ground-truth instrument configuration for simulation."""

    params: RamseyParams = field(
        default_factory=lambda: RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=10.0)
    )
    lambda_b0: float = 0.15
    overhead_us: float = 4.07
    drift: DriftSpec = field(default_factory=DriftSpec)

    def __post_init__(self):
        if self.lambda_b0 <= 0:
            raise ValueError("lambda_b0 must be > 0")
        if self.overhead_us < 0:
            raise ValueError("overhead must be >= 0")
        # reject drifts that could drive the rate to zero or below
        if self.drift.kind == "sinusoidal" and abs(self.drift.amplitude) >= self.lambda_b0:
            raise ValueError("sinusoidal drift |amplitude| must stay below lambda_b0")
        if self.drift.kind == "linear" and self.lambda_b0 + min(0.0, self.drift.amplitude) <= 0:
            raise ValueError("linear drift would drive the background rate to zero")


@dataclass(frozen=True)
class EpochOutcome:
    """Counts and elapsed time of one measured epoch."""

    n_s: int
    n_b: int
    t_epoch_ns: int


def background_rate(truth: TruthConfig, t_now_us: float) -> float:
    """Background photons per sequence at virtual time ``t_now_us``."""
    if t_now_us < 0:
        raise ValueError("t_now must be >= 0")
    d = truth.drift
    if d.kind == "none" or d.amplitude == 0.0:
        return truth.lambda_b0
    t_s = t_now_us * 1e-6
    if d.kind == "linear":
        return truth.lambda_b0 + d.amplitude * min(t_s / d.period_s, 1.0)
    return truth.lambda_b0 + d.amplitude * math.sin(2.0 * math.pi * t_s / d.period_s)


def sequence_duration_ns(tau_us: float, overhead_us: float) -> int:
    """One sequence's duration in exact integer nanoseconds."""
    return round(tau_us * 1000.0) + round(overhead_us * 1000.0)


def simulate_epoch(
    truth: TruthConfig,
    tau_us: float,
    m_s: int,
    t_now_us: float,
    rng: np.random.Generator,
) -> EpochOutcome:
    """Measure one epoch: m_s sequences at ``tau_us`` starting at ``t_now_us``.

    Signal and background counts are independent Poisson draws with
    means m_s * R(theta_true, tau) * lambda_b(t) and m_s * lambda_b(t).
    """
    if m_s < 1:
        raise ValueError("m_s must be >= 1")
    lam_b = background_rate(truth, t_now_us)
    lam_s = ratio(truth.params, tau_us) * lam_b
    n_s = int(rng.poisson(m_s * lam_s))
    n_b = int(rng.poisson(m_s * lam_b))
    return EpochOutcome(
        n_s=n_s,
        n_b=n_b,
        t_epoch_ns=m_s * sequence_duration_ns(tau_us, truth.overhead_us),
    )
