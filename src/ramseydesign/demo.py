"""Background-averaging study: likelihood curves and run performance.

The inset study evaluates the count likelihood as a function of the
ratio R for one fixed signal observation (the INSET_* case) while the
background window grows; curves sharpen toward the known-background
Poisson limit and the peak stays at the true R. The saturation study
runs short Bayes batches from a warm-start prior at several window
lengths and compares final frequency uncertainties.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .instrument import TruthConfig
from .likelihood import log_likelihood_counts
from .protocols import TauConfig
from .runner import RunConfig, default_prior, run_batch

# Fig-style inset case: 10 signal sequences yielding one photon on a
# 0.15 photons/sequence background, true R = 0.1/0.15.
INSET_M_S = 10
INSET_N_S = 1
INSET_RATE = 0.15
INSET_RATIOS = (1, 10, 100, 1000)
R_GRID_STEP = 0.005

# Saturation study: runs per window arm and epochs per run.
SATURATION_RUNS = 10
SATURATION_EPOCHS = 220


def likelihood_inset() -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray]:
    """Peak-normalized likelihood curves over R per background multiple
    of the inset case (INSET_*).

    Background counts are taken at their expected value rate*m_b (real
    numbers; the closed form supports them). Returns (r_grid, curves,
    poisson_reference) where the reference assumes the background rate
    is known exactly.
    """
    r_grid = np.arange(R_GRID_STEP, 2.0 + R_GRID_STEP / 2, R_GRID_STEP)
    curves: dict[int, np.ndarray] = {}
    for q in INSET_RATIOS:
        m_b = q * INSET_M_S
        n_b = INSET_RATE * m_b
        logl = log_likelihood_counts(INSET_N_S, INSET_M_S, n_b, m_b, r_grid)
        curves[q] = np.exp(logl - logl.max())
    mu = INSET_M_S * INSET_RATE * r_grid
    log_pois = INSET_N_S * np.log(mu) - mu
    poisson_ref = np.exp(log_pois - log_pois.max())
    return r_grid, curves, poisson_ref


@dataclass
class SaturationPoint:
    window_ratio: int
    mean_final_sigma_omega: float


def background_saturation(
    truth: TruthConfig,
    window_ratios=(1, 10, 100),
    runs: int = SATURATION_RUNS,
    epochs: int = SATURATION_EPOCHS,
    seed: int = 1,
    n_particles: int = 1500,
    workers: int = 1,
) -> list[SaturationPoint]:
    """Final sigma_omega of short Bayes runs vs background window length.

    The window length (in epochs) sets the achieved m_b/m_s multiple.
    All window arms share seeds, so differences are driven by the window
    alone. The prior is a warm start (frequency known to ~1 %), so the
    short runs sit in the converged regime where the background window
    is what limits the uncertainty.
    """
    omega0 = truth.params.omega0
    prior = default_prior(
        "omega-only",
        truth,
        {"omega0": (omega0 - 0.1, omega0 + 0.1)},
        n_particles=n_particles,
        shrinkage=0.995,
    )
    base = RunConfig(
        protocol="bayes",
        epochs=epochs,
        seed=seed,
        workflow="concurrent-deterministic",
    )
    points = []
    for w in window_ratios:
        cfg = replace(base, background_window=int(w))
        summary = run_batch(
            cfg, truth, runs, prior=prior, tau_config=TauConfig(), workers=workers
        )
        finals = [t.records[-1].summary.std["omega0"] for t in summary.traces]
        points.append(SaturationPoint(int(w), float(np.mean(finals))))
    return points
