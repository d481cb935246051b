"""Simulator and design engine for adaptive Ramsey precession-time measurements."""

__version__ = "0.1.0"

from .instrument import DriftSpec, EpochOutcome, TruthConfig, background_rate, simulate_epoch
from .likelihood import (
    EpochData,
    OracleConvergenceError,
    log_likelihood,
    log_likelihood_counts,
    marginal_likelihood_oracle,
)
from .model import RamseyParams, T2_INFINITE, ratio
from .particles import (
    InferenceError,
    ParticleCloud,
    PosteriorSummary,
    PriorSpec,
    bayes_update,
    ci90,
    init_prior,
    resample_if_needed,
    summarize,
)
from .protocols import (
    SettingGrid,
    TauConfig,
    random_design,
    tau_design,
    utility_map,
)
from .runner import (
    BatchSummary,
    RunConfig,
    RunError,
    RunTrace,
    default_prior,
    run_batch,
    run_single,
    snr_epoch_time_us,
    tau_scaling_experiment,
)

__all__ = [
    "BatchSummary",
    "DriftSpec",
    "EpochData",
    "EpochOutcome",
    "InferenceError",
    "OracleConvergenceError",
    "ParticleCloud",
    "PosteriorSummary",
    "PriorSpec",
    "RamseyParams",
    "RunConfig",
    "RunError",
    "RunTrace",
    "SettingGrid",
    "T2_INFINITE",
    "TauConfig",
    "TruthConfig",
    "background_rate",
    "bayes_update",
    "ci90",
    "default_prior",
    "init_prior",
    "log_likelihood",
    "log_likelihood_counts",
    "marginal_likelihood_oracle",
    "random_design",
    "ratio",
    "resample_if_needed",
    "run_batch",
    "run_single",
    "simulate_epoch",
    "snr_epoch_time_us",
    "summarize",
    "tau_design",
    "tau_scaling_experiment",
    "utility_map",
]
