"""Measure-infer-design loop, batch statistics, and scaling experiments.

A run iterates epochs: measure m_s sequences at the current setting and
run one calc step, which absorbs the data not yet absorbed and designs
the next setting. The three workflows differ in when the calc runs and
what its time costs:

series
    The calc follows the measurement: epoch i+1's setting is designed
    from data through epoch i. For Bayes its wall time is added to lab
    time (the instrument idles); Tau/Random analysis time is discounted.
concurrent
    The calc runs while the epoch is measured: epoch i's setting was
    designed from data through epoch i-2. A Bayes epoch lasts as long
    as its calc, so computation never adds to lab time.
concurrent-deterministic
    Same lag, but every epoch lasts its allocation and records the
    allocation (Bayes) or 0 (Tau/Random) as its calc time, so runs are
    bit-reproducible.

Every other epoch lasts its allocation too, and m_s is as many sequences
as fit in it. The Tau-scaling study is a series Tau run that measures a
fixed number of sequences per epoch instead. Lab time is accounted in
integer nanoseconds; totals are exact.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .instrument import TruthConfig, sequence_duration_ns, simulate_epoch
from .likelihood import EpochData
from .model import PARAM_NAMES
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
    select_setting,
    tau_design,
    utility_map,
)

PROTOCOLS = ("bayes", "tau", "random")
UNKNOWN_MODES = ("omega-only", "all-four")
DEFAULT_UNKNOWNS = "omega-only"  # the prior of a run given none
WORKFLOWS = ("series", "concurrent", "concurrent-deterministic")

# NV gyromagnetic ratio, 2*pi * 28 GHz/T, in rad s^-1 T^-1.
GYROMAGNETIC_RAD_PER_S_PER_T = 2.0 * math.pi * 28e9

# Default per-epoch measurement allocations (ms): 4 ms for Tau/Random;
# Bayes deterministic epochs mirror the reported mean computation times
# of 4.4 ms (one unknown) and 13 ms (more than one).
DEFAULT_EPOCH_MS_TAU_RANDOM = 4.0
DEFAULT_EPOCH_MS_BAYES_ONE = 4.4
DEFAULT_EPOCH_MS_BAYES_MANY = 13.0

# Engineering-default uniform prior bounds; the paper states none.
PRIOR_BOUNDS = {
    "a": (0.4, 1.2),
    "c": (0.02, 0.3),
    "omega0": (1.0, 60.0),
    "t2": (2.0, 30.0),
}


# Idealized Tau-scaling study: epochs per run, and the standard grid's
# 50 ns spacing extended far beyond 20 us, since tau = h/sigma leaves the
# standard grid once sigma < h/20.
SCALING_EPOCHS = 50
SCALING_GRID = SettingGrid(tau_min=0.05, tau_max=5000.0, step=0.05)

# Points of the common geometric grids a batch is reduced onto.
BATCH_GRID_POINTS = 120


class RunError(RuntimeError):
    """A run's posterior became degenerate or non-finite; the run was aborted."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a single run needs besides the ground truth.

    Exactly one of ``epochs`` / ``lab_time_s`` must be set. When
    ``epoch_time_ms`` is omitted it defaults per protocol (4 ms for
    tau/random; for Bayes 4.4 ms with one unknown in the prior, 13 ms
    with more). The prior, not this config, states what a run infers.
    """

    protocol: str = "bayes"
    epochs: int | None = None
    lab_time_s: float | None = None
    epoch_time_ms: float | None = None
    background_window: int = 20
    seed: int = 1
    workflow: str = "concurrent-deterministic"
    grid: SettingGrid = field(default_factory=SettingGrid)
    background_prior_exponent: float = -1.0
    design_particles: int = 0  # 0: utility over the whole cloud
    run_id: int = 0

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        if self.workflow not in WORKFLOWS:
            raise ValueError(f"workflow must be one of {WORKFLOWS}")
        if (self.epochs is None) == (self.lab_time_s is None):
            raise ValueError("exactly one of epochs / lab_time_s must be set")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epoch budget must be >= 1")
        # lab time is counted in integer ns, so those counts must be finite
        if self.lab_time_s is not None and not 0 < self.lab_time_s * 1e9 < math.inf:
            raise ValueError("lab-time budget must be > 0 and finite in ns")
        if self.epoch_time_ms is not None and not 0 < self.epoch_time_ms * 1e6 < math.inf:
            raise ValueError("epoch_time_ms must be > 0 and finite in ns")
        if self.background_window < 1:
            raise ValueError("background window must be >= 1")
        if self.design_particles < 0:
            raise ValueError("design_particles must be >= 0")

    def resolved_epoch_time_ms(self, prior: PriorSpec) -> float:
        if self.epoch_time_ms is not None:
            return self.epoch_time_ms
        if self.protocol == "bayes":
            one = len(prior.bounds) == 1
            return DEFAULT_EPOCH_MS_BAYES_ONE if one else DEFAULT_EPOCH_MS_BAYES_MANY
        return DEFAULT_EPOCH_MS_TAU_RANDOM


@dataclass
class EpochRecord:
    """One measured epoch plus the posterior after absorbing it."""

    epoch: int
    tau_us: float
    m_s: int
    n_s: int
    n_b_win: int
    m_b_win: int
    cum_sequences: int
    t_lab_ns: int
    t_calc_s: float
    design_from_epoch: int  # newest data epoch the design had seen; -1 if none
    summary: PosteriorSummary | None = None


@dataclass
class RunTrace:
    """Per-epoch time series of one run, plus its final posterior's interval."""

    run: RunConfig
    truth: TruthConfig
    records: list[EpochRecord]
    final_ci90: dict[str, tuple[float, float]]

    def field_array(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def sigma_omega(self) -> np.ndarray:
        return np.array([r.summary.std["omega0"] for r in self.records])

    def omega_mean(self) -> np.ndarray:
        return np.array([r.summary.mean["omega0"] for r in self.records])


def field_units(sigma_omega, t_lab_s):
    """sigma_B (T) and eta2 = sigma_B^2 * t_lab (T^2 s) of a frequency
    uncertainty (rad/us) at ``t_lab_s``; scalars or broadcasting arrays."""
    sigma_b = sigma_omega * 1e6 / GYROMAGNETIC_RAD_PER_S_PER_T
    return sigma_b, sigma_b * sigma_b * t_lab_s


def snr_epoch_time_us(truth: TruthConfig, tau_us: float = 10.0) -> float:
    """Diagnostic: time to reach SNR ~ 1 at one setting.

    Relative Poisson noise on the accumulated signal equals the
    fractional contrast c/a once n_s = (a/c)^2 photons have arrived,
    i.e. after a/(c^2 lambda_b) sequences.
    """
    p = truth.params
    if p.c <= 0:
        return math.inf
    m_needed = p.a / (p.c * p.c * truth.lambda_b0)
    return m_needed * (tau_us + truth.overhead_us)


def default_prior(
    mode: str,
    truth: TruthConfig,
    bounds: dict[str, tuple[float, float]] | None = None,
    **tuning,
) -> PriorSpec:
    """Uniform prior over the unknowns of ``mode`` (one of UNKNOWN_MODES);
    known coordinates pin to truth.

    ``bounds`` replaces entries of PRIOR_BOUNDS; ``tuning`` passes the
    filter knobs (n_particles, resample_threshold, shrinkage) through to
    PriorSpec, whose defaults apply otherwise.
    """
    if mode not in UNKNOWN_MODES:
        raise ValueError(f"unknowns must be one of {UNKNOWN_MODES}")
    table = {**PRIOR_BOUNDS, **(bounds or {})}
    names = ("omega0",) if mode == "omega-only" else PARAM_NAMES
    return PriorSpec(
        bounds={n: table[n] for n in names},
        fixed={n: getattr(truth.params, n) for n in PARAM_NAMES if n not in names},
        **tuning,
    )


def _design(
    run: RunConfig,
    truth: TruthConfig,
    cloud: ParticleCloud,
    summary: PosteriorSummary | None,
    lam_hat: float,
    tau_config: TauConfig,
    rng: np.random.Generator,
) -> float:
    if run.protocol == "random":
        return random_design(run.grid, rng)
    if run.protocol == "tau":
        return tau_design(summary.std["omega0"], tau_config, run.grid, rng)
    # Bayes: needs a background-rate estimate lam_hat > 0; before any
    # data exists the posterior is the bare prior and the pick is random.
    if lam_hat <= 0:
        return random_design(run.grid, rng)
    design_cloud = cloud
    n_sub = run.design_particles
    if 0 < n_sub < cloud.n_particles:
        # Monte-Carlo shortcut: score settings on a weight-resampled
        # subsample instead of the full cloud
        idx = rng.choice(cloud.n_particles, size=n_sub, p=cloud.weights)
        design_cloud = replace(
            cloud,
            values=cloud.values[idx],
            weights=np.full(n_sub, 1.0 / n_sub),
        )
    utilities = utility_map(design_cloud, run.grid, lam_hat, truth.overhead_us)
    return select_setting(utilities, run.grid, rng)


def _epoch_step(
    cloud: ParticleCloud, data: EpochData, tau: float, nu: float, where: str
) -> PosteriorSummary:
    """Absorb one epoch's data: update, resample, summarize, check.

    Failures raise RunError naming ``where`` (epoch, seed and protocol).
    """
    try:
        bayes_update(cloud, data, tau, nu)
    except InferenceError as exc:
        raise RunError(f"{exc} at {where}") from exc
    resample_if_needed(cloud)
    summary = summarize(cloud)
    for d in (summary.mean, summary.std):
        for name, value in d.items():
            if not math.isfinite(value):
                raise RunError(f"non-finite posterior {name} at {where}")
    return summary


def run_single(
    run: RunConfig,
    truth: TruthConfig,
    prior: PriorSpec | None = None,
    tau_config: TauConfig | None = None,
) -> RunTrace:
    """Execute one run and return its trace.

    Every record's summary describes the posterior after that epoch's
    data was absorbed; in concurrent workflows the absorption happens
    one epoch later (or in a final drain step), but is attributed to the
    epoch that produced the data.
    """
    return _run_epochs(run, truth, prior, tau_config)


def _run_epochs(
    run: RunConfig,
    truth: TruthConfig,
    prior: PriorSpec | None,
    tau_config: TauConfig | None,
    repeats: int | None = None,
) -> RunTrace:
    """The epoch loop of every workflow and of the Tau-scaling study.

    ``repeats`` fixes the sequences per epoch (the scaling study);
    otherwise an epoch measures as many sequences as fit its duration.
    """
    prior = prior or default_prior(DEFAULT_UNKNOWNS, truth)
    alloc_ms = run.resolved_epoch_time_ms(prior)
    if alloc_ms * 1000.0 <= truth.overhead_us:
        raise ValueError("epoch time allocation must exceed the sequence overhead")
    tau_config = tau_config or TauConfig()

    rng = np.random.default_rng(run.seed)
    cloud = init_prior(prior, rng)
    # Tau designs from the newest posterior sigma: the prior's is taken
    # here, every later one comes from the epoch step
    summary = summarize(cloud) if run.protocol == "tau" else None
    alloc_ns = round(alloc_ms * 1e6)
    bayes = run.protocol == "bayes"
    lagged = run.workflow != "series"
    timed = run.workflow != "concurrent-deterministic"
    max_epochs = run.epochs or math.inf
    budget_ns = math.inf if run.lab_time_s is None else round(run.lab_time_s * 1e9)
    nu = run.background_prior_exponent

    window: deque[tuple[int, int]] = deque(maxlen=run.background_window)  # (n_b, m_s)
    n_b_win = m_b_win = 0
    records: list[EpochRecord] = []
    # epochs are absorbed in order, so epoch k's summary is summaries[k]
    summaries: list[PosteriorSummary] = []
    pending: tuple[EpochData, float] | None = None  # measured, not yet absorbed

    def absorb():
        nonlocal pending, summary
        if pending is not None:
            (data, tau), pending = pending, None
            where = f"epoch {len(summaries)} (seed {run.seed}, protocol {run.protocol})"
            summary = _epoch_step(cloud, data, tau, nu, where)
            summaries.append(summary)

    def calc() -> float:
        """Absorb, then design the next setting; return the wall seconds."""
        nonlocal next_tau
        t0 = time.perf_counter()
        absorb()
        lam_hat = n_b_win / m_b_win if m_b_win else 0.0
        next_tau = _design(run, truth, cloud, summary, lam_hat, tau_config, rng)
        return time.perf_counter() - t0

    # the first setting is designed from the bare prior before the clock starts
    next_tau = _design(run, truth, cloud, summary, 0.0, tau_config, rng)
    t_lab_ns = 0
    cum_seq = 0
    while len(records) < max_epochs and t_lab_ns < budget_ns:
        epoch = len(records)
        tau = next_tau
        # Timing. Lagged workflows run the calc while this epoch is
        # measured, series after it. An epoch lasts its allocation, a
        # concurrent Bayes epoch its calc; series Bayes charges its calc
        # to lab time, as the instrument idles meanwhile (fig. 2(a)).
        t_calc = calc() if lagged else 0.0
        duration_ns = max(1, round(t_calc * 1e9)) if bayes and lagged and timed else alloc_ns
        m_s = repeats or int(max(1, duration_ns // sequence_duration_ns(tau, truth.overhead_us)))
        outcome = simulate_epoch(truth, tau, m_s, t_lab_ns / 1000.0, rng)
        window.append((outcome.n_b, m_s))
        n_b_win, m_b_win = map(sum, zip(*window))
        pending = (EpochData(outcome.n_s, m_s, n_b_win, m_b_win), tau)
        cum_seq += m_s
        t_lab_ns += outcome.t_epoch_ns
        if not lagged:
            t_calc = calc()
            t_lab_ns += round(t_calc * 1e9) if bayes else 0
        if not timed:
            # deterministic epochs record the paper's Bayes compute time
            t_calc = alloc_ms * 1e-3 if bayes else 0.0
        records.append(
            EpochRecord(
                epoch=epoch,
                tau_us=tau,
                m_s=m_s,
                n_s=outcome.n_s,
                n_b_win=n_b_win,
                m_b_win=m_b_win,
                cum_sequences=cum_seq,
                t_lab_ns=t_lab_ns,
                t_calc_s=t_calc,
                # series designs from the previous epoch's data, lagged
                # workflows from the epoch before that
                design_from_epoch=max(-1, epoch - (2 if lagged else 1)),
            )
        )
    absorb()  # drain: the last lagged epoch
    for rec, rec_summary in zip(records, summaries):
        rec.summary = rec_summary

    return RunTrace(run=run, truth=truth, records=records, final_ci90=ci90(cloud))


@dataclass
class BatchGridStats:
    """Pointwise statistics of many runs on one common grid."""

    grid: np.ndarray
    mean_sigma_omega: np.ndarray
    p5_sigma_omega: np.ndarray
    p95_sigma_omega: np.ndarray
    error_std: np.ndarray
    mean_eta2: np.ndarray


@dataclass
class BatchSummary:
    by_sequences: BatchGridStats
    by_labtime: BatchGridStats
    traces: list[RunTrace]


def derived_seeds(seed: int, n: int) -> list[int]:
    """Independent child seeds, stable across platforms and worker counts."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1, dtype=np.uint64)[0]) for c in children]


def _locf_stats(
    traces: list[RunTrace], axes: list[np.ndarray], true_omega: float
) -> BatchGridStats:
    """Each trace's last observation carried forward onto a geometric grid
    of BATCH_GRID_POINTS over the span that the traces' ``axes`` share."""
    lo = max(a[0] for a in axes)
    hi = min(a[-1] for a in axes)
    if not hi > lo:
        raise ValueError("runs do not overlap on the common axis")
    grid = np.geomspace(lo, hi, BATCH_GRID_POINTS)

    sig = np.empty((len(traces), BATCH_GRID_POINTS))
    err = np.empty_like(sig)
    eta2 = np.empty_like(sig)
    for i, (t, ax) in enumerate(zip(traces, axes)):
        idx = np.searchsorted(ax, grid, side="right") - 1
        idx = np.clip(idx, 0, len(ax) - 1)
        s = t.sigma_omega()[idx]
        m = t.omega_mean()[idx]
        tl = t.field_array("t_lab_ns").astype(float)[idx] * 1e-9
        sig[i] = s
        err[i] = m - true_omega
        eta2[i] = field_units(s, tl)[1]

    mean_sigma = sig.mean(axis=0)
    p5 = np.percentile(sig, 5, axis=0)
    p95 = np.percentile(sig, 95, axis=0)
    outside = np.count_nonzero((mean_sigma < p5) | (mean_sigma > p95))
    if outside:
        warnings.warn(
            f"batch mean sigma_omega leaves the 5-95 percentile band at "
            f"{outside}/{BATCH_GRID_POINTS} grid points",
            stacklevel=3,
        )
    return BatchGridStats(
        grid=grid,
        mean_sigma_omega=mean_sigma,
        p5_sigma_omega=p5,
        p95_sigma_omega=p95,
        error_std=err.std(axis=0, ddof=1),
        mean_eta2=eta2.mean(axis=0),
    )


def _run_one(args) -> RunTrace:
    run, truth, prior, tau_config = args
    return run_single(run, truth, prior, tau_config)


def run_batch(
    run: RunConfig,
    truth: TruthConfig,
    n_runs: int,
    prior: PriorSpec | None = None,
    tau_config: TauConfig | None = None,
    workers: int = 1,
) -> BatchSummary:
    """Independent runs with derived seeds, reduced onto common grids.

    Results are identical for any ``workers`` value; failures abort the
    whole batch with the offending seed in the message.
    """
    if n_runs < 2:
        raise ValueError("a batch needs n_runs >= 2")
    seeds = derived_seeds(run.seed, n_runs)
    jobs = [
        (replace(run, seed=s, run_id=i), truth, prior, tau_config)
        for i, s in enumerate(seeds)
    ]
    try:
        if workers > 1:
            # the pool forks all its workers up front: start no idle ones
            with ProcessPoolExecutor(max_workers=min(workers, n_runs)) as pool:
                traces = list(pool.map(_run_one, jobs))
        else:
            traces = [_run_one(j) for j in jobs]
    except RunError as exc:
        raise RunError(f"batch aborted: {exc}") from exc

    sequences = [t.field_array("cum_sequences").astype(float) for t in traces]
    lab_times = [t.field_array("t_lab_ns").astype(float) * 1e-9 for t in traces]
    true_omega = truth.params.omega0
    return BatchSummary(
        by_sequences=_locf_stats(traces, sequences, true_omega),
        by_labtime=_locf_stats(traces, lab_times, true_omega),
        traces=traces,
    )


@dataclass
class TauScalingRun:
    """Per-epoch record of one idealized constant-repeats Tau run."""

    tau_us: np.ndarray
    sigma: np.ndarray  # posterior sigma_omega after each epoch
    t_cum_us: np.ndarray


@dataclass
class TauScalingReport:
    runs: list[TauScalingRun]
    slope: float
    slope_ci: tuple[float, float]
    beta: float
    reference_slope: float = -1.0


def tau_scaling_experiment(
    truth: TruthConfig,
    repeats_per_epoch: int,
    n_runs: int,
    epochs: int = SCALING_EPOCHS,
    seed: int = 1,
    prior: PriorSpec | None = None,
    tau_config: TauConfig | None = None,
    grid: SettingGrid = SCALING_GRID,
) -> TauScalingReport:
    """Idealized Tau-protocol scaling: fixed repeats, zero overhead.

    Each run is a series Tau run in which every epoch measures exactly
    ``repeats_per_epoch`` sequences at tau = h / sigma, so each starts
    from the same phase uncertainty and should shrink sigma by a roughly
    constant factor beta. Reports the mid-run mean of sigma_{k+1}/sigma_k
    and the fitted slope of log sigma against log of cumulative
    precession time (the idealized prediction is -1; observed behavior
    is typically shallower).
    """
    if truth.overhead_us != 0:
        raise ValueError("the idealized scaling mode requires zero overhead")
    if repeats_per_epoch < 1:
        raise ValueError("repeats_per_epoch must be >= 1")
    if epochs < 5:
        raise ValueError("scaling fit needs at least 5 epochs")

    runs = []
    betas = []
    for run_seed in derived_seeds(seed, n_runs):
        run = RunConfig(
            protocol="tau", workflow="series", epochs=epochs, seed=run_seed, grid=grid,
        )
        trace = _run_epochs(run, truth, prior, tau_config, repeats=repeats_per_epoch)
        taus = trace.field_array("tau_us")
        sigmas = trace.sigma_omega()
        runs.append(
            TauScalingRun(tau_us=taus, sigma=sigmas, t_cum_us=np.cumsum(repeats_per_epoch * taus))
        )
        mid = slice(epochs // 4, max(epochs // 4 + 1, 3 * epochs // 4))
        ratios = sigmas[1:] / sigmas[:-1]
        betas.append(float(ratios[mid].mean()))

    # ordinary least squares of log sigma on log t, with the slope's
    # standard error from the residuals
    x = np.log(np.concatenate([r.t_cum_us for r in runs]))
    y = np.log(np.concatenate([r.sigma for r in runs]))
    dx = x - x.mean()
    dy = y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    resid = dy - slope * dx
    half = 1.96 * math.sqrt(resid @ resid / (len(x) - 2) / (dx @ dx))
    return TauScalingReport(
        runs=runs,
        slope=slope,
        slope_ci=(slope - half, slope + half),
        beta=float(np.mean(betas)),
    )
