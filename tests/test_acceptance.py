"""Acceptance gate: one test per criterion, one printed verdict line each.

The expensive single-unknown batches (criteria 3, 4, 5) and four-unknown
batches (criterion 6) are shared session fixtures. Batch sizes and
particle counts are sized for a small CI box; every inference size is
configurable package-side.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import ramseydesign as rd
from ramseydesign.demo import background_saturation, likelihood_inset
from ramseydesign.likelihood import EpochData, log_likelihood, marginal_likelihood_oracle
from ramseydesign.output import write_trace
from ramseydesign.runner import tau_scaling_experiment

pytestmark = pytest.mark.slow

WORKERS = 2

TRUTH_SINGLE = rd.TruthConfig(
    params=rd.RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=math.inf)
)
TRUTH_FOUR = rd.TruthConfig(
    params=rd.RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=10.0)
)

# Single-unknown batches start from tight priors (about +-1 % around the
# known coarse value) so the criterion window [1e5, 3e5] measures the
# asymptotic scaling law rather than prior erasure. Tau gets a warmer
# start still: its tau = h/sigma ladder must reach the top of the grid
# before the window opens, or the window reflects the approach, not the
# law. Filter sizes are chosen for runtime.
PRIOR_SINGLE = rd.PriorSpec(
    bounds={"omega0": (9.3, 9.5)},
    fixed={"a": 0.8, "c": 0.13, "t2": math.inf},
    n_particles=20_000,
    shrinkage=0.995,
)
PRIOR_SINGLE_BAYES = replace(PRIOR_SINGLE, n_particles=2500)
PRIOR_SINGLE_TAU = replace(PRIOR_SINGLE, bounds={"omega0": (9.35, 9.45)})

PRIOR_FOUR = rd.PriorSpec(
    bounds={
        "a": (0.4, 1.2),
        "c": (0.02, 0.3),
        "omega0": (8.0, 11.0),
        "t2": (2.0, 30.0),
    },
    n_particles=4000,
)

BATCH_RUNS = 20
BATCH_SEED = 20250809
SINGLE_LAB_S = 8.0
FOUR_LAB_S = 2.8


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _slope(summary, lo=1e5, hi=3e5):
    g = summary.by_sequences.grid
    m = summary.by_sequences.mean_sigma_omega
    sel = (g >= lo) & (g <= hi)
    if sel.sum() < 4:
        raise RuntimeError("batch does not span the fit window")
    return float(np.polyfit(np.log(g[sel]), np.log(m[sel]), 1)[0])


def _time_to(summary, target):
    g = summary.by_labtime.grid
    m = summary.by_labtime.mean_sigma_omega
    idx = int(np.argmax(m <= target))
    return float(g[idx]) if m[idx] <= target else math.inf


@pytest.fixture(scope="session")
def single_batches():
    batches = {}
    for proto, prior, dp in (
        ("bayes", PRIOR_SINGLE_BAYES, 800),
        ("tau", PRIOR_SINGLE_TAU, 0),
        ("random", PRIOR_SINGLE, 0),
    ):
        cfg = rd.RunConfig(
            protocol=proto,
            lab_time_s=SINGLE_LAB_S,
            seed=BATCH_SEED,
            workflow="concurrent-deterministic",
            design_particles=dp,
        )
        batches[proto] = rd.run_batch(
            cfg, TRUTH_SINGLE, BATCH_RUNS, prior=prior, workers=WORKERS,
        )
    return batches


@pytest.fixture(scope="session")
def four_batches():
    batches = {}
    for proto, n, dp in (("bayes", 3000, 800), ("random", 4000, 0)):
        cfg = rd.RunConfig(
            protocol=proto,
            lab_time_s=FOUR_LAB_S,
            seed=BATCH_SEED + 1,
            workflow="concurrent-deterministic",
            design_particles=dp,
        )
        batches[proto] = rd.run_batch(
            cfg,
            TRUTH_FOUR,
            BATCH_RUNS,
            prior=replace(PRIOR_FOUR, n_particles=n),
            workers=WORKERS,
        )
    return batches


def test_criterion_1_likelihood_doubling_consistency():
    rng = np.random.default_rng(1)
    r_scan = np.linspace(0.1, 2.0, 41)
    worst = 0.0
    for _ in range(100):
        m_s = int(rng.integers(1, 3000))
        m_b = int(rng.integers(1, 40_000))
        d = EpochData(
            n_s=int(rng.poisson(0.12 * m_s)),
            m_s=m_s,
            n_b=int(rng.poisson(0.15 * m_b)),
            m_b=m_b,
        )
        d2 = EpochData(2 * d.n_s, 2 * d.m_s, 2 * d.n_b, 2 * d.m_b)
        q = 2.0 * log_likelihood(d, r_scan) - log_likelihood(d2, r_scan)
        q -= 2.0 * log_likelihood(d, 1.0) - log_likelihood(d2, 1.0)
        worst = max(worst, float(np.max(np.abs(q))))
    _report(
        1, worst < 1e-9,
        f"doubling residual over 100 tuples, R in [0.1,2]: max {worst:.2e} < 1e-9",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2)
    r_scan = np.linspace(0.1, 2.0, 20)
    worst = 0.0
    for _ in range(20):
        m_s = int(rng.integers(1, 80))
        m_b = int(rng.integers(m_s, 50 * m_s))
        d = EpochData(
            n_s=int(rng.integers(1, 25)),
            m_s=m_s,
            n_b=int(rng.integers(1, max(2, int(0.3 * m_b)))),
            m_b=m_b,
        )
        log_ratio = np.array(
            [
                math.log(marginal_likelihood_oracle(d, float(r))) - log_likelihood(d, float(r))
                for r in r_scan
            ]
        )
        worst = max(worst, float(np.ptp(log_ratio)))
    _report(
        2, worst < 1e-6,
        f"quadrature vs closed form: worst relative spread {worst:.2e} < 1e-6",
    )


def test_criterion_3_scaling_law(single_batches):
    slopes = {p: _slope(s) for p, s in single_batches.items()}
    ok = all(abs(v + 0.5) <= 0.05 for v in slopes.values())
    detail = ", ".join(f"{p} {v:+.3f}" for p, v in slopes.items())
    _report(3, ok, f"log-log slope over [1e5, 3e5] (want -0.5 +- 0.05): {detail}")


def test_criterion_3b_mean_curve_monotone(single_batches):
    # smoke property attached to the same batches: mean curve monotone
    # non-increasing beyond the first decade, violations < 5 %. At 20
    # runs the pointwise mean carries ~1 % sampling noise (the paper uses
    # 100-run batches), so increases below 1 % of the local value count
    # as noise, not violations.
    worst = 0.0
    for s in single_batches.values():
        g = s.by_sequences.grid
        m = s.by_sequences.mean_sigma_omega
        start = int(np.searchsorted(g, g[0] * 10.0))
        tail = m[start:]
        worst = max(worst, float(np.mean(np.diff(tail) > 0.01 * tail[:-1])))
    assert worst < 0.05, f"monotonicity violations {worst:.1%}"


def test_criterion_4_protocol_speedups(single_batches):
    target = float(single_batches["random"].by_labtime.mean_sigma_omega[-1])
    times = {p: _time_to(s, target) for p, s in single_batches.items()}
    sp_tau = times["tau"] / times["bayes"]
    sp_rand = times["random"] / times["bayes"]
    ok = 1.4 <= sp_tau <= 3.5 and 2.5 <= sp_rand <= 6.0
    _report(
        4, ok,
        f"time to sigma={target:.2e}: Bayes/Tau {sp_tau:.2f} (want 1.4-3.5), "
        f"Bayes/Random {sp_rand:.2f} (want 2.5-6.0)",
    )
    # eta^2 is flat past 1 s of lab time for the Bayes batch
    g = single_batches["bayes"].by_labtime.grid
    eta2 = single_batches["bayes"].by_labtime.mean_eta2
    sel = g >= 1.0
    flat = float(eta2[sel].max() / eta2[sel].min())
    assert flat < 2.0, f"eta^2 flatness max/min {flat:.2f}"


def _comb_fraction(summary, omega_true):
    spacing = math.pi / omega_true
    teeth = np.arange(spacing / 2.0, 20.0 + spacing, spacing)
    hits = total = 0
    for trace in summary.traces:
        late = trace.records[len(trace.records) // 2 :]
        for rec in late:
            hits += int(np.min(np.abs(rec.tau_us - teeth)) <= spacing / 8.0)
            total += 1
    return hits / total


def test_criterion_5_comb_structure(single_batches):
    fb = _comb_fraction(single_batches["bayes"], 9.4)
    fr = _comb_fraction(single_batches["random"], 9.4)
    ok = fb >= 2.0 * fr
    _report(
        5, ok,
        f"late-stage tau within 1/8 spacing of max-|slope| points: bayes "
        f"{fb:.3f} vs random {fr:.3f} (want >= 2x)",
    )


def test_criterion_6_four_unknown_equivalence(four_batches):
    bayes, rand = four_batches["bayes"], four_batches["random"]
    lo = max(bayes.by_sequences.grid[0], rand.by_sequences.grid[0], 1e5)
    hi = min(bayes.by_sequences.grid[-1], rand.by_sequences.grid[-1])
    grid = np.geomspace(lo, hi, 25)

    def at(s, g):
        idx = np.clip(
            np.searchsorted(s.by_sequences.grid, g, side="right") - 1,
            0,
            len(s.by_sequences.grid) - 1,
        )
        return s.by_sequences.mean_sigma_omega[idx]

    ratio = at(rand, grid) / at(bayes, grid)
    worst = float(np.max(np.maximum(ratio, 1.0 / ratio)))
    target = float(rand.by_labtime.mean_sigma_omega[-1])
    t_b, t_r = _time_to(bayes, target), _time_to(rand, target)
    ok = worst <= 1.5 and t_b < t_r
    _report(
        6, ok,
        f"per-sequence sigma ratio (Sm>=1e5) worst {worst:.2f} (want <= 1.5); "
        f"lab time to sigma={target:.2e}: bayes {t_b:.2f}s < random {t_r:.2f}s",
    )


def test_criterion_7_background_saturation():
    r_grid, curves, _ = likelihood_inset()
    step = r_grid[1] - r_grid[0]
    peaks_ok = all(
        abs(r_grid[int(np.argmax(c))] - 2.0 / 3.0) <= step + 1e-12
        for c in curves.values()
    )
    points = background_saturation(
        truth=TRUTH_SINGLE,
        window_ratios=(1, 10, 100),
        runs=10,
        epochs=220,
        seed=BATCH_SEED + 2,
        n_particles=1500,
        workers=WORKERS,
    )
    by_ratio = {p.window_ratio: p.mean_final_sigma_omega for p in points}
    improvement = (by_ratio[10] - by_ratio[100]) / by_ratio[10]
    ok = peaks_ok and improvement < 0.10
    _report(
        7, ok,
        f"inset peaks at R=0.667+-grid: {peaks_ok}; sigma improvement "
        f"window 10->100: {improvement:+.1%} (want < 10%)",
    )


CAL_RUNS = 50


def test_criterion_8_calibration_and_biased_prior_exponent():
    cfg = rd.RunConfig(
        protocol="random",
        epochs=400,
        seed=BATCH_SEED + 3,
        workflow="concurrent-deterministic",
    )
    cal = rd.run_batch(
        cfg, TRUTH_SINGLE, CAL_RUNS, prior=PRIOR_SINGLE, workers=WORKERS,
    )
    covered = 0
    within4 = 0
    for trace in cal.traces:
        final = trace.records[-1].summary
        lo, hi = trace.final_ci90["omega0"]
        covered += int(lo <= 9.4 <= hi)
        within4 += int(abs(final.mean["omega0"] - 9.4) <= 4.0 * final.std["omega0"])
    coverage = covered / CAL_RUNS
    # convergence-to-truth invariant rides on the same runs
    assert within4 / CAL_RUNS >= 0.95, f"only {within4}/{CAL_RUNS} within 4 sigma"

    # the inconsistent background-prior exponent (0 instead of -1) biases
    # the baseline-ratio estimate; shown on four-unknown runs with a
    # single-epoch background window where the bias is strongest
    cfg_nu = rd.RunConfig(
        protocol="random",
        epochs=3000,
        epoch_time_ms=2.0,
        seed=BATCH_SEED + 4,
        workflow="concurrent-deterministic",
        background_window=1,
        background_prior_exponent=0.0,
    )
    biased = rd.run_batch(
        cfg_nu, TRUTH_FOUR, CAL_RUNS, prior=PRIOR_FOUR, workers=WORKERS,
    )
    hits = 0
    for trace in biased.traces:
        sm = trace.records[-1].summary
        hits += int(abs(sm.mean["a"] - 0.8) > 4.0 * sm.std["a"])
    bias_rate = hits / CAL_RUNS

    ok = 0.80 <= coverage <= 1.0 and bias_rate >= 0.5
    _report(
        8, ok,
        f"90% CI coverage {coverage:.0%} (want 90%+-10%); biased-exponent "
        f"runs with |a error| > 4 sigma: {bias_rate:.0%} (want >= 50%)",
    )


def test_criterion_9_tau_scaling_report():
    truth = rd.TruthConfig(
        params=rd.RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=math.inf),
        overhead_us=0.0,
    )
    report = tau_scaling_experiment(
        truth,
        repeats_per_epoch=20_000,
        n_runs=10,
        epochs=40,
        seed=BATCH_SEED + 5,
        prior=replace(PRIOR_SINGLE, bounds={"omega0": (1.0, 60.0)}, n_particles=4000),
    )
    ok = report.beta < 1.0 and math.isfinite(report.slope)
    _report(
        9, ok,
        f"idealized constant-repeats runs: beta {report.beta:.3f} (want < 1); "
        f"log sigma-log T slope {report.slope:.2f}, CI "
        f"({report.slope_ci[0]:.2f}, {report.slope_ci[1]:.2f}), "
        f"Heisenberg reference {report.reference_slope}",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = rd.RunConfig(
        protocol="bayes",
        epochs=40,
        seed=BATCH_SEED + 6,
        workflow="concurrent-deterministic",
        design_particles=500,
    )
    prior = replace(PRIOR_SINGLE_BAYES, n_particles=1000)
    files = []
    for name in ("a", "b"):
        trace = rd.run_single(cfg, TRUTH_SINGLE, prior)
        files.append(write_trace(tmp_path / f"{name}.csv", trace).read_bytes())
    other = rd.run_single(replace(cfg, seed=BATCH_SEED + 7), TRUTH_SINGLE, prior)
    other_bytes = write_trace(tmp_path / "c.csv", other).read_bytes()
    ok = files[0] == files[1] and files[0] != other_bytes
    _report(
        10, ok,
        "identical (config, seed) give byte-identical traces; a different "
        "seed gives a different trace",
    )
