import itertools
import math
import multiprocessing
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ramseydesign.instrument import TruthConfig, sequence_duration_ns
from ramseydesign.model import RamseyParams
from ramseydesign.particles import PriorSpec, init_prior, summarize
from ramseydesign import runner
from ramseydesign.runner import (
    PROTOCOLS,
    WORKFLOWS,
    RunConfig,
    RunError,
    default_prior,
    derived_seeds,
    run_batch,
    field_units,
    run_single,
    snr_epoch_time_us,
    tau_scaling_experiment,
)

TRUTH = TruthConfig(params=RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=math.inf))


def small_prior(n=600, lo=8.0, hi=11.0):
    return PriorSpec(
        bounds={"omega0": (lo, hi)},
        fixed={"a": 0.8, "c": 0.13, "t2": math.inf},
        n_particles=n,
    )


class TestRunConfig:
    def test_exactly_one_budget(self):
        with pytest.raises(ValueError):
            RunConfig(epochs=10, lab_time_s=1.0)
        with pytest.raises(ValueError):
            RunConfig()
        RunConfig(epochs=10)
        RunConfig(lab_time_s=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lab_time_s=1e300),
            dict(lab_time_s=math.nan),
            dict(epochs=2, epoch_time_ms=1e306),
            dict(epochs=2, epoch_time_ms=math.inf),
        ],
        ids=["lab-time-1e300", "lab-time-nan", "epoch-time-1e306", "epoch-time-inf"],
    )
    def test_time_without_a_finite_ns_count_rejected(self, kwargs):
        # lab time is counted in integer ns: round(inf) would overflow
        with pytest.raises(ValueError, match="finite in ns"):
            RunConfig(**kwargs)

    def test_epoch_time_defaults(self):
        # the Bayes default follows the prior's unknowns, not any RunConfig field
        one = default_prior("omega-only", TRUTH)
        four = default_prior("all-four", TRUTH)
        for prior in (one, four):
            assert RunConfig(epochs=1, protocol="tau").resolved_epoch_time_ms(prior) == 4.0
            assert RunConfig(epochs=1, protocol="random").resolved_epoch_time_ms(prior) == 4.0
            assert RunConfig(epochs=1, epoch_time_ms=2.5).resolved_epoch_time_ms(prior) == 2.5
        assert RunConfig(epochs=1, protocol="bayes").resolved_epoch_time_ms(one) == 4.4
        assert RunConfig(epochs=1, protocol="bayes").resolved_epoch_time_ms(four) == 13.0

    def test_bayes_epochs_follow_the_prior(self):
        # deterministic Bayes epochs record their allocation as calc time
        cfg = RunConfig(protocol="bayes", epochs=2, seed=2)
        for mode, ms in (("omega-only", 4.4), ("all-four", 13.0)):
            trace = run_single(cfg, TRUTH, default_prior(mode, TRUTH, n_particles=300))
            assert [rec.t_calc_s for rec in trace.records] == [ms * 1e-3] * 2


class TestRunSingle:
    def test_sequences_per_epoch_floor(self):
        cfg = RunConfig(protocol="tau", epochs=3, epoch_time_ms=4.0, seed=1)
        trace = run_single(cfg, TRUTH, small_prior())
        for rec in trace.records:
            expected = int(
                4_000_000 // (round(rec.tau_us * 1000) + 4070)
            )
            assert rec.m_s == max(1, expected)

    def test_m_s_matches_paper_example(self):
        # 4 ms at tau = 10 us: floor(4000/14.07) = 284
        assert 4_000_000 // (10_000 + 4070) == 284

    def test_lab_time_accounting_identity(self):
        cfg = RunConfig(protocol="random", epochs=25, seed=3)
        trace = run_single(cfg, TRUTH, small_prior())
        total = 0
        for rec in trace.records:
            total += rec.m_s * (round(rec.tau_us * 1000) + 4070)
            assert rec.t_lab_ns == total

    def test_cumulative_fields_monotone(self):
        cfg = RunConfig(protocol="bayes", epochs=30, seed=4, design_particles=200)
        trace = run_single(cfg, TRUTH, small_prior())
        cum = trace.field_array("cum_sequences")
        lab = trace.field_array("t_lab_ns")
        assert np.all(np.diff(cum) > 0)
        assert np.all(np.diff(lab) > 0)

    def test_series_design_lag_zero(self):
        cfg = RunConfig(protocol="bayes", epochs=12, seed=5, workflow="series")
        trace = run_single(cfg, TRUTH, small_prior())
        for i, rec in enumerate(trace.records):
            assert rec.design_from_epoch == i - 1

    def test_concurrent_design_lag_one(self):
        # d_i is produced by a posterior that excludes y_{i-1}
        for wf in ("concurrent", "concurrent-deterministic"):
            cfg = RunConfig(protocol="bayes", epochs=12, seed=6, workflow=wf)
            trace = run_single(cfg, TRUTH, small_prior())
            for i, rec in enumerate(trace.records):
                assert rec.design_from_epoch == max(i - 2, -1)

    @pytest.mark.parametrize("workflow", WORKFLOWS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_design_sees_the_epochs_absorbed_before_it(self, protocol, workflow, monkeypatch):
        # count the epochs the filter had absorbed when each setting was
        # designed, rather than trusting the lag the runner writes down
        absorbed = 0
        designs = []  # (epochs absorbed, setting) per design call
        update, design = runner.bayes_update, runner._design

        def counting_update(*args, **kwargs):
            nonlocal absorbed
            absorbed += 1
            return update(*args, **kwargs)

        def recording_design(*args, **kwargs):
            tau = design(*args, **kwargs)
            designs.append((absorbed, tau))
            return tau

        monkeypatch.setattr(runner, "bayes_update", counting_update)
        monkeypatch.setattr(runner, "_design", recording_design)
        cfg = RunConfig(protocol=protocol, epochs=10, seed=26, workflow=workflow)
        trace = run_single(cfg, TRUTH, small_prior(300))
        # one design per epoch, plus the setting after the last epoch
        assert len(designs) == len(trace.records) + 1
        for rec, (seen, tau) in zip(trace.records, designs):
            assert rec.tau_us == tau
            assert rec.design_from_epoch == seen - 1

    def test_every_record_has_summary(self):
        for wf in ("series", "concurrent", "concurrent-deterministic"):
            cfg = RunConfig(protocol="random", epochs=9, seed=7, workflow=wf)
            trace = run_single(cfg, TRUTH, small_prior())
            assert all(r.summary is not None for r in trace.records)

    def test_background_window_covers_recent_epochs(self):
        w = 5
        cfg = RunConfig(protocol="random", epochs=12, seed=8, background_window=w)
        trace = run_single(cfg, TRUTH, small_prior())
        for i, rec in enumerate(trace.records):
            lo = max(0, i - w + 1)
            assert rec.m_b_win == sum(r.m_s for r in trace.records[lo : i + 1])

    def test_window_dominates_signal_after_warmup(self):
        # m_s varies ~8x with tau under random selection, so the 10x
        # margin holds for typical epochs and never collapses entirely
        cfg = RunConfig(protocol="random", epochs=60, seed=9, background_window=20)
        trace = run_single(cfg, TRUTH, small_prior())
        ratios = np.array(
            [rec.n_b_win / max(rec.n_s, 1) for rec in trace.records[25:]]
        )
        assert np.median(ratios) >= 10.0
        assert ratios.min() >= 5.0

    def test_deterministic_mode_reproducible(self):
        cfg = RunConfig(
            protocol="bayes", epochs=15, seed=10, workflow="concurrent-deterministic"
        )
        a = run_single(cfg, TRUTH, small_prior())
        b = run_single(cfg, TRUTH, small_prior())
        for ra, rb in zip(a.records, b.records):
            assert (ra.tau_us, ra.m_s, ra.n_s, ra.n_b_win) == (
                rb.tau_us,
                rb.m_s,
                rb.n_s,
                rb.n_b_win,
            )
            assert ra.summary.mean == rb.summary.mean

    def test_lab_time_budget_completes_last_epoch(self):
        cfg = RunConfig(protocol="random", lab_time_s=0.02, seed=11)
        trace = run_single(cfg, TRUTH, small_prior())
        assert trace.records[-1].t_lab_ns >= 20_000_000
        assert trace.records[-2].t_lab_ns < 20_000_000

    def test_epoch_time_must_exceed_overhead(self):
        cfg = RunConfig(protocol="random", epochs=2, epoch_time_ms=0.004)
        with pytest.raises(ValueError):
            run_single(cfg, TruthConfig(), small_prior())


    @pytest.mark.parametrize("workflow", ["series", "concurrent-deterministic"])
    def test_tau_summarizes_once_per_epoch(self, workflow, monkeypatch):
        # the prior once, then each epoch step's summary feeds the next design
        calls = []
        original = runner.summarize

        def counting(cloud):
            calls.append(cloud)
            return original(cloud)

        monkeypatch.setattr(runner, "summarize", counting)
        cfg = RunConfig(protocol="tau", epochs=7, seed=3, workflow=workflow)
        run_single(cfg, TRUTH, small_prior())
        assert len(calls) == 7 + 1


# one reading of the fake clock to the next; exactly representable, so
# every calc step lasts exactly this long
CLOCK_STEP_S = 2.0**-11


@pytest.fixture
def fixed_step_clock(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(
        runner, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * CLOCK_STEP_S)
    )


class TestTimingRule:
    """Epoch length, lab time and recorded calc time per workflow."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_series_charges_only_bayes_calc_to_lab_time(self, protocol, fixed_step_clock):
        cfg = RunConfig(protocol=protocol, lab_time_s=0.03, seed=21, workflow="series")
        prior = small_prior(300)
        trace = run_single(cfg, TRUTH, prior)
        alloc_ns = round(cfg.resolved_epoch_time_ms(prior) * 1e6)
        before = 0
        for rec in trace.records:
            seq_ns = sequence_duration_ns(rec.tau_us, TRUTH.overhead_us)
            assert rec.m_s == max(1, alloc_ns // seq_ns)
            assert rec.t_calc_s == CLOCK_STEP_S
            step = rec.m_s * seq_ns
            if protocol == "bayes":
                step += round(rec.t_calc_s * 1e9)
            assert rec.t_lab_ns - before == step
            before = rec.t_lab_ns

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_concurrent_epoch_lasts_the_calc_for_bayes(self, protocol, fixed_step_clock):
        cfg = RunConfig(protocol=protocol, lab_time_s=0.02, seed=22, workflow="concurrent")
        prior = small_prior(300)
        trace = run_single(cfg, TRUTH, prior)
        alloc_ns = round(cfg.resolved_epoch_time_ms(prior) * 1e6)
        before = 0
        for rec in trace.records:
            seq_ns = sequence_duration_ns(rec.tau_us, TRUTH.overhead_us)
            assert rec.t_calc_s == CLOCK_STEP_S
            if protocol == "bayes":
                assert rec.m_s * seq_ns <= round(rec.t_calc_s * 1e9) or rec.m_s == 1
            else:
                assert rec.m_s == max(1, alloc_ns // seq_ns)
            # computation never adds to lab time
            assert rec.t_lab_ns - before == rec.m_s * seq_ns
            before = rec.t_lab_ns

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_deterministic_records_the_allocation_for_bayes(self, protocol, fixed_step_clock):
        cfg = RunConfig(protocol=protocol, epochs=6, seed=23)
        prior = small_prior(300)
        trace = run_single(cfg, TRUTH, prior)
        expected = cfg.resolved_epoch_time_ms(prior) * 1e-3 if protocol == "bayes" else 0.0
        assert [rec.t_calc_s for rec in trace.records] == [expected] * 6


class TestFaultInjection:
    @pytest.mark.parametrize("workflow", WORKFLOWS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_all_zero_count_window(self, protocol, workflow, monkeypatch):
        # a near-zero background rate makes every n_s and n_b 0; with
        # nu = -1 each epoch's likelihood is then flat in R
        truth = replace(TRUTH, lambda_b0=1e-12)

        def no_utility_map(*args, **kwargs):
            raise AssertionError("lambda_b estimate is 0: Bayes must pick at random")

        monkeypatch.setattr(runner, "utility_map", no_utility_map)
        cfg = RunConfig(protocol=protocol, epochs=8, seed=24, workflow=workflow)
        trace = run_single(cfg, truth, small_prior(300))
        assert len(trace.records) == 8
        assert all(rec.n_s == 0 and rec.n_b_win == 0 for rec in trace.records)
        # the same draws as the run's prior; renormalizing flat weights
        # moves the summary by rounding only
        prior = summarize(init_prior(small_prior(300), cfg.seed))
        for rec in trace.records:
            assert rec.summary.mean == pytest.approx(prior.mean, rel=1e-12)
            assert rec.summary.std == pytest.approx(prior.std, rel=1e-12)

    def test_collapsed_coordinate(self):
        truth = TruthConfig()
        prior = default_prior(
            "all-four", truth, {"omega0": (9.4, 9.4 + 1e-12)}, n_particles=500
        )
        cfg = RunConfig(protocol="bayes", epochs=30, seed=25)
        trace = run_single(cfg, truth, prior)
        assert len(trace.records) == 30
        for rec in trace.records:
            for d in (rec.summary.mean, rec.summary.std):
                assert all(math.isfinite(v) for v in d.values())


@pytest.fixture
def nan_likelihood(monkeypatch):
    # every weight update meets a non-finite likelihood
    monkeypatch.setattr(
        "ramseydesign.particles.log_likelihood_general",
        lambda n_s, m_s, n_b, m_b, r, nu=-1.0: np.full(np.shape(r), np.nan),
    )


class TestInferenceFailure:
    def test_run_single_raises_run_error_naming_seed(self, nan_likelihood):
        cfg = RunConfig(protocol="tau", epochs=3, seed=41)
        with pytest.raises(RunError, match=r"at epoch 0 \(seed 41, protocol tau\)"):
            run_single(cfg, TRUTH, small_prior())

    def test_run_batch_names_seed(self, nan_likelihood):
        cfg = RunConfig(protocol="random", epochs=3, seed=42)
        first = derived_seeds(42, 2)[0]
        with pytest.raises(RunError, match=f"batch aborted: .*seed {first}"):
            run_batch(cfg, TRUTH, 2, prior=small_prior(), workers=1)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker processes see the patched likelihood only when forked",
    )
    def test_run_batch_worker_failure_names_seed(self, nan_likelihood):
        cfg = RunConfig(protocol="random", epochs=3, seed=43)
        first = derived_seeds(43, 2)[0]
        with pytest.raises(RunError, match=f"batch aborted: .*seed {first}"):
            run_batch(cfg, TRUTH, 2, prior=small_prior(), workers=2)


class TestSensitivity:
    def test_unit_conversion(self):
        sigma_b, eta2 = field_units(1.0, 1.0)
        assert sigma_b == pytest.approx(5.68410511e-6, rel=1e-8)
        assert eta2 == pytest.approx(3.230905091e-11, rel=1e-8)

    def test_zero_sigma(self):
        assert field_units(0.0, 2.0)[1] == 0.0

    def test_eta2_constant_under_sqrt_scaling(self):
        k = 0.4
        vals = [field_units(k * t**-0.5, t)[1] for t in (0.5, 1.0, 7.0, 40.0)]
        assert max(vals) / min(vals) == pytest.approx(1.0, rel=1e-12)


def test_snr_time_matches_reported_scale():
    # ~40 photons, ~300 repeats, ~4 ms at tau = 10 us
    t = snr_epoch_time_us(TruthConfig())
    m_needed = 0.8 / (0.13**2 * 0.15)
    assert t == pytest.approx(m_needed * 14.07)
    assert 3_000 < t < 6_000  # a few ms, in us


class TestBatch:
    def test_derived_seeds_distinct_and_stable(self):
        a = derived_seeds(5, 8)
        assert a == derived_seeds(5, 8)
        assert len(set(a)) == 8

    def test_worker_count_does_not_change_results(self):
        cfg = RunConfig(protocol="random", epochs=25, seed=12)
        s1 = run_batch(cfg, TRUTH, 4, prior=small_prior(), workers=1)
        s2 = run_batch(cfg, TRUTH, 4, prior=small_prior(), workers=2)
        np.testing.assert_array_equal(
            s1.by_sequences.mean_sigma_omega, s2.by_sequences.mean_sigma_omega
        )

    def test_pool_starts_no_more_workers_than_runs(self, monkeypatch):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", InProcessPool)
        cfg = RunConfig(protocol="random", epochs=5, seed=15)
        s = run_batch(cfg, TRUTH, 2, prior=small_prior(), workers=64)
        assert started == [2]
        ref = run_batch(cfg, TRUTH, 2, prior=small_prior(), workers=1)
        np.testing.assert_array_equal(
            s.by_sequences.mean_sigma_omega, ref.by_sequences.mean_sigma_omega
        )
        run_batch(cfg, TRUTH, 3, prior=small_prior(), workers=2)
        assert started == [2, 2]

    def test_needs_two_runs(self):
        cfg = RunConfig(protocol="random", epochs=5, seed=13)
        with pytest.raises(ValueError):
            run_batch(cfg, TRUTH, 1, prior=small_prior())

    def test_batch_grids_and_band(self):
        cfg = RunConfig(protocol="random", epochs=40, seed=14)
        s = run_batch(cfg, TRUTH, 5, prior=small_prior())
        st = s.by_sequences
        assert np.all(np.diff(st.grid) > 0)
        assert np.all(st.p5_sigma_omega <= st.p95_sigma_omega + 1e-15)
        assert s.traces is not None and len(s.traces) == 5
        # net contraction over the run; the strict <5%-violations check
        # runs on acceptance-scale batches
        assert st.mean_sigma_omega[-1] < 0.8 * st.mean_sigma_omega[0]


class TestTauScaling:
    def test_requires_zero_overhead(self):
        with pytest.raises(ValueError):
            tau_scaling_experiment(TruthConfig(), 1000, 2)

    def test_requires_five_epochs(self):
        truth = TruthConfig(params=TRUTH.params, overhead_us=0.0)
        with pytest.raises(ValueError):
            tau_scaling_experiment(truth, 1000, 2, epochs=4)

    def test_report_contents(self):
        truth = TruthConfig(params=TRUTH.params, overhead_us=0.0)
        report = tau_scaling_experiment(
            truth,
            repeats_per_epoch=20_000,
            n_runs=3,
            epochs=12,
            seed=2,
            prior=default_prior("omega-only", truth, n_particles=2000),
        )
        assert report.beta < 1.0
        assert report.slope_ci[0] < report.slope < report.slope_ci[1]
        assert report.reference_slope == -1.0
        for run in report.runs:
            assert np.all(np.diff(run.t_cum_us) > 0)
            assert len(run.sigma) == 12

    def test_phase_uncertainty_construction(self):
        # tau_k tracks h / sigma_{k-1} within grid snapping
        truth = TruthConfig(params=TRUTH.params, overhead_us=0.0)
        report = tau_scaling_experiment(
            truth,
            repeats_per_epoch=20_000,
            n_runs=2,
            epochs=10,
            seed=3,
            prior=default_prior("omega-only", truth, n_particles=2000),
        )
        for run in report.runs:
            sig_before = np.concatenate(
                [[59.0 / math.sqrt(12.0)], run.sigma[:-1]]
            )
            for tau, sig in zip(run.tau_us[1:], sig_before[1:]):
                target = 0.5 / sig
                if 0.05 <= target <= 5000.0:
                    assert abs(tau - target) <= 0.025 + 1e-9

    def test_slope_matches_least_squares_reference(self):
        from scipy import stats

        truth = TruthConfig(params=TRUTH.params, overhead_us=0.0)
        report = tau_scaling_experiment(
            truth, 20_000, 2, epochs=8, seed=4,
            prior=default_prior("omega-only", truth, n_particles=1000),
        )
        x = np.log(np.concatenate([run.t_cum_us for run in report.runs]))
        y = np.log(np.concatenate([run.sigma for run in report.runs]))
        fit = stats.linregress(x, y)
        half = 1.96 * fit.stderr
        assert report.slope == pytest.approx(fit.slope, rel=1e-12)
        assert report.slope_ci == pytest.approx(
            (fit.slope - half, fit.slope + half), rel=1e-12
        )
