import math

import numpy as np

from ramseydesign.instrument import TruthConfig
from ramseydesign.model import RamseyParams
from ramseydesign.output import (
    TRACE_COLUMNS,
    read_batch,
    read_scaling,
    read_trace,
    write_batch,
    write_scaling,
    write_trace,
)
from ramseydesign.particles import PriorSpec
from ramseydesign.runner import (
    RunConfig,
    run_batch,
    run_single,
    tau_scaling_experiment,
)

TRUTH = TruthConfig(params=RamseyParams(a=0.8, c=0.13, omega0=9.4, t2=math.inf))
PRIOR = PriorSpec(
    bounds={"omega0": (8.0, 11.0)},
    fixed={"a": 0.8, "c": 0.13, "t2": math.inf},
    n_particles=400,
)


def short_trace(seed=1):
    cfg = RunConfig(protocol="bayes", epochs=8, seed=seed, design_particles=100)
    return run_single(cfg, TRUTH, PRIOR)


def test_trace_header_and_roundtrip(tmp_path):
    trace = short_trace()
    path = write_trace(tmp_path / "trace.csv", trace)
    assert path.read_text().splitlines()[0] == ",".join(TRACE_COLUMNS)
    cols = read_trace(path)
    assert len(cols["epoch"]) == 8
    np.testing.assert_array_equal(cols["epoch"], np.arange(8))
    np.testing.assert_allclose(cols["m_s"], trace.field_array("m_s"))
    np.testing.assert_allclose(cols["omega_sigma"], trace.sigma_omega())
    assert set(cols["protocol"]) == {"bayes"}


def test_trace_fixed_params_carry_truth_and_zero_sigma(tmp_path):
    trace = short_trace()
    cols = read_trace(write_trace(tmp_path / "t.csv", trace))
    np.testing.assert_array_equal(cols["a_mean"], 0.8)
    np.testing.assert_array_equal(cols["a_sigma"], 0.0)
    np.testing.assert_array_equal(cols["t2_mean"], math.inf)
    np.testing.assert_array_equal(cols["t2_sigma"], 0.0)


def test_trace_sensitivity_columns_consistent(tmp_path):
    trace = short_trace()
    cols = read_trace(write_trace(tmp_path / "t.csv", trace))
    np.testing.assert_allclose(
        cols["eta2_T2s"], cols["sigma_B_T"] ** 2 * cols["t_lab_s"], rtol=1e-12
    )


def test_trace_byte_identical_for_same_seed(tmp_path):
    a = write_trace(tmp_path / "a.csv", short_trace(seed=5))
    b = write_trace(tmp_path / "b.csv", short_trace(seed=5))
    assert a.read_bytes() == b.read_bytes()
    c = write_trace(tmp_path / "c.csv", short_trace(seed=6))
    assert a.read_bytes() != c.read_bytes()


def test_batch_roundtrip(tmp_path):
    cfg = RunConfig(protocol="random", epochs=20, seed=2)
    summary = run_batch(cfg, TRUTH, 3, prior=PRIOR)
    path = write_batch(tmp_path / "batch.csv", summary)
    back = read_batch(path)
    for axis, stats in (
        ("cum_sequences", summary.by_sequences),
        ("t_lab_s", summary.by_labtime),
    ):
        np.testing.assert_allclose(back[axis].grid, stats.grid)
        np.testing.assert_allclose(
            back[axis].mean_sigma_omega, stats.mean_sigma_omega
        )
        np.testing.assert_allclose(back[axis].mean_eta2, stats.mean_eta2)


def test_scaling_roundtrip(tmp_path):
    truth0 = TruthConfig(params=TRUTH.params, overhead_us=0.0)
    report = tau_scaling_experiment(
        truth0, 20_000, 2, epochs=6, seed=4,
        prior=PriorSpec(
            bounds={"omega0": (1.0, 60.0)},
            fixed={"a": 0.8, "c": 0.13, "t2": math.inf},
            n_particles=500,
        ),
    )
    back = read_scaling(write_scaling(tmp_path / "s.csv", report))
    assert len(back["epoch"]) == 12
    np.testing.assert_allclose(back["sigma_omega"][:6], report.runs[0].sigma)
