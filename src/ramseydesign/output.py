"""Delimiter-separated exports and their readers.

Every file written here is re-parseable by the reader next to it.
Floats are written with shortest-round-trip repr, so deterministic runs
export byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .runner import (
    BatchGridStats,
    BatchSummary,
    RunTrace,
    TauScalingReport,
    field_units,
)

TRACE_COLUMNS = (
    "run_id",
    "epoch",
    "protocol",
    "tau_us",
    "m_s",
    "n_s",
    "n_b_win",
    "m_b_win",
    "cum_sequences",
    "t_lab_s",
    "t_calc_s",
    "omega_mean",
    "omega_sigma",
    "a_mean",
    "a_sigma",
    "c_mean",
    "c_sigma",
    "t2_mean",
    "t2_sigma",
    "sigma_B_T",
    "eta2_T2s",
)

BATCH_COLUMNS = (
    "axis",
    "grid",
    "mean_sigma_omega",
    "p5_sigma_omega",
    "p95_sigma_omega",
    "error_std",
    "mean_eta2",
)

SCALING_COLUMNS = ("run_id", "epoch", "tau_us", "sigma_omega", "t_cum_us")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_trace(path, trace: RunTrace) -> Path:
    """One row per epoch; inactive unknowns carry truth and sigma 0."""
    path = Path(path)
    truth = {
        "a": trace.truth.params.a,
        "c": trace.truth.params.c,
        "omega0": trace.truth.params.omega0,
        "t2": trace.truth.params.t2,
    }
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for rec in trace.records:
            stats = {}
            for name in ("a", "c", "omega0", "t2"):
                if name in rec.summary.mean:
                    stats[name] = (rec.summary.mean[name], rec.summary.std[name])
                else:
                    stats[name] = (truth[name], 0.0)
            t_lab_s = rec.t_lab_ns * 1e-9
            sigma_b, eta2 = field_units(stats["omega0"][1], t_lab_s)
            w.writerow(
                [
                    trace.run.run_id,
                    rec.epoch,
                    trace.run.protocol,
                    _fmt(rec.tau_us),
                    rec.m_s,
                    rec.n_s,
                    rec.n_b_win,
                    rec.m_b_win,
                    rec.cum_sequences,
                    _fmt(t_lab_s),
                    _fmt(rec.t_calc_s),
                    _fmt(stats["omega0"][0]),
                    _fmt(stats["omega0"][1]),
                    _fmt(stats["a"][0]),
                    _fmt(stats["a"][1]),
                    _fmt(stats["c"][0]),
                    _fmt(stats["c"][1]),
                    _fmt(stats["t2"][0]),
                    _fmt(stats["t2"][1]),
                    _fmt(sigma_b),
                    _fmt(eta2),
                ]
            )
    return path


def _read_csv(path, columns) -> dict[str, np.ndarray]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != tuple(columns):
            raise ValueError(f"unexpected header in {path}: {header}")
        rows = list(reader)
    out: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        col = [row[j] for row in rows]
        try:
            out[name] = np.array([float(v) for v in col])
        except ValueError:
            out[name] = np.array(col)
    return out


def read_trace(path) -> dict[str, np.ndarray]:
    """Columns of a trace file as arrays (strings stay strings)."""
    return _read_csv(path, TRACE_COLUMNS)


def write_batch(path, summary: BatchSummary) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BATCH_COLUMNS)
        for axis, stats in (
            ("cum_sequences", summary.by_sequences),
            ("t_lab_s", summary.by_labtime),
        ):
            for i in range(len(stats.grid)):
                w.writerow(
                    [
                        axis,
                        _fmt(stats.grid[i]),
                        _fmt(stats.mean_sigma_omega[i]),
                        _fmt(stats.p5_sigma_omega[i]),
                        _fmt(stats.p95_sigma_omega[i]),
                        _fmt(stats.error_std[i]),
                        _fmt(stats.mean_eta2[i]),
                    ]
                )
    return path


def read_batch(path) -> dict[str, BatchGridStats]:
    """Batch file back as {axis: BatchGridStats}."""
    cols = _read_csv(path, BATCH_COLUMNS)
    out = {}
    for axis in ("cum_sequences", "t_lab_s"):
        sel = cols["axis"] == axis
        out[axis] = BatchGridStats(
            grid=cols["grid"][sel],
            mean_sigma_omega=cols["mean_sigma_omega"][sel],
            p5_sigma_omega=cols["p5_sigma_omega"][sel],
            p95_sigma_omega=cols["p95_sigma_omega"][sel],
            error_std=cols["error_std"][sel],
            mean_eta2=cols["mean_eta2"][sel],
        )
    return out


def write_scaling(path, report: TauScalingReport) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SCALING_COLUMNS)
        for run_id, run in enumerate(report.runs):
            for k in range(len(run.tau_us)):
                w.writerow(
                    [
                        run_id,
                        k,
                        _fmt(run.tau_us[k]),
                        _fmt(run.sigma[k]),
                        _fmt(run.t_cum_us[k]),
                    ]
                )
    return path


def read_scaling(path) -> dict[str, np.ndarray]:
    return _read_csv(path, SCALING_COLUMNS)
