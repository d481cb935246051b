"""Delimiter-separated exports and their readers.

Every file the program writes is written here. Trace, batch and scaling
files are re-parseable by the reader next to their writer; the two
likelihood-demo files have no reader. Floats are written with
shortest-round-trip repr, so deterministic runs export byte-identical
files.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path

import numpy as np

from .demo import SaturationPoint
from .runner import (
    BatchGridStats,
    BatchSummary,
    RunTrace,
    TauScalingReport,
    field_units,
)

# model parameter -> the prefix of its mean and sigma columns in a trace
TRACE_PARAMS = {"omega0": "omega", "a": "a", "c": "c", "t2": "t2"}
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
    *(f"{prefix}_{stat}" for prefix in TRACE_PARAMS.values() for stat in ("mean", "sigma")),
    "sigma_B_T",
    "eta2_T2s",
)

BATCH_STATS = tuple(f.name for f in fields(BatchGridStats))
BATCH_COLUMNS = ("axis", *BATCH_STATS)
# axis column value -> the BatchSummary field holding that axis's stats
BATCH_AXES = {"cum_sequences": "by_sequences", "t_lab_s": "by_labtime"}

SCALING_COLUMNS = ("run_id", "epoch", "tau_us", "sigma_omega", "t_cum_us")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path, columns, rows, line_end="\r\n") -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator=line_end)
        w.writerow(columns)
        w.writerows(rows)
    return path


def write_trace(path, trace: RunTrace) -> Path:
    """One row per epoch; inactive unknowns carry truth and sigma 0."""
    run, params = trace.run, trace.truth.params

    def row(rec):
        mean, std = rec.summary.mean, rec.summary.std
        stats = []
        for name in TRACE_PARAMS:
            stats += (mean.get(name, getattr(params, name)), std.get(name, 0.0))
        t_lab_s = rec.t_lab_ns * 1e-9
        sigma_b, eta2 = field_units(std.get("omega0", 0.0), t_lab_s)
        return [
            run.run_id,
            rec.epoch,
            run.protocol,
            _fmt(rec.tau_us),
            rec.m_s,
            rec.n_s,
            rec.n_b_win,
            rec.m_b_win,
            rec.cum_sequences,
            _fmt(t_lab_s),
            _fmt(rec.t_calc_s),
            *map(_fmt, stats),
            _fmt(sigma_b),
            _fmt(eta2),
        ]

    return _write_csv(path, TRACE_COLUMNS, map(row, trace.records))


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
    def rows():
        for axis, attr in BATCH_AXES.items():
            stats = getattr(summary, attr)
            for values in zip(*(getattr(stats, name) for name in BATCH_STATS)):
                yield [axis, *map(_fmt, values)]

    return _write_csv(path, BATCH_COLUMNS, rows())


def read_batch(path) -> dict[str, BatchGridStats]:
    """Batch file back as {axis: BatchGridStats}."""
    cols = _read_csv(path, BATCH_COLUMNS)
    out = {}
    for axis in BATCH_AXES:
        sel = cols["axis"] == axis
        out[axis] = BatchGridStats(**{name: cols[name][sel] for name in BATCH_STATS})
    return out


def write_scaling(path, report: TauScalingReport) -> Path:
    rows = (
        [run_id, k, *map(_fmt, values)]
        for run_id, run in enumerate(report.runs)
        for k, values in enumerate(zip(run.tau_us, run.sigma, run.t_cum_us))
    )
    return _write_csv(path, SCALING_COLUMNS, rows)


def read_scaling(path) -> dict[str, np.ndarray]:
    return _read_csv(path, SCALING_COLUMNS)


def write_likelihood_inset(path, r_grid, curves, poisson_ref) -> Path:
    """The likelihood-demo curves over R, one column per background multiple
    (``demo.likelihood_inset``'s return values)."""
    qs = sorted(curves)
    columns = ["R", *(f"mb_over_ms_{q}" for q in qs), "poisson"]
    rows = zip(r_grid, *(curves[q] for q in qs), poisson_ref)
    return _write_csv(path, columns, (map(_fmt, row) for row in rows), "\n")


def write_saturation(path, points: list[SaturationPoint]) -> Path:
    """The likelihood-demo saturation study, one row per window length."""
    columns = [f.name for f in fields(SaturationPoint)]
    rows = ([_fmt(getattr(p, name)) for name in columns] for p in points)
    return _write_csv(path, columns, rows, "\n")
