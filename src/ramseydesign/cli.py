"""Command-line entry point.

Subcommands: run, batch, likelihood-demo, tau-scaling. Each reads an
optional flat key-value config file, echoes the effective configuration
to a sidecar for provenance, writes delimiter-separated results plus a
JSON manifest into the output directory, and exits 0 on success, 2 on
configuration errors, 3 on execution failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__
from .config import ConfigError, ParsedConfig, parse_config
from .demo import background_saturation, likelihood_inset
from .output import write_batch, write_scaling, write_trace
from .runner import (
    PROTOCOLS,
    UNKNOWN_MODES,
    RunError,
    default_prior,
    run_batch,
    run_single,
    snr_epoch_time_us,
    tau_scaling_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3

SIDECAR_NAME = "effective_config.txt"
MANIFEST_NAME = "manifest.json"

# flag (without its dashes) -> the config key it overrides
OVERRIDE_FLAGS = {
    "seed": "run.seed",
    "protocol": "run.protocol",
    "unknowns": "run.unknowns",
    "runs": "batch.runs",
    "workers": "batch.workers",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-design",
        description="Simulated adaptive Ramsey measurements: run, batch "
        "statistics, likelihood demo, Tau-protocol scaling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, protocol_flags=True):
        p.add_argument("--config", type=Path, default=None, help="config file path")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if protocol_flags:
            p.add_argument("--protocol", choices=PROTOCOLS, default=None)
            p.add_argument("--unknowns", choices=UNKNOWN_MODES, default=None)

    p_run = sub.add_parser("run", help="single run, per-epoch trace")
    common(p_run)
    p_batch = sub.add_parser("batch", help="many runs, pointwise statistics")
    common(p_batch)
    p_batch.add_argument("--runs", type=int, default=None, help="override batch.runs")
    p_batch.add_argument(
        "--workers", type=int, default=None, help="override batch.workers"
    )
    p_batch.add_argument(
        "--keep-traces", dest="write_traces", action="store_true",
        help="also write every run's trace",
    )
    p_demo = sub.add_parser(
        "likelihood-demo", help="background-averaging likelihood study"
    )
    common(p_demo, protocol_flags=False)
    p_scale = sub.add_parser(
        "tau-scaling", help="idealized constant-repeats Tau scaling report"
    )
    common(p_scale, protocol_flags=False)
    return parser


def _load(args) -> ParsedConfig:
    overrides = {}
    sources = {}
    for flag, key in OVERRIDE_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = str(value)
            sources[key] = f"--{flag} {value}"
    return parse_config(args.config, overrides, sources)


def _prepare_out(args, cfg: ParsedConfig) -> Path:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / SIDECAR_NAME).write_text(cfg.echo())
    return out


def _write_manifest(out: Path, command: str, cfg: ParsedConfig, outputs, extra=None):
    manifest = {
        "command": command,
        "package_version": __version__,
        "seed": cfg.run.seed,
        "effective_config": SIDECAR_NAME,
        "outputs": sorted(outputs),
        "t_snr_us_at_tau10": snr_epoch_time_us(cfg.truth),
    }
    if extra:
        manifest.update(extra)
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _cmd_run(args) -> int:
    cfg = _load(args)
    out = _prepare_out(args, cfg)
    t0 = time.perf_counter()
    trace = run_single(cfg.run, cfg.truth, cfg.prior, cfg.tau)
    write_trace(out / "trace.csv", trace)
    _write_manifest(
        out,
        "run",
        cfg,
        ["trace.csv"],
        {"epochs_measured": len(trace.records), "wall_s": time.perf_counter() - t0},
    )
    return EXIT_OK


def _cmd_batch(args) -> int:
    cfg = _load(args)
    out = _prepare_out(args, cfg)
    t0 = time.perf_counter()
    summary = run_batch(
        cfg.run,
        cfg.truth,
        cfg.batch_runs,
        prior=cfg.prior,
        tau_config=cfg.tau,
        workers=cfg.workers,
    )
    outputs = ["batch.csv"]
    write_batch(out / "batch.csv", summary)
    if args.write_traces:
        for trace in summary.traces:
            name = f"trace_{trace.run.run_id:04d}.csv"
            write_trace(out / name, trace)
            outputs.append(name)
    _write_manifest(
        out,
        "batch",
        cfg,
        outputs,
        {"n_runs": len(summary.traces), "wall_s": time.perf_counter() - t0},
    )
    return EXIT_OK


def _cmd_demo(args) -> int:
    cfg = _load(args)
    out = _prepare_out(args, cfg)
    t0 = time.perf_counter()
    r_grid, curves, poisson_ref = likelihood_inset()
    with (out / "likelihood_inset.csv").open("w") as fh:
        cols = ["R"] + [f"mb_over_ms_{q}" for q in sorted(curves)] + ["poisson"]
        fh.write(",".join(cols) + "\n")
        for i, r in enumerate(r_grid):
            row = [repr(float(r))]
            row += [repr(float(curves[q][i])) for q in sorted(curves)]
            row.append(repr(float(poisson_ref[i])))
            fh.write(",".join(row) + "\n")
    points = background_saturation(
        truth=cfg.truth,
        runs=cfg.demo.saturation_runs,
        epochs=cfg.demo.saturation_epochs,
        seed=cfg.run.seed,
        workers=cfg.workers,
    )
    with (out / "background_saturation.csv").open("w") as fh:
        fh.write("window_ratio,mean_final_sigma_omega\n")
        for pt in points:
            fh.write(f"{pt.window_ratio},{pt.mean_final_sigma_omega!r}\n")
    _write_manifest(
        out,
        "likelihood-demo",
        cfg,
        ["likelihood_inset.csv", "background_saturation.csv"],
        {"wall_s": time.perf_counter() - t0},
    )
    return EXIT_OK


def _cmd_scaling(args) -> int:
    cfg = _load(args)
    out = _prepare_out(args, cfg)
    t0 = time.perf_counter()
    # idealized mode: zero overhead, no dephasing, extended grid
    truth = dataclasses.replace(
        cfg.truth,
        params=dataclasses.replace(cfg.truth.params, t2=float("inf")),
        overhead_us=0.0,
    )
    prior = default_prior(
        "omega-only",
        truth,
        cfg.prior.bounds,
        n_particles=cfg.prior.n_particles,
        resample_threshold=cfg.prior.resample_threshold,
        shrinkage=cfg.prior.shrinkage,
    )
    report = tau_scaling_experiment(
        truth,
        repeats_per_epoch=cfg.scaling.repeats,
        n_runs=cfg.scaling.runs,
        epochs=cfg.scaling.epochs,
        seed=cfg.run.seed,
        prior=prior,
        tau_config=cfg.tau,
        grid=cfg.scaling.grid,
    )
    write_scaling(out / "tau_scaling.csv", report)
    _write_manifest(
        out,
        "tau-scaling",
        cfg,
        ["tau_scaling.csv"],
        {
            "slope": report.slope,
            "slope_ci": list(report.slope_ci),
            "beta": report.beta,
            "reference_slope": report.reference_slope,
            "wall_s": time.perf_counter() - t0,
        },
    )
    return EXIT_OK


COMMANDS = {
    "run": _cmd_run,
    "batch": _cmd_batch,
    "likelihood-demo": _cmd_demo,
    "tau-scaling": _cmd_scaling,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RunError, ValueError, OSError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
