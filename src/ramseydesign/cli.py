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
from .output import (
    write_batch,
    write_likelihood_inset,
    write_saturation,
    write_scaling,
    write_trace,
)
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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", type=Path, default=None, help="config file path")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name in ("run", "batch"):
            p.add_argument("--protocol", choices=PROTOCOLS, default=None)
            p.add_argument("--unknowns", choices=UNKNOWN_MODES, default=None)
        if name == "batch":
            p.add_argument("--runs", type=int, default=None, help="override batch.runs")
            p.add_argument("--workers", type=int, default=None, help="override batch.workers")
            p.add_argument(
                "--keep-traces", dest="write_traces", action="store_true",
                help="also write every run's trace",
            )
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


def _cmd_run(cfg: ParsedConfig, out: Path, args):
    """Single run: a per-epoch trace."""
    trace = run_single(cfg.run, cfg.truth, cfg.prior, cfg.tau)
    write_trace(out / "trace.csv", trace)
    return ["trace.csv"], {"epochs_measured": len(trace.records)}


def _cmd_batch(cfg: ParsedConfig, out: Path, args):
    """Many runs: pointwise statistics on common grids."""
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
    return outputs, {"n_runs": len(summary.traces)}


def _cmd_demo(cfg: ParsedConfig, out: Path, args):
    """Background-averaging likelihood study."""
    write_likelihood_inset(out / "likelihood_inset.csv", *likelihood_inset())
    points = background_saturation(
        truth=cfg.truth,
        runs=cfg.demo.saturation_runs,
        epochs=cfg.demo.saturation_epochs,
        seed=cfg.run.seed,
        workers=cfg.workers,
    )
    write_saturation(out / "background_saturation.csv", points)
    return ["likelihood_inset.csv", "background_saturation.csv"], {}


def _cmd_scaling(cfg: ParsedConfig, out: Path, args):
    """Idealized constant-repeats Tau scaling report."""
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
    return ["tau_scaling.csv"], {
        "slope": report.slope,
        "slope_ci": list(report.slope_ci),
        "beta": report.beta,
        "reference_slope": report.reference_slope,
    }


# subcommand -> function of (config, output directory, parsed arguments)
# that writes the command's files and returns their names and its own
# manifest entries; the function's docstring is the subcommand's help
COMMANDS = {
    "run": _cmd_run,
    "batch": _cmd_batch,
    "likelihood-demo": _cmd_demo,
    "tau-scaling": _cmd_scaling,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    manifest = {
        "command": args.command,
        "package_version": __version__,
        "effective_config": SIDECAR_NAME,
    }
    out = None  # set once the sidecar is written; a manifest follows it
    try:
        cfg = _load(args)
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / SIDECAR_NAME).write_text(cfg.echo())
        out = args.out
        t0 = time.perf_counter()
        outputs, extras = COMMANDS[args.command](cfg, out, args)
        manifest.update(
            seed=cfg.run.seed,
            outputs=sorted(outputs),
            t_snr_us_at_tau10=snr_epoch_time_us(cfg.truth),
            **extras,
            wall_s=time.perf_counter() - t0,
        )
        code = EXIT_OK
    except ConfigError as exc:
        code, error = EXIT_CONFIG, f"config error: {exc}"
    except (RunError, ValueError, OSError, MemoryError) as exc:
        code, error = EXIT_RUN, f"run error: {exc}"
    if code != EXIT_OK:
        print(error, file=sys.stderr)
        manifest.update(exit_code=code, error=error)
    if out is not None:
        try:
            (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        except OSError as exc:
            print(f"run error: {exc}", file=sys.stderr)
            return EXIT_RUN
    return code


if __name__ == "__main__":
    sys.exit(main())
