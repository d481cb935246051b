#!/usr/bin/env python3
"""Benchmark of the ramsey-design measure-infer-design loop.

    python3 perfbench/run.py --workload design-omega --seed 1 --seconds 30 --trace 0

Runs one workload through the ``ramsey-design`` CLI from the checkout's
``src`` tree, checks its outputs with ``checks.py``, and prints each
metric with its unit. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` (CLI launches) and
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 3
DEADLINE_S = 170.0

# Design workloads: package defaults except the particle count, which is
# cut from 50 000 so that one run of 101 epochs (100 timed samples after
# the random first pick) fits the benchmark's time budget.
DESIGN_CONFIG = {
    "run.workflow": "concurrent",
    "run.epochs": "101",
    "prior.particles": "10000",
}
# The single-unknown shape of the acceptance gate; 1 s of 4 ms epochs
# gives 250 epochs per run.
FILTER_CONFIG = {
    "run.workflow": "concurrent",
    "run.lab_time_s": "1",
    "run.epoch_time_ms": "4",
    "prior.particles": "20000",
    "prior.omega0_min": "9.3",
    "prior.omega0_max": "9.5",
    "prior.shrinkage": "0.995",
    "truth.t2_us": "inf",
    "batch.runs": "8",
    "batch.workers": "2",
}


@dataclass(frozen=True)
class Workload:
    config: dict[str, str]
    # CLI arguments of each launch in one round
    rounds: tuple[tuple[str, ...], ...]
    # check of each trace's final posterior
    posterior_check: Callable[[dict, dict], list[str]]
    # Bayes design runs: the traced run must capture utility maps
    designs: bool
    # overrides the set-up probe applies, as the CLI flags do
    probe: tuple[str, ...] = ()


WORKLOADS = {
    "design-omega": Workload(DESIGN_CONFIG, (("run",),), checks.check_not_overconfident, True),
    "design-four": Workload(
        DESIGN_CONFIG,
        (("run", "--unknowns", "all-four"),),
        checks.check_truth_covered,
        True,
        ("run.unknowns=all-four",),
    ),
    "filter-batch": Workload(
        FILTER_CONFIG,
        (
            ("batch", "--keep-traces", "--protocol", "tau"),
            ("batch", "--keep-traces", "--protocol", "random"),
        ),
        checks.check_posterior_agrees,
        False,
    ),
}


@dataclass
class Launch:
    out: Path
    command: int  # position in the round
    ok: bool
    wall_s: float
    traced: bool

    @functools.cached_property
    def traces(self) -> list[dict]:
        return [checks.read_csv(f) for f in sorted(self.out.glob("trace*.csv"))]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("RAMSEY_DESIGN_SEED", None)
    # one BLAS thread per process: design runs are one process, batches two
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], deadline: float) -> tuple[int, str, float]:
    """Run one child in its own process group; kill the group on timeout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += "\ntimed out"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(f"{' '.join(cmd)} exited {proc.returncode}:\n{err[-2000:]}\n")
    return proc.returncode, out, wall


def program_seed(bench_seed: int, round_index: int) -> int:
    state = np.random.SeedSequence([bench_seed, round_index]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def setup_probes(cfg_path: Path, wl: Workload, deadline: float) -> list[dict]:
    """Timings from SETUP_PROBES fresh processes."""
    probes = []
    for _ in range(SETUP_PROBES):
        code, out, _ = run_child(
            [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path), *wl.probe], deadline
        )
        if code != 0:
            raise SystemExit("set-up probe failed")
        probes.append(json.loads(out.strip().splitlines()[-1]))
    return probes


def setup_s(probe: dict) -> float:
    """Import of ramseydesign.cli, parse_config and init_prior, in seconds."""
    return probe["import_s"] + (probe["parse_config_ms"] + probe["init_prior_ms"]) * 1e-3


def run_pass(wl, cfg_path, work, bench_seed, seconds, traced, deadline, batch_workers=None) -> list[Launch]:
    """Whole rounds of launches until the next round would overrun ``seconds``."""
    launches = []
    t_start = time.perf_counter()
    k = 0
    while True:
        t_round = time.perf_counter()
        for j, args in enumerate(wl.rounds):
            out = work / f"{'traced' if traced else 'plain'}_{k:02d}_{j}"
            cli = [*args, "--config", str(cfg_path), "--out", str(out),
                   "--seed", str(program_seed(bench_seed, k))]
            if batch_workers is not None and args[0] == "batch":
                cli += ["--workers", str(batch_workers)]
            if traced:
                out.mkdir(parents=True)
                cmd = [sys.executable, str(HERE / "tracer.py"), str(out / "spans.json"), str(out), "--", *cli]
            else:
                cmd = [sys.executable, "-m", "ramseydesign.cli", *cli]
            code, _, wall = run_child(cmd, deadline)
            sys.stderr.write(f"{out.name}: {' '.join(args)} exit {code} in {wall:.2f} s\n")
            launches.append(Launch(out, j, code == 0, wall, traced))
        k += 1
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            return launches


def read_config(path: Path) -> dict:
    cfg = {}
    for line in path.read_text().splitlines():
        key, raw = (s.strip() for s in line.split("=", 1))
        for parse in (int, float):
            try:
                cfg[key] = parse(raw)
                break
            except ValueError:
                continue
        else:
            cfg[key] = raw
    return cfg


def same_value(value, raw: str) -> bool:
    try:
        return float(value) == float(raw)
    except ValueError:
        return str(value) == raw


def epoch_calc_ms(launches: list[Launch], q: float) -> tuple[float, int]:
    """q-th percentile of t_calc_s over every epoch after the first, in ms.

    With several commands in a round (filter-batch: Tau, then Random) the
    percentile is taken per command and averaged. The protocols' epoch
    costs differ, and the median of the pooled mixture falls in the gap
    between them, where it moves by about 10 % from run to run.
    Returns the value and the number of samples.
    """
    by_command: dict[int, list[np.ndarray]] = {}
    for x in launches:
        for tr in x.traces:
            by_command.setdefault(x.command, []).append(tr["t_calc_s"][1:] * 1e3)
    values = [np.percentile(np.concatenate(v), q) for v in by_command.values()]
    return float(np.mean(values)), sum(a.size for v in by_command.values() for a in v)


def check_outputs(wl: Workload, launches: list[Launch]) -> tuple[list[str], float]:
    """Every output check on every completed launch, then the self-tests."""
    problems: list[str] = []
    self_test_inputs = []
    regrets = [0.0]
    captures = []
    for x in launches:
        cfg = read_config(x.out / "effective_config.txt")
        for key, raw in wl.config.items():
            if key != "batch.workers" and not same_value(cfg[key], raw):
                problems.append(f"{x.out.name}: effective {key} = {cfg[key]}, configured {raw}")
        for i, tr in enumerate(x.traces):
            where = f"{x.out.name}/trace {i}"
            problems += [f"{where}: {p}" for p in checks.check_accounting(tr, cfg)]
            problems += [f"{where}: {p}" for p in wl.posterior_check(tr, cfg)]
            if wl.posterior_check is checks.check_truth_covered:
                z = checks.truth_z(tr, cfg)
                sys.stderr.write(f"{where}: truth at " + ", ".join(f"{k} {v:.2f}" for k, v in z.items()) + " sigma\n")
            if not self_test_inputs:
                self_test_inputs.append((tr, cfg, wl.posterior_check))
        if (x.out / "batch.csv").exists():
            batch = checks.read_csv(x.out / "batch.csv")
            problems += [f"{x.out.name}: {p}" for p in checks.check_batch_reduction(batch, x.traces)]
        for f in sorted(x.out.glob("cloud_*.npz")):
            with np.load(f) as z:
                cap = {k: z[k] for k in z.files}
            found, regret = checks.check_design(cap)
            problems += [f"{x.out.name}/{f.name}: {p}" for p in found]
            regrets.append(regret)
            captures.append(cap)
    if wl.designs and any(x.traced for x in launches) and not captures:
        problems.append("the traced run captured no cloud for the design check")
    problems += checks.corrupted_checks_bite(self_test_inputs, captures[:1])
    return problems, max(regrets)


def spans_of(launches: list[Launch]) -> tuple[list[list], set[str]]:
    """Spans of each traced launch, and the functions every launch wrapped."""
    spans, wrapped = [], None
    for x in launches:
        data = json.loads((x.out / "spans.json").read_text())
        wrapped = set(data["wrapped"]) if wrapped is None else wrapped & set(data["wrapped"])
        spans.append(data["spans"])
    return spans, wrapped


def layer_metrics(spans_by_launch, wrapped, probes, overhead_ms, traced_p50, regret) -> dict:
    """Per-layer metrics from the spans of the traced launches and the probes."""
    durs: dict[str, list[float]] = {}
    attrs: dict[str, list[dict]] = {}
    run_single_self = 0.0
    for spans in spans_by_launch:
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, a) in enumerate(spans):
            durs.setdefault(name, []).append(t1 - t0)
            attrs.setdefault(name, []).append(a or {})
            if name == "runner.run_single":
                run_single_self += (t1 - t0) - child_time[i]

    def p50(values, scale=1.0):
        return float(np.median(values)) * scale if len(values) else 0.0

    def ms_p50(name):
        return p50(durs.get(name, []), 1e3)

    def probe_p50(key):
        return p50([p[key] for p in probes])

    epochs = len(durs.get("instrument.simulate_epoch", []))
    per_epoch = (lambda x: x / epochs) if epochs else (lambda x: None)
    resampled = [d for d, a in zip(durs.get("particles.resample_if_needed", []),
                                   attrs.get("particles.resample_if_needed", [])) if a["resampled"]]
    cells = sum(a["cells"] for a in attrs.get("protocols.utility_map", []))
    written = [a["bytes"] for a in attrs.get("output.write_trace", [])]
    # name: (value, unit, wrapped functions the value is read from)
    table = {
        "protocols.utility_map.ms_p50": (ms_p50("protocols.utility_map"), "ms", ("protocols.utility_map",)),
        "protocols.utility_map.cells_per_epoch": (per_epoch(cells), "count", ("protocols.utility_map", "instrument.simulate_epoch")),
        "protocols.utility_map.regret_max": (regret, "ratio", ("protocols.utility_map",)),
        "particles.bayes_update.ms_p50": (ms_p50("particles.bayes_update"), "ms", ("particles.bayes_update",)),
        "likelihood.log_likelihood_general.ms_p50": (ms_p50("likelihood.log_likelihood_general"), "ms", ("likelihood.log_likelihood_general",)),
        "particles.resample_if_needed.ms_p50": (p50(resampled, 1e3), "ms", ("particles.resample_if_needed",)),
        "particles.resample_events": (len(resampled), "count", ("particles.resample_if_needed",)),
        "runner.epochs": (epochs, "count", ("instrument.simulate_epoch",)),
        "particles.resample_events_per_epoch": (per_epoch(len(resampled)), "ratio", ("particles.resample_if_needed", "instrument.simulate_epoch")),
        "particles.summarize.ms_p50": (ms_p50("particles.summarize"), "ms", ("particles.summarize",)),
        "particles.summarize.calls_per_epoch": (per_epoch(len(durs.get("particles.summarize", []))), "ratio", ("particles.summarize", "instrument.simulate_epoch")),
        "particles.init_prior.ms": (probe_p50("init_prior_ms"), "ms", ()),
        "instrument.simulate_epoch.us_p50": (ms_p50("instrument.simulate_epoch") * 1e3, "us", ("instrument.simulate_epoch",)),
        "runner.run_single.self_ms_per_epoch": (per_epoch(run_single_self * 1e3), "ms", ("runner.run_single", "instrument.simulate_epoch")),
        "runner.run_batch.s": (p50(durs.get("runner.run_batch", [])), "s", ("runner.run_batch",)),
        "output.write_trace.ms": (ms_p50("output.write_trace"), "ms", ("output.write_trace",)),
        "output.write_trace.bytes": (p50(written), "B", ("output.write_trace",)),
        "config.parse_config.ms": (probe_p50("parse_config_ms"), "ms", ()),
        "cli.import_s": (probe_p50("import_s"), "s", ()),
        "tracing.epoch_calc_ms_p50": (traced_p50, "ms", ()),
        "tracing.overhead_ms": (overhead_ms, "ms", ()),
    }
    out = {}
    for key, (value, unit, sources) in table.items():
        gone = [f for f in sources if f not in wrapped]
        if gone:
            sys.stderr.write(f"missing: {', '.join(gone)} no longer exists; {key} not measured\n")
            value = None
        out[key] = {"value": value, "unit": unit}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ramseydesign" / "cli.py").is_file():
        sys.stderr.write(f"no program to benchmark: {SRC / 'ramseydesign'} is missing\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.txt"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in wl.config.items()))

    probes = setup_probes(cfg_path, wl, deadline)
    if args.trace:
        # untraced and traced halves on the same seeds, batches in one
        # process so every span is kept: their difference is the tracing
        # overhead
        plain = run_pass(wl, cfg_path, work, args.seed, args.seconds / 2, False, deadline,
                         batch_workers=1)
        traced = run_pass(wl, cfg_path, work, args.seed, args.seconds / 2, True, deadline,
                          batch_workers=1)
    else:
        plain = run_pass(wl, cfg_path, work, args.seed, args.seconds, False, deadline)
        traced = []
    launches = plain + traced
    plain, traced = [x for x in plain if x.ok], [x for x in traced if x.ok]
    if not plain or (args.trace and not traced):
        sys.stderr.write("no launch completed; nothing to measure\n")
        return 1
    problems, regret = check_outputs(wl, plain + traced)
    for p in problems:
        sys.stderr.write(f"CHECK FAILED: {p}\n")

    plain_p50, n_samples = epoch_calc_ms(plain, 50)
    if args.trace:
        traced_p50, _ = epoch_calc_ms(traced, 50)
        spans, wrapped = spans_of(traced)
        metrics = layer_metrics(spans, wrapped, probes, traced_p50 - plain_p50, traced_p50, regret)
    else:
        epochs = sum(len(tr["epoch"]) for x in plain for tr in x.traces)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = {
            "epoch_calc_ms_p50": {"value": plain_p50, "unit": "ms"},
            "epoch_calc_ms_p90": {"value": epoch_calc_ms(plain, 90)[0], "unit": "ms"},
            "epochs_per_s": {"value": epochs / sum(x.wall_s for x in plain), "unit": "1/s"},
            "setup_s": {"value": float(np.median([setup_s(p) for p in probes])), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"epoch_calc samples: {n_samples}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    failed = sum(not x.ok for x in launches)
    print(f"{args.workload}: attempted {len(launches)} runs, failed {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(launches),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
