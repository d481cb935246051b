"""Byte-level pins of the program's outputs.

Each test hashes one output file (or the echoed configuration) of a
small, seeded, bit-reproducible run and compares it with a recorded
SHA-256 digest. Traces are taken under a fixed-step fake clock, so the
series and concurrent workflows, which record wall time, reproduce too.
A change that only restructures code must leave every digest as it is.
Re-record only for a change meant to alter outputs:

    PYTHONPATH=src python tests/test_golden.py

prints the current digests in the layout of the tables below, with a
trailing ``# changed`` on each one that differs from its recorded value.
"""

from __future__ import annotations

import hashlib
import itertools
import platform
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ramseydesign import runner
from ramseydesign.cli import main
from ramseydesign.config import SEED_ENV_VAR, parse_config
from ramseydesign.instrument import TruthConfig
from ramseydesign.output import write_batch, write_trace
from ramseydesign.runner import RunConfig, run_batch, run_single

# Trace floats depend on numpy's random streams and the platform's libm;
# the file digests hold for this numpy version on this architecture.
RECORDED_ON = ("2.4.6", "x86_64")

# The benchmark's workload configurations (perfbench/run.py), copied.
DESIGN_CONFIG = {
    "run.workflow": "concurrent",
    "run.epochs": "101",
    "prior.particles": "10000",
}
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

ECHO_CASES = {
    "default": {},
    "design-omega": DESIGN_CONFIG,
    "design-four": {**DESIGN_CONFIG, "run.unknowns": "all-four"},
    "filter-batch": FILTER_CONFIG,
}

# Series and concurrent traces carry the wall time of each calc step.
# Their digests are taken under a fake clock that advances by a fixed,
# exactly representable step per reading, so every calc lasts one step.
CLOCK_STEP_S = 2.0**-11


@contextmanager
def fixed_step_clock():
    ticks = itertools.count()
    saved = runner.time
    runner.time = SimpleNamespace(perf_counter=lambda: next(ticks) * CLOCK_STEP_S)
    try:
        yield
    finally:
        runner.time = saved


# name -> (config overrides, RunConfig.design_particles); runs without a
# run.workflow key use the default concurrent-deterministic workflow
TRACE_CASES = {
    "bayes-omega": ({"run.epochs": "25", "prior.particles": "1000"}, 0),
    "bayes-omega-subsample": ({"run.epochs": "25", "prior.particles": "2000"}, 500),
    "bayes-four": (
        {"run.unknowns": "all-four", "run.epochs": "12", "prior.particles": "1000"},
        0,
    ),
    # Tau priors narrow enough that tau = h/sigma lies inside the grid
    "tau-epochs": (
        {
            "run.protocol": "tau",
            "run.epochs": "40",
            "prior.particles": "1000",
            "prior.omega0_min": "8",
            "prior.omega0_max": "11",
        },
        0,
    ),
    "tau-lab-time": (
        {
            "run.protocol": "tau",
            "run.lab_time_s": "0.1",
            "prior.particles": "1000",
            "prior.omega0_min": "9.3",
            "prior.omega0_max": "9.5",
        },
        0,
    ),
    "random": ({"run.protocol": "random", "run.epochs": "30", "prior.particles": "1000"}, 0),
}
# the timed workflows, one small lab-time budget per protocol
for _workflow in ("series", "concurrent"):
    for _protocol in ("bayes", "tau", "random"):
        TRACE_CASES[f"{_workflow}-{_protocol}"] = (
            {
                "run.workflow": _workflow,
                "run.protocol": _protocol,
                "run.lab_time_s": "0.05",
                "prior.particles": "800",
                "prior.omega0_min": "8",
                "prior.omega0_max": "11",
            },
            0,
        )

ECHO_DIGESTS = {
    "default": "d6c3a3b71804443a19c1e30736e85734d71f22c29c3a76e64c7558ad4d4176e2",
    "design-omega": "d2a2b0411e4e581b01db94c696c4e449c834cf6a1c4af21046b5f742007ef322",
    "design-four": "292c783d0b89a8d0838fc2670f2fd9567a34cc4254818c8e41adec2f2784793e",
    "filter-batch": "7388507cce353fcd8952cd0094634e68c1c9cad3ea1087a011ef24149b37ca0c",
}

FILE_DIGESTS = {
    "trace:bayes-omega": "92e727eab39eb6a297bdf79b413a01ab4dfcd442ec7f2cf65fa630c5a6d599c2",
    "trace:bayes-omega-subsample": "46f1ac7c4317bfe1400c1469d32a32813621ace6c74508c6102ca76106d2a98d",
    "trace:bayes-four": "f3b333f05ac9242e57a053aeee27341126bf7592254ca177b7e900ad4319e424",
    "trace:tau-epochs": "ea745dae95e0164415011b078fe4e4851a74bbc07f41a0334137431207e619da",
    "trace:tau-lab-time": "e86349c9131cc012f91232e70733e2f44b697638d55ef6dac91b14af98858978",
    "trace:random": "c0c6be9af6c232d87f2d0831c68a5e9a75817abb4161602f881b28485fa2af80",
    "trace:tau-default-prior": "a95fcff90fda0739b47b73366a3250afdd6a2d5a6ab49d6fb7dece1fccfb3d3e",
    "trace:series-bayes": "bbd7e4340d113b7a1723d28d67da85ff7e6547552314f938b20d5a0450509764",
    "trace:series-tau": "de9df6d82d3e933818e68a0239ad6f7be91b950b3dd95235b8dd52497245d2b7",
    "trace:series-random": "9ad17c6065f5765ba43ac53993f8d851defab267a9c708058e95df248e4febe2",
    "trace:concurrent-bayes": "9243c36a3fbcc86751fe800d9d112b77054161da4dcc0a1b7d4f5ac9013b947a",
    "trace:concurrent-tau": "5ad4ab5341dca23f4b0267588673763d90293857de2634bd78f155f487fdf2b2",
    "trace:concurrent-random": "c852539c32bf2f3144d59288870cc3cd7ca66c0f4f5fd04b7047e3b30d12cc9b",
    "batch": "bcc833ba90a8b6d0b25fc1a7d257d77b4a934430661af1a5a2599862602feaf9",
    "scaling": "ee9ea1a2d66c1c4cdf1d61dd77a6130653fe3ae91e3fc2307d1b4b028c83ffaf",
    "demo:likelihood_inset.csv": "d0bec3c3fe2bd1314dfbccfcece50c00f60e42f2fb477bd90c019f9d1a9a2e03",
    "demo:background_saturation.csv": "a8b8d96bf46209eec49a0261ebe4bbf4529abf130095cdce4d073dfec6313d40",
}

SEED = "5"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(overrides):
    return parse_config(None, {"run.seed": SEED, **overrides})


def _echo_digest(name) -> str:
    return _sha(parse_config(None, ECHO_CASES[name]).echo().encode())


def _trace_digest(name, out: Path) -> str:
    if name == "tau-default-prior":
        # no prior given: run_single builds the package-default one
        trace = run_single(RunConfig(protocol="tau", epochs=6, seed=int(SEED)), TruthConfig())
    else:
        overrides, design_particles = TRACE_CASES[name]
        cfg = _config(overrides)
        run = replace(cfg.run, design_particles=design_particles)
        trace = run_single(run, cfg.truth, cfg.prior, cfg.tau)
    return _sha(write_trace(out / "trace.csv", trace).read_bytes())


def _batch_digest(out: Path) -> str:
    cfg = _config({"run.protocol": "tau", "run.epochs": "20", "prior.particles": "500"})
    summary = run_batch(cfg.run, cfg.truth, 3, prior=cfg.prior, tau_config=cfg.tau)
    return _sha(write_batch(out / "batch.csv", summary).read_bytes())


def _scaling_digest(out: Path) -> str:
    # through the CLI, which derives the idealized truth and prior
    path = out / "scaling.txt"
    path.write_text(
        f"run.seed = {SEED}\nprior.particles = 500\n"
        "scaling.repeats = 500\nscaling.epochs = 8\nscaling.runs = 2\n"
    )
    assert main(["tau-scaling", "--config", str(path), "--out", str(out)]) == 0
    return _sha((out / "tau_scaling.csv").read_bytes())


def _demo_digest(name, out: Path) -> str:
    # through the CLI, which writes both likelihood-demo files
    path = out / "demo.txt"
    path.write_text(
        f"run.seed = {SEED}\ndemo.saturation_runs = 2\ndemo.saturation_epochs = 30\n"
    )
    assert main(["likelihood-demo", "--config", str(path), "--out", str(out)]) == 0
    return _sha((out / name).read_bytes())


def _file_digest(key, out: Path) -> str:
    kind, _, name = key.partition(":")
    if kind == "trace":
        with fixed_step_clock():
            return _trace_digest(name, out)
    if kind == "batch":
        return _batch_digest(out)
    if kind == "demo":
        return _demo_digest(name, out)
    return _scaling_digest(out)


@pytest.fixture
def no_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.mark.parametrize("name", sorted(ECHO_DIGESTS))
def test_echo_bytes(name, no_seed_env):
    # pure text formatting: independent of numpy and the platform
    assert _echo_digest(name) == ECHO_DIGESTS[name]


@pytest.mark.parametrize("key", sorted(FILE_DIGESTS))
def test_output_bytes(key, tmp_path, no_seed_env):
    here = (np.__version__, platform.machine())
    if here != RECORDED_ON:
        pytest.skip(f"digests recorded with numpy {RECORDED_ON[0]} on {RECORDED_ON[1]}; "
                    f"this is numpy {here[0]} on {here[1]}")
    assert _file_digest(key, tmp_path) == FILE_DIGESTS[key]


def _table_row(key, digest, recorded) -> str:
    mark = "" if digest == recorded[key] else "  # changed"
    return f'    "{key}": "{digest}",{mark}'


if __name__ == "__main__":
    print(f"RECORDED_ON = {(np.__version__, platform.machine())!r}")
    print("ECHO_DIGESTS = {")
    for name in ECHO_DIGESTS:
        print(_table_row(name, _echo_digest(name), ECHO_DIGESTS))
    print("}")
    print("FILE_DIGESTS = {")
    for key in FILE_DIGESTS:
        with tempfile.TemporaryDirectory() as tmp:
            print(_table_row(key, _file_digest(key, Path(tmp)), FILE_DIGESTS))
    print("}")
