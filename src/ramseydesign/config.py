"""Flat key-value run configuration.

Files hold one ``section.key = value`` assignment per line; ``#`` starts
a comment and blank lines are ignored. Every key is optional — an empty
file yields the full paper-default configuration — and unknown keys,
out-of-range values, infinite values (except ``truth.t2_us = inf``, no
dephasing) and malformed numbers (e.g. unit suffixes such as ``4.07us``;
units are fixed by the key name) are rejected with the offending line
number, or with the command-line flag that supplied the value.

The effective configuration can be echoed back to text with
``ParsedConfig.echo()``; the echo parses to an identical configuration.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .demo import SATURATION_EPOCHS, SATURATION_RUNS
from .instrument import (
    DRIFT_KINDS,
    DriftSpec,
    TruthConfig,
    check_poisson_limit,
    sequence_duration_ns,
)
from .model import RamseyParams
from .particles import PriorSpec
from .protocols import SettingGrid, TauConfig
from .runner import (
    DEFAULT_UNKNOWNS,
    PRIOR_BOUNDS,
    PROTOCOLS,
    SCALING_EPOCHS,
    SCALING_GRID,
    UNKNOWN_MODES,
    WORKFLOWS,
    RunConfig,
    default_prior,
)

SEED_ENV_VAR = "RAMSEY_DESIGN_SEED"


class ConfigError(ValueError):
    """Configuration problem, prefixed with where the value came from when
    known: ``file:line``, a command-line flag, or the file."""

    def __init__(self, message: str, where=None):
        super().__init__(message if where is None else f"{where}: {message}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not an integer") from None


def _parse_float(raw: str, allow_inf: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{raw!r} is not a number (units are implied by the key name; "
            "do not append a suffix)"
        ) from None
    if math.isnan(value):
        raise ValueError("NaN is not a valid value")
    if math.isinf(value) and not allow_inf:
        raise ValueError(f"{raw!r} is not finite")
    return value


def _parse_float_or_inf(raw: str) -> float:
    return _parse_float(raw, allow_inf=True)


def _parse_choice(options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"{raw!r} is not one of {'/'.join(options)}")
        return raw

    return parse


def _positive(x):
    if x <= 0:
        raise ValueError("must be > 0")
    return x


def _non_negative(x):
    if x < 0:
        raise ValueError("must be >= 0")
    return x


def _fraction(x):
    if not 0 < x <= 1:
        raise ValueError("must lie in (0, 1]")
    return x


def _at_least(n):
    def check(x):
        if x < n:
            raise ValueError(f"must be >= {n}")
        return x

    return check


def _finite_ns(ns_per_unit):
    """Positive, and finite once converted to the integer-ns lab clock."""

    def check(x):
        _positive(x)
        if not x * ns_per_unit < math.inf:
            raise ValueError(f"{x!r} is too large: its nanosecond count is not finite")
        return x

    return check


def _identity(x):
    return x


# The paper's simulated instrument: TruthConfig's default parameters.
_TRUTH = TruthConfig().params

# key -> (parser, validator, default). Defaults that a dataclass or a
# module constant already sets are read from it.
SCHEMA: dict[str, tuple] = {
    "run.protocol": (_parse_choice(PROTOCOLS), _identity, RunConfig.protocol),
    "run.unknowns": (_parse_choice(UNKNOWN_MODES), _identity, DEFAULT_UNKNOWNS),
    "run.epochs": (_parse_int, _at_least(1), None),
    "run.lab_time_s": (_parse_float, _finite_ns(1e9), None),
    "run.epoch_time_ms": (_parse_float, _finite_ns(1e6), None),
    "run.background_window": (_parse_int, _at_least(1), RunConfig.background_window),
    "run.seed": (_parse_int, _non_negative, None),
    "run.workflow": (_parse_choice(WORKFLOWS), _identity, RunConfig.workflow),
    "run.background_prior_exponent": (
        _parse_float, _identity, RunConfig.background_prior_exponent,
    ),
    "batch.runs": (_parse_int, _at_least(2), 100),
    "batch.workers": (_parse_int, _at_least(1), 1),
    "grid.tau_min_us": (_parse_float, _positive, SettingGrid.tau_min),
    "grid.tau_max_us": (_parse_float, _positive, SettingGrid.tau_max),
    "grid.step_us": (_parse_float, _positive, SettingGrid.step),
    "truth.a": (_parse_float, _positive, _TRUTH.a),
    "truth.c": (_parse_float, _non_negative, _TRUTH.c),
    "truth.omega0": (_parse_float, _non_negative, _TRUTH.omega0),
    "truth.t2_us": (_parse_float_or_inf, _positive, _TRUTH.t2),  # inf: no dephasing
    "truth.lambda_b": (_parse_float, _positive, TruthConfig.lambda_b0),
    "truth.overhead_us": (_parse_float, _non_negative, TruthConfig.overhead_us),
    "truth.drift": (_parse_choice(DRIFT_KINDS), _identity, DriftSpec.kind),
    "truth.drift_amplitude": (_parse_float, _identity, DriftSpec.amplitude),
    "truth.drift_period_s": (_parse_float, _positive, DriftSpec.period_s),
    "prior.particles": (_parse_int, _at_least(100), PriorSpec.n_particles),
    "prior.resample_threshold": (
        _parse_float, PriorSpec.check_resample_threshold, PriorSpec.resample_threshold,
    ),
    "prior.shrinkage": (_parse_float, _fraction, PriorSpec.shrinkage),
    "prior.a_min": (_parse_float, _positive, PRIOR_BOUNDS["a"][0]),
    "prior.a_max": (_parse_float, _positive, PRIOR_BOUNDS["a"][1]),
    "prior.c_min": (_parse_float, _non_negative, PRIOR_BOUNDS["c"][0]),
    "prior.c_max": (_parse_float, _positive, PRIOR_BOUNDS["c"][1]),
    "prior.omega0_min": (_parse_float, _non_negative, PRIOR_BOUNDS["omega0"][0]),
    "prior.omega0_max": (_parse_float, _positive, PRIOR_BOUNDS["omega0"][1]),
    "prior.t2_min_us": (_parse_float, _positive, PRIOR_BOUNDS["t2"][0]),
    "prior.t2_max_us": (_parse_float, _positive, PRIOR_BOUNDS["t2"][1]),
    "tau.h": (_parse_float, _positive, TauConfig.h),
    "tau.top_fraction": (_parse_float, _fraction, TauConfig.top_fraction),
    "demo.saturation_runs": (_parse_int, _at_least(2), SATURATION_RUNS),
    "demo.saturation_epochs": (_parse_int, _at_least(1), SATURATION_EPOCHS),
    "scaling.repeats": (_parse_int, _at_least(1), 4000),
    "scaling.epochs": (_parse_int, _at_least(5), SCALING_EPOCHS),
    "scaling.runs": (_parse_int, _at_least(1), 10),
    "scaling.grid_max_us": (_parse_float, _positive, SCALING_GRID.tau_max),
}

# fallback when neither run.epochs nor run.lab_time_s is given
DEFAULT_LAB_TIME_S = 1.0


@dataclass(frozen=True)
class DemoConfig:
    saturation_runs: int
    saturation_epochs: int


@dataclass(frozen=True)
class ScalingConfig:
    repeats: int
    epochs: int
    runs: int
    grid: SettingGrid


@dataclass(frozen=True)
class ParsedConfig:
    run: RunConfig
    truth: TruthConfig
    prior: PriorSpec
    tau: TauConfig
    batch_runs: int
    workers: int
    demo: DemoConfig
    scaling: ScalingConfig
    # every key's value as parse_config resolved it; None where unset
    values: dict[str, object] = field(init=False, repr=False, compare=False)

    def echo(self) -> str:
        """Text of the effective configuration; parses back identically."""
        return "".join(f"{k} = {v}\n" for k, v in sorted(self.values.items()) if v is not None)


def _read_pairs(path) -> dict[str, tuple[str, str]]:
    """key -> (raw value, "file:line") for every assignment in the file."""
    pairs: dict[str, tuple[str, str]] = {}
    text = Path(path).read_text()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        where = f"{path}:{lineno}"
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", where)
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}", where)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", where)
        if not raw:
            raise ConfigError(f"missing value for {key!r}", where)
        pairs[key] = (raw, where)
    return pairs


def parse_config(
    path=None,
    overrides: dict[str, str] | None = None,
    sources: dict[str, str] | None = None,
) -> ParsedConfig:
    """Parse and validate a configuration file.

    ``overrides`` (key -> raw value text) are applied after the file,
    e.g. from command-line flags; ``sources`` names where each came from
    (key -> e.g. ``"--seed -3"``) for error messages. With ``path=None``
    the defaults are used directly.
    """
    pairs = _read_pairs(path) if path is not None else {}
    for key, raw in (overrides or {}).items():
        where = (sources or {}).get(key, f"override {key}")
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}", where)
        pairs[key] = (str(raw), where)

    values: dict[str, object] = {}
    origins: dict[str, str] = {}
    for key, (parser, validator, default) in SCHEMA.items():
        if key in pairs:
            raw, origins[key] = pairs[key]
            try:
                values[key] = validator(parser(raw))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}", origins[key]) from None
        else:
            values[key] = default

    def anchor(*keys) -> str | None:
        """Where the first of ``keys`` that was set came from; else the file."""
        return next((origins[k] for k in keys if k in origins), path)

    # budget: exactly one of epochs / lab_time_s (default: 1 s of lab time)
    if values["run.epochs"] is not None and values["run.lab_time_s"] is not None:
        raise ConfigError(
            "run.epochs and run.lab_time_s are mutually exclusive",
            anchor("run.epochs", "run.lab_time_s"),
        )
    if values["run.epochs"] is None and values["run.lab_time_s"] is None:
        values["run.lab_time_s"] = DEFAULT_LAB_TIME_S

    if values["run.seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                values["run.seed"] = _non_negative(_parse_int(env))
            except ValueError as exc:
                raise ConfigError(
                    f"environment variable {SEED_ENV_VAR}={env!r}: {exc}"
                ) from None
        else:
            values["run.seed"] = RunConfig.seed

    try:
        grid = SettingGrid(
            tau_min=values["grid.tau_min_us"],
            tau_max=values["grid.tau_max_us"],
            step=values["grid.step_us"],
        )
    except ValueError as exc:
        raise ConfigError(
            str(exc), anchor("grid.tau_min_us", "grid.tau_max_us", "grid.step_us")
        ) from None
    try:
        scaling_grid = replace(SCALING_GRID, tau_max=values["scaling.grid_max_us"])
    except ValueError as exc:
        raise ConfigError(f"scaling grid: {exc}", anchor("scaling.grid_max_us")) from None

    try:
        truth = TruthConfig(
            params=RamseyParams(
                a=values["truth.a"],
                c=values["truth.c"],
                omega0=values["truth.omega0"],
                t2=values["truth.t2_us"],
            ),
            lambda_b0=values["truth.lambda_b"],
            overhead_us=values["truth.overhead_us"],
            drift=DriftSpec(
                kind=values["truth.drift"],
                amplitude=values["truth.drift_amplitude"],
                period_s=values["truth.drift_period_s"],
            ),
        )
    except ValueError as exc:
        raise ConfigError(
            str(exc),
            anchor("truth.drift_amplitude", "truth.drift", "truth.a", "truth.t2_us"),
        ) from None

    bounds = {}
    for name in PRIOR_BOUNDS:
        suffix = "_us" if name == "t2" else ""
        lo = values[f"prior.{name}_min{suffix}"]
        hi = values[f"prior.{name}_max{suffix}"]
        if not lo < hi:
            raise ConfigError(
                f"prior bounds for {name} need min < max",
                anchor(f"prior.{name}_min{suffix}", f"prior.{name}_max{suffix}"),
            )
        bounds[name] = (lo, hi)
    prior = default_prior(
        values["run.unknowns"],
        truth,
        bounds,
        n_particles=values["prior.particles"],
        resample_threshold=values["prior.resample_threshold"],
        shrinkage=values["prior.shrinkage"],
    )

    run = RunConfig(
        protocol=values["run.protocol"],
        epochs=values["run.epochs"],
        lab_time_s=values["run.lab_time_s"],
        epoch_time_ms=values["run.epoch_time_ms"],
        background_window=values["run.background_window"],
        seed=values["run.seed"],
        workflow=values["run.workflow"],
        grid=grid,
        background_prior_exponent=values["run.background_prior_exponent"],
    )
    epoch_us = run.resolved_epoch_time_ms(prior) * 1000.0
    if epoch_us <= truth.overhead_us:
        raise ConfigError(
            "run.epoch_time_ms must exceed truth.overhead_us",
            anchor("run.epoch_time_ms", "truth.overhead_us"),
        )
    shortest_ns = sequence_duration_ns(grid.tau_min, truth.overhead_us)
    if shortest_ns < 1:
        raise ConfigError(
            "a sequence at grid.tau_min_us plus truth.overhead_us must last at least 1 ns",
            anchor("grid.tau_min_us", "truth.overhead_us"),
        )
    # an epoch holds at most the sequences that fit at the shortest
    # setting, or the study's fixed repeats
    for sequences, keys in (
        (round(epoch_us * 1000.0) // shortest_ns, ("run.epoch_time_ms", "grid.tau_min_us")),
        (values["scaling.repeats"], ("scaling.repeats",)),
    ):
        try:
            check_poisson_limit(truth, sequences, keys[0])
        except ValueError as exc:
            raise ConfigError(str(exc), anchor(*keys, "truth.lambda_b", "truth.a")) from None
    # The integer-ns lab clock is read as a float. An epoch lasts at most
    # its allocation or one sequence at the longest setting, so the clock
    # ends below epochs times that, or the lab-time budget plus one epoch.
    longest_ns = max(
        round(epoch_us * 1000.0), sequence_duration_ns(grid.tau_max, truth.overhead_us)
    )
    if values["run.epochs"] is not None:
        budget_key, clock_ns = "run.epochs", values["run.epochs"] * longest_ns
    else:
        budget_key = "run.lab_time_s"
        clock_ns = round(values["run.lab_time_s"] * 1e9) + longest_ns
    if clock_ns > sys.float_info.max:
        raise ConfigError(
            f"{budget_key}: the lab clock could pass {sys.float_info.max:.3g} ns, "
            "beyond the float range",
            anchor(budget_key, "grid.tau_max_us", "run.epoch_time_ms", "truth.overhead_us"),
        )

    cfg = ParsedConfig(
        run=run,
        truth=truth,
        prior=prior,
        tau=TauConfig(h=values["tau.h"], top_fraction=values["tau.top_fraction"]),
        batch_runs=values["batch.runs"],
        workers=values["batch.workers"],
        demo=DemoConfig(
            saturation_runs=values["demo.saturation_runs"],
            saturation_epochs=values["demo.saturation_epochs"],
        ),
        scaling=ScalingConfig(
            repeats=values["scaling.repeats"],
            epochs=values["scaling.epochs"],
            runs=values["scaling.runs"],
            grid=scaling_grid,
        ),
    )
    object.__setattr__(cfg, "values", values)  # frozen; set once here
    return cfg
