import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ramseydesign
from ramseydesign.cli import main
from ramseydesign.config import SEED_ENV_VAR, ConfigError, parse_config
from ramseydesign.output import read_trace


class TestParseConfig:
    def test_empty_file_gives_paper_defaults(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        cfg = parse_config(path)
        t = cfg.truth
        assert (t.params.a, t.params.c, t.params.omega0, t.params.t2) == (
            0.8,
            0.13,
            9.4,
            10.0,
        )
        assert t.lambda_b0 == 0.15
        assert t.overhead_us == 4.07
        assert cfg.run.grid.tau_min == 0.1
        assert cfg.run.grid.tau_max == 20.0
        assert cfg.run.grid.step == 0.05
        assert len(cfg.run.grid) == 399
        assert cfg.tau.h == 0.5
        assert cfg.prior.n_particles == 50_000

    def test_no_file_same_as_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n\n")
        assert parse_config(None) == parse_config(path)

    def test_override_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("tau.h = 0.75\n")
        assert parse_config(path).tau.h == 0.75

    def test_unknown_key_line_anchored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("truth.a = 0.8\nnot.a.key = 1\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:2"):
            parse_config(path)

    def test_out_of_range_line_anchored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("\ntruth.overhead_us = -1\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:2.*>= 0"):
            parse_config(path)

    def test_unit_suffix_rejected_with_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("truth.overhead_us = 4.07us\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:1.*not a number"):
            parse_config(path)

    def test_mutually_exclusive_budgets(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("run.epochs = 5\nrun.lab_time_s = 1.0\n")
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config(path)

    def test_infinite_t2_parses(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("truth.t2_us = inf\n")
        assert parse_config(path).truth.params.t2 == math.inf

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("tau.h = 0.5\ntau.h = 0.6\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:2.*duplicate"):
            parse_config(path)

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "777")
        assert parse_config(None).run.seed == 777
        path = tmp_path / "cfg.txt"
        path.write_text("run.seed = 3\n")
        assert parse_config(path).run.seed == 3  # file beats env

    def test_echo_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "run.protocol = tau\nrun.epochs = 7\ntau.h = 0.9\n"
            "truth.t2_us = inf\nprior.particles = 500\n"
        )
        cfg = parse_config(path)
        echo_path = tmp_path / "echo.txt"
        echo_path.write_text(cfg.echo())
        assert parse_config(echo_path) == cfg

    def test_echo_keeps_bounds_of_known_params(self, tmp_path):
        # omega-only runs use only the omega0 bounds; the echo still
        # records what was configured for the others
        path = tmp_path / "cfg.txt"
        path.write_text("prior.a_min = 0.5\n")
        cfg = parse_config(path)
        assert "prior.a_min = 0.5\n" in cfg.echo()
        echo_path = tmp_path / "echo.txt"
        echo_path.write_text(cfg.echo())
        back = parse_config(echo_path)
        assert back == cfg
        assert back.echo() == cfg.echo()

    def test_omega_only_pins_known_params_to_truth(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("truth.a = 0.9\n")
        cfg = parse_config(path)
        assert cfg.prior.fixed["a"] == 0.9
        assert set(cfg.prior.bounds) == {"omega0"}

    def test_cross_key_error_names_the_override(self):
        with pytest.raises(ConfigError, match=r"^override truth\.overhead_us: run\.epoch_time_ms"):
            parse_config(None, {"truth.overhead_us": "5000"})
        with pytest.raises(ConfigError, match=r"^--x: run\.epoch_time_ms"):
            parse_config(None, {"truth.overhead_us": "5000"}, {"truth.overhead_us": "--x"})

    def test_all_four_bounds(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("run.unknowns = all-four\nprior.c_max = 0.5\n")
        cfg = parse_config(path)
        assert set(cfg.prior.bounds) == {"a", "c", "omega0", "t2"}
        assert cfg.prior.bounds["c"] == (0.02, 0.5)


FAST_RUN = (
    "run.epochs = 6\n"
    "run.protocol = bayes\n"
    "prior.particles = 300\n"
    "truth.t2_us = inf\n"
    "prior.omega0_min = 8.0\n"
    "prior.omega0_max = 11.0\n"
)


class TestCli:
    def test_run_writes_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out), "--seed", "4"])
        assert rc == 0
        trace = read_trace(out / "trace.csv")
        assert len(trace["epoch"]) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["seed"] == 4
        assert "trace.csv" in manifest["outputs"]
        # sidecar parses back to the effective configuration
        sidecar = parse_config(out / manifest["effective_config"])
        assert sidecar.run.seed == 4
        assert sidecar.run.protocol == "bayes"

    def test_deterministic_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RUN)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
            outs.append((out / "trace.csv").read_bytes())
        assert outs[0] == outs[1]
        out3 = tmp_path / "o3"
        assert main(["run", "--config", str(cfg), "--out", str(out3), "--seed", "10"]) == 0
        assert (out3 / "trace.csv").read_bytes() != outs[0]

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("truth.overhead_us = -2\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["run.selection = argmax", "run.softmax_scale = 1.0"])
    def test_removed_selection_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "old.txt"
        cfg.write_text(f"run.epochs = 2\n{line}\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        key = line.split()[0]
        assert f"{cfg}:2: unknown key {key!r}" in capsys.readouterr().err

    def test_resample_threshold_one_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("run.epochs = 2\nprior.resample_threshold = 1\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{cfg}:2: prior.resample_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("run.epochs = 2\nrun.seed = -1\n", ":2: run.seed"),
            (
                "run.epochs = 2\ntruth.drift = sinusoidal\ntruth.drift_amplitude = -0.2\n",
                ":3: sinusoidal drift",
            ),
            (
                "run.epochs = 2\ngrid.tau_min_us = 1e305\ngrid.step_us = 1e305\n"
                "grid.tau_max_us = 1e306\n",
                ":2: grid tau_max 1e+306 is too large: its nanosecond count is not finite",
            ),
            (
                "run.epochs = 2\ntruth.overhead_us = 0\ngrid.tau_min_us = 0.0001\n"
                "grid.step_us = 0.0001\ngrid.tau_max_us = 0.001\n",
                ":3: a sequence at grid.tau_min_us plus truth.overhead_us must last",
            ),
            (
                "run.epochs = 2\nrun.protocol = tau\nrun.epoch_time_ms = 1e300\n",
                ":3: run.epoch_time_ms: an epoch would hold more than 6.15e+19 sequences",
            ),
            (
                f"run.epochs = 2\nscaling.repeats = {10**400}\n",
                ":2: scaling.repeats: an epoch would hold more than",
            ),
            (
                "grid.tau_min_us = 1e305\ngrid.step_us = 5e304\ngrid.tau_max_us = 1.5e305\n"
                "run.epochs = 5\nrun.protocol = random\n",
                ":4: run.epochs: the lab clock could pass 1.8e+308 ns",
            ),
        ],
        ids=[
            "negative-seed",
            "drift-below-zero",
            "grid-beyond-ns-clock",
            "zero-ns-sequence",
            "epoch-beyond-poisson-limit",
            "repeats-beyond-poisson-limit",
            "lab-clock-beyond-float-range",
        ],
    )
    def test_value_rejected_at_run_is_config_error(self, tmp_path, capsys, text, where):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(text)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{cfg}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "run.lab_time_s = inf",
            "run.epoch_time_ms = inf",
            "grid.tau_max_us = inf",
            "prior.omega0_max = inf",
            "truth.lambda_b = inf",
            "truth.omega0 = inf",
            "truth.drift_amplitude = -inf",
            # finite, but infinite once counted in integer nanoseconds
            "run.lab_time_s = 1e300",
            "run.epoch_time_ms = 1e306",
        ],
    )
    def test_infinite_value_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(f"prior.particles = 200\n{line}\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{cfg}:2: {line.split()[0]}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, where",
        [
            ("run", "run.epochs = 2\ngrid.tau_max_us = 0.2\ngrid.step_us = 0.06\n", ":2: grid step must divide"),
            ("tau-scaling", "scaling.grid_max_us = 100.03\n", ":1: scaling grid: grid step must divide"),
        ],
        ids=["run-grid", "scaling-grid"],
    )
    def test_grid_step_not_dividing_range_is_config_error(
        self, tmp_path, capsys, command, text, where
    ):
        cfg = tmp_path / "bad.txt"
        cfg.write_text(text)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{cfg}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("with_config", [True, False], ids=["config", "no-config"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--seed", "-3"], "--seed -3: run.seed: must be >= 0"),
            (["batch", "--runs", "1"], "--runs 1: batch.runs: must be >= 2"),
            (["batch", "--workers", "0"], "--workers 0: batch.workers: must be >= 1"),
        ],
        ids=["seed", "runs", "workers"],
    )
    def test_override_error_names_the_flag(self, tmp_path, capsys, argv, message, with_config):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("run.epochs = 2\n")
        config = ["--config", str(cfg)] if with_config else []
        rc = main([*argv, *config, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {message}\n" == err

    def test_negative_seed_in_environment_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "-4")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("run.epochs = 2\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{SEED_ENV_VAR}='-4'" in capsys.readouterr().err

    def test_inference_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            "ramseydesign.particles.log_likelihood_general",
            lambda n_s, m_s, n_b, m_b, r, nu=-1.0: np.full(np.shape(r), np.nan),
        )
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RUN)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "4"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "run error" in err and "seed 4" in err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--nope", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_batch_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "run.epochs = 5\nrun.protocol = random\nprior.particles = 300\n"
        )
        out = tmp_path / "out"
        rc = main(
            ["batch", "--config", str(cfg), "--out", str(out), "--runs", "3",
             "--seed", "2"]
        )
        assert rc == 0
        assert (out / "batch.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_runs"] == 3

    def test_protocol_override_flag(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_RUN)
        out = tmp_path / "out"
        rc = main(
            ["run", "--config", str(cfg), "--out", str(out), "--protocol", "random"]
        )
        assert rc == 0
        trace = read_trace(out / "trace.csv")
        assert set(trace["protocol"]) == {"random"}

    def test_tau_scaling_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "scaling.repeats = 20000\nscaling.epochs = 6\nscaling.runs = 2\n"
            "prior.particles = 400\n"
        )
        out = tmp_path / "out"
        rc = main(["tau-scaling", "--config", str(cfg), "--out", str(out), "--seed", "5"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["beta"] < 1.0
        assert "slope" in manifest
        assert (out / "tau_scaling.csv").exists()


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency
    code = (
        "import sys, ramseydesign.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = [str(Path(ramseydesign.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
