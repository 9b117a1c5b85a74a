"""Command-line interface: subcommands, config loading, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torusgas import lab, solver
from torusgas.cli import _SUBCOMMANDS, build_parser, main
from torusgas.lab import EXPERIMENTS

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["residue-scaling", "--seed", "3"])
        assert args.command == "residue-scaling"
        assert args.seed == 3

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_module_help_is_clean(self):
        # ``python -m torusgas.cli`` must not find the module already imported
        # by the package, which Python reports as a RuntimeWarning.
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "torusgas.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "COLUMNS": "200"},
            timeout=120,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        for name, experiment in EXPERIMENTS.items():
            assert f"{name.replace('_', '-')} " in result.stdout
            assert experiment.help in result.stdout


class TestStartup:
    def test_run_loads_no_scipy_fft(self, tmp_path):
        # the transforms load scipy's pocketfft kernel from its file; the
        # scipy.fft package import (about 0.4 s) and what it pulls in stay out
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_list": [4, 8]}))
        script = f"""
import json, sys
import numpy as np
import torusgas.cli
code = torusgas.cli.main(["nonuniform", "--config", {str(config)!r}])
heavy = ("scipy.fft", "scipy.special", "scipy._lib", "numpy.testing", "numpy.f2py")
loaded = sorted(m for m in sys.modules if m.startswith(heavy))
import scipy.fft
from torusgas.spectral import _rfft
x = np.random.default_rng(1).standard_normal((12, 12))
same = _rfft(x, (0, 1), scale=False).tobytes() == scipy.fft.rfft2(x).tobytes()
print(json.dumps({{"code": code, "loaded": loaded, "same": same}}))
"""
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        verdict, last = result.stdout.splitlines()[-2:]
        report = json.loads(last)
        assert verdict.startswith("nonuniform: ") and report["code"] in (0, 1)
        assert report["loaded"] == []
        assert report["same"]


class TestMain:
    def test_pass_run(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_list": [4, 8, 16]}))
        out = tmp_path / "reports"
        code = main(
            ["residue-scaling", "--config", str(config), "--out", str(out)]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.startswith("residue_scaling: PASS (fitted slope -6.5")
        assert f"reports written to {out}" in captured
        assert (out / "residue_scaling.csv").exists()
        assert (out / "summary.json").exists()

    def test_fail_exits_nonzero(self, tmp_path, capsys):
        # a coarse family with a short horizon leaves too much step error
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"n_list": [4], "solve": {"T": 0.5, "cfl": 0.25}})
        )
        code = main(["exact-check", "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().out.startswith("exact_check: FAIL")

    def test_flag_overrides_reach_summary(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        # the flags win over the file's own seed
        config.write_text(json.dumps({"n_list": [32, 64], "family_size": 10, "seed": 3}))
        out = tmp_path / "reports"
        code = main(
            [
                "inequalities",
                "--config",
                str(config),
                "--out",
                str(out),
                "--seed",
                "11",
                "--threads",
                "2",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["params"]["seed"] == 11
        assert summary["params"]["threads"] == 2
        capsys.readouterr()

    def test_one_config_build_per_run(self, tmp_path, capsys, monkeypatch):
        # the flags join the config before it is built and checked, once
        calls = []
        check = lab.ExperimentConfig.__post_init__

        def counted(cfg):
            calls.append(cfg.experiment)
            check(cfg)

        monkeypatch.setattr(lab.ExperimentConfig, "__post_init__", counted)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_list": [4, 8, 16]}))
        argv = ["residue-scaling", "--config", str(config), "--seed", "1", "--threads", "2"]
        assert main(argv) == 0
        assert calls == ["residue_scaling"]
        capsys.readouterr()


class TestErrors:
    """Usage and run errors exit 2 with one line on stderr; FAIL stays 1."""

    def _fails_cleanly(self, capsys, argv, match):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and match in lines[0]

    def _config_fails(self, tmp_path, capsys, command, data, match):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))  # writes nan and inf as NaN and Infinity
        self._fails_cleanly(capsys, [command, "--config", str(config)], match)

    def test_missing_config(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        self._fails_cleanly(
            capsys, ["residue-scaling", "--config", str(missing)], "absent.json"
        )

    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"n_list": [4, 8,')
        self._fails_cleanly(capsys, ["residue-scaling", "--config", str(config)], "error")

    def test_invalid_config(self, tmp_path, capsys):
        self._config_fails(tmp_path, capsys, "residue-scaling", {"threads": "4"}, "threads")

    def test_overflowing_s_bound(self, tmp_path, capsys):
        data = {"n_list": [4, 8, 10**155]}
        self._config_fails(tmp_path, capsys, "exact-check", data, "s = 3.0 is too large")

    def test_removed_solve_key(self, tmp_path, capsys):
        # the record stride is set by the runners, not by a config
        data = {"solve": {"record_stride": 2}}
        self._config_fails(tmp_path, capsys, "nonuniform", data, "record_stride")

    @pytest.mark.parametrize(
        "data, match",
        [
            # summary.json records T and cfl, so a config sets no step size
            ({"solve": {"T": 1.0, "dt_fixed": float("inf")}}, "unknown solve keys: ['dt_fixed']"),
            # the subcommand names the experiment
            ({"experiment": "nonuniform"}, "unknown config keys: ['experiment']"),
        ],
    )
    def test_step_size_and_experiment_are_not_config_keys(self, tmp_path, capsys, data, match):
        self._config_fails(tmp_path, capsys, "nonuniform", data, match)

    @pytest.fixture
    def oversized_step(self, monkeypatch):
        # a CFL step of 0.5 drives the density negative in the fourth step of a run to T = 2
        monkeypatch.setattr(solver, "cfl_dt", lambda s, g, cfl, grid: 0.5)

    def test_solver_error(self, tmp_path, capsys, oversized_step):
        data = {"n_list": [4], "solve": {"T": 2.0}}
        self._config_fails(tmp_path, capsys, "nonuniform", data, "aborted")

    @pytest.mark.parametrize("command", ["higher-norm", "error-scaling", "nonuniform"])
    def test_solver_error_names_experiment_and_n(self, tmp_path, capsys, oversized_step, command):
        data = {"n_list": [4, 8, 16], "solve": {"T": 2.0}}
        match = f"{command} run at n=4 failed: aborted at t = 2 (step 4/4)"
        self._config_fails(tmp_path, capsys, command, data, match)

    @pytest.mark.parametrize("command, n", [("nonuniform", 4), ("exact-check", 8)])
    def test_inadmissible_initial_data_names_experiment_and_n(self, tmp_path, capsys, command, n):
        # the step-size plan is the first admissibility check of the run
        match = f"{command} run at n={n} failed: state left the admissible region: min(h)"
        self._config_fails(tmp_path, capsys, command, {"gas": {"h0": 1e-9}}, match)

    @pytest.mark.parametrize(
        "command, match",
        [
            ("higher-norm", "higher-norm report holds a non-finite rows.measured_value"),
            ("exact-check", "exact-check report holds a non-finite rows.measured_value"),
            ("nonuniform", "nonuniform report holds a non-finite rows.d0"),
        ],
    )
    def test_non_finite_report_is_not_written(
        self, tmp_path, capsys, monkeypatch, command, match
    ):
        # the runners' norms read NaN, as they would if a norm weight overflowed
        nan_norms = lambda c, grid, sigma: np.full(c.shape[:-3], math.nan)  # noqa: E731
        monkeypatch.setattr(lab, "_state_norms", nan_norms)
        out = tmp_path / "reports"
        data = {"solve": {"T": 0.1}, "output_dir": str(out)}
        self._config_fails(tmp_path, capsys, command, data, match)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, data",
        [
            ("residue-scaling", {}),
            ("error-scaling", {"n_list": [2, 4, 8], "solve": {"T": 0.1}}),
        ],
    )
    def test_unfittable_report_is_not_written(
        self, tmp_path, capsys, monkeypatch, command, data
    ):
        # the runners' norms read 0.0, as they would if the family amplitudes underflowed
        monkeypatch.setattr(lab, "_state_norms", lambda c, grid, sigma: np.zeros(c.shape[:-3]))
        monkeypatch.setattr(lab, "sobolev_norm", lambda f, sigma: 0.0)
        out = tmp_path / "reports"
        match = f"{command} cannot fit a log-log slope to rows.measured_value: it holds 0.0"
        self._config_fails(tmp_path, capsys, command, {**data, "output_dir": str(out)}, match)
        assert not out.exists()

    def test_config_not_an_object(self, tmp_path, capsys):
        # flags are laid over a config object only; anything else is rejected
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        argv = ["residue-scaling", "--config", str(config), "--seed", "3"]
        self._fails_cleanly(capsys, argv, "config must be a JSON object, got list")

    def test_inequalities_needs_two_grids(self, tmp_path, capsys):
        data = {"n_list": [32, 64, 128], "family_size": 3}
        match = "inequalities expects n_list = (base_grid, refined_grid)"
        self._config_fails(tmp_path, capsys, "inequalities", data, match)

    @pytest.mark.parametrize("solve, match", [({"T": float("inf")}, "final time")])
    def test_non_finite_times(self, tmp_path, capsys, solve, match):
        self._config_fails(tmp_path, capsys, "exact-check", {"solve": solve}, match)

    @pytest.mark.parametrize(
        "command, data, match",
        [
            ("residue-scaling", {"gas": {"rho0": float("nan")}}, "rho0=nan"),
            ("exact-check", {"gas": {"h0": float("inf")}}, "h0=inf"),
            ("higher-norm", {"sigma": float("nan")}, "sigma must be finite, got nan"),
            ("nonuniform", {"s": float("inf")}, "s must be finite, got inf"),
            ("residue-scaling", {"output_dir": 5}, "output_dir must be a string, got 5"),
            ("residue-scaling", {"output_dir": ""}, "output_dir must not be empty"),
            (
                "higher-norm",
                {"n_list": [4, 8, 16], "solve": {"T": True}, "gas": {"rho0": True}},
                "rho0 must be a real number, got True",
            ),
            ("higher-norm", {"solve": {"T": True}}, "T must be a real number, got True"),
            ("residue-scaling", {"n_list": [4, 8]}, "n_list, which needs at least 3"),
            ("error-scaling", {"n_list": [8, 16]}, "n_list, which needs at least 3"),
            ("higher-norm", {"n_list": [8, 16]}, "n_list, which needs at least 3"),
            (
                "inequalities",
                {"n_list": [16, 32]},
                "max_mode 8 exceeds the dealias band 5 of an N=16 grid",
            ),
            ("inequalities", {"n_list": [64, 127]}, "grid size must be even and >= 4, got 127"),
            ("nonuniform", {"n_list": None}, "invalid config"),
            # (1 + |k|^2)^401 overflows on every default grid
            *[(command, {"s": 400}, "s = 400 is too large") for command in _SUBCOMMANDS],
        ],
    )
    def test_rejected_before_the_run(self, tmp_path, capsys, monkeypatch, command, data, match):
        monkeypatch.setattr(lab, "run_experiment", pytest.fail)  # a started run fails the test
        self._config_fails(tmp_path, capsys, command, data, match)

    def test_odd_grid_rule(self, tmp_path, capsys):
        self._config_fails(tmp_path, capsys, "nonuniform", {"grid_rule": 7}, "grid_rule")

    def test_broken_mirror_image(self, tmp_path, capsys, broken_mirror):
        # a run check that fails is an error, not a FAIL verdict
        data = {"n_list": [2], "solve": {"T": 0.1}}
        match = "nonuniform pair at n=2 is not a mirror image"
        self._config_fails(tmp_path, capsys, "nonuniform", data, match)

    def test_empty_out_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(lab, "run_experiment", pytest.fail)  # a started run fails the test
        argv = ["residue-scaling", "--out", ""]
        self._fails_cleanly(capsys, argv, "output_dir must not be empty")

    def test_negative_seed(self, capsys):
        self._fails_cleanly(capsys, ["inequalities", "--seed", "-1"], "seed")

    def test_unwritable_output(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_list": [4, 8, 16]}))
        blocker = tmp_path / "reports"
        blocker.write_text("a file where the report directory should go")
        self._fails_cleanly(
            capsys,
            ["residue-scaling", "--config", str(config), "--out", str(blocker)],
            "reports",
        )
