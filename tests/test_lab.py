"""Experiment configs, slope fitting, runners, and report emission."""

import json
import re

import numpy as np
import pytest

from torusgas import families, solver
from torusgas.euler import GasParams, State
from torusgas.families import FamilyParams
from torusgas.lab import (
    EXPERIMENTS,
    ExperimentConfig,
    Report,
    command_name,
    config_from_dict,
    run_experiment,
    _emit,
    _fit,
    _member_run,
    _mirror,
)
from torusgas.solver import SolveConfig, SolverError
from torusgas.spectral import Field, TorusGrid, make_grid
class TestFitLoglogSlope:
    """``lab._fit``, the one log-log slope fit of the scaling studies."""

    @staticmethod
    def fit(xs, ys):
        return _fit("higher_norm", "rows.measured_value", xs, ys)

    def test_exact_power_laws(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        assert self.fit(xs, [x**2 for x in xs]) == pytest.approx(2.0)
        assert self.fit(xs, [5.0 / x for x in xs]) == pytest.approx(-1.0)

    def test_perturbed_data(self):
        rng = np.random.default_rng(0)
        xs = [4.0, 8.0, 16.0, 32.0, 64.0]
        ys = [x**-6.5 * (1.0 + 1e-3 * rng.standard_normal()) for x in xs]
        assert self.fit(xs, ys) == pytest.approx(-6.5, abs=0.02)

    def test_validation(self):
        unfittable = "higher-norm cannot fit a log-log slope to rows.measured_value: it holds 0.0"
        with pytest.raises(SolverError, match=unfittable):
            self.fit([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
        for bad in (float("nan"), float("inf")):
            non_finite = f"higher-norm report holds a non-finite rows.measured_value: {bad}"
            with pytest.raises(SolverError, match=non_finite):
                self.fit([1.0, 2.0, 3.0], [1.0, bad, 1.0])
            with pytest.raises(SolverError, match=non_finite):
                self.fit([1.0, bad, 3.0], [1.0, 2.0, 1.0])


class TestExperimentConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig(experiment="nope")

    def test_unknown_experiment_with_n_list(self):
        # the experiment table lookup used to raise a bare KeyError; a given
        # n_list must not skip it
        with pytest.raises(ValueError, match=r"unknown experiment 'frobnicate'; choose from"):
            ExperimentConfig("frobnicate", n_list=(4, 8, 16))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ExperimentConfig(experiment="nonuniform", seed=-1)

    def test_n_list_validation(self):
        with pytest.raises(ValueError, match="positive integers"):
            ExperimentConfig(experiment="nonuniform", n_list=())
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentConfig(experiment="nonuniform", n_list=(4, 4, 8))

    def test_sigma_windows(self):
        # residue scaling allows sigma = s - 1, the solver experiments do not
        ExperimentConfig(experiment="residue_scaling", n_list=(4, 8, 16), sigma=2.0)
        with pytest.raises(ValueError, match=r"\(1, s-1\]"):
            ExperimentConfig(experiment="residue_scaling", n_list=(4, 8, 16), sigma=2.5)
        with pytest.raises(ValueError, match=r"\(1, s-1\)"):
            ExperimentConfig(experiment="nonuniform", n_list=(4, 8), sigma=2.0)
        ExperimentConfig(experiment="inequalities", n_list=(64, 128), sigma=2.5)
        with pytest.raises(ValueError, match=r"\(1, s\)"):
            ExperimentConfig(experiment="inequalities", n_list=(64, 128), sigma=3.0)

    def test_resolution_rules(self):
        with pytest.raises(ValueError, match="grid_rule below 6"):
            ExperimentConfig(experiment="residue_scaling", n_list=(4, 8, 16), grid_rule=4)
        with pytest.raises(ValueError, match="desk-scale"):
            ExperimentConfig(experiment="residue_scaling", n_list=(4, 8, 16), grid_rule=8192)

    @pytest.mark.parametrize(
        "experiment", ["nonuniform", "residue_scaling", "exact_check", "higher_norm"]
    )
    def test_cell_runs_bound_the_cell_grid(self, experiment):
        # a cell run allocates grid_rule points per axis, whatever n is
        ExperimentConfig(experiment, n_list=(4, 8, 16, 1024))
        ExperimentConfig(experiment, n_list=(4, 8, 16), grid_rule=4096)
        with pytest.raises(ValueError, match="N = 4098 exceeds the desk-scale limit 4096"):
            ExperimentConfig(experiment, n_list=(4, 8, 16), grid_rule=4098)

    def test_error_scaling_bounds_its_control_grid(self):
        # the control run doubles the whole-torus grid grid_rule * n at the largest n
        ExperimentConfig("error_scaling", n_list=(8, 16, 256))
        with pytest.raises(ValueError, match="N = 8192 exceeds the desk-scale limit 4096"):
            ExperimentConfig("error_scaling", n_list=(8, 16, 512))

    def test_inequalities_bounds_its_doubled_grid(self):
        # products of the refined grid run on twice its size
        ExperimentConfig("inequalities", n_list=(64, 2048))
        with pytest.raises(ValueError, match="N = 8192 exceeds the desk-scale limit 4096"):
            ExperimentConfig("inequalities", n_list=(64, 4096))

    @pytest.mark.parametrize(
        "experiment",
        ["nonuniform", "residue_scaling", "error_scaling", "exact_check", "higher_norm"],
    )
    def test_odd_grid_rule_rejected(self, experiment):
        # N = grid_rule * n must be even for every n
        with pytest.raises(ValueError, match="grid_rule must be even"):
            ExperimentConfig(experiment, grid_rule=7)

    @pytest.mark.parametrize(
        "experiment, torus_points, s_max",
        [
            # the finest grid in points per 2*pi, and the largest integer s accepted
            ("nonuniform", 256, 67),
            ("residue_scaling", 512, 59),
            ("error_scaling", 512, 59),
            ("exact_check", 64, 91),
            ("higher_norm", 256, 67),
            ("inequalities", 256, 67),
        ],
    )
    def test_s_bounded_by_finite_norm_weights(self, experiment, torus_points, s_max):
        grid = make_grid(torus_points)
        with np.errstate(over="ignore"):
            accepted, beyond = (
                grid.one_plus_ksq ** float(tau) * grid.column_weights
                for tau in (s_max + 1, s_max + 3)
            )
        # the weights of every accepted s are finite, and the bound is tight
        # to within one order
        assert np.isfinite(accepted).all() and not np.isfinite(beyond).all()
        ExperimentConfig(experiment, s=s_max + 0.99)
        match = (
            f"s = {s_max + 1.0} is too large: the norm weights (1 + |k|^2)^{s_max + 2} "
            f"overflow at N = {torus_points} points per 2*pi"
        )
        with pytest.raises(ValueError, match=re.escape(match)):
            ExperimentConfig(experiment, s=s_max + 1.0)

    def test_bounded_s_keeps_family_amplitudes_normal(self):
        # at the largest accepted s the smallest amplitude n^(-2s) of the h
        # deviation is still a normal float on every grid_rule and n
        for grid_rule in (6, 8, 16):
            for n in (1, 4, 64, 512):
                s = 2.5
                while True:
                    try:
                        ExperimentConfig("nonuniform", n_list=(n,), grid_rule=grid_rule, s=s + 0.5)
                    except ValueError:
                        break
                    s += 0.5
                assert float(n) ** (-2.0 * s) >= np.finfo(float).tiny

    def test_misc_validation(self):
        with pytest.raises(ValueError, match="s must exceed 2"):
            ExperimentConfig(experiment="nonuniform", s=2.0)
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(experiment="nonuniform", threads=0)
        with pytest.raises(ValueError, match="family_size"):
            ExperimentConfig(experiment="inequalities", family_size=0)

    def test_non_integer_n_list_rejected(self):
        # int(4.5) used to truncate silently to 4
        with pytest.raises(ValueError, match="n_list entry must be an integer"):
            ExperimentConfig(experiment="nonuniform", n_list=(4.5, 8))
        with pytest.raises(ValueError, match="n_list entry must be an integer"):
            ExperimentConfig(experiment="nonuniform", n_list=(4, True))

    @pytest.mark.parametrize("name", ["s", "sigma"])
    def test_bool_is_not_a_number(self, name):
        with pytest.raises(ValueError, match=f"{name} must be a real number, got True"):
            ExperimentConfig(experiment="nonuniform", **{name: True})

    @pytest.mark.parametrize("name", ["seed", "threads", "grid_rule", "family_size"])
    @pytest.mark.parametrize("value", ["4", 8.0, 2.5, None])
    def test_non_integer_fields_rejected(self, name, value):
        experiment = "inequalities" if name == "family_size" else "nonuniform"
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig(experiment=experiment, **{name: value})

    def test_defaults_per_experiment(self):
        # one source per default: the table's n_list, whichever way the config is built
        for name, row in EXPERIMENTS.items():
            cfg = ExperimentConfig(name)
            assert cfg.experiment == name
            assert cfg.n_list == row.n_list == config_from_dict({}, name).n_list
            assert cfg.solve == SolveConfig(T=1.0)
        assert ExperimentConfig("residue_scaling").n_list == (4, 8, 16, 32, 64)
        assert ExperimentConfig("inequalities").n_list == (64, 128)
        assert ExperimentConfig("inequalities").family_size == 500
        assert ExperimentConfig("nonuniform", seed=3).seed == 3

    def test_needs_two_grids(self):
        for n_list in ((64,), (32, 64, 128)):
            with pytest.raises(ValueError, match="base_grid, refined_grid"):
                ExperimentConfig("inequalities", n_list=n_list, family_size=5)


class TestConfigFromDict:
    def test_round_trip(self):
        cfg = config_from_dict(
            {
                "n_list": [8],
                "solve": {"T": 0.5, "cfl": 0.2},
                "gas": {"gamma": 1.5},
                "seed": 9,
            },
            "exact_check",
        )
        assert cfg.experiment == "exact_check"
        assert cfg.n_list == (8,)
        assert cfg.solve.T == 0.5 and cfg.solve.cfl == 0.2
        assert cfg.gas.gamma == 1.5
        assert cfg.seed == 9

    def test_unknown_keys(self):
        with pytest.raises(ValueError, match=re.escape("unknown config keys: ['bogus']")):
            config_from_dict({"bogus": 1}, "nonuniform")

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match=r"unknown experiment 'frobnicate'; choose from"):
            config_from_dict({}, "frobnicate")

    def test_command_names_round_trip(self):
        names = [command_name(name) for name in EXPERIMENTS]
        assert names == [
            "nonuniform",
            "residue-scaling",
            "error-scaling",
            "exact-check",
            "higher-norm",
            "inequalities",
        ]
        assert [config_from_dict({}, name).experiment for name in EXPERIMENTS] == list(EXPERIMENTS)
        with pytest.raises(ValueError, match="unknown experiment 'exact-check'"):
            config_from_dict({}, "exact-check")  # the command spelling is the CLI's to map

    def test_partial_solve_section_keeps_defaults(self):
        cfg = config_from_dict({"solve": {"cfl": 0.5}}, "nonuniform")
        assert cfg.solve == SolveConfig(T=1.0, cfl=0.5)
        assert config_from_dict({"solve": {"T": 0.5}}, "nonuniform").solve.cfl == 0.25

    def test_input_not_mutated(self):
        data = {"n_list": [8], "solve": {"cfl": 0.2}, "gas": {"gamma": 1.5}}
        snapshot = json.loads(json.dumps(data))
        cfg = config_from_dict(data, "exact_check")
        assert cfg.solve.T == 1.0 and cfg.solve.cfl == 0.2
        assert data == snapshot

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"threads": "4"}, "threads must be an integer"),
            ({"n_list": [4.5, 8]}, "n_list entry must be an integer"),
            ({"gas": {"bogus": 1.0}}, "unknown gas keys: ['bogus']"),
            ({"solve": {"T": "1"}}, "invalid config"),
            ({"solve": {"record_stride": 2}}, "unknown solve keys: ['record_stride']"),
            ({"seed": -1}, "seed must be non-negative"),
            ({"gas": 1.4}, "config key 'gas' must be a JSON object, got float"),
            ({"solve": {"T": True}}, "invalid config: T must be a real number, got True"),
            ({"gas": {"rho0": True}}, "invalid config: rho0 must be a real number, got True"),
            ({"n_list": None}, "n_list must be a list of integers, got None"),
            ({"n_list": 5}, "n_list must be a list of integers, got 5"),
            ({"experiment": "nonuniform"}, "unknown config keys: ['experiment']"),
            ({"solve": {"dt_fixed": 0.5}}, "unknown solve keys: ['dt_fixed']"),
        ],
    )
    def test_malformed_values(self, data, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            config_from_dict(data, "nonuniform")

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            config_from_dict([1, 2], "nonuniform")


class TestReports:
    def test_scaling_run_needs_three_n(self):
        with pytest.raises(ValueError, match="at least 3"):
            run_experiment(ExperimentConfig("residue_scaling", n_list=(4, 8)))

    def test_summaries(self):
        nu = Report(experiment="nonuniform", rows=[], passed=True)
        assert nu.summary() == {"experiment": "nonuniform", "pass": True}
        iq = Report(experiment="inequalities", rows=[], passed=False)
        assert iq.summary() == {"experiment": "inequalities", "pass": False}
        sc = Report(
            experiment="residue_scaling",
            rows=[],
            passed=True,
            fitted_slope=-6.49,
            predicted_slope=-6.5,
            slope_tolerance=0.05,
        )
        assert sc.summary() == {
            "experiment": "residue_scaling",
            "pass": True,
            "fitted_slope": -6.49,
            "predicted_slope": -6.5,
            "tolerance": 0.05,
        }

    def test_report_text(self, tmp_path):
        # the exact bytes of both files; compare_dirs parses values and would
        # not see a change of float spelling, quoting or indentation
        report = Report(
            experiment="nonuniform",
            rows=[
                {"a": None, "b": True, "c": "check", "d": 3},
                {"a": np.float64(0.1), "b": 0.1 + 0.2, "c": 1e-300, "d": False},
            ],
            passed=False,
            details={
                "curve": [(0.0, 1.5), (0.25, 2e-17)],
                "nested": {"k": {"x": 1}},
                "ok": True,
            },
        )
        _emit(ExperimentConfig("nonuniform", output_dir=str(tmp_path)), report)
        assert (tmp_path / "nonuniform.csv").read_text() == (
            "a,b,c,d\n,True,check,3\n0.1,0.30000000000000004,1e-300,False\n"
        )
        assert (tmp_path / "summary.json").read_text() == _REPORT_SUMMARY


_REPORT_SUMMARY = """\
{
  "details": {
    "curve": [
      [
        0.0,
        1.5
      ],
      [
        0.25,
        2e-17
      ]
    ],
    "nested": {
      "k": {
        "x": 1
      }
    },
    "ok": true
  },
  "experiment": "nonuniform",
  "params": {
    "T": 1.0,
    "cfl": 0.25,
    "gamma": 1.4,
    "grid_rule": 8,
    "h0": 1.0,
    "n_list": [
      4,
      8,
      16,
      32
    ],
    "rho0": 1.0,
    "s": 3.0,
    "seed": 0,
    "sigma": 1.5,
    "threads": 1
  },
  "pass": false
}
"""


class TestResidueScaling:
    def test_small_sweep(self, tmp_path):
        cfg = ExperimentConfig(
            "residue_scaling", n_list=(4, 8, 16), output_dir=str(tmp_path)
        )
        report = run_experiment(cfg)
        assert report.passed
        assert report.predicted_slope == pytest.approx(-6.5)
        assert abs(report.fitted_slope - report.predicted_slope) <= 0.05
        assert len(report.rows) == 3
        for row in report.rows:
            assert row["measured_value"] <= row["reference_envelope"] * (1.0 + 1e-9)
        lines = (tmp_path / "residue_scaling.csv").read_text().splitlines()
        assert lines[0] == "n,measured_value,reference_envelope"
        assert len(lines) == 4
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["experiment"] == "residue_scaling"
        assert summary["pass"] is True
        assert summary["params"]["n_list"] == [4, 8, 16]

    def test_no_output_dir_writes_nothing(self, tmp_path):
        cfg = ExperimentConfig("residue_scaling", n_list=(4, 8, 16))
        run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_artifacts(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_experiment(
                ExperimentConfig(
                    "residue_scaling", n_list=(4, 8, 16), output_dir=str(out)
                )
            )
        assert (out_a / "residue_scaling.csv").read_bytes() == (
            out_b / "residue_scaling.csv"
        ).read_bytes()
        assert (out_a / "summary.json").read_bytes() == (
            out_b / "summary.json"
        ).read_bytes()


class TestExactCheck:
    def test_single_family_run(self, tmp_path):
        cfg = ExperimentConfig("exact_check", output_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert report.passed
        assert report.fitted_slope >= 3.8
        assert report.details["max_deviation"] <= 1e-8
        assert report.details["max_divergence_l2"] <= 1e-10
        dts = [row["dt"] for row in report.rows]
        assert dts[0] == pytest.approx(2.0 * dts[1]) and dts[1] == pytest.approx(
            2.0 * dts[2]
        )
        lines = (tmp_path / "exact_check.csv").read_text().splitlines()
        assert lines[0] == "dt,measured_value,reference_envelope"


class TestErrorScaling:
    def test_small_sweep(self):
        cfg = ExperimentConfig("error_scaling", n_list=(2, 4, 8))
        report = run_experiment(cfg)
        assert report.passed
        assert report.predicted_slope == pytest.approx(-4.0)  # max(2s-3s+2, s-2s) map
        assert report.fitted_slope <= report.details["slope_threshold"]
        assert report.details["control_certified"]
        assert report.details["control_relative_gap"] < 0.01
        measured = [row["measured_value"] for row in report.rows]
        assert measured == sorted(measured, reverse=True)

    def test_too_short_for_a_growth_fit(self):
        # T = 0.002 records only t = 0 and T: one interior point, no fit
        cfg = ExperimentConfig("error_scaling", n_list=(4, 8, 16), solve=SolveConfig(T=0.002))
        fit = run_experiment(cfg).details["growth_fit"]
        assert fit == {"c": None, "K": None, "spread": None}


class TestHigherNorm:
    def test_small_sweep(self):
        cfg = ExperimentConfig("higher_norm", n_list=(4, 8, 16))
        report = run_experiment(cfg)
        assert report.passed
        assert report.details["tau"] == 4.0
        assert report.predicted_slope == pytest.approx(1.0)
        assert abs(report.fitted_slope - 1.0) <= 0.15
        measured = [row["measured_value"] for row in report.rows]
        assert measured == sorted(measured)  # norms grow with n


class TestNonuniform:
    def test_two_family_run(self, tmp_path):
        cfg = ExperimentConfig("nonuniform", n_list=(4, 16), output_dir=str(tmp_path))
        report = run_experiment(cfg)
        assert report.passed
        d0 = {row["n"]: row["d0"] for row in report.rows}
        assert sorted(d0) == [4, 16]
        for n in (4, 16):
            assert d0[n] == pytest.approx(
                4.0 * np.sqrt(2.0) * np.pi / n, abs=1e-8
            )
        final = [r for r in report.rows if r["n"] == 16 and r["t"] == 1.0]
        assert len(final) == 1
        assert report.details["final_separation"] == {
            str(r["n"]): r["pair_dist_s"] for r in report.rows if r["t"] == 1.0
        }
        assert final[0]["pair_dist_s"] >= 0.75 * final[0]["approx_diff_s"]
        for row in report.rows:
            bound = row["approx_diff_s"] - row["err_plus_s"] - row["err_minus_s"]
            slack = 1e-9 * max(row["approx_diff_s"], row["pair_dist_s"])
            assert row["pair_dist_s"] >= bound - slack
        lines = (tmp_path / "nonuniform.csv").read_text().splitlines()
        assert lines[0] == (
            "n,d0,t,pair_dist_s,approx_diff_s,err_plus_sigma,err_minus_sigma,"
            "err_plus_s,err_minus_s"
        )
        assert len(lines) == 1 + len(report.rows)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["pass"] is True



def _assert_same_samples(got: State, want: State, rel: float) -> None:
    scale = max(np.max(np.abs(f.samples)) for f in want.fields())
    for a, b in zip(got.fields(), want.fields()):
        assert np.max(np.abs(a.samples - b.samples)) <= rel * scale


class TestNonuniformMirror:
    """The omega = -1 run is the omega = +1 run under the reflect-and-shift map."""

    def test_mirrored_plus_run_matches_evolved_minus_run(self):
        n, size, gas = 4, 32, GasParams()
        grid = make_grid(size)
        fp_plus, fp_minus = FamilyParams(1, n, 3.0), FamilyParams(-1, n, 3.0)
        init_plus = families.initial_data(fp_plus, gas, grid)
        init_minus = families.initial_data(fp_minus, gas, grid)
        _, dt = solver.plan(init_plus, gas, SolveConfig(T=0.25))
        solve = SolveConfig(T=0.25, dt_fixed=dt)
        plus = solver.evolve(init_plus, gas, solve)
        minus = solver.evolve(init_minus, gas, solve)
        assert plus.times == minus.times
        assert len(plus.times) > 2
        shift = size // (2 * n)
        for t, state_plus, state_minus in zip(plus.times, plus.states, minus.states):
            _assert_same_samples(_mirror(state_plus, shift), state_minus, 1e-12)
            _assert_same_samples(
                _mirror(families.approx_solution(fp_plus, gas, grid, t), shift),
                families.approx_solution(fp_minus, gas, grid, t),
                1e-12,
            )

    def test_broken_mirror_image_raises(self, broken_mirror):
        cfg = ExperimentConfig("nonuniform", n_list=(2,), solve=SolveConfig(T=0.1))
        with pytest.raises(RuntimeError, match="not a mirror image"):
            run_experiment(cfg)


def _pinned_torus_grid(size: int) -> TorusGrid:
    """A fresh whole-torus grid whose derivative tables, the ones evolve reads,
    are set from their closed forms written without cells: i*k, bin N/2 zeroed."""
    grid = TorusGrid(size)
    kx, ky = np.fft.fftfreq(size, 1.0 / size), np.arange(size // 2 + 1, dtype=float)
    kx[size // 2] = ky[-1] = 0.0
    object.__setattr__(grid, "ikx", (1j * kx)[:, None])
    object.__setattr__(grid, "iky", (1j * ky)[None, :])
    return grid


class TestMemberRun:
    """Every evolving runner reaches the solver through one member run."""

    #: n_list and the (size, cells) of each evolve call, in call order
    EVOLVE_GRIDS = {
        # one grid_rule-point cell per n
        "nonuniform": ((2, 4), [(8, 2), (8, 4)]),
        "higher_norm": ((2, 4, 8), [(8, 2), (8, 4), (8, 8)]),
        # and the two halved-step runs at the largest n
        "exact_check": ((2, 4), [(8, 2), (8, 4), (8, 4), (8, 4)]),
        # one whole-torus grid_rule * n grid per n, and the doubled control run
        "error_scaling": ((2, 4, 8), [(16, 1), (32, 1), (64, 1), (128, 1)]),
    }

    @pytest.mark.parametrize("experiment", EVOLVE_GRIDS)
    def test_evolve_calls(self, monkeypatch, experiment):
        n_list, grids = self.EVOLVE_GRIDS[experiment]
        seen = []
        real_evolve = solver.evolve

        def recording_evolve(s0, *args, **kwargs):
            seen.append((s0.grid.size, s0.grid.cells))
            return real_evolve(s0, *args, **kwargs)

        monkeypatch.setattr(solver, "evolve", recording_evolve)
        run_experiment(ExperimentConfig(experiment, n_list=n_list, solve=SolveConfig(T=0.1)))
        assert seen == grids

    def test_closed_forms_are_built_when_drawn(self, monkeypatch):
        # higher_norm draws no errors, so it builds the initial data and nothing more
        built = []
        real_closed_form = families.approx_solution

        def recording_closed_form(fp, gas, grid, t):
            built.append(t)
            return real_closed_form(fp, gas, grid, t)

        monkeypatch.setattr(families, "approx_solution", recording_closed_form)
        cfg = ExperimentConfig("higher_norm", n_list=(2, 4, 8), solve=SolveConfig(T=0.1))
        run_experiment(cfg)
        assert built == [0.0, 0.0, 0.0]
        traj, errors, _ = _member_run(cfg, 4, make_grid(8, 4), families.approx_solution)
        assert len(list(errors)) == len(traj.times)
        assert built == [0.0] * 4 + traj.times


class TestCellGridEvolve:
    """Evolving one 2*pi/n cell is evolving the whole torus."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_cell_run_matches_full_torus_run(self, n):
        cfg = ExperimentConfig("nonuniform")
        full, cell = make_grid(8 * n), make_grid(8, n)
        on_full, on_cell = (
            _member_run(cfg, n, on, families.approx_solution)[0] for on in (full, cell)
        )
        assert on_full.times == on_cell.times and len(on_cell.times) > 10
        # the torus coefficient at n*k is the cell coefficient at k
        k = np.fft.fftfreq(cell.size, 1.0 / cell.size).astype(int)
        lattice = np.ix_((n * k) % full.size, n * np.arange(5))
        for state_full, state_cell in zip(on_full.states, on_cell.states):
            scale = max(np.max(np.abs(f.samples)) for f in state_cell.fields())
            for a, b in zip(state_full.fields(), state_cell.fields()):
                gap = np.max(np.abs(a.coefficients[lattice] - b.coefficients))
                assert gap <= 1e-12 * scale

    @pytest.mark.parametrize("n", [4, 8])
    def test_full_torus_run_stays_on_multiples_of_n(self, n):
        grid = make_grid(8 * n)
        cfg = ExperimentConfig("nonuniform")
        traj, _, _ = _member_run(cfg, n, grid, families.approx_solution)
        columns = np.arange(grid.size // 2 + 1)
        off_lattice = np.ones((grid.size, columns.size), dtype=bool)
        rows = np.fft.fftfreq(grid.size, 1.0 / grid.size)
        off_lattice[np.ix_(rows % n == 0, columns % n == 0)] = False
        for state in traj.states:
            scale = max(np.max(np.abs(f.samples)) for f in state.fields())
            for f in state.fields():
                assert np.max(np.abs(f.coefficients[off_lattice])) <= 1e-14 * scale

    @pytest.mark.parametrize("omega, n, size", [(1, 2, 16), (-1, 2, 16), (1, 4, 32)])
    def test_whole_torus_evolve_unchanged_by_cells(self, omega, n, size):
        gas, solve = GasParams(), SolveConfig(T=0.2)
        s0 = families.initial_data(FamilyParams(omega, n, 3.0), gas, make_grid(size))
        runs = [
            solver.evolve(State(*(Field(on, samples=f.samples) for f in s0.fields())), gas, solve)
            for on in (make_grid(size), _pinned_torus_grid(size))
        ]
        assert runs[0].times == runs[1].times
        for a, b in zip(runs[0].states, runs[1].states):
            for fa, fb in zip(a.fields(), b.fields()):
                assert np.array_equal(fa.samples, fb.samples)


class TestInequalitiesRunner:
    def test_small_sweep(self, tmp_path):
        cfg = ExperimentConfig(
            "inequalities", n_list=(32, 64), family_size=40, output_dir=str(tmp_path)
        )
        report = run_experiment(cfg)
        assert report.passed
        checks = [row["check"] for row in report.rows]
        assert checks == ["commutator", "reciprocal", "algebra", "interpolation"]
        for row in report.rows:
            assert row["family_size"] == 40
            assert row["max_ratio"] > 0.0
            drift = abs(row["max_ratio_refined"] - row["max_ratio"]) / row["max_ratio"]
            assert drift <= 0.10
        assert report.rows[-1]["equality_cases"] == 2  # probes at members 0 and 25
        assert report.details["gap_violations"] == 0
        lines = (tmp_path / "inequalities.csv").read_text().splitlines()
        assert lines[0] == (
            "check,sigma,s_or_k,tau,family_size,max_ratio,"
            "max_ratio_refined,equality_cases"
        )
        assert lines[1].startswith("commutator,1.5,3.0,,40,")
        assert lines[3].startswith("algebra,1.5,,,40,")


class TestRunExperiment:
    def test_dispatch(self):
        report = run_experiment(ExperimentConfig("residue_scaling", n_list=(4, 8, 16)))
        assert isinstance(report, Report)
        assert report.experiment == "residue_scaling"
