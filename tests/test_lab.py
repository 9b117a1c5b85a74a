"""Experiment configs, slope fitting, runners, and report emission."""

import json
import re

import numpy as np
import pytest

from torusgas import families, lab, solver
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
    _member_runs,
    _mirror,
    _plan_member,
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


_FAMILY_RUNS = ("nonuniform", "residue_scaling", "error_scaling", "exact_check", "higher_norm")
_CELL_RUNS = ("nonuniform", "residue_scaling", "exact_check", "higher_norm")
_DESK = "exceeds the desk-scale limit 4096"
_FITS_SLOPE = "fits a slope over n_list, which needs at least 3 entries"
_EVEN = "grid_rule must be even so that N = grid_rule * n is even"
_BELOW_6 = "grid_rule below 6 cannot resolve family modes up to 2n"
_TWO_GRIDS = "inequalities expects n_list = (base_grid, refined_grid)"


def _s_bound(s, points):
    weights = f"the norm weights (1 + |k|^2)^{float(int(s) + 1):.6g}"
    return f"s = {s} is too large: {weights} overflow at N = {points} points per 2*pi"


#: (experiment, overrides, message) of rejected configs.  Every fault of
#: the shared rules is tried on every experiment; a config with two faults
#: is marked, and its message names the rule checked first.
CONFIG_FAULTS = [
    *[
        (experiment, overrides, message)
        for experiment in EXPERIMENTS
        for overrides, message in [
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"seed": "4"}, "seed must be an integer, got '4'"),
            ({"threads": 2.5}, "threads must be an integer, got 2.5"),
            ({"grid_rule": None}, "grid_rule must be an integer, got None"),
            ({"family_size": 8.0}, "family_size must be an integer, got 8.0"),
            ({"n_list": ()}, "n_list must contain positive integers"),
            ({"s": True}, "s must be a real number, got True"),
            ({"sigma": "1.5"}, "sigma must be a real number, got '1.5'"),
            ({"s": float("inf")}, "s must be finite, got inf"),
            ({"sigma": float("nan")}, "sigma must be finite, got nan"),
            ({"s": 2.0}, "s must exceed 2, got 2.0"),  # no sigma lies in (1, s-1] then
            ({"threads": 0}, "threads must be positive"),
            ({"gas": {"gamma": 1.4}}, "gas must be a GasParams, got dict"),
            ({"solve": {"T": 1.0}}, "solve must be a SolveConfig, got dict"),
            (
                {"solve": SolveConfig(T=0.1, dt_fixed=0.01)},
                "solve.dt_fixed must not be set: summary.json does not record it, got 0.01",
            ),
            ({"output_dir": 5}, "output_dir must be a string, got 5"),
            ({"output_dir": ""}, "output_dir must not be empty"),
        ]
    ],
    ("nonuniform", {"n_list": (4.5, 8)}, "n_list entry must be an integer, got 4.5"),
    ("residue_scaling", {"n_list": (4, 8, True)}, "n_list entry must be an integer, got True"),
    ("nonuniform", {"n_list": (0, 8)}, "n_list must contain positive integers"),
    ("nonuniform", {"n_list": (8, 4)}, "n_list must be strictly increasing, got (8, 4)"),
    ("exact_check", {"n_list": (8, 8)}, "n_list must be strictly increasing, got (8, 8)"),
    ("inequalities", {"n_list": (128, 64)}, "n_list must be strictly increasing, got (128, 64)"),
    *[
        (name, {"n_list": (4, 8)}, f"{name} {_FITS_SLOPE}, got 2")
        for name in ("residue_scaling", "error_scaling", "higher_norm")
    ],
    ("residue_scaling", {"sigma": 2.5}, "sigma must lie in (1, s-1] for residue scaling, got 2.5"),
    ("residue_scaling", {"sigma": 1.0}, "sigma must lie in (1, s-1] for residue scaling, got 1.0"),
    ("nonuniform", {"sigma": 1.0}, "sigma must lie in (1, s-1) for nonuniform, got 1.0"),
    ("nonuniform", {"sigma": 2.0}, "sigma must lie in (1, s-1) for nonuniform, got 2.0"),
    ("error_scaling", {"sigma": 1.0}, "sigma must lie in (1, s-1) for error_scaling, got 1.0"),
    ("error_scaling", {"sigma": 2.0}, "sigma must lie in (1, s-1) for error_scaling, got 2.0"),
    ("inequalities", {"sigma": 3.0}, "sigma must lie in (1, s) for inequalities, got 3.0"),
    ("inequalities", {"sigma": 1.0}, "sigma must lie in (1, s) for inequalities, got 1.0"),
    *[
        (name, {"grid_rule": rule}, _BELOW_6)
        for name in _FAMILY_RUNS
        for rule in (4, -10**40)  # a negative rule is rejected before the s bound reads it
    ],
    *[(name, {"grid_rule": 7}, f"{_EVEN}, got 7") for name in _FAMILY_RUNS],
    *[(name, {"grid_rule": 4098}, f"N = 4098 {_DESK}") for name in _CELL_RUNS],
    ("error_scaling", {"n_list": (8, 16, 512)}, f"N = 8192 {_DESK}"),
    ("inequalities", {"n_list": (64, 4096)}, f"N = 8192 {_DESK}"),
    # the finest grid in points per 2*pi at the default n_list
    ("nonuniform", {"s": 68.0}, _s_bound(68.0, 256)),
    ("residue_scaling", {"s": 60.0}, _s_bound(60.0, 512)),
    ("error_scaling", {"s": 60.0}, _s_bound(60.0, 512)),
    ("exact_check", {"s": 92.0}, _s_bound(92.0, 64)),
    ("higher_norm", {"s": 68.0}, _s_bound(68.0, 256)),
    ("inequalities", {"s": 68.0}, _s_bound(68.0, 256)),
    # floor(s) + 1 as a float: "^401" and "^4" keep their form, 1e308 is not 309 digits
    (
        "nonuniform",
        {"s": 1e308},
        "s = 1e+308 is too large: the norm weights (1 + |k|^2)^1e+308 overflow at N = 256 "
        "points per 2*pi",
    ),
    # a cell count whose squared points per 2*pi is past the float range
    *[(name, {"n_list": (4, 8, 10**155)}, _s_bound(3.0, 8 * 10**155)) for name in _CELL_RUNS],
    ("inequalities", {"family_size": 0}, "family_size must be positive"),
    # 10**13 members' ratios alone would take 160 TB
    (
        "inequalities",
        {"family_size": 10**13},
        "family_size = 10000000000000 exceeds the desk-scale limit 100000",
    ),
    ("inequalities", {"n_list": (64,)}, _TWO_GRIDS),
    ("inequalities", {"n_list": (32, 64, 128)}, _TWO_GRIDS),
    ("inequalities", {"n_list": (64, 127)}, "grid size must be even and >= 4, got 127"),
    (
        "inequalities",
        {"n_list": (16, 32)},
        "max_mode 8 exceeds the dealias band 5 of an N=16 grid on a 2*pi/1 cell",
    ),
    # two faults: the grid_rule rules come before the bounds that read grid_rule
    ("nonuniform", {"grid_rule": 4097}, f"{_EVEN}, got 4097"),
    ("error_scaling", {"grid_rule": 5, "s": 1000.0}, _BELOW_6),
    # two faults: inequalities' own rules come after the bounds, which build no grid
    ("inequalities", {"n_list": (16, 4096)}, f"N = 8192 {_DESK}"),
    ("inequalities", {"n_list": (64, 128, 4096)}, f"N = 8192 {_DESK}"),
    ("inequalities", {"family_size": 0, "n_list": (64, 4096)}, f"N = 8192 {_DESK}"),
    ("inequalities", {"family_size": 0, "s": 1000.0}, _s_bound(1000.0, 256)),
    ("inequalities", {"n_list": (64,), "s": 1000.0}, _s_bound(1000.0, 128)),
    ("inequalities", {"family_size": 0, "threads": 0}, "family_size must be positive"),
]


def _fault_id(experiment, overrides):
    return "-".join([experiment, *(f"{key}={value!r}" for key, value in overrides.items())])


class TestExperimentConfig:
    @pytest.mark.parametrize(
        "experiment, overrides, message",
        CONFIG_FAULTS,
        ids=[_fault_id(experiment, overrides) for experiment, overrides, _ in CONFIG_FAULTS],
    )
    def test_rejection_message(self, experiment, overrides, message):
        with pytest.raises(ValueError) as err:
            ExperimentConfig(experiment, **overrides)
        assert str(err.value) == message

    def test_sigma_interval_bounds_accepted(self):
        # residue scaling allows sigma = s - 1, the solver experiments do not
        ExperimentConfig(experiment="residue_scaling", n_list=(4, 8, 16), sigma=2.0)
        ExperimentConfig(experiment="inequalities", n_list=(64, 128), sigma=2.5)

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

    def test_inequalities_bounds_its_doubled_grid(self, monkeypatch):
        # products of the refined grid run on twice its size
        ExperimentConfig("inequalities", n_list=(64, 2048))
        with pytest.raises(ValueError, match="N = 8192 exceeds the desk-scale limit 4096"):
            ExperimentConfig("inequalities", n_list=(64, 4096))
        # the bound is checked before any grid is built, even where the base
        # grid would fail its band check
        built = []
        monkeypatch.setattr(lab, "make_grid", lambda *args: built.append(args) or make_grid(*args))
        with pytest.raises(ValueError) as err:
            ExperimentConfig("inequalities", n_list=(16, 4096))
        assert str(err.value) == "N = 8192 exceeds the desk-scale limit 4096"
        assert built == []
        ExperimentConfig("inequalities", n_list=(64, 128))
        assert built == [(64,), (128,)]  # the patch sees the grids the check builds

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

    def test_python_config_rejects_fixed_step(self):
        # the JSON path rejects the key (above); a config built in Python is rejected
        # too, since summary.json would not record a step that changes the CSV
        solve = SolveConfig(T=0.1, dt_fixed=0.01)
        match = "solve.dt_fixed must not be set: summary.json does not record it, got 0.01"
        with pytest.raises(ValueError, match=re.escape(match)):
            ExperimentConfig("higher_norm", n_list=(4, 8, 16), solve=solve)


class TestReports:
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

        def mirrored(state):
            samples = np.array([f.samples for f in state.fields()])
            return State(*(Field(grid, samples=p) for p in _mirror(samples, shift)))

        for t, state_plus, state_minus in zip(plus.times, plus.states, minus.states):
            _assert_same_samples(mirrored(state_plus), state_minus, 1e-12)
            _assert_same_samples(
                mirrored(families.approx_solution(fp_plus, gas, grid, t)),
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


def _trajectory(cfg, n, grid):
    """The trajectory of the planned omega = +1 member run of index n on ``grid``."""
    member = _plan_member(cfg, n, grid, lab._approx_member(cfg, 1, n))
    (traj,) = _member_runs(cfg, [member], lambda member, traj: traj)
    return traj


class TestMemberRun:
    """Every evolving runner reaches the solver through planned, batched member runs."""

    #: n_list and the (size, cells) of the runs of each evolve_batch call, in call order
    EVOLVE_BATCHES = {
        # one batch of grid_rule-point cells, one per n
        "nonuniform": ((2, 4), [[(8, 2), (8, 4)]]),
        "higher_norm": ((2, 4, 8), [[(8, 2), (8, 4), (8, 8)]]),
        # and the two halved-step runs at the largest n, in the same batch
        "exact_check": ((2, 4), [[(8, 2), (8, 4), (8, 4), (8, 4)]]),
        # one whole-torus grid_rule * n grid per batch, and the doubled control run
        "error_scaling": ((2, 4, 8), [[(16, 1)], [(32, 1)], [(64, 1)], [(128, 1)]]),
    }

    @pytest.mark.parametrize("experiment", EVOLVE_BATCHES)
    def test_evolve_calls(self, monkeypatch, experiment):
        n_list, batches = self.EVOLVE_BATCHES[experiment]
        seen, planned = [], []
        real_evolve_batch, real_plan = solver.evolve_batch, solver.plan

        def recording_evolve_batch(runs, gas):
            seen.append([(run.s0.grid.size, run.s0.grid.cells) for run in runs])
            return real_evolve_batch(runs, gas)

        def recording_plan(s0, gas, solve):
            planned.append(s0)
            return real_plan(s0, gas, solve)

        monkeypatch.setattr(solver, "evolve_batch", recording_evolve_batch)
        monkeypatch.setattr(solver, "plan", recording_plan)
        cfg = ExperimentConfig(experiment, n_list=n_list, solve=SolveConfig(T=0.1))
        run_experiment(cfg)
        assert seen == batches
        assert len(planned) == sum(map(len, batches))  # each run is planned once
        # the config's bounds read the row's largest grid: the largest size the
        # runs march on, and of those the most cells
        largest = max(grid for batch in seen for grid in batch)
        assert largest == EXPERIMENTS[experiment].largest_grid(cfg)

    def test_runs_read_only_the_stacked_closed_forms(self, monkeypatch):
        # each run is planned, checked and measured from its member's stacked samples
        for name in ("exact_solution", "approx_solution", "initial_data"):
            monkeypatch.setattr(families, name, pytest.fail)
        short = {"n_list": [4, 8, 16], "solve": {"T": 0.1}}
        configs = {
            "nonuniform": short,
            "exact_check": {"n_list": [4], "solve": {"T": 0.25}},
            "higher_norm": short,
            "error_scaling": short,
        }
        for experiment, data in configs.items():
            assert run_experiment(config_from_dict(data, experiment)).passed

    def test_closed_forms_are_built_when_drawn(self, monkeypatch):
        nonuniform = ExperimentConfig("nonuniform", n_list=(2,), solve=SolveConfig(T=0.1))
        times = _trajectory(nonuniform, 2, make_grid(8, 2)).times
        assert len(times) > 2
        built = []
        real_deviation = families._approx_deviation

        def recording_deviation(fp, grid, t):
            built.append((fp.omega, np.array(t).tolist()))
            return real_deviation(fp, grid, t)

        monkeypatch.setattr(families, "_approx_deviation", recording_deviation)
        # higher_norm measures no errors, so it builds the initial data and nothing more
        cfg = ExperimentConfig("higher_norm", n_list=(2, 4, 8), solve=SolveConfig(T=0.1))
        run_experiment(cfg)
        assert built == [(1, 0.0)] * 3
        # nonuniform builds the initial data of each sign when it plans; the run
        # fills its t = 0 row from the omega = -1 member, then builds each sign's
        # member once, at all recorded times
        built.clear()
        run_experiment(nonuniform)
        assert built == [(1, 0.0), (-1, 0.0), (-1, 0.0), (1, times), (-1, times)]


class TestRecordedChunks:
    """Measuring a run's records in chunks gives the bytes of measuring them at once."""

    @pytest.mark.parametrize(
        "experiment, n_list",
        [
            ("nonuniform", (2, 4)),
            ("exact_check", (2, 4)),
            ("higher_norm", (2, 4, 8)),
            ("error_scaling", (2, 4, 8)),
        ],
    )
    def test_one_record_per_chunk(self, monkeypatch, experiment, n_list):
        cfg = ExperimentConfig(experiment, n_list=n_list, solve=SolveConfig(T=0.1))
        whole = run_experiment(cfg)
        monkeypatch.setattr(lab, "_STACK_BYTES", 1)
        chunked = run_experiment(cfg)
        assert chunked.rows == whole.rows
        assert chunked.details == whole.details
        assert chunked.fitted_slope == whole.fitted_slope


class TestCellGridEvolve:
    """Evolving one 2*pi/n cell is evolving the whole torus."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_cell_run_matches_full_torus_run(self, n):
        cfg = ExperimentConfig("nonuniform")
        full, cell = make_grid(8 * n), make_grid(8, n)
        on_full, on_cell = (_trajectory(cfg, n, on) for on in (full, cell))
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
        traj = _trajectory(cfg, n, grid)
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
