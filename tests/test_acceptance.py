"""End-to-end acceptance gate: one verdict line per criterion.

Each test prints ``criterion k (<name>): PASS|FAIL (...)`` on the live
terminal before asserting, so a full run always shows all nine verdicts.
Criteria 6 and 9 run their experiments at the default config, so they
also compare the artifacts with ``bench/reference/``, reading it only.
"""

import time
from pathlib import Path

import numpy as np

from torusgas.euler import (
    GasParams,
    PointState,
    matrix_A,
    matrix_A0,
    matrix_A1,
    matrix_B,
    matrix_B1,
    symmetrizer_floor,
)
from torusgas.families import FamilyParams, residue_identity_errors
from torusgas.lab import ExperimentConfig, run_experiment
from torusgas.spectral import make_grid, sobolev_norm, synthesize

GAS = GasParams()
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


def _verdict(capsys, number, name, passed, detail):
    with capsys.disabled():
        print(f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_norm_formula(capsys):
    started = time.perf_counter()
    grid = make_grid(128)
    worst = 0.0
    for n in range(1, 17):
        for sigma in (0.0, 1.5, 3.0):
            measured = sobolev_norm(synthesize(grid, [(0, n, 1.0, "cos", 0.0)]), sigma)
            exact = np.pi * np.sqrt(2.0) * (1.0 + n * n) ** (sigma / 2.0)
            worst = max(worst, abs(measured - exact) / exact)
    elapsed = time.perf_counter() - started
    passed = worst <= 1e-9 and elapsed < 1.0
    _verdict(
        capsys,
        1,
        "norm formula",
        passed,
        f"max relative error {worst:.3e}, {elapsed:.2f} s",
    )


def test_criterion_2_symmetrizer(capsys):
    rng = np.random.default_rng(0)
    worst_identity = 0.0
    worst_asymmetry = 0.0
    min_eig = np.inf
    spd = True
    for _ in range(1000):
        p = PointState(
            rho=float(rng.uniform(0.5, 2.0)),
            u=float(rng.uniform(-1.0, 1.0)),
            v=float(rng.uniform(-1.0, 1.0)),
            h=float(rng.uniform(0.5, 2.0)),
        )
        a0 = matrix_A0(p, GAS)
        a1 = matrix_A1(p, GAS)
        b1 = matrix_B1(p, GAS)
        worst_identity = max(
            worst_identity,
            np.max(np.abs(a0 @ matrix_A(p, GAS) - a1)),
            np.max(np.abs(a0 @ matrix_B(p, GAS) - b1)),
        )
        worst_asymmetry = max(
            worst_asymmetry,
            np.max(np.abs(a1 - a1.T)),
            np.max(np.abs(b1 - b1.T)),
        )
        eigs = np.linalg.eigvalsh(a0)
        spd = spd and bool(np.all(eigs > 0.0))
    kappa = symmetrizer_floor(GAS)
    radius = 0.1 * min(GAS.rho0, GAS.h0)
    for _ in range(300):
        shift = rng.uniform(-radius, radius, size=4)
        near = PointState(
            rho=GAS.rho0 + shift[0], u=shift[1], v=shift[2], h=GAS.h0 + shift[3]
        )
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(matrix_A0(near, GAS)))))
    passed = (
        worst_identity <= 1e-12 and worst_asymmetry <= 1e-12 and spd and min_eig >= kappa
    )
    _verdict(
        capsys,
        2,
        "symmetrizer",
        passed,
        f"identity error {worst_identity:.3e}, min eigenvalue {min_eig:.3f} "
        f">= kappa {kappa}",
    )


def test_criterion_3_residue_identity(capsys):
    worst = 0.0
    for omega in (1, -1):
        for n in (4, 8, 16):
            grid = make_grid(8 * n)
            for t in (0.0, 0.3, 1.0):
                errors = residue_identity_errors(
                    FamilyParams(omega, n, 3.0), GAS, grid, t
                )
                worst = max(worst, max(errors))
    passed = worst <= 1e-10
    _verdict(
        capsys,
        3,
        "residue identity",
        passed,
        f"max componentwise relative L2 error {worst:.3e}",
    )


def test_criterion_4_residue_scaling(capsys):
    report = run_experiment(ExperimentConfig("residue_scaling"))
    slope_ok = abs(report.fitted_slope - (-6.5)) <= 0.05
    passed = report.passed and slope_ok and report.details["below_envelope"]
    _verdict(
        capsys,
        4,
        "residue scaling",
        passed,
        f"fitted slope {report.fitted_slope:+.4f} vs -6.5, "
        f"below envelope: {report.details['below_envelope']}",
    )


def test_criterion_5_exact_family(capsys):
    report = run_experiment(ExperimentConfig("exact_check"))
    passed = (
        report.passed
        and report.details["max_deviation"] <= 1e-8
        and report.fitted_slope >= 3.8
        and report.details["max_divergence_l2"] <= 1e-10
    )
    _verdict(
        capsys,
        5,
        "exact-family propagation",
        passed,
        f"max H3 deviation {report.details['max_deviation']:.3e}, "
        f"order {report.fitted_slope:.2f}, "
        f"divergence {report.details['max_divergence_l2']:.3e}",
    )


def test_criterion_6_nonuniform_dependence(capsys, tmp_path, compare):
    started = time.perf_counter()
    report = run_experiment(ExperimentConfig("nonuniform", output_dir=str(tmp_path)))
    elapsed = time.perf_counter() - started
    differences = compare.compare_dirs(tmp_path, REFERENCE / "nonuniform")
    details = report.details
    passed = (
        report.passed
        and details["d0_exact"]
        and details["d0_decreasing"]
        and details["floor_held"]
        and details["triangle_ok"]
        and elapsed <= 300.0
        and differences == []
    )
    last = report.rows[-1]  # rows run over n, then t, so this is the largest n
    d0_small = last["d0"]
    sep = details["final_separation"][str(last["n"])]
    _verdict(
        capsys,
        6,
        "nonuniform dependence",
        passed,
        f"d0 shrinks to {d0_small:.4f} while separation stays {sep:.4f}, "
        f"{elapsed:.0f} s, reference differences {differences}",
    )


def test_criterion_7_error_scaling(capsys):
    report = run_experiment(ExperimentConfig("error_scaling"))
    passed = (
        report.passed
        and report.fitted_slope <= -2.4
        and report.details["control_certified"]
    )
    _verdict(
        capsys,
        7,
        "error scaling",
        passed,
        f"fitted slope {report.fitted_slope:+.4f} <= -2.4, "
        f"control gap {report.details['control_relative_gap']:.2e}",
    )


def test_criterion_8_higher_norm(capsys):
    report = run_experiment(ExperimentConfig("higher_norm"))
    passed = report.passed and abs(report.fitted_slope - 1.0) <= 0.15
    _verdict(
        capsys,
        8,
        "higher-norm growth",
        passed,
        f"fitted slope {report.fitted_slope:+.4f} vs +1.0",
    )


def test_criterion_9_inequalities(capsys, tmp_path, compare):
    report = run_experiment(ExperimentConfig("inequalities", output_dir=str(tmp_path)))
    differences = compare.compare_dirs(tmp_path, REFERENCE / "inequalities")
    interp = report.rows[-1]
    equality_ok = interp["equality_cases"] == report.details["single_mode_probes"]
    drift = max(report.details["refinement_drift"].values())
    passed = (
        report.passed
        and report.details["gap_violations"] == 0
        and equality_ok
        and drift <= 0.10
        and differences == []
    )
    _verdict(
        capsys,
        9,
        "inequality suite",
        passed,
        f"gap violations {report.details['gap_violations']}, "
        f"equality cases {interp['equality_cases']}, "
        f"max refinement drift {drift:.2%}, reference differences {differences}",
    )
