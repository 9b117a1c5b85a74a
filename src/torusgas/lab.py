"""Experiment runners: scaling studies and the nonuniform-dependence run.

``ExperimentConfig(name)`` is the one way to build a config and
:func:`run_experiment` the one way to run it: it takes the runner that
:data:`EXPERIMENTS` names, calls it, and writes the :class:`Report` it
returns.  :data:`EXPERIMENTS` is the one table of experiments: each name
maps to its runner, default ``n_list``, CLI help and rules.  The four
runners that evolve a family member share one way to run it: each run is
planned once by :func:`_plan_member`, and :func:`_member_runs` marches the
runs on grids of one size in lockstep, as one :func:`solver.evolve_batch`,
and measures each run as soon as its batch ends.  A run's recorded rows
are measured together: its closed forms at all recorded times are built
at once, the differences are array operations over the stacked records,
and one transform of them (:func:`_norms`; a whole-torus run's records
come in chunks, :data:`_STACK_BYTES`) feeds one weighted reduction per
norm order, each norm with the bytes of :func:`euler.state_norm`.

A report's rows are dicts keyed by CSV column, in column order.  When an
output directory is set, the report is written as ``<experiment>.csv`` plus a
``summary.json`` with the pass verdict, the fitted exponents of scaling
studies, the run parameters and the details.  Both come straight from the
standard library: :func:`csv.writer` writes floats at full precision (their
repr) and None as an empty cell, and :func:`json.dump` writes the summary
with sorted keys and a two-space indent.  Reports are deterministic:
identical config and seed give byte-identical files.  ``threads`` counts
pool workers over the four checks of the inequality sweeps; the other
experiments ignore it.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import families, inequalities, solver
from .euler import AdmissibleStateError, GasParams, State, _divergence_hat, _state_norms
from .families import FamilyParams
from .solver import SolveConfig, SolverError, Trajectory
from .spectral import (
    TorusGrid,
    _is_integer,
    _is_real,
    _require_band,
    _rfft,
    _sobolev_norms,
    make_grid,
    sobolev_norm,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "Report",
    "command_name",
    "config_from_dict",
    "run_experiment",
]

#: Bound on the points per axis of the largest grid a run allocates;
#: beyond it is not desk scale.
_MAX_GRID = 4096

#: Run controls of every experiment unless its config sets its own.
_DEFAULT_SOLVE = SolveConfig(T=1.0)

#: Target number of recorded snapshots per run; keeps long trajectories
#: from holding hundreds of full states in memory.
_TARGET_RECORDS = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment run; keywords override the defaults.

    An ``n_list`` left at None takes the experiment's default from
    :data:`EXPERIMENTS`.  ``solve`` sets only ``T`` and ``cfl``, the run
    controls ``summary.json`` records; a fixed step is the runners' own
    choice, so a ``solve`` with ``dt_fixed`` set is rejected.  ``s`` is
    bounded above so that every norm weight of the run is finite.  Each
    experiment's own rules and largest grid are in its :data:`EXPERIMENTS` row.
    """

    experiment: str
    n_list: tuple[int, ...] | None = None
    s: float = 3.0
    sigma: float = 1.5
    gas: GasParams = field(default_factory=GasParams)
    solve: SolveConfig = _DEFAULT_SOLVE
    grid_rule: int = 8
    output_dir: str | None = None
    seed: int = 0
    threads: int = 1
    family_size: int = 500

    def __post_init__(self) -> None:
        row = _lookup(self.experiment)
        if self.n_list is None:
            object.__setattr__(self, "n_list", row.n_list)
        named = ("seed", "threads", "grid_rule", "family_size")
        integers = [(name, getattr(self, name)) for name in named]
        for name, value in integers + [("n_list entry", n) for n in self.n_list]:
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("s", "sigma"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.s > 2.0:
            raise ValueError(f"s must exceed 2, got {self.s}")
        n_list = tuple(int(n) for n in self.n_list)
        if len(n_list) == 0 or any(n < 1 for n in n_list):
            raise ValueError("n_list must contain positive integers")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError(f"n_list must be strictly increasing, got {n_list}")
        if row.fits_slope and len(n_list) < 3:
            raise ValueError(
                f"{self.experiment} fits a slope over n_list, which needs at least 3 "
                f"entries, got {len(n_list)}"
            )
        object.__setattr__(self, "n_list", n_list)
        if row.sigma_rule and not row.sigma_rule[1](self.sigma, self.s):
            raise ValueError(f"sigma must lie in {row.sigma_rule[0]}, got {self.sigma}")
        largest, cells = row.largest_grid(self)
        if largest > _MAX_GRID:
            raise ValueError(f"N = {largest} exceeds the desk-scale limit {_MAX_GRID}")
        # No run takes a norm above order tau = floor(s) + 1, whose weights reach
        # 2 (1 + |k|^2)^tau at |k|^2 = (cells * largest)^2 / 2 (every tau >= 3 overflows
        # from 2^512 points on); while finite, the amplitudes n^-s, n^-2s are normal floats.
        tau, points = math.floor(self.s) + 1, cells * largest
        if tau * math.log1p(min(points, 2**512) ** 2 / 2) >= math.log(np.finfo(float).max / 2):
            raise ValueError(
                f"s = {self.s} is too large: the norm weights (1 + |k|^2)^{tau} "
                f"overflow at N = {points} points per 2*pi"
            )
        row.check(self)  # after the bounds, since a check may build grids
        if self.threads < 1:
            raise ValueError("threads must be positive")
        for name, kind in (("gas", GasParams), ("solve", SolveConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        if self.solve.dt_fixed is not None:
            raise ValueError(
                f"solve.dt_fixed must not be set: summary.json does not record it, "
                f"got {self.solve.dt_fixed}"
            )
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.output_dir == "":
            raise ValueError("output_dir must not be empty")


def command_name(experiment: str) -> str:
    """The experiment's name as the command line spells it, with dashes."""
    return experiment.replace("_", "-")


def _lookup(experiment: str) -> _Experiment:
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {tuple(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment]


#: The keys of a JSON config and of its sections.  The experiment is the
#: caller's argument, and the run controls are those summary.json records.
_CONFIG_KEYS = {
    "config": {f.name for f in fields(ExperimentConfig)} - {"experiment"},
    "gas": {f.name for f in fields(GasParams)},
    "solve": {"T", "cfl"},
}


def config_from_dict(data: dict, experiment: str) -> ExperimentConfig:
    """``ExperimentConfig(experiment, **data)`` from a JSON-style dict.

    A partial ``solve`` section keeps the other default run controls.  The
    caller's dict is left unchanged; malformed values raise ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    data = dict(data)
    for key, known in _CONFIG_KEYS.items():
        section = data if key == "config" else data.get(key, {})
        if not isinstance(section, dict):
            kind = type(section).__name__
            raise ValueError(f"config key {key!r} must be a JSON object, got {kind}")
        unknown = set(section) - known
        if unknown:
            raise ValueError(f"unknown {key} keys: {sorted(unknown)}")
    try:
        if "gas" in data:
            data["gas"] = GasParams(**data["gas"])
        if "solve" in data:
            data["solve"] = replace(_DEFAULT_SOLVE, **data["solve"])
        if "n_list" in data:
            if not isinstance(data["n_list"], (list, tuple)):
                raise TypeError(f"n_list must be a list of integers, got {data['n_list']!r}")
            data["n_list"] = tuple(data["n_list"])
        return ExperimentConfig(experiment, **data)
    except TypeError as err:
        raise ValueError(f"invalid config: {err}") from err


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """One experiment's result: CSV rows, verdict and details.

    Each row maps CSV column to value, in column order.  Scaling studies
    also set the fitted and predicted slopes and the slope tolerance,
    which :meth:`summary` then reports.
    """

    experiment: str
    rows: list[dict]
    passed: bool
    details: dict = field(default_factory=dict)
    fitted_slope: float | None = None
    predicted_slope: float | None = None
    slope_tolerance: float | None = None

    def summary(self) -> dict:
        summary = {"experiment": self.experiment, "pass": bool(self.passed)}
        if self.fitted_slope is not None:
            summary["fitted_slope"] = self.fitted_slope
            summary["predicted_slope"] = self.predicted_slope
            summary["tolerance"] = self.slope_tolerance
        return summary


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


class _Member(NamedTuple):
    """A planned run of the omega = +1 member of index ``n``."""

    n: int
    run: solver.Run


def _plan_member(
    cfg: ExperimentConfig,
    n: int,
    grid: TorusGrid,
    closed_form: Callable[[FamilyParams, GasParams, TorusGrid, float], State],
    solve: SolveConfig | None = None,
    stride: int | None = None,
) -> _Member:
    """Plan the omega = +1 member of index n on ``grid`` from ``closed_form`` at t = 0.

    ``solve`` defaults to ``cfg.solve`` and ``stride`` to one that records
    about _TARGET_RECORDS states.  Initial data outside the admissible
    region is raised as SolverError labelled "<experiment> run at n=<n> failed".
    """
    solve = solve or cfg.solve
    s0 = closed_form(FamilyParams(1, n, cfg.s), cfg.gas, grid, 0.0)
    try:
        n_steps, dt = solver.plan(s0, cfg.gas, solve)
    except AdmissibleStateError as err:
        raise _run_failed(cfg, n, err) from err
    stride = stride or math.ceil(n_steps / _TARGET_RECORDS)
    return _Member(n, solver.Run(s0, solve.T, n_steps, dt, stride))


def _member_runs(
    cfg: ExperimentConfig,
    members: Sequence[_Member],
    measure: Callable[[_Member, Trajectory], object],
) -> list:
    """Evolve the planned members and measure each run by ``measure(member, trajectory)``.

    The runs on grids of one size march in lockstep, one
    :func:`solver.evolve_batch` per size, by increasing size.  A batch's
    trajectories are measured and dropped before the next batch starts, so
    none is alive while a larger grid evolves.  A solver abort is re-raised
    as SolverError labelled "<experiment> run at n=<n> failed".  Returns the
    measurements in the order of ``members``.
    """
    measured = {}
    for size in sorted({m.run.s0.grid.size for m in members}):
        batch = [i for i, m in enumerate(members) if m.run.s0.grid.size == size]
        try:
            trajectories = solver.evolve_batch([members[i].run for i in batch], cfg.gas)
        except SolverError as err:
            raise _run_failed(cfg, members[batch[err.run]].n, err) from err
        measured.update((i, measure(members[i], traj)) for i, traj in zip(batch, trajectories))
        del trajectories
    return [measured[i] for i in range(len(members))]


def _run_failed(cfg: ExperimentConfig, n: int, err: Exception) -> SolverError:
    return SolverError(f"{command_name(cfg.experiment)} run at n={n} failed: {err}")


#: Bytes of recorded samples that one measurement transform stacks.  A run
#: on a cell fits in one; a whole-torus run is measured in chunks.  A freed
#: chunk raises glibc's mmap threshold to its size, and larger chunks put
#: the N = 512 control run's state-sized arrays on the heap, which keeps
#: them resident: error_scaling at T = 0.25 on two threads peaked at
#: 89.5-89.9 MiB with 2 MiB chunks, 93.7-94.1 MiB with 8 MiB and 162 MiB in
#: one stack, against 89.3-89.8 MiB record by record (3 runs each, 2-core Xeon).
_STACK_BYTES = 2**21


def _samples_of(states: Sequence[State]) -> np.ndarray:
    """The four fields' samples of each state, stacked: shape (k, 4, N, N)."""
    return np.array([[f.samples for f in state.fields()] for state in states])


def _recorded(traj: Trajectory) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """A run's records as (index of the first, times, stacked samples (k, 4, N, N)).

    All records come in one chunk unless their samples exceed _STACK_BYTES.
    """
    n = traj.states[0].grid.size
    chunk = max(1, _STACK_BYTES // (4 * n * n * 8))
    for start in range(0, len(traj.times), chunk):
        states = traj.states[start : start + chunk]
        times = np.array(traj.times[start : start + chunk])
        yield start, times, _samples_of(states)


def _norms(samples: np.ndarray, grid: TorusGrid, sigmas: Sequence[float]) -> list[list]:
    """State norms of each order in ``sigmas`` of stacked samples (..., 4, N, N).

    One transform of every state, then one weighted reduction per order;
    each norm has the bytes of :func:`euler.state_norm` of its state.
    """
    coefficients = _rfft(samples, (-2, -1), scale=True)
    return [_state_norms(coefficients, grid, sigma).tolist() for sigma in sigmas]


def _scaling_rows(
    parameter: str,
    values: Sequence[float],
    measured: Sequence[float],
    anchors: Sequence[float],
    exponent: float,
) -> list[dict]:
    """Rows with the envelope c * anchor**exponent, c fixed by the first row."""
    scale = measured[0] / float(anchors[0]) ** exponent
    envelope = [scale * float(a) ** exponent for a in anchors]
    return [
        {parameter: float(x), "measured_value": m, "reference_envelope": e}
        for x, m, e in zip(values, measured, envelope)
    ]


def _fit_over_n(
    cfg: ExperimentConfig, measured: Sequence[float], envelope_exponent: float
) -> tuple[float, list[dict]]:
    """Log-log slope of ``measured`` over n, and rows with the anchored envelope."""
    fitted = _fit(cfg.experiment, "rows.measured_value", cfg.n_list, measured)
    rows = _scaling_rows("n", cfg.n_list, measured, cfg.n_list, envelope_exponent)
    return fitted, rows


def _fit(experiment: str, quantity: str, xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log ``ys`` over distinct log ``xs`` (an n_list or a dt triple).

    SolverError names ``quantity`` unless every value is finite and positive.
    """
    values = [*xs, *ys]
    _require_finite(experiment, quantity, values)
    if min(values) <= 0.0:
        raise SolverError(
            f"{command_name(experiment)} cannot fit a log-log slope to {quantity}: "
            f"it holds {min(values)}"
        )
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _require_finite(experiment: str, where: str, value) -> None:
    """Raise SolverError naming ``where`` (dict keys appended) if ``value`` holds NaN or inf."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(experiment, f"{where}.{key}" if where else key, item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _require_finite(experiment, where, item)
    elif isinstance(value, float) and not math.isfinite(value):
        raise SolverError(f"{command_name(experiment)} report holds a non-finite {where}: {value}")


def _emit(cfg: ExperimentConfig, report: Report) -> None:
    """Write ``<experiment>.csv`` and ``summary.json`` when an output dir is set."""
    if cfg.output_dir is None:
        return
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{report.experiment}.csv", "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(report.rows[0])
        writer.writerows(row.values() for row in report.rows)
    summary = report.summary()
    # An explicit key list: summary.json's key set is part of the artifact
    # contract, and dataclasses.asdict(cfg) would change it.
    summary["params"] = {
        "n_list": list(cfg.n_list),
        "s": cfg.s,
        "sigma": cfg.sigma,
        "gamma": cfg.gas.gamma,
        "rho0": cfg.gas.rho0,
        "h0": cfg.gas.h0,
        "T": cfg.solve.T,
        "cfl": cfg.solve.cfl,
        "grid_rule": cfg.grid_rule,
        "seed": cfg.seed,
        "threads": cfg.threads,
    }
    summary["details"] = report.details
    with open(out / "summary.json", "w", encoding="ascii") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Residue scaling
# ---------------------------------------------------------------------------


def _residue_scaling(cfg: ExperimentConfig) -> Report:
    """Norm decay of the residue at t = 0 against the analytic envelope."""
    sigma, s = cfg.sigma, cfg.s

    def measure(n: int) -> float:
        grid = make_grid(cfg.grid_rule, n)
        residue = families.residue_field(FamilyParams(1, n, s), grid, 0.0)
        return sobolev_norm(residue, sigma)

    measured = [measure(n) for n in cfg.n_list]
    envelope_exponent = 2.0 * sigma - 3.0 * s + 1.0
    fitted, rows = _fit_over_n(cfg, measured, envelope_exponent)
    predicted = sigma - 3.0 * s + 1.0
    tolerance = 0.05
    below = all(
        row["measured_value"] <= row["reference_envelope"] * (1.0 + 1e-9)
        for row in rows
    )
    passed = abs(fitted - predicted) <= tolerance and below
    return Report(
        experiment=cfg.experiment,
        rows=rows,
        passed=passed,
        details={"envelope_exponent": envelope_exponent, "below_envelope": below},
        fitted_slope=fitted,
        predicted_slope=predicted,
        slope_tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Exact-family propagation
# ---------------------------------------------------------------------------

_EXACT_DEVIATION_TOL = 1e-8
_EXACT_DIVERGENCE_TOL = 1e-10


def _exact_check(cfg: ExperimentConfig) -> Report:
    """Propagate the exact family and measure deviation from the closed form.

    The report's scaling rows are a time-step refinement triple at the
    largest n, whose fitted slope is the observed convergence order.  The
    runs at every n and the two refined runs march as one batch.
    """
    def plan(n: int, solve: SolveConfig | None = None) -> _Member:
        return _plan_member(cfg, n, make_grid(cfg.grid_rule, n), families.exact_solution, solve)

    def deviations(member: _Member, traj: Trajectory) -> tuple[list[float], float]:
        grid, fp = member.run.s0.grid, FamilyParams(1, member.n, cfg.s)
        devs, divs = [], []
        for _, times, samples in _recorded(traj):
            closed = families._exact_samples(fp, cfg.gas, grid, times)
            c = _rfft(np.stack([samples, samples - closed]), (-2, -1), scale=True)
            devs += _state_norms(c[1], grid, cfg.s).tolist()
            div = _divergence_hat(c[0][:, 1], c[0][:, 2], grid)
            divs += _sobolev_norms(div, grid, 0.0).tolist()
        return devs, max(divs)

    members = [plan(n) for n in cfg.n_list]
    # The largest n's run is the first of the step-halving triple.
    base_dt = members[-1].run.dt
    dts = [base_dt / 2**i for i in range(3)]
    refined = [plan(cfg.n_list[-1], replace(cfg.solve, dt_fixed=dt)) for dt in dts[1:]]
    runs = _member_runs(cfg, members + refined, deviations)
    per_n = runs[: len(members)]
    max_dev = max(max(devs) for devs, _ in per_n)
    max_div = max(div for _, div in per_n)
    # evolve records exactly T last, so devs[-1] is the final-time deviation
    errors = [devs[-1] for devs, _ in runs[len(members) - 1 :]]
    order = _fit(cfg.experiment, "rows.measured_value", dts, errors)
    predicted, tolerance = 4.0, 0.2

    passed = (
        order >= predicted - tolerance
        and max_dev <= _EXACT_DEVIATION_TOL
        and max_div <= _EXACT_DIVERGENCE_TOL
    )
    return Report(
        experiment=cfg.experiment,
        rows=_scaling_rows("dt", dts, errors, [1, 2, 4], -predicted),  # halving sequence
        passed=passed,
        details={
            "max_deviation": max_dev,
            "deviation_tolerance": _EXACT_DEVIATION_TOL,
            "max_divergence_l2": max_div,
            "divergence_tolerance": _EXACT_DIVERGENCE_TOL,
            "n_list": list(cfg.n_list),
            "base_dt": base_dt,
        },
        fitted_slope=order,
        predicted_slope=predicted,
        slope_tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Error scaling
# ---------------------------------------------------------------------------


def _error_scaling(cfg: ExperimentConfig) -> Report:
    """Distance of evolved runs to the approximate family at the final time.

    The predicted exponent is beta = max(2 sigma - 3 s + 2, sigma - 2 s);
    the fitted slope must not exceed beta + 0.1 (the bound is an upper
    estimate, so steeper decay is compatible).  A doubled-resolution,
    halved-step control run at the largest n certifies that discretization
    error is below 1% of the measured quantity; if it is not, the report
    is marked failed rather than trusted.
    """
    s, sigma = cfg.s, cfg.sigma

    def plan(
        n: int, refine: int = 1, solve: SolveConfig | None = None, stride: int | None = None
    ) -> _Member:
        grid = make_grid(refine * cfg.grid_rule * n)  # see the row's largest grid
        return _plan_member(cfg, n, grid, families.approx_solution, solve, stride)

    def error_curve(member: _Member, traj: Trajectory) -> list[tuple[float, float]]:
        grid, fp = member.run.s0.grid, FamilyParams(1, member.n, s)
        curve = []
        for _, times, samples in _recorded(traj):
            samples -= families._approx_samples(fp, cfg.gas, grid, times)
            (norms,) = _norms(samples, grid, (sigma,))
            curve += zip(times.tolist(), norms)
        return curve

    n_top = cfg.n_list[-1]
    members = [plan(n) for n in cfg.n_list]  # each grid size is a batch of one
    top_dt = members[-1].run.dt
    curves = _member_runs(cfg, members, error_curve)
    del members  # no state of a main run is alive while the control grid evolves
    # Control: rerun the largest n on a doubled grid with half the step,
    # recording only its initial and final states.
    control = plan(n_top, 2, replace(cfg.solve, dt_fixed=top_dt / 2.0), 10**9)
    (control_curve,) = _member_runs(cfg, [control], error_curve)
    err_control = control_curve[-1][1]
    top = curves[-1]
    beta = max(2.0 * sigma - 3.0 * s + 2.0, sigma - 2.0 * s)
    fitted, rows = _fit_over_n(cfg, [curve[-1][1] for curve in curves], beta)
    control_gap = abs(err_control - top[-1][1]) / top[-1][1]
    certified = control_gap < 0.01

    tolerance = 0.1
    threshold = beta + tolerance
    monotone = all(b[1] > a[1] for a, b in zip(top, top[1:]))
    return Report(
        experiment=cfg.experiment,
        rows=rows,
        passed=fitted <= threshold and certified,
        details={
            "slope_threshold": threshold,
            "control_relative_gap": control_gap,
            "control_certified": certified,
            "error_curve_largest_n": top,
            "curve_monotone_increasing": monotone,
            "growth_fit": _fit_growth_envelope(top, float(n_top) ** beta),
        },
        fitted_slope=fitted,
        predicted_slope=beta,
        slope_tolerance=tolerance,
    )


def _fit_growth_envelope(curve: list[tuple[float, float]], scale: float) -> dict:
    """Fit err(t) <= K * scale * (exp(c t) - 1) with the tightest (c, K).

    A coarse search over growth rates; K is forced to cover every recorded
    point, so the envelope bound holds by construction and the fit quality
    is judged by how small K stays.
    """
    interior = [(t, e) for t, e in curve if t > 0.0 and e > 0.0]
    if len(interior) < 2:
        return {"c": None, "K": None, "spread": None}
    best = None
    for c in np.geomspace(0.01, 50.0, 120):
        k_values = [e / (scale * math.expm1(c * t)) for t, e in interior]
        k_cover = max(k_values)
        spread = k_cover / max(min(k_values), 1e-300)
        if best is None or spread < best[0]:
            best = (spread, float(c), float(k_cover))
    return {"c": best[1], "K": best[2], "spread": best[0]}


# ---------------------------------------------------------------------------
# Higher-norm growth
# ---------------------------------------------------------------------------


def _higher_norm(cfg: ExperimentConfig) -> Report:
    """Max-over-time norm of order tau = floor(s) + 1, base state removed."""
    g, s = cfg.gas, cfg.s
    tau = float(math.floor(s) + 1)

    rest = np.array([g.rho0, 0.0, 0.0, g.h0])[:, None, None]

    def run_norms(member: _Member, traj: Trajectory) -> dict:
        grid, norms = member.run.s0.grid, []
        for _, _, samples in _recorded(traj):
            norms += _norms(samples - rest, grid, (tau,))[0]
        return {"n": member.n, "max_norm": max(norms), "norm_t0": norms[0]}

    members = [
        _plan_member(cfg, n, make_grid(cfg.grid_rule, n), families.approx_solution)
        for n in cfg.n_list
    ]
    results = _member_runs(cfg, members, run_norms)
    predicted = tau - s
    fitted, rows = _fit_over_n(cfg, [r["max_norm"] for r in results], predicted)
    norms_t0 = [r["norm_t0"] for r in results]
    slope_t0 = _fit(cfg.experiment, "details.initial_slope", cfg.n_list, norms_t0)
    tolerance = 0.15
    return Report(
        experiment=cfg.experiment,
        rows=rows,
        passed=abs(fitted - predicted) <= tolerance,
        details={
            "tau": tau,
            "initial_slope": slope_t0,
            "normalized_ratios": [
                r["max_norm"] / float(r["n"]) ** predicted for r in results
            ],
        },
        fitted_slope=fitted,
        predicted_slope=predicted,
        slope_tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Nonuniform dependence
# ---------------------------------------------------------------------------

_D0_TOL = 1e-8
_FLOOR_FACTOR = 0.75
_FLOOR_MIN_N = 16
_TRIANGLE_SLACK = 1e-9
#: Largest sample gap, relative to the largest sample, between the mirrored
#: omega = +1 initial data and the omega = -1 initial data.
_MIRROR_TOL = 1e-14


#: The signs of (rho, u, v, h) under the mirror map.
_MIRROR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])[:, None, None]


def _mirror(samples: np.ndarray, shift: int) -> np.ndarray:
    """Point reflection about node ``shift`` on both axes, velocity negated.

    ``S(U)[i, j] = (rho, -u, -v, h)[(shift - i) mod N, (shift - j) mod N]``,
    for stacked samples U of shape (..., 4, N, N).  The gas system and the
    dealiased scheme commute with S, and with ``shift = N/(2n)`` it maps
    each omega = +1 family state onto the omega = -1 state at the same time.
    """
    size = samples.shape[-1]
    rows = (shift - np.arange(size)) % size
    return _MIRROR_SIGNS * samples[..., rows[:, None], rows]


def _require_mirror_image(mirrored: np.ndarray, target: np.ndarray, n: int) -> None:
    scale = np.max(np.abs(target))
    gap = np.max(np.abs(mirrored - target))
    if not gap <= _MIRROR_TOL * scale:
        raise SolverError(
            f"nonuniform pair at n={n} is not a mirror image: largest sample "
            f"gap {gap:.3e} exceeds {_MIRROR_TOL:.0e} x {scale:.3e}"
        )


def _nonuniform(cfg: ExperimentConfig) -> Report:
    """Evolve data pairs whose initial distance shrinks like 1/n.

    For each n only the omega = +1 initial state is evolved, on one 2*pi/n
    cell of grid_rule points per axis (every family member is
    2*pi/n-periodic); the runs of all n march as one batch.  The omega = -1
    initial state is its mirror image under :func:`_mirror` with shift
    grid_rule/2, the half cell, which the run checks sample by sample, so
    every later omega = -1 state is the mirrored omega = +1 state at the
    same recorded time.  The report records, at every recorded time, the
    pair distance in H^s, the closed-form distance of the approximating
    members, and the numeric-to-approximate errors of each sign in both
    H^sigma and H^s; a run's rows are measured from one stacked transform.
    The verdict combines the exact initial-distance formula, the
    final-time separation floor, and the triangle-inequality consistency
    of each row.
    """
    g, s, sigma = cfg.gas, cfg.s, cfg.sigma
    shift = cfg.grid_rule // 2

    def pair_rows(member: _Member, traj: Trajectory) -> list[dict]:
        n, grid = member.n, member.run.s0.grid
        fp_plus, fp_minus = FamilyParams(1, n, s), FamilyParams(-1, n, s)
        init_minus = _samples_of([families.initial_data(fp_minus, g, grid)])
        _require_mirror_image(_mirror(_samples_of(traj.states[:1]), shift), init_minus, n)
        rows = []
        for start, times, plus in _recorded(traj):
            minus = _mirror(plus, shift)
            if start == 0:
                minus[:1] = init_minus
            stacked = np.stack(
                [
                    plus - minus,
                    families._difference_samples(n, s, grid, times),
                    plus - families._approx_samples(fp_plus, g, grid, times),
                    minus - families._approx_samples(fp_minus, g, grid, times),
                ]
            )
            (pair, diff, err_plus, err_minus), at_sigma = _norms(stacked, grid, (s, sigma))
            d0 = rows[0]["d0"] if rows else pair[0]
            for j, t in enumerate(times.tolist()):
                rows.append(
                    {
                        "n": n,
                        "d0": d0,
                        "t": t,
                        "pair_dist_s": pair[j],
                        "approx_diff_s": diff[j],
                        "err_plus_sigma": at_sigma[2][j],
                        "err_minus_sigma": at_sigma[3][j],
                        "err_plus_s": err_plus[j],
                        "err_minus_s": err_minus[j],
                    }
                )
        return rows

    members = [
        _plan_member(cfg, n, make_grid(cfg.grid_rule, n), families.approx_solution)
        for n in cfg.n_list
    ]
    rows = [row for rows in _member_runs(cfg, members, pair_rows) for row in rows]
    d0 = {row["n"]: row["d0"] for row in rows}
    d0_errors = {n: abs(d0[n] - 4.0 * math.sqrt(2.0) * math.pi / n) for n in cfg.n_list}
    d0_exact = all(err <= _D0_TOL for err in d0_errors.values())
    d0_decreasing = all(
        d0[b] < d0[a] for a, b in zip(cfg.n_list, cfg.n_list[1:])
    )

    final_rows = [row for row in rows if row["t"] == cfg.solve.T]
    floor_rows = [row for row in final_rows if row["n"] >= _FLOOR_MIN_N]
    floor_held = all(
        row["pair_dist_s"] >= _FLOOR_FACTOR * row["approx_diff_s"]
        for row in floor_rows
    ) and bool(floor_rows)

    triangle_ok = True
    worst_margin = math.inf
    for row in rows:
        bound = row["approx_diff_s"] - row["err_plus_s"] - row["err_minus_s"]
        slack = _TRIANGLE_SLACK * max(row["approx_diff_s"], row["pair_dist_s"])
        margin = row["pair_dist_s"] - bound
        worst_margin = min(worst_margin, margin)
        if margin < -slack:
            triangle_ok = False

    passed = d0_exact and d0_decreasing and floor_held and triangle_ok
    return Report(
        experiment=cfg.experiment,
        rows=rows,
        passed=passed,
        details={
            "d0_formula_errors": {str(n): err for n, err in d0_errors.items()},
            "d0_exact": d0_exact,
            "d0_decreasing": d0_decreasing,
            "final_separation": {str(r["n"]): r["pair_dist_s"] for r in final_rows},
            "floor_factor": _FLOOR_FACTOR,
            "floor_min_n": _FLOOR_MIN_N,
            "floor_held": floor_held,
            "triangle_ok": triangle_ok,
            "triangle_worst_margin": worst_margin,
        },
    )


# ---------------------------------------------------------------------------
# Inequality sweeps
# ---------------------------------------------------------------------------

_GAP_TOL = 1e-10
_EQUALITY_TOL = 1e-12
_STABILITY_TOL = 0.10


def _inequalities(cfg: ExperimentConfig) -> Report:
    """Seeded-family sweeps of the four inequality checks at two grid sizes.

    Interpolation is judged on its base-grid ratios, the others on refinement drift.
    The pool's ``cfg.threads`` workers change no artifact but summary.json's ``threads``.
    """
    base_n, refined_n = cfg.n_list
    grids = (make_grid(base_n), make_grid(refined_n))
    sigma, s = cfg.sigma, cfg.s
    checks = inequalities.RATIO_CHECKS
    orders = {c.name: c.orders(s) for c in checks}

    def sweep(check: inequalities.RatioCheck) -> np.ndarray:
        return inequalities.family_ratios(check, grids, cfg.family_size, cfg.seed, sigma, s)

    # the package's one pool: each check costs seconds; map keeps report order
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        ratios = dict(zip(orders, pool.map(sweep, checks)))
    maxima = {name: [float(top) for top in np.max(r, axis=1)] for name, r in ratios.items()}

    interp = ratios["interpolation"][0]
    violations = int(np.count_nonzero(interp - 1.0 < -_GAP_TOL))
    probes = interp[:: inequalities.PROBE_PERIOD]
    equality_cases = int(np.count_nonzero(np.abs(probes - 1.0) <= _EQUALITY_TOL))
    stability = {
        name: abs(refined - base) / base
        for name, (base, refined) in maxima.items()
        if name != "interpolation"
    }
    stable = all(drift <= _STABILITY_TOL for drift in stability.values())
    passed = violations == 0 and equality_cases == probes.size and stable

    # a check's orders fill the s_or_k and tau columns, in that order
    rows = [
        {
            "check": name,
            "sigma": sigma,
            "s_or_k": (*orders[name], None)[0],
            "tau": (*orders[name], None, None)[1],
            "family_size": cfg.family_size,
            "max_ratio": maxima[name][0],
            "max_ratio_refined": maxima[name][1],
            "equality_cases": equality_cases if name == "interpolation" else 0,
        }
        for name in orders
    ]
    return Report(
        experiment=cfg.experiment,
        rows=rows,
        passed=passed,
        details={
            "grid_sizes": [base_n, refined_n],
            "gap_violations": violations,
            "single_mode_probes": probes.size,
            "refinement_drift": stability,
            "stability_tolerance": _STABILITY_TOL,
        },
    )


def _two_grids(cfg: ExperimentConfig) -> None:
    """Inequalities' rules after the bounds: a bad grid size fails here, not in the run.

    ``n_list`` holds the grid sizes (base, refined), both built here, and ``family_size``
    the seeded members per check; the base grid's band must hold the family's modes.
    """
    if cfg.family_size < 1:
        raise ValueError("family_size must be positive")
    if len(cfg.n_list) != 2:
        raise ValueError("inequalities expects n_list = (base_grid, refined_grid)")
    base_grid, _ = (make_grid(n) for n in cfg.n_list)
    _require_band(base_grid, inequalities.FAMILY_MAX_MODE)


def _grid_rule(cfg: ExperimentConfig) -> int:
    """The checked ``grid_rule``, read by a family row's largest grid before the bounds.

    It is the points per axis on a 2*pi/n cell of family index n, and N = grid_rule * n
    points on the whole torus hold every family mode (up to 2n) in the dealias band.
    It is even, so that the cell grid is even and the nonuniform pair's mirror
    centre grid_rule/2 falls on a node.
    """
    if cfg.grid_rule < 6:
        raise ValueError("grid_rule below 6 cannot resolve family modes up to 2n")
    if cfg.grid_rule % 2:
        raise ValueError(
            f"grid_rule must be even so that N = grid_rule * n is even, got {cfg.grid_rule}"
        )
    return cfg.grid_rule


class _Experiment(NamedTuple):
    """One experiment: its runner, default ``n_list``, CLI help and config rules.

    ``sigma_rule`` is the text and the (sigma, s) test of sigma's interval.  The
    desk-scale and ``s`` bounds read ``largest_grid(cfg)``, the (points per axis,
    cells) of the run's largest grid, by default a cell; ``check`` follows them.
    """

    runner: Callable[[ExperimentConfig], Report]
    n_list: tuple[int, ...]
    help: str
    fits_slope: bool = False
    sigma_rule: tuple[str, Callable[[float, float], bool]] | None = None
    largest_grid: Callable[..., tuple[int, int]] = lambda cfg: (_grid_rule(cfg), max(cfg.n_list))
    check: Callable[[ExperimentConfig], None] = lambda cfg: None


#: The experiments by name: runner, default ``n_list``, CLI help and config rules.
EXPERIMENTS = {
    "nonuniform": _Experiment(
        _nonuniform,
        (4, 8, 16, 32),
        "shrinking initial distances against persistent separation",
        sigma_rule=("(1, s-1) for nonuniform", lambda sigma, s: 1.0 < sigma < s - 1.0),
    ),
    "residue_scaling": _Experiment(
        _residue_scaling,
        (4, 8, 16, 32, 64),
        "norm decay of the family residue",
        fits_slope=True,
        sigma_rule=("(1, s-1] for residue scaling", lambda sigma, s: 1.0 < sigma <= s - 1.0),
    ),
    "error_scaling": _Experiment(
        _error_scaling,
        (8, 16, 32),
        "distance of evolved runs to the approximate family",
        fits_slope=True,
        sigma_rule=("(1, s-1) for error_scaling", lambda sigma, s: 1.0 < sigma < s - 1.0),
        # the control run's doubled grid at the largest n; whole torus until ROADMAP
        # item 1, since on a cell digits of the bench reference move and need re-capture
        largest_grid=lambda cfg: (2 * _grid_rule(cfg) * max(cfg.n_list), 1),
    ),
    "exact_check": _Experiment(
        _exact_check, (8,), "propagation accuracy on the exact family"
    ),
    "higher_norm": _Experiment(
        _higher_norm, (8, 16, 32), "growth of the above-regularity norm", fits_slope=True
    ),
    "inequalities": _Experiment(
        _inequalities,
        (64, 128),
        "seeded sweeps of the inequality toolbox",
        sigma_rule=("(1, s) for inequalities", lambda sigma, s: 1.0 < sigma < s),
        largest_grid=lambda cfg: (2 * max(cfg.n_list), 1),  # the doubled refined grid
        check=_two_grids,
    ),
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run the experiment the config names and write its report when an output dir is set.

    A report that holds a NaN or an infinity raises SolverError unwritten.
    """
    report = EXPERIMENTS[cfg.experiment].runner(cfg)
    entries = {"rows": report.rows, **report.summary(), "details": report.details}
    _require_finite(cfg.experiment, "", entries)
    _emit(cfg, report)
    return report
