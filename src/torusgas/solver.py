"""Method-of-lines integration of the gas system with classical RK4.

There is one stepping path, :func:`evolve_batch`: it marches a batch of
runs whose grids share one size in lockstep, as one stacked state with a
leading run axis, and each run gets the bytes of its march alone.  On the
8x8 cells of the family runs a step costs Python and numpy call overhead
more than arithmetic, so a batch of runs costs little more than its
longest run.  :func:`evolve` is a batch of one, and :func:`step_rk4` a
one-step :func:`evolve`.

The state marches in spectral space, as the four fields'
``Field.coefficients``; each right-hand-side evaluation transforms to
physical space for the pointwise products and back, applying the
two-thirds dealias mask to the assembled components.  Every stage state
is dealiased, so the march keeps the dealias band's N/3 + 1 half-plane
columns only, the column transforms run on those alone with the bytes of
the full ones, and a record's band is zero-padded.  A batch allocates
its arrays once: the right-hand side's band and row-block scratch, and
two band-shaped arrays in which the RK4 combination runs in
place, in the operation order of ``state + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``,
in the right-hand side's row blocks on a grid that the thread rule of
``spectral`` splits.  They are freed before the final states are recorded.
The time step is fixed for a whole run, chosen once from the initial
state's CFL constraint (or supplied directly) by :func:`plan`, and
rounded so the final time is hit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .euler import (
    AdmissibleStateError,
    GasParams,
    State,
    _by_rows,
    _RhsKernel,
    max_wave_speed,
    state_from_hat,
)
from .spectral import TorusGrid, _is_integer, _is_real, _rfft

__all__ = [
    "SolveConfig",
    "Trajectory",
    "SolverError",
    "cfl_dt",
    "plan",
    "step_rk4",
    "evolve",
    "Run",
    "evolve_batch",
]


class SolverError(RuntimeError):
    """A run aborted or failed one of its checks; the message carries the diagnostics.

    ``run`` is the index of the failing run in an :func:`evolve_batch` call.
    """

    def __init__(self, message: str, run: int | None = None) -> None:
        super().__init__(message)
        self.run = run


@dataclass(frozen=True)
class SolveConfig:
    """Run controls for :func:`evolve`.

    ``dt_fixed`` overrides the CFL choice when present.  A run aborts when
    min(rho) or min(h) falls to the fixed floor ``euler.REGION_FLOOR``.
    """

    T: float
    cfl: float = 0.25
    dt_fixed: float | None = None

    def __post_init__(self) -> None:
        for name in ("T", "cfl", "dt_fixed"):
            value = getattr(self, name)
            if not (_is_real(value) or (name == "dt_fixed" and value is None)):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"final time must be positive and finite, got {self.T}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_fixed is not None and not (
            self.dt_fixed > 0.0 and math.isfinite(self.dt_fixed)
        ):
            raise ValueError(f"dt_fixed must be positive and finite, got {self.dt_fixed}")


@dataclass
class Trajectory:
    """Recorded times and states of one run; times start at 0 and end at T."""

    times: list[float]
    states: list[State]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise ValueError("times and states differ in length")
        diffs = np.diff(self.times)
        if len(diffs) and not np.all(diffs > 0.0):
            raise ValueError("trajectory times must be strictly increasing")


class Run(NamedTuple):
    """One run of :func:`evolve_batch`: its initial state, final time, planned
    step count and step size (see :func:`plan`), and record stride."""

    s0: State
    T: float
    n_steps: int
    dt: float
    stride: int


def _first_stage(state, acc, stage, spare, c) -> None:
    """``stage = state + c k1``, with k1 in ``acc``."""
    np.multiply(c, acc, out=stage)
    np.add(state, stage, out=stage)


def _next_stage(state, acc, stage, spare, c) -> None:
    """Add twice the slope in ``stage`` to ``acc``, then ``stage = state + c slope``."""
    np.multiply(2.0, stage, out=spare)
    np.add(acc, spare, out=acc)
    np.multiply(c, stage, out=stage)
    np.add(state, stage, out=stage)


def _last_stage(state, acc, stage, spare, c) -> None:
    """``state += c (acc + k4)``, with k4 in ``stage``."""
    np.add(acc, stage, out=acc)
    np.multiply(c, acc, out=acc)
    np.add(state, acc, out=state)


class _RK4:
    """Classical RK4 steps on a batch of runs, in two kept arrays of the states' band.

    Each run has its grid, of the batch's one size, and its step ``dt``;
    the steps are kept as (R, 1, 1, 1) arrays.  :meth:`step` advances the
    first m runs.  ``acc`` gathers the sum of the slopes; ``stage`` holds a
    stage state and then its slope, which the right-hand side writes over
    it; the doubled slopes go into the kernel's ``spare``; all have the
    band's shape (R, 4, N, N/3 + 1).  The operations are those of
    ``state + (dt/2) k1``, ``state + (dt/2) k2``, ``state + dt k3`` and
    ``state + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``, in their order, through
    :func:`euler._by_rows` on the kernel's ``blocks``.
    """

    def __init__(self, grids: Sequence[TorusGrid], g: GasParams, dts: Sequence[float]) -> None:
        self.rhs = _RhsKernel(grids, grids[0].dealias_cutoff + 1)
        self.g = g
        dt = np.array(dts, dtype=float).reshape(-1, 1, 1, 1)
        self.factors = (0.5 * dt, dt, dt / 6.0)
        self.stage = np.empty_like(self.rhs.spare)
        self.acc = np.empty_like(self.rhs.spare)

    def step(self, state_hat: np.ndarray) -> None:
        """Advance the dealiased states ``state_hat`` of the first m runs by one step, in place."""
        m = len(state_hat)
        rhs, g, blocks = self.rhs, self.g, self.rhs.blocks
        half, whole, sixth = (factor[:m] for factor in self.factors)
        stage, acc = self.stage[:m], self.acc[:m]
        arrays = (state_hat, acc, stage, rhs.spare[:m])
        rhs(state_hat, g, out=acc)  # k1
        _by_rows(_first_stage, arrays, blocks, half)
        rhs(stage, g, out=stage)  # k2
        _by_rows(_next_stage, arrays, blocks, half)
        rhs(stage, g, out=stage)  # k3
        _by_rows(_next_stage, arrays, blocks, whole)
        rhs(stage, g, out=stage)  # k4
        _by_rows(_last_stage, arrays, blocks, sixth)


def cfl_dt(s: State, g: GasParams, cfl: float, grid: TorusGrid) -> float:
    """CFL time step cfl * dx / max wave speed, dx = 2*pi/N; ``grid`` must be ``s.grid``."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    if grid != s.grid:
        raise ValueError(f"cfl_dt got {grid} for a state on {s.grid}")
    dx = grid.period / grid.size
    return cfl * dx / max_wave_speed(s, g)


def plan(s0: State, g: GasParams, cfg: SolveConfig) -> tuple[int, float]:
    """Step count and step size for a run of cfg from s0.

    The CFL step (or ``dt_fixed``) is shrunk so T is an integer number of
    steps.
    """
    if cfg.dt_fixed is not None:
        dt0 = cfg.dt_fixed
    else:
        dt0 = cfl_dt(s0, g, cfg.cfl, s0.grid)
    n_steps = max(1, math.ceil(cfg.T / dt0 * (1.0 - 1e-12)))
    return n_steps, cfg.T / n_steps


def step_rk4(s: State, dt: float, g: GasParams) -> State:
    """One classical Runge-Kutta step of size dt, a one-step :func:`evolve`; result dealiased."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return evolve(s, g, SolveConfig(T=dt, dt_fixed=dt)).states[-1]


def evolve(
    s0: State, g: GasParams, cfg: SolveConfig, record_stride: int = 1
) -> Trajectory:
    """Integrate from s0 at t = 0 to t = T: a batch of one run of :func:`evolve_batch`.

    Every ``record_stride``-th step is kept in the trajectory; the initial
    and final states are always kept.
    """
    (traj,) = evolve_batch([Run(s0, cfg.T, *plan(s0, g, cfg), record_stride)], g)
    return traj


def evolve_batch(runs: Sequence[Run], g: GasParams) -> list[Trajectory]:
    """March runs whose grids share one size in lockstep; one trajectory per run.

    The runs may differ in cells, step size, step count and record stride.
    Each run gives the trajectory of its own march bit for bit: every
    ``stride``-th step is kept, and the initial state and the final state,
    at exactly T, always.  The batch holds the runs by falling step count,
    so the runs still marching are a prefix of it, which each step
    advances as one stacked state.  A finished run drops off; its state is
    left as it is until the march ends and the scratch arrays are freed,
    and then the final states are built.

    A run that leaves the admissible region or turns non-finite aborts the
    batch with the SolverError it would raise alone, whose ``run`` is its
    index in ``runs``.  If several runs fail, the error is that of the
    first of them in ``runs``, the one that a loop of single runs would
    raise: when a run fails, the runs before it are marched again without
    it, and the first failure among them, if any, is raised instead.
    """
    try:
        return _march(runs, g)
    except SolverError as err:
        if err.run:  # a run before it may fail later in its march
            evolve_batch(runs[: err.run], g)
        raise


def _march(runs: Sequence[Run], g: GasParams) -> list[Trajectory]:
    """The lockstep march of :func:`evolve_batch`; a failure is the first in marching order."""
    for run in runs:
        if not _is_integer(run.stride):
            raise ValueError(f"record_stride must be an integer, got {run.stride!r}")
        if run.stride < 1:
            raise ValueError("record_stride must be a positive integer")
    if not runs:
        return []
    order = sorted(range(len(runs)), key=lambda i: -runs[i].n_steps)
    batch = [runs[i] for i in order]
    grids = [run.s0.grid for run in batch]
    size = grids[0].size
    if any(grid.size != size for grid in grids):
        raise ValueError(f"a batch's grids must share one size, got {grids}")

    samples = [[f.samples for f in run.s0.fields()] for run in batch]
    mask = grids[0].dealias_mask[:, : grids[0].dealias_cutoff + 1]
    state_hat = _rfft(np.array(samples), (-2, -1), scale=True)[..., : mask.shape[1]] * mask
    rk4 = _RK4(grids, g, [run.dt for run in batch])
    times: list[list[float]] = [[0.0] for _ in batch]
    states: list[list[State]] = [[run.s0] for run in batch]
    active = len(batch)
    for step in range(1, batch[0].n_steps + 1):
        while batch[active - 1].n_steps < step:
            active -= 1
        marching = state_hat[:active]
        try:
            rk4.step(marching)
        except AdmissibleStateError as err:
            run = batch[err.run]
            raise SolverError(
                f"aborted at t = {step * run.dt:.6g} (step {step}/{run.n_steps}): {err}",
                order[err.run],
            ) from err
        finite = np.isfinite(marching).all(axis=(1, 2, 3))
        if not finite.all():
            j = int(np.argmin(finite))
            run = batch[j]
            raise SolverError(
                f"non-finite state at t = {step * run.dt:.6g} (step {step}/{run.n_steps}, "
                f"dt = {run.dt:.3e}, N = {size})",
                order[j],
            )
        for j, run in enumerate(batch[:active]):
            if step % run.stride == 0 and step < run.n_steps:
                times[j].append(step * run.dt)
                states[j].append(state_from_hat(state_hat[j], grids[j]))
    del rk4  # free the scratch arrays before the final states are built
    trajectories = [None] * len(batch)
    for j, run in enumerate(batch):
        times[j].append(run.T)
        states[j].append(state_from_hat(state_hat[j], grids[j]))
        trajectories[order[j]] = Trajectory(times[j], states[j])
    return trajectories
