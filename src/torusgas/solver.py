"""Method-of-lines integration of the gas system with classical RK4.

The state marches in spectral space, as the four fields'
``Field.coefficients``; each right-hand-side evaluation transforms to
physical space for the pointwise products and back, applying the
two-thirds dealias mask to the assembled components.  Every stage state
is dealiased, so the inverse transforms run over the dealias band's
half-plane columns only, with the bytes of the full inverse.  A run
allocates its arrays once: the right-hand side's spectra and samples,
and two state-sized arrays in which the RK4 combination runs in place,
in the operation order of ``state + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``.
They are freed before the final state is recorded.  The time step is
fixed for a whole run, chosen once from the initial state's CFL
constraint (or supplied directly), and rounded so the final time is hit
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .euler import (
    AdmissibleStateError,
    GasParams,
    State,
    _RhsKernel,
    max_wave_speed,
    state_from_hat,
    state_to_hat,
)
from .spectral import TorusGrid, _is_integer, _is_real

__all__ = [
    "SolveConfig",
    "Trajectory",
    "SolverError",
    "cfl_dt",
    "plan",
    "step_rk4",
    "evolve",
]


class SolverError(RuntimeError):
    """A run aborted or failed one of its checks; the message carries the diagnostics."""


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


class _RK4:
    """Classical RK4 steps of size dt on one grid, in two kept state-sized arrays.

    ``acc`` gathers the sum of the slopes; ``stage`` holds a stage state and
    then its slope, which the right-hand side writes over it; the doubled
    slopes go into the kernel's ``spare``.  The operations are those of the
    expressions ``state + (dt/2) k1``, ``state + (dt/2) k2``,
    ``state + dt k3`` and ``state + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)``, in
    their order.
    """

    def __init__(self, grid: TorusGrid, g: GasParams, dt: float) -> None:
        self.rhs = _RhsKernel(grid, grid.dealias_cutoff + 1)
        self.g = g
        self.dt = dt
        shape = (4, grid.size, grid.size // 2 + 1)
        self.stage = np.empty(shape, np.complex128)
        self.acc = np.empty(shape, np.complex128)

    def step(self, state_hat: np.ndarray) -> None:
        """Advance the dealiased ``state_hat`` by one step, in place."""
        rhs, g, dt = self.rhs, self.g, self.dt
        stage, acc, spare = self.stage, self.acc, self.rhs.spare
        rhs(state_hat, g, out=acc)  # k1
        np.multiply(0.5 * dt, acc, out=stage)
        np.add(state_hat, stage, out=stage)
        rhs(stage, g, out=stage)  # k2
        np.multiply(2.0, stage, out=spare)
        np.add(acc, spare, out=acc)
        np.multiply(0.5 * dt, stage, out=stage)
        np.add(state_hat, stage, out=stage)
        rhs(stage, g, out=stage)  # k3
        np.multiply(2.0, stage, out=spare)
        np.add(acc, spare, out=acc)
        np.multiply(dt, stage, out=stage)
        np.add(state_hat, stage, out=stage)
        rhs(stage, g, out=stage)  # k4
        np.add(acc, stage, out=acc)
        np.multiply(dt / 6.0, acc, out=acc)
        np.add(state_hat, acc, out=state_hat)


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
    """Integrate from s0 at t = 0 to t = T.

    Every ``record_stride``-th step is kept in the trajectory; the initial
    and final states are always kept.
    """
    if not _is_integer(record_stride):
        raise ValueError(f"record_stride must be an integer, got {record_stride!r}")
    if record_stride < 1:
        raise ValueError("record_stride must be a positive integer")
    grid = s0.grid
    n_steps, dt = plan(s0, g, cfg)

    state_hat = state_to_hat(s0)
    state_hat *= grid.dealias_mask
    rk4 = _RK4(grid, g, dt)
    times: list[float] = [0.0]
    states: list[State] = [s0]
    for step in range(1, n_steps + 1):
        try:
            rk4.step(state_hat)
        except AdmissibleStateError as err:
            raise SolverError(
                f"aborted at t = {step * dt:.6g} (step {step}/{n_steps}): {err}"
            ) from err
        if not np.all(np.isfinite(state_hat)):
            raise SolverError(
                f"non-finite state at t = {step * dt:.6g} (step {step}/{n_steps}, "
                f"dt = {dt:.3e}, N = {grid.size})"
            )
        if step % record_stride == 0 and step < n_steps:
            times.append(step * dt)
            states.append(state_from_hat(state_hat, grid))
    del rk4  # free the scratch arrays before the final state is built
    times.append(cfg.T)
    states.append(state_from_hat(state_hat, grid))
    return Trajectory(times, states)
