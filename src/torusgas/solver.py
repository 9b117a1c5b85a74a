"""Method-of-lines integration of the gas system with classical RK4.

The state marches in spectral space on the half-plane layout of the real
FFT; each right-hand-side evaluation transforms to physical space for the
pointwise products and back, applying the two-thirds dealias mask to the
assembled components.  The time step is fixed for a whole run, chosen once
from the initial state's CFL constraint (or supplied directly), and rounded
so the final time is hit exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .euler import (
    AdmissibleStateError,
    GasParams,
    State,
    max_wave_speed,
    rhs_hat,
    state_from_hat,
    state_to_hat,
)
from .spectral import TorusGrid

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
    """Time integration aborted; the message carries the diagnostics."""


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

    @property
    def final_state(self) -> State:
        return self.states[-1]


def _rk4_update(
    state_hat: np.ndarray, dt: float, grid: TorusGrid, g: GasParams
) -> np.ndarray:
    k1 = rhs_hat(state_hat, grid, g)
    k2 = rhs_hat(state_hat + 0.5 * dt * k1, grid, g)
    k3 = rhs_hat(state_hat + 0.5 * dt * k2, grid, g)
    k4 = rhs_hat(state_hat + dt * k3, grid, g)
    return state_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _pack(s: State) -> np.ndarray:
    state_hat = state_to_hat(s)
    state_hat *= s.grid.dealias_mask
    return state_hat


def cfl_dt(s: State, g: GasParams, cfl: float, grid: TorusGrid) -> float:
    """CFL time step cfl * dx / max wave speed, dx = 2*pi/N."""
    if not 0.0 < cfl <= 1.0:
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
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
    """One classical Runge-Kutta step of size dt; result dealiased."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return state_from_hat(_rk4_update(_pack(s), dt, s.grid, g), s.grid)


def evolve(
    s0: State, g: GasParams, cfg: SolveConfig, record_stride: int = 1
) -> Trajectory:
    """Integrate from s0 at t = 0 to t = T.

    Every ``record_stride``-th step is kept in the trajectory; the initial
    and final states are always kept.
    """
    if isinstance(record_stride, bool) or not isinstance(record_stride, (int, np.integer)):
        raise ValueError(f"record_stride must be an integer, got {record_stride!r}")
    if record_stride < 1:
        raise ValueError("record_stride must be a positive integer")
    grid = s0.grid
    n_steps, dt = plan(s0, g, cfg)

    state_hat = _pack(s0)
    times: list[float] = [0.0]
    states: list[State] = [s0]
    for step in range(1, n_steps + 1):
        try:
            state_hat = _rk4_update(state_hat, dt, grid, g)
        except AdmissibleStateError as err:
            raise SolverError(
                f"aborted at t = {step * dt:.6g} (step {step}/{n_steps}): {err}"
            ) from err
        if not np.all(np.isfinite(state_hat)):
            raise SolverError(
                f"non-finite state at t = {step * dt:.6g} (step {step}/{n_steps}, "
                f"dt = {dt:.3e}, N = {grid.size})"
            )
        if step % record_stride == 0 or step == n_steps:
            t = cfg.T if step == n_steps else step * dt
            times.append(t)
            states.append(state_from_hat(state_hat, grid))
    return Trajectory(times, states)
