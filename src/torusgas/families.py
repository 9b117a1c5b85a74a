"""Closed-form solution families indexed by a frequency pair (omega, n).

Two sequences of states drive every experiment here.  The first is an
exact travelling-wave family with constant density,

    V = (rho0, n^{-s} cos(n y - omega t), omega/n, h0),

which solves the gas system identically and is divergence-free.  The
second is an approximate family

    U = (rho0,
         omega/n + n^{-s} cos(n y - omega t),
         omega/n + n^{-s} cos(n x - omega t),
         h0 + n^{-2s} sin(n x - omega t) sin(n y - omega t)),

which satisfies the system up to a residue appearing only in the fourth
equation.  Its formula is written once, in ``_approx_deviation``; the
member, its initial data and the assembled residual all build from it.
The members and the family difference are built as stacked samples, of
shape (..., 4, N, N) for an array of times ``t``: the runners measure a
run's recorded rows against them at once, and the :class:`State` of one
time is the stack of a scalar ``t``, bit for bit.
The residue and the closed-form difference of the omega = +1 and
omega = -1 members are provided as generators so downstream checks
never rely on numerically assembled versions of them.
The assembled residual applies :func:`euler.rhs_hat`, the kernel the
solver integrates, so the residue identity checks that kernel; this
module writes no product of the gas system itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .euler import (
    GasParams,
    State,
    _adopt_state,
    rhs_hat,
    state_difference,
    state_from_hat,
    state_to_hat,
)
from .spectral import (
    Field,
    TorusGrid,
    _is_integer,
    _is_real,
    _require_band,
    constant_field,
    sobolev_norm,
)

__all__ = [
    "FamilyParams",
    "exact_solution",
    "exact_time_derivative",
    "approx_solution",
    "approx_time_derivative",
    "initial_data",
    "residue_field",
    "approx_difference",
    "assemble_approx_residual",
    "residue_identity_errors",
]


@dataclass(frozen=True)
class FamilyParams:
    """Family index: sign omega, frequency n, and the regularity s."""

    omega: int
    n: int
    s: float

    def __post_init__(self) -> None:
        if not (_is_integer(self.omega) and self.omega in (-1, 1)):
            raise ValueError(f"omega must be +1 or -1, got {self.omega}")
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not _is_real(self.s):
            raise TypeError(f"s must be a real number, got {self.s!r}")
        if not self.s > 2.0:
            raise ValueError(f"s must exceed 2, got {self.s}")


def _require_resolved(grid: TorusGrid, n: int, harmonic: int, what: str) -> None:
    """Require the modes n, ..., harmonic*n to be periodic on the cell and dealiased."""
    if n % grid.cells:
        raise ValueError(
            f"{what} at n={n} is not periodic on the 2*pi/{grid.cells} cell of the grid"
        )
    _require_band(grid, harmonic * n, f"{what} mode")


def _full(grid: TorusGrid, values: np.ndarray) -> Field:
    n = grid.size
    return Field(grid, samples=np.broadcast_to(values, (n, n)))


def _times(t) -> np.ndarray:
    """Times ``t`` (a float or an array) with two trailing axes, to broadcast over a grid."""
    return np.asarray(t, dtype=float)[..., None, None]


def _stacked(grid: TorusGrid, t, planes) -> np.ndarray:
    """Samples (..., 4, N, N) at the times ``t``, each plane broadcast from ``planes``."""
    n = grid.size
    out = np.empty(np.shape(t) + (4, n, n))
    for k, plane in enumerate(planes):
        out[..., k, :, :] = plane
    return out


def exact_solution(f: FamilyParams, g: GasParams, grid: TorusGrid, t: float) -> State:
    """Exact travelling-wave member at time t."""
    return _adopt_state(_exact_samples(f, g, grid, t), grid)


def _exact_samples(f: FamilyParams, g: GasParams, grid: TorusGrid, t) -> np.ndarray:
    """Samples of the exact member at the times ``t``, shape (..., 4, N, N)."""
    _require_resolved(grid, f.n, 1, "exact family")
    _, yrow = grid.meshgrid()
    u = f.n ** (-f.s) * np.cos(f.n * yrow - f.omega * _times(t))
    return _stacked(grid, t, (g.rho0, u, f.omega / f.n, g.h0))


def exact_time_derivative(f: FamilyParams, grid: TorusGrid, t: float) -> State:
    """Hand-differentiated time derivative of the exact member."""
    _require_resolved(grid, f.n, 1, "exact family")
    _, yrow = grid.meshgrid()
    du = f.omega * f.n ** (-f.s) * np.sin(f.n * yrow - f.omega * t)
    zero = constant_field(grid, 0.0)
    return State(zero, _full(grid, du), zero, zero)


def _approx_deviation(
    f: FamilyParams, grid: TorusGrid, t
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The one formula of the approximate member, at a time or an array of times ``t``.

    Returns the drift omega/n and the deviations of u, v and h from the
    constant background (rho0, omega/n, omega/n, h0).  The u deviation has
    shape (..., 1, N) and the v deviation (..., N, 1), with the shape of
    ``t`` in front; both broadcast to the grid.
    """
    _require_resolved(grid, f.n, 2, "approximate family")
    xcol, yrow = grid.meshgrid()
    times = _times(t)
    a = f.n * xcol - f.omega * times
    b = f.n * yrow - f.omega * times
    amp = f.n ** (-f.s)
    h_dev = f.n ** (-2.0 * f.s) * np.sin(a) * np.sin(b)
    return f.omega / f.n, amp * np.cos(b), amp * np.cos(a), h_dev


def approx_solution(f: FamilyParams, g: GasParams, grid: TorusGrid, t: float) -> State:
    """Approximate-family member at time t.

    Requires 2n within the dealias band: quadratic products of this state
    carry modes up to 2n and the residue identities need them resolved.
    """
    return _adopt_state(_approx_samples(f, g, grid, t), grid)


def _approx_samples(f: FamilyParams, g: GasParams, grid: TorusGrid, t) -> np.ndarray:
    """Samples of the approximate member at the times ``t``, shape (..., 4, N, N)."""
    drift, u_dev, v_dev, h_dev = _approx_deviation(f, grid, t)
    return _stacked(grid, t, (g.rho0, drift + u_dev, drift + v_dev, g.h0 + h_dev))


def approx_time_derivative(f: FamilyParams, grid: TorusGrid, t: float) -> State:
    """Hand-differentiated time derivative of the approximate member."""
    _require_resolved(grid, f.n, 2, "approximate family")
    xcol, yrow = grid.meshgrid()
    amp = f.omega * f.n ** (-f.s)
    du = amp * np.sin(f.n * yrow - f.omega * t)
    dv = amp * np.sin(f.n * xcol - f.omega * t)
    dh = -f.omega * f.n ** (-2.0 * f.s) * np.sin(
        f.n * (xcol + yrow) - 2.0 * f.omega * t
    )
    return State(
        constant_field(grid, 0.0),
        _full(grid, du),
        _full(grid, dv),
        Field(grid, samples=dh),
    )


def initial_data(f: FamilyParams, g: GasParams, grid: TorusGrid) -> State:
    """Initial state shared by the approximate member and the evolved run."""
    return approx_solution(f, g, grid, 0.0)


def residue_field(f: FamilyParams, grid: TorusGrid, t: float) -> Field:
    """Residue of the approximate family (fourth equation only):

        n^{1-3s} cos(nx - wt) cos(ny - wt) (sin(nx - wt) + sin(ny - wt)).
    """
    _require_resolved(grid, f.n, 2, "residue")
    xcol, yrow = grid.meshgrid()
    a = f.n * xcol - f.omega * t
    b = f.n * yrow - f.omega * t
    prefactor = f.n ** (1.0 - 3.0 * f.s)
    return Field(grid, samples=prefactor * np.cos(a) * np.cos(b) * (np.sin(a) + np.sin(b)))


def approx_difference(n: int, s: float, grid: TorusGrid, t: float) -> State:
    """Closed-form difference of the omega = +1 and omega = -1 members.

    Equals approx_solution(+1, n) - approx_solution(-1, n) by trigonometric
    identities:

        (0,
         2/n + 2 n^{-s} sin(ny) sin t,
         2/n + 2 n^{-s} sin(nx) sin t,
         -n^{-2s} sin(nx + ny) sin 2t).
    """
    return _adopt_state(_difference_samples(n, s, grid, t), grid)


def _difference_samples(n: int, s: float, grid: TorusGrid, t) -> np.ndarray:
    """Samples of :func:`approx_difference` at the times ``t``, shape (..., 4, N, N)."""
    FamilyParams(1, n, s)  # validates n and s
    _require_resolved(grid, n, 2, "family difference")
    xcol, yrow = grid.meshgrid()
    times = _times(t)
    du = 2.0 / n + 2.0 * n ** (-s) * np.sin(n * yrow) * np.sin(times)
    dv = 2.0 / n + 2.0 * n ** (-s) * np.sin(n * xcol) * np.sin(times)
    dh = -(n ** (-2.0 * s)) * np.sin(n * (xcol + yrow)) * np.sin(2.0 * times)
    return _stacked(grid, t, (0.0, du, dv, dh))


def assemble_approx_residual(
    f: FamilyParams, g: GasParams, grid: TorusGrid, t: float
) -> State:
    """Numerically assembled dU/dt + A(U) U_x + B(U) U_y for the approximate
    family, one component per equation.

    This is ``approx_time_derivative - rhs``, with the right-hand side from
    :func:`euler.rhs_hat` applied to the deviation from the constant
    background (rho0, omega/n, omega/n, h0).  The background has zero
    derivative, so this is exact, and it keeps the derivatives' round-off
    at the scale of the perturbations instead of the scale of the background.
    """
    drift, u_dev, v_dev, h_dev = _approx_deviation(f, grid, t)
    deviation = State(*(_full(grid, d) for d in (0.0, u_dev, v_dev, h_dev)))
    background = (g.rho0, drift, drift, g.h0)
    rhs = state_from_hat(rhs_hat(state_to_hat(deviation), grid, g, background), grid)
    return state_difference(approx_time_derivative(f, grid, t), rhs)


def residue_identity_errors(
    f: FamilyParams, g: GasParams, grid: TorusGrid, t: float
) -> tuple[float, float, float, float]:
    """Componentwise relative L2 errors of the identity

        dU/dt + A(U) U_x + B(U) U_y = (0, 0, 0, residue).

    The fourth component is measured against the closed-form residue norm.
    The first three have a zero target, so each is normalized by the L2
    size of its time derivative, which the advective terms cancel; a
    component whose time derivative vanishes identically scores its
    absolute size.
    """
    res = assemble_approx_residual(f, g, grid, t)
    target = residue_field(f, grid, t)
    dt = approx_time_derivative(f, grid, t)

    def _rel(residual: Field, scale: float) -> float:
        size = sobolev_norm(residual, 0.0)
        if scale == 0.0:
            return size
        return size / scale

    errors = [
        _rel(r, sobolev_norm(d, 0.0)) for r, d in zip(res.fields()[:3], dt.fields()[:3])
    ]
    diff_h = Field(grid, samples=res.h.samples - target.samples)
    errors.append(_rel(diff_h, sobolev_norm(target, 0.0)))
    return tuple(errors)
