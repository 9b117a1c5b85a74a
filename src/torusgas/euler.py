"""Coefficient matrices and spectral right-hand side of the gas system.

The unknown is U = (rho, u, v, h) where rho is the density, (u, v) the
velocity, and h = p/rho the pressure to density ratio.  The evolution
system in classical (non-conservation) form is

    rho_t + u rho_x + v rho_y + rho (u_x + v_y)      = 0
    u_t   + u u_x   + v u_y   + h_x + (h/rho) rho_x  = 0
    v_t   + u v_x   + v v_y   + h_y + (h/rho) rho_y  = 0
    h_t   + u h_x   + v h_y   + (gamma - 1) h (u_x + v_y) = 0,

equivalently U_t + A(U) U_x + B(U) U_y = 0.  The admissible region is
rho > 0 and h > 0; there the system is symmetrizable: the diagonal
positive-definite matrix A0 turns A and B into the symmetric products
A1 = A0 A and B1 = A0 B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import Field, TorusGrid, _band_irfft2, _irfft, _is_real, _rfft

__all__ = [
    "GasParams",
    "PointState",
    "State",
    "AdmissibleStateError",
    "matrix_A",
    "matrix_B",
    "matrix_A0",
    "matrix_A1",
    "matrix_B1",
    "symmetrizer_floor",
    "rhs",
    "rhs_hat",
    "state_to_hat",
    "state_from_hat",
    "divergence",
    "max_wave_speed",
    "state_norm",
    "state_difference",
]

#: Positivity floor of min(rho) and min(h) in every admissible-region check.
REGION_FLOOR = 1e-8


class AdmissibleStateError(ValueError):
    """A state left the region rho > 0, h > 0 where the system is hyperbolic."""


@dataclass(frozen=True)
class GasParams:
    """Gas constants: adiabatic exponent and the base state (rho0, 0, 0, h0)."""

    gamma: float = 1.4
    rho0: float = 1.0
    h0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("gamma", "rho0", "h0"):
            value = getattr(self, name)
            if not _is_real(value):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        if not 1.0 < self.gamma < 3.0:
            raise ValueError(f"gamma must lie in (1, 3), got {self.gamma}")
        if not (0.0 < self.rho0 < math.inf and 0.0 < self.h0 < math.inf):
            raise ValueError(
                f"base state requires finite rho0 > 0 and h0 > 0, "
                f"got rho0={self.rho0}, h0={self.h0}"
            )


@dataclass(frozen=True)
class PointState:
    """A single admissible state vector (rho, u, v, h)."""

    rho: float
    u: float
    v: float
    h: float

    def __post_init__(self) -> None:
        if not (self.rho > 0.0 and self.h > 0.0):
            raise AdmissibleStateError(
                f"point state needs rho > 0 and h > 0, got rho={self.rho}, h={self.h}"
            )


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError("coefficient matrix has non-finite entries")
    return m


def matrix_A(p: PointState, g: GasParams) -> np.ndarray:
    """Coefficient of U_x in the classical-form system."""
    return _finite(
        np.array(
            [
                [p.u, p.rho, 0.0, 0.0],
                [p.h / p.rho, p.u, 0.0, 1.0],
                [0.0, 0.0, p.u, 0.0],
                [0.0, (g.gamma - 1.0) * p.h, 0.0, p.u],
            ]
        )
    )


def matrix_B(p: PointState, g: GasParams) -> np.ndarray:
    """Coefficient of U_y in the classical-form system."""
    return _finite(
        np.array(
            [
                [p.v, 0.0, p.rho, 0.0],
                [0.0, p.v, 0.0, 0.0],
                [p.h / p.rho, 0.0, p.v, 1.0],
                [0.0, 0.0, (g.gamma - 1.0) * p.h, p.v],
            ]
        )
    )


def matrix_A0(p: PointState, g: GasParams) -> np.ndarray:
    """Diagonal symmetrizer diag(h/rho, rho, rho, rho/((gamma-1) h))."""
    return _finite(
        np.diag(
            [
                p.h / p.rho,
                p.rho,
                p.rho,
                p.rho / ((g.gamma - 1.0) * p.h),
            ]
        )
    )


def matrix_A1(p: PointState, g: GasParams) -> np.ndarray:
    """Symmetric product A0 A, written out entrywise."""
    return _finite(
        np.array(
            [
                [p.u * p.h / p.rho, p.h, 0.0, 0.0],
                [p.h, p.rho * p.u, 0.0, p.rho],
                [0.0, 0.0, p.rho * p.u, 0.0],
                [0.0, p.rho, 0.0, p.rho * p.u / ((g.gamma - 1.0) * p.h)],
            ]
        )
    )


def matrix_B1(p: PointState, g: GasParams) -> np.ndarray:
    """Symmetric product A0 B, written out entrywise."""
    return _finite(
        np.array(
            [
                [p.v * p.h / p.rho, 0.0, p.h, 0.0],
                [0.0, p.rho * p.v, 0.0, 0.0],
                [p.h, 0.0, p.rho * p.v, p.rho],
                [0.0, 0.0, p.rho, p.rho * p.v / ((g.gamma - 1.0) * p.h)],
            ]
        )
    )


def symmetrizer_floor(g: GasParams) -> float:
    """Lower eigenvalue bound of A0 at the base state (rho0, 0, 0, h0)."""
    return min(
        g.rho0,
        g.h0 / (2.0 * g.rho0),
        g.rho0 / (2.0 * (g.gamma - 1.0) * g.h0),
    )


@dataclass(frozen=True)
class State:
    """The PDE unknown U = (rho, u, v, h) as four fields on one grid."""

    rho: Field
    u: Field
    v: Field
    h: Field

    def __post_init__(self) -> None:
        grids = {f.grid for f in self.fields()}
        if len(grids) != 1:
            raise ValueError(f"state components live on different grids: {grids}")

    def fields(self) -> tuple[Field, Field, Field, Field]:
        return (self.rho, self.u, self.v, self.h)

    @property
    def grid(self) -> TorusGrid:
        return self.rho.grid

    def require_admissible(self) -> None:
        """Raise AdmissibleStateError unless min(rho) and min(h) exceed REGION_FLOOR."""
        _require_admissible(self.rho.samples, self.h.samples)


def _require_admissible(rho: np.ndarray, h: np.ndarray) -> None:
    for name, values in (("rho", rho), ("h", h)):
        low = values.min()
        if not low > REGION_FLOOR:
            raise AdmissibleStateError(
                f"state left the admissible region: min({name}) = {low:.6e} "
                f"<= floor {REGION_FLOOR:.1e}"
            )


def state_norm(s: State, sigma: float) -> float:
    """Sobolev norm of the state: Euclidean sum over the four components."""
    return float(
        np.sqrt(sum(spectral.sobolev_norm(f, sigma) ** 2 for f in s.fields()))
    )


def state_difference(a: State, b: State) -> State:
    """Componentwise difference a - b (no admissibility requirement)."""
    return State(a.rho - b.rho, a.u - b.u, a.v - b.v, a.h - b.h)


def state_to_hat(s: State) -> np.ndarray:
    """The ``coefficients`` of (rho, u, v, h) stacked, shape (4, N, N/2 + 1)."""
    return _rfft(np.stack([f.samples for f in s.fields()]), (-2, -1), scale=True)


def state_from_hat(state_hat: np.ndarray, grid: TorusGrid) -> State:
    """Inverse of :func:`state_to_hat`; the fields own the planes of one fresh inverse."""
    samples = _irfft(state_hat, (-2, -1), grid.size)
    return State(*(Field._adopt(grid, samples=plane) for plane in samples))


class _RhsKernel:
    """Scratch arrays of right-hand-side evaluations on one grid.

    ``spectra`` holds the half-plane spectra of U, U_x and U_y, twelve
    fields; a call fills their first ``columns`` columns and the rest stay
    zero.  The unscaled inverse :func:`spectral._band_irfft2` runs in place
    on the filled columns, so ``samples`` holds the fields' values, and the
    forward transform of the products divides by N^2.  ``columns`` must
    cover every nonzero column of a state passed in; N/2 + 1 does.

    Between calls ``samples`` holds nothing that is needed; ``spare`` views
    its memory as one complex array of a state's shape, which the caller
    may use until the next call.
    """

    def __init__(self, grid: TorusGrid, columns: int) -> None:
        n = grid.size
        self.grid = grid
        self.columns = columns
        self.spectra = np.zeros((12, n, n // 2 + 1), dtype=np.complex128)
        self.samples = np.empty((12, n, n))
        state_shape = (4, n, n // 2 + 1)
        flat = self.samples.reshape(-1)[: 2 * math.prod(state_shape)]
        self.spare = flat.view(np.complex128).reshape(state_shape)

    def __call__(
        self,
        state_hat: np.ndarray,
        g: GasParams,
        background: tuple | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The right-hand side of ``state_hat``, written into ``out`` if given.

        ``state_hat`` is read before ``out`` is written, so ``out`` may be
        ``state_hat`` itself.
        """
        grid, m = self.grid, self.columns
        state = state_hat[:, :, :m]
        band = self.spectra[:, :, :m]
        band[:4] = state
        np.multiply(grid.ikx, state, out=band[4:8])
        np.multiply(grid.iky[:, :m], state, out=band[8:])
        samples = _band_irfft2(band, self.spectra, grid.size, out=self.samples)
        fields, d_x, d_y = samples[:4], samples[4:8], samples[8:]
        if background is not None:
            fields += np.asarray(background, dtype=float)[:, None, None]
        rho, u, v, h = fields
        _require_admissible(rho, h)
        div = d_x[1] + d_y[2]
        h_over_rho = h / rho
        # Component i overwrites d_x[i]; component 1 reads d_x[0] and d_x[3],
        # so it goes first.
        np.negative(u * d_x[1] + v * d_y[1] + d_x[3] + h_over_rho * d_x[0], out=d_x[1])
        np.negative(u * d_x[0] + v * d_y[0] + rho * div, out=d_x[0])
        np.negative(u * d_x[2] + v * d_y[2] + d_y[3] + h_over_rho * d_y[0], out=d_x[2])
        np.negative(u * d_x[3] + v * d_y[3] + (g.gamma - 1.0) * h * div, out=d_x[3])
        out_hat = _rfft(d_x, (-2, -1), scale=True, out=out)
        out_hat *= grid.dealias_mask
        return out_hat


def rhs_hat(
    state_hat: np.ndarray, grid: TorusGrid, g: GasParams, background: tuple | None = None
) -> np.ndarray:
    """Right-hand side -(A(U) U_x + B(U) U_y) of a stacked spectral state.

    ``state_hat`` holds coefficients in the convention of
    :func:`state_to_hat`, and so does the result; ``state_hat`` is not
    modified.  Derivatives are spectral; products are formed pointwise in
    physical space and the assembled components are dealiased once.  The
    inverse transforms of U, U_x and U_y run as one batch, with the result
    of ``irfft2(..., norm="forward")`` bit for bit.  Raises
    AdmissibleStateError when min(rho) or min(h) does not exceed
    :data:`REGION_FLOOR`.

    With a constant ``background`` (rho, u, v, h), ``state_hat`` holds the
    deviation U - background, and the background is added to the samples
    before the admissibility check and the products.  The solver passes
    none, so its arithmetic is untouched.  The solver runs the same kernel
    on its dealiased stage states, over the dealias band's columns only.
    """
    return _RhsKernel(grid, grid.size // 2 + 1)(state_hat, g, background)


def rhs(s: State, g: GasParams) -> State:
    """Right-hand side -(A(U) U_x + B(U) U_y) of U_t = rhs(U); see :func:`rhs_hat`."""
    return state_from_hat(rhs_hat(state_to_hat(s), s.grid, g), s.grid)


def divergence(s: State) -> Field:
    """Velocity divergence u_x + v_y."""
    return spectral.partial_x(s.u) + spectral.partial_y(s.v)


def max_wave_speed(s: State, g: GasParams) -> float:
    """Largest characteristic speed max(|u| + c, |v| + c) with c = sqrt(gamma h)."""
    s.require_admissible()
    c = np.sqrt(g.gamma * s.h.samples)
    speed_x = np.abs(s.u.samples) + c
    speed_y = np.abs(s.v.samples) + c
    return float(max(speed_x.max(), speed_y.max()))
