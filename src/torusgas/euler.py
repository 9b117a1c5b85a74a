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

import contextvars
import math
import queue
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from . import spectral
from .spectral import Field, TorusGrid, _fft, _irfft, _is_real, _rfft

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
    """A state left the region rho > 0, h > 0 where the system is hyperbolic.

    ``run`` is the index of the failing run when a batch of states is checked.
    """

    run = 0


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
    """The region check of one state's (N, N) planes, or a batch's, one per run."""
    _require_region(np.stack((rho.min(axis=(-2, -1)), h.min(axis=(-2, -1))), -1).reshape(-1, 2))


def _require_region(lows: np.ndarray) -> None:
    """The region check of minima of rho and h, shape (runs, 2, ...): one pair or more per run.

    A batch's error is its first failing run's, and its ``run`` is that run's index.
    """
    if lows.min() > REGION_FLOOR:  # the common case, in one reduction
        return
    lows = lows.reshape(len(lows), 2, -1).min(axis=-1)
    failing = ~(lows > REGION_FLOOR)
    run = int(np.argmax(failing.any(axis=-1)))
    field = int(np.argmax(failing[run]))
    name, low = ("rho", "h")[field], lows[run, field]
    if not math.isfinite(low):
        err = AdmissibleStateError(f"state is not finite: min({name}) = {low}")
    else:
        err = AdmissibleStateError(
            f"state left the admissible region: min({name}) = {low:.6e} "
            f"<= floor {REGION_FLOOR:.1e}"
        )
    err.run = run
    raise err


def state_norm(s: State, sigma: float) -> float:
    """Sobolev norm of the state: Euclidean sum over the four components."""
    return float(_state_norms(np.stack([f.coefficients for f in s.fields()]), s.grid, sigma))


def _state_norms(coefficients: np.ndarray, grid: TorusGrid, sigma: float) -> np.ndarray:
    """:func:`state_norm` of each stacked state of ``coefficients``, shape (..., 4, N, N/2 + 1).

    The fields' norms come from one weighted reduction,
    :func:`spectral._sobolev_norms`; each state's four are then summed in
    Python floats, in the order and with the ``** 2`` of
    :func:`state_norm`, whose bytes every norm keeps.
    """
    fields = spectral._sobolev_norms(coefficients, grid, sigma)
    norms = [math.sqrt(sum(x**2 for x in row)) for row in fields.reshape(-1, 4).tolist()]
    return np.array(norms).reshape(fields.shape[:-1])


def state_difference(a: State, b: State) -> State:
    """Componentwise difference a - b (no admissibility requirement)."""
    return State(a.rho - b.rho, a.u - b.u, a.v - b.v, a.h - b.h)


def state_to_hat(s: State) -> np.ndarray:
    """The ``coefficients`` of (rho, u, v, h) stacked, shape (4, N, N/2 + 1)."""
    return _rfft(np.stack([f.samples for f in s.fields()]), (-2, -1), scale=True)


def state_from_hat(state_hat: np.ndarray, grid: TorusGrid) -> State:
    """Inverse of :func:`state_to_hat`, zero-padding fewer columns; the fields own its planes."""
    padded = np.zeros((4, grid.size, grid.size // 2 + 1), dtype=np.complex128)
    padded[..., : state_hat.shape[-1]] = state_hat
    return _adopt_state(_irfft(padded, (-2, -1), grid.size), grid)


def _adopt_state(samples: np.ndarray, grid: TorusGrid) -> State:
    """The state whose fields own the four planes of ``samples``, a fresh (4, N, N) array."""
    return State(*(Field._adopt(grid, samples=plane) for plane in samples))


#: Rows of one block of a split grid's row-local work (see :class:`_RhsKernel`).
_BLOCK_ROWS = 64


@cache
def _pool() -> ThreadPoolExecutor:
    """The workers of the row blocks, one per core, started on first use."""
    return ThreadPoolExecutor(spectral._CORES, thread_name_prefix="torusgas-rows")


def _by_rows(fn, arrays: tuple, blocks: tuple[slice, ...] | None, *args) -> None:
    """``fn(*arrays, *args)`` on whole arrays, or on each row block of ``blocks``.

    With ``blocks`` None this is one plain call.  Otherwise the pool calls
    ``fn`` once per block ``r``, with ``a[..., r, :]`` of each array,
    each call in a copy of the caller's context of its own (a context runs
    on one thread at a time), so the caller's ``np.errstate`` holds in the
    workers.  Once every call has ended, the first block's exception, if
    any, is raised.
    """
    if blocks is None:
        return fn(*arrays, *args)
    futures = [
        _pool().submit(contextvars.copy_context().run, fn, *(a[..., r, :] for a in arrays), *args)
        for r in blocks
    ]
    wait(futures)
    for future in futures:
        future.result()


def _fill_band(band: np.ndarray, state: np.ndarray, ikx: np.ndarray, iky: np.ndarray) -> None:
    """Write U, ikx U and iky U into the three groups of four planes of each run of ``band``."""
    band[:, :4] = state
    np.multiply(ikx, state, out=band[:, 4:8])
    np.multiply(iky, state, out=band[:, 8:])


def _products(planes: np.ndarray, g: GasParams) -> None:
    """Write -(A(U) U_x + B(U) U_y) over the U_x planes of (U, U_x, U_y) samples.

    ``planes`` is field-major, (12, runs, rows, N): each field's plane is one contiguous array.
    """
    rho, u, v, h, rho_x, u_x, v_x, h_x, rho_y, u_y, v_y, h_y = planes
    div = u_x + v_y
    h_over_rho = h / rho
    # Component i overwrites the x derivative of field i; component 1 reads
    # rho_x and h_x, so it goes first.
    np.negative(u * u_x + v * u_y + h_x + h_over_rho * rho_x, out=u_x)
    np.negative(u * rho_x + v * rho_y + rho * div, out=rho_x)
    np.negative(u * v_x + v * v_y + h_y + h_over_rho * rho_y, out=v_x)
    np.negative(u * h_x + v * h_y + (g.gamma - 1.0) * h * div, out=h_x)


class _RhsKernel:
    """Scratch arrays of right-hand-side evaluations of a batch of runs.

    ``grids`` is one grid, or one grid per run, all of one size, each run
    with its own derivative tables ``ikx`` and ``iky``.  Every array has a
    leading run axis.  A call takes the states of the first m runs, shape
    (m, 4, N, M), or one state without the run axis, and gives the first
    ``columns`` <= M columns of their right-hand sides; ``columns`` must
    cover every nonzero column of a state, as the dealias band's N/3 + 1
    does of a dealiased one, whose right-hand side is zero beyond it.

    Three passes give the bytes of ``irfft2`` and ``rfft2``: the inverse
    column transform of ``band`` (U, U_x and U_y, twelve fields a run);
    :meth:`_rows` (row inverse, region check, products, row transform
    scaled by 1/N^2 where 2-D ``r2c`` scales, on one thread); the forward
    column transform and the dealias mask.  :meth:`_rows` works in a
    scratch pair: spectra (runs, 12, rows, N/2 + 1), zero beyond
    ``columns``; field-major sample planes (12, runs, rows, N); and the
    products' row transforms, a kept array on one block and the spectra's
    first four planes on a row block.  The grid alone sets the layout, by the
    package's one row block rule.  Below 4 N^2 = ``spectral._PARALLEL_SIZE``
    (N < 182, and every cell) one block holds all rows: the passes run as
    plain calls on the kept ``pair``, whose spectra hold ``band``, with one
    region check.  From there on, :func:`_by_rows` runs the row pass, band
    fill, mask and RK4 stages on the 64-row ``blocks``; a row pass takes a
    pair from the queue ``scratch`` of min(``spectral._CORES``, blocks)
    pairs and writes its block's minima of rho and h into its first row of
    ``lows``, whose other rows stay infinite, for the caller's check.  The
    core count sets only the width of :func:`_pool`.  Between calls
    ``spare`` views the first four planes of ``band``, of the states'
    shape, for the caller.
    """

    def __init__(self, grids: TorusGrid | Sequence[TorusGrid], columns: int) -> None:
        grids = (grids,) if isinstance(grids, TorusGrid) else tuple(grids)
        n, runs = grids[0].size, len(grids)
        self.size, self.columns = n, columns
        self.ikx = np.stack([grid.ikx for grid in grids])[:, None]
        self.iky = np.stack([grid.iky[:, :columns] for grid in grids])[:, None]
        self.mask = grids[0].dealias_mask[:, :columns]
        self.scale = float(1 / np.longdouble(n * n))
        self.blocks, rows, pairs = None, n, 1
        if 4 * n * n >= spectral._PARALLEL_SIZE:
            self.blocks = tuple(slice(r, r + _BLOCK_ROWS) for r in range(0, n, _BLOCK_ROWS))
            rows, pairs = _BLOCK_ROWS, min(spectral._CORES, len(self.blocks))
        self.scratch = queue.SimpleQueue()
        for _ in range(pairs):
            spectra = np.zeros((runs, 12, rows, n // 2 + 1), complex)
            samples = np.empty((12, runs, rows, n))  # field-major
            # a row block's products go over its spectra's first four planes
            products = spectra[:, :4] if self.blocks else np.empty_like(spectra[:, :4])
            pair = spectra, samples, products
            self.scratch.put(pair)
        if self.blocks is None:
            self.pair, self.lows, self.band = pair, None, pair[0][..., :columns]
        else:
            self.pair, self.lows = None, np.full((runs, 2, n, 1), np.inf)
            self.band = np.empty((runs, 12, n, columns), complex)
        self.spare = self.band[:, :4]

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
        if state_hat.ndim == 3:  # one state
            return self(state_hat[None], g, background, None if out is None else out[None])[0]
        m, blocks = len(state_hat), self.blocks
        band, ikx, iky = self.band[:m], self.ikx[:m], self.iky[:m]
        state = state_hat[..., : self.columns]
        out = np.empty((m, 4, self.size, self.columns), complex) if out is None else out
        if background is not None:
            background = np.asarray(background, float)[:, None, None, None]
        if blocks is None:  # one block: the passes as plain calls on the kept pair
            _fill_band(band, state, ikx, iky)
            _fft(band, -2, forward=False, out=band)
            self._rows(self.pair, out, None, g, background)
            _fft(out, -2, forward=True, out=out)
            return np.multiply(out, self.mask, out=out)  # the dealias mask
        lows = self.lows[:m]
        _by_rows(_fill_band, (band, state, ikx), blocks, iky)
        _fft(band, -2, forward=False, out=band)
        try:
            _by_rows(self._block_rows, (band, out, lows), blocks, g, background)
        finally:  # a region failure outranks a block's error: the check comes first
            _require_region(lows)
        _fft(out, -2, forward=True, out=out)
        _by_rows(np.multiply, (out, self.mask, out), blocks)  # the dealias mask, in place
        return out

    def _block_rows(self, band, out, lows, g: GasParams, background) -> None:
        """:meth:`_rows` of one row block, in a pair taken from ``scratch`` for the call."""
        pair = self.scratch.get()
        try:
            spectra = pair[0][: len(band), :, : band.shape[-2]]
            spectra[..., : self.columns] = band
            spectra[:, :4, :, self.columns :] = 0.0  # the tail the last products wrote
            self._rows(pair, out, lows, g, background)
        finally:
            self.scratch.put(pair)

    def _rows(self, pair, out, lows, g: GasParams, background) -> None:
        """The row pass from the spectra of ``pair`` into the rows of ``out``.

        With ``lows`` None (one block) the region check raises here.  A row
        block writes its minima into ``lows`` and skips its products under
        the floor, for the caller's check of all blocks.
        """
        m, rows = len(out), out.shape[-2]
        spectra, products = pair[0][:m, :, :rows], pair[2][:m, :, :rows]
        planes = pair[1][:, :m, :rows]
        _irfft(spectra, (-1,), self.size, out=planes.swapaxes(0, 1), threads=1)
        if background is not None:
            planes[:4] += background
        rho_h = planes[0:4:3]
        if lows is None:  # one block: the region check of every run
            _require_region(rho_h.swapaxes(0, 1))
        else:
            np.minimum.reduce(rho_h, axis=(-2, -1), out=lows[:, :, 0, 0].T)
            if not lows.min() > REGION_FLOOR:
                return
        _products(planes, g)
        _rfft(planes[4:8].swapaxes(0, 1), (-1,), scale=False, out=products, threads=1)
        np.multiply(products[..., : self.columns].view(float), self.scale, out=out.view(float))


def rhs_hat(
    state_hat: np.ndarray, grid: TorusGrid, g: GasParams, background: tuple | None = None
) -> np.ndarray:
    """Right-hand side -(A(U) U_x + B(U) U_y) of a stacked spectral state.

    ``state_hat`` holds coefficients in the convention of
    :func:`state_to_hat`, and so does the result; ``state_hat`` is not
    modified.  Derivatives are spectral; products are formed pointwise in
    physical space and the assembled components are dealiased once.  The
    transforms run as :class:`_RhsKernel` runs them, with the bytes of
    ``irfft2`` and ``rfft2`` with ``norm="forward"``.  Raises
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
    coefficients = _divergence_hat(s.u.coefficients, s.v.coefficients, s.grid)
    return Field._adopt(s.grid, coefficients=coefficients)


def _divergence_hat(u_hat: np.ndarray, v_hat: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Coefficients of u_x + v_y from those of u and v, one field or a stack of them."""
    return u_hat * grid.ikx + v_hat * grid.iky


def max_wave_speed(s: State, g: GasParams) -> float:
    """Largest characteristic speed max(|u| + c, |v| + c) with c = sqrt(gamma h)."""
    s.require_admissible()
    c = np.sqrt(g.gamma * s.h.samples)
    speed_x = np.abs(s.u.samples) + c
    speed_y = np.abs(s.v.samples) + c
    return float(max(speed_x.max(), speed_y.max()))
