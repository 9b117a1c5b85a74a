"""Fourier calculus on the 2pi-periodic square torus.

Provides the uniform grid with its spectral tables, real scalar fields
with cached spectral coefficients, exact differentiation of band-limited
fields, the fractional smoothing operator (1 - Laplacian)^(sigma/2),
Sobolev norms of fractional order, two-thirds-rule dealiasing, and
trigonometric synthesis.

Conventions
-----------
A grid covers one square cell of side 2*pi/cells (``cells = 1``: the whole
torus); a field on it stands for its periodic extension to the torus.
Samples are stored as ``f[i, j] = f(x_i, y_j)`` with
``x_i = (2*pi/cells)*i/N``.  Spectral coefficients use the amplitude
normalization

    f(x, y) = sum_k c_k exp(i cells (kx*x + ky*y)),

stored on the half-plane of the real FFT: ``c = rfft2(samples) / N**2``
has shape (N, N/2 + 1), rows in DFT order of kx and columns ky = 0..N/2.
So c_k is the torus coefficient at the physical wavenumber cells*k.  The
omitted coefficients follow from ``c[-k] = conj(c[k])``, so sums over the
full plane weight the interior columns 0 < ky < N/2 by 2 (the grid's
``column_weights``).  The Sobolev norm uses the un-normalized 2pi-periodic
measure of the torus, so the constant field 1 has L2 norm 2*pi.

Transforms
----------
One coefficient convention holds everywhere: every 2-D forward transform
divides by N**2 (``norm="forward"``) and every inverse is unscaled, so
``Field.coefficients``, the solver's stacked state and the right-hand
side's spectra are the same numbers.
Every transform of the package goes through :func:`_rfft`, :func:`_irfft`
and :func:`_fft`, which call the pocketfft kernel that ``scipy.fft``'s
public functions end in with the arguments those functions would pass:
the same axes and scipy's normalization codes (0: none, 2: divide by the
product of the transformed lengths).  The values are those of the public
functions bit for bit.  The calls skip the public functions' Python
dispatch and argument checks, about 13 us a call on a 2-core Xeon: twice
the kernel's own time on the 8x8 cells of the nonuniform runs, which make
thousands of such calls.  The kernel is the extension module
``scipy/fft/_pocketfft/pypocketfft``, loaded from its file by
:func:`_load_kernel` without importing ``scipy`` or ``scipy.fft``: their
package imports take about 0.4 s on a 2-core Xeon and load nothing the
transforms use.  The kernel module is private to scipy.  The adapter is
verified on scipy 1.17.1, and ``tests/test_spectral.py`` compares the
bytes of every call shape with the public functions, so an upgrade that
moves the file or changes the kernel's arguments fails there.  A
transform whose input has at least 2**17 elements runs on every core the
process may use, any other on one thread; the values do not depend on the
count.  Two threads pay only on large inputs: on a 2-core Xeon they make
the solver's right-hand side (``euler._RhsKernel``) of a state at N = 512
about 45% faster and at N = 256 about 15% faster (medians of 5 alternating
runs; the full-width kernel gained nothing while the other core was busy),
and every smaller one slower, by up to 2.5x on the 8x8 cells.  The
solver's row-local work splits into row blocks from the same element
count on, whatever the core count, by the rule that ``euler._RhsKernel``
states.  ``Field.samples`` is one plain inverse transform; the
doubled-grid lift runs :func:`_band_irfft2`, pruned to its filled
columns, with the values of ``irfft2`` up to the sign of an exact zero.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import mmap
import numbers
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TorusGrid",
    "Field",
    "make_grid",
    "synthesize",
    "partial_x",
    "partial_y",
    "lambda_pow",
    "sobolev_norm",
    "dealias",
]


def _load_kernel():
    """Load scipy's pocketfft extension module from its file.

    Neither ``scipy`` nor ``scipy.fft`` is imported, and the module is not
    entered in ``sys.modules``: importing ``scipy.fft`` later loads its own
    module object from the same file.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("torusgas needs scipy, which is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "fft", "_pocketfft")
    spec = importlib.machinery.PathFinder.find_spec("pypocketfft", [directory])
    if spec is None:
        raise ImportError(f"pocketfft kernel pypocketfft not found in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_kernel()

#: Cores the process may run on; transforms of at least _PARALLEL_SIZE
#: elements use them all, and ``euler._pool`` has one worker per core.
if hasattr(os, "sched_getaffinity"):
    _CORES = len(os.sched_getaffinity(0))
else:
    _CORES = os.cpu_count() or 1
_PARALLEL_SIZE = 2**17


def _threads(size: int) -> int:
    """Kernel threads for a transform of ``size`` elements: _CORES for a large input, else 1."""
    return _CORES if size >= _PARALLEL_SIZE else 1


def _rfft(
    x: np.ndarray, axes: tuple[int, ...], *, scale: bool, out=None, threads=None
) -> np.ndarray:
    """``scipy.fft.rfftn(x, axes=axes)`` of real ``x``; ``scale`` is ``norm="forward"``.

    With ``out`` (the result's shape, complex, not overlapping ``x``) the
    values are written there.  ``threads`` overrides the thread rule.
    """
    return _pocketfft.r2c(x, axes, True, 2 if scale else 0, out, threads or _threads(x.size))


def _irfft(
    c: np.ndarray, axes: tuple[int, ...], size: int, *, out=None, threads=None
) -> np.ndarray:
    """``scipy.fft.irfftn(c, axes=axes, norm="forward")``, last axis of length ``size``.

    ``c`` holds size//2 + 1 bins along its last axis; the inverse is
    unscaled.  With ``out`` (the result's shape, real, not overlapping
    ``c``) the values are written there.  ``threads`` overrides the thread rule.
    """
    return _pocketfft.c2r(c, axes, size, False, 0, out, threads or _threads(c.size))


def _fft(
    x: np.ndarray, axis: int, *, forward: bool, out: np.ndarray | None = None
) -> np.ndarray:
    """Unscaled complex DFT along one axis: ``scipy.fft.fft``, or ``ifft`` with ``norm="forward"``.

    With ``out`` (same shape, complex, any strides; ``x`` itself, or not
    overlapping ``x``) the values are written there.
    """
    return _pocketfft.c2c(x, (axis,), forward, 0, out, _threads(x.size))


def _band_irfft2(band: np.ndarray, spectra: np.ndarray, size: int, *, out=None) -> np.ndarray:
    """``irfft2`` with ``norm="forward"`` of ``spectra`` whose first columns are ``band``.

    ``spectra`` is zero beyond ``band``'s m columns along its last axis.
    Pocketfft's 2-D ``c2r`` stages run pruned: the inverse ``c2c`` along
    axis -2 of ``band`` alone, into those columns (in place if ``band`` is
    them), then one ``c2r`` along the last axis, into ``out`` if given.  The
    values are ``irfft2``'s bit for bit, but an exact zero may be +0.0 where
    ``irfft2``'s ``c2c`` of a zero column gives -0.0, at some row counts
    with a large prime factor (4 * 101 rows, the lift at N = 202).
    """
    _fft(band, -2, forward=False, out=spectra[..., : band.shape[-1]])
    return _irfft(spectra, (-1,), size, out=out)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_integer(value) -> bool:
    """The package's integer rule: any :class:`numbers.Integral` but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """The package's real-number rule: any :class:`numbers.Real` but a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N-by-N grid on one square cell of side 2*pi/cells.

    Owns the spectral tables of the half-plane layout (N, N/2 + 1).  The
    grid represents the 2*pi/cells-periodic fields of the torus: bin k holds
    the physical wavenumber cells*k.  Grids are equal when (size, cells) are.

    Attributes
    ----------
    size : int
        Points per axis of the cell; even and at least 4.
    cells : int
        Cells per axis of the torus; a positive integer.
    period : float
        Side length 2*pi/cells of the cell.
    x : ndarray
        Node coordinates ``period*j/size`` for one axis.
    ikx, iky : ndarray
        Derivative multipliers i*cells*kx, shape (N, 1), and i*cells*ky,
        shape (1, N/2 + 1).  The sign-ambiguous bin N/2 is zeroed in both,
        which keeps derivatives real and exact on the synthesis band.
    dealias_mask : ndarray
        Boolean (N, N/2 + 1) table of the modes with max(|kx|, ky) <= N/3.
    one_plus_ksq : ndarray
        The symbol 1 + cells^2 (kx^2 + ky^2), shape (N, N/2 + 1).
    column_weights : ndarray
        Multiplicity (1, 2, ..., 2, 1) of each ky column in the full plane.
    """

    size: int
    cells: int = 1
    x: np.ndarray = field(init=False, repr=False, compare=False)
    ikx: np.ndarray = field(init=False, repr=False, compare=False)
    iky: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    one_plus_ksq: np.ndarray = field(init=False, repr=False, compare=False)
    column_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n, c = self.size, self.cells
        for name, value in (("size", n), ("cells", c)):
            if not _is_integer(value):
                raise TypeError(f"grid {name} must be an integer, got {value!r}")
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {n}")
        if c < 1:
            raise ValueError(f"grid cells must be positive, got {c}")
        k = np.arange(n, dtype=np.int64)
        k[n // 2 + 1 :] -= n  # DFT bin order; the half-way bin is +n/2
        ky = np.arange(n // 2 + 1, dtype=np.float64)
        kx_deriv = c * k.astype(np.float64)
        kx_deriv[n // 2] = 0.0
        ky_deriv = c * ky
        ky_deriv[-1] = 0.0
        cutoff = self.dealias_cutoff
        weights = np.full(n // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        tables = {
            "x": self.period * np.arange(n) / n,
            "ikx": (1j * kx_deriv)[:, None],
            "iky": (1j * ky_deriv)[None, :],
            "dealias_mask": (np.abs(k)[:, None] <= cutoff) & (ky[None, :] <= cutoff),
            "one_plus_ksq": 1.0
            + c**2 * (k.astype(np.float64)[:, None] ** 2 + ky[None, :] ** 2),
            "column_weights": weights,
        }
        for name, table in tables.items():
            object.__setattr__(self, name, _frozen(table))

    @property
    def period(self) -> float:
        """Side length 2*pi/cells of the cell."""
        return 2.0 * np.pi / self.cells

    @property
    def dealias_cutoff(self) -> int:
        """Largest wavenumber magnitude, in cell units, kept by the two-thirds rule."""
        return self.size // 3

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Return broadcastable coordinate arrays X (axis 0) and Y (axis 1)."""
        return self.x[:, None], self.x[None, :]


def _require_band(grid: TorusGrid, max_mode: int, what: str = "max_mode") -> None:
    """Reject modes up to the physical wavenumber max_mode beyond the dealias band of grid."""
    band = grid.dealias_cutoff * grid.cells
    if max_mode > band:
        raise ValueError(
            f"{what} {max_mode} exceeds the dealias band {band} of an N={grid.size} "
            f"grid on a 2*pi/{grid.cells} cell"
        )


@lru_cache(maxsize=None, typed=True)  # typed: make_grid(64.0) must still be rejected
def make_grid(size: int, cells: int = 1) -> TorusGrid:
    """The grid of ``size`` points per axis on a 2*pi/cells cell, built once per pair."""
    return TorusGrid(size, cells)


class Field:
    """Real scalar field on a :class:`TorusGrid`.

    Immutable after construction.  Physical samples, shape (N, N), and
    half-plane spectral coefficients, shape (N, N/2 + 1), are two views of
    the same data; whichever was not supplied is computed lazily and
    cached.  The constructor copies the arrays it is given.
    """

    __slots__ = ("grid", "_samples", "_coefficients")

    def __init__(
        self,
        grid: TorusGrid,
        samples: np.ndarray | None = None,
        coefficients: np.ndarray | None = None,
    ) -> None:
        self._fill(grid, samples, coefficients, copy=True)

    @classmethod
    def _adopt(
        cls,
        grid: TorusGrid,
        *,
        samples: np.ndarray | None = None,
        coefficients: np.ndarray | None = None,
    ) -> "Field":
        """A field that owns arrays the package has just allocated.

        The arrays get the constructor's checks and are frozen in place,
        not copied, so nothing else may hold them: never a kept buffer or a
        caller's array.
        """
        f = cls.__new__(cls)
        f._fill(grid, samples, coefficients, copy=False)
        return f

    def _fill(self, grid: TorusGrid, samples, coefficients, copy: bool) -> None:
        if (samples is None) == (coefficients is None):
            raise ValueError("Field needs exactly one of samples and coefficients")
        n = grid.size
        if samples is not None:
            samples = _validated(samples, np.float64, (n, n), "samples", copy)
        if coefficients is not None:
            coefficients = _validated(
                coefficients, np.complex128, (n, n // 2 + 1), "coefficients", copy
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_samples", samples)
        object.__setattr__(self, "_coefficients", coefficients)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Field is immutable")

    @property
    def samples(self) -> np.ndarray:
        """Physical-space values, shape (N, N), read-only."""
        if self._samples is None:
            real = _irfft(self._coefficients, (0, 1), self.grid.size)
            object.__setattr__(self, "_samples", _frozen(real))
        return self._samples

    @property
    def coefficients(self) -> np.ndarray:
        """Normalized half-plane Fourier coefficients, shape (N, N/2 + 1), read-only."""
        if self._coefficients is None:
            c = _rfft(self._samples, (0, 1), scale=True)
            object.__setattr__(self, "_coefficients", _frozen(c))
        return self._coefficients

    def __add__(self, other: "Field") -> "Field":
        _require_same_grid(self, other)
        if self._prefers_spectral() and other._prefers_spectral():
            return Field._adopt(self.grid, coefficients=self.coefficients + other.coefficients)
        return Field._adopt(self.grid, samples=self.samples + other.samples)

    def __sub__(self, other: "Field") -> "Field":
        _require_same_grid(self, other)
        if self._prefers_spectral() and other._prefers_spectral():
            return Field._adopt(self.grid, coefficients=self.coefficients - other.coefficients)
        return Field._adopt(self.grid, samples=self.samples - other.samples)

    def _prefers_spectral(self) -> bool:
        return self._coefficients is not None and self._samples is None


def _validated(values, dtype, shape: tuple[int, int], what: str, copy: bool) -> np.ndarray:
    values = np.asarray(values, dtype=dtype)
    if values.shape != shape:
        raise ValueError(f"{what} shape {values.shape} does not match grid {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"field {what} must be finite")
    return _frozen(values.copy() if copy else values)


def _require_same_grid(a: Field, b: Field) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def constant_field(grid: TorusGrid, value: float) -> Field:
    """Field with the same value at every node."""
    return Field(grid, samples=np.full((grid.size, grid.size), float(value)))


def synthesize(
    grid: TorusGrid,
    modes: Iterable[Sequence],
) -> Field:
    """Sum of explicit trigonometric modes, sampled pointwise.

    Parameters
    ----------
    grid : TorusGrid
    modes : iterable of (kx, ky, amplitude, kind, phase)
        ``kind`` is ``"cos"`` or ``"sin"``; the mode contributes
        ``amplitude * kind(kx*x + ky*y + phase)``.  Wavenumbers are physical:
        they must be multiples of ``grid.cells`` so the mode is periodic on
        the cell, and satisfy ``|k| <= cells*(N/2 - 1)`` so it is represented
        without aliasing; the sign-ambiguous bin N/2 is rejected.

    Returns
    -------
    Field
        Samples equal to the pointwise sum of the requested modes.
    """
    n, cells = grid.size, grid.cells
    limit = cells * (n // 2 - 1)
    xcol, yrow = grid.meshgrid()
    total = np.zeros((n, n))
    for mode in modes:
        kx, ky, amplitude, kind, phase = mode
        if int(kx) != kx or int(ky) != ky:
            raise ValueError(f"mode wavenumbers must be integers, got {(kx, ky)}")
        if int(kx) % cells or int(ky) % cells:
            raise ValueError(f"mode {(kx, ky)} is not periodic on a 2*pi/{cells} cell")
        if abs(int(kx)) > limit or abs(int(ky)) > limit:
            raise ValueError(
                f"mode {(kx, ky)} is not representable on an N={n} grid "
                f"(|k| must not exceed {limit})"
            )
        theta = int(kx) * xcol + int(ky) * yrow + float(phase)
        if kind == "cos":
            total += float(amplitude) * np.cos(theta)
        elif kind == "sin":
            total += float(amplitude) * np.sin(theta)
        else:
            raise ValueError(f"mode kind must be 'cos' or 'sin', got {kind!r}")
    return Field(grid, samples=total)


def partial_x(f: Field) -> Field:
    """Spectral derivative in x; exact for band-limited fields."""
    return Field._adopt(f.grid, coefficients=f.coefficients * f.grid.ikx)


def partial_y(f: Field) -> Field:
    """Spectral derivative in y; exact for band-limited fields."""
    return Field._adopt(f.grid, coefficients=f.coefficients * f.grid.iky)


def lambda_pow(f: Field, sigma: float) -> Field:
    """Apply the Fourier multiplier (1 + |k|^2)^(sigma/2)."""
    weight = _lambda_weight(f.grid, float(sigma))
    return Field._adopt(f.grid, coefficients=f.coefficients * weight)


@lru_cache(maxsize=64)
def _lambda_weight(grid: TorusGrid, sigma: float) -> np.ndarray:
    """The multiplier (1 + |k|^2)^(sigma/2) of each half-plane bin, built once per (grid, sigma)."""
    return _frozen(grid.one_plus_ksq ** (0.5 * sigma))


def sobolev_norm(f: Field, sigma: float) -> float:
    """Fractional Sobolev norm of order sigma.

    Computed in spectral space as

        2*pi * sqrt( sum_k (1 + |k|^2)^sigma |c_k|^2 ),

    the sum running over the full plane (interior half-plane columns
    counted twice), which equals the L2 norm of (1 - Laplacian)^(sigma/2) f
    under the 2pi-periodic measure.  ``sobolev_norm(f, 0)`` is the plain
    L2 norm.
    """
    return float(_sobolev_norms(f.coefficients, f.grid, sigma))


def _sobolev_norms(c: np.ndarray, grid: TorusGrid, sigma: float) -> np.ndarray:
    """:func:`sobolev_norm` of each half-plane array of ``c``, shape (..., N, N/2 + 1).

    One weighted reduction over the last two axes gives each norm the
    bytes of :func:`sobolev_norm` on its own field.
    """
    weighted = _norm_weight(grid, float(sigma)) * (c.real**2 + c.imag**2)
    return 2.0 * np.pi * np.sqrt(np.sum(weighted, axis=(-2, -1)))


@lru_cache(maxsize=64)
def _norm_weight(grid: TorusGrid, sigma: float) -> np.ndarray:
    """The weight (1 + |k|^2)^sigma of each half-plane bin times its column multiplicity.

    The cached table lives in its own anonymous mapping, not in the malloc
    heap, where a block that lives on after the run that allocated it keeps
    the heap below it from being returned.  error_scaling at T = 0.25 with
    two threads, run as the benchmark's ``error_scaling_short`` through
    ``bench/child.py``, peaked at 89.4-89.8 MiB with mapped tables and at
    90.3-90.8 MiB with heap tables (3 alternating pairs on a 2-core Xeon).
    """
    values = grid.one_plus_ksq**sigma * grid.column_weights
    table = np.frombuffer(mmap.mmap(-1, values.nbytes), dtype=values.dtype)
    table = table.reshape(values.shape)
    table[...] = values
    return _frozen(table)


def dealias(f: Field) -> Field:
    """Zero every coefficient with max(|kx|, |ky|) above floor(N/3)."""
    return Field._adopt(f.grid, coefficients=f.coefficients * f.grid.dealias_mask)
