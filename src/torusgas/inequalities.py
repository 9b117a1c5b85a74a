"""Empirical harness for the analytic toolbox inequalities.

The estimates exercised here assert the existence of constants: the
commutator bound ||[L^sigma, f] u||_L2 <= C ||f||_k ||u||_{sigma-1}, the
reciprocal bound ||f/rho||_sigma <= C (1 + ||rho~||_s^sigma) ||f||_sigma,
the Sobolev algebra property, and the interpolation inequality
||u||_s <= ||u||_sigma^alpha ||u||_tau^beta.  A finite run cannot verify
"there exists C", so each check is restated as a computable ratio whose
finiteness, refinement stability, and exact equality cases are testable;
the interpolation check scores ||u||_sigma^alpha ||u||_tau^beta / ||u||_s,
which is at least 1.  :data:`RATIO_CHECKS` is the one table of the four
ratio checks: how each draws its member factors and the values of its
orders at s.  :func:`family_ratios` is the one loop that sweeps a check
over its seeded family.

A family member's modes (wavenumber, amplitude, phase) are drawn once
from its seed straight into grid-free half-plane rows (:class:`_HalfPlane`:
signed kx, ky >= 0, coefficient value).  One scatter puts the rows on a
grid and checks that the modes fit that grid's dealias band.  So
:func:`family_ratios` scores every member on all its grids from one draw,
and the refined sweep sees the same functions.

Products of band-limited fields are formed on a doubled grid where they
are alias-free, then restricted to the representable band of the original
grid; for the seeded families used by the sweeps the restriction drops
nothing, so the ratios are resolution-independent up to round-off.  The
lift transforms along axis 0 only the columns the factor fills
(:func:`spectral._band_irfft2`), the restriction only the columns it
keeps.  The commutator lifts its common factor once for both products.
The doubled-grid arrays of a product are kept per thread and grid
(:class:`_Products`), so a sweep does not allocate them afresh on every
call; each pool worker has its own.  Only the restricted coefficients are
new arrays, and the product's field owns them without a copy.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import spectral
from .spectral import Field, TorusGrid, lambda_pow, sobolev_norm

__all__ = [
    "RandomFieldSpec",
    "random_field",
    "product_exact",
    "commutator_ratio",
    "reciprocal_ratio",
    "algebra_ratio",
    "interpolation_ratio",
    "family_seed",
    "RatioCheck",
    "RATIO_CHECKS",
    "family_ratios",
]


@dataclass(frozen=True)
class RandomFieldSpec:
    """Seeded zero-mean trig polynomial with power-law spectral decay."""

    max_mode: int
    spectrum_decay: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (spectral._is_integer(self.max_mode) and self.max_mode >= 1):
            raise ValueError(f"max_mode must be a positive integer, got {self.max_mode!r}")
        decay = self.spectrum_decay
        if not spectral._is_real(decay):
            raise TypeError(f"spectrum_decay must be a real number, got {decay!r}")
        if decay < 0.0:
            raise ValueError("spectrum_decay must be nonnegative")
        if not spectral._is_integer(self.seed):
            raise TypeError(f"seed must be an integer, got {self.seed!r}")


@lru_cache(maxsize=16)
def _mode_table(max_mode: int, decay: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kx, ky, weight) of the half-plane modes up to max_mode, in draw order."""
    m = max_mode
    rows = [
        (kx, ky)
        for kx in range(0, m + 1)
        for ky in (range(1, m + 1) if kx == 0 else range(-m, m + 1))
    ]
    weights = [(1.0 + kx * kx + ky * ky) ** (-0.5 * decay) for kx, ky in rows]
    table = (*np.array(rows).T, np.array(weights))
    for column in table:  # shared by every draw of the cache key
        column.setflags(write=False)
    return table


class _HalfPlane(NamedTuple):
    """Half-plane bins (signed kx, ky >= 0) and values of the modes of a real trig polynomial.

    A mode with ky < 0 is stored as its conjugate partner, and a mode in the
    column ky = 0 also fills the bin of its partner at -kx.  The rows hold
    no grid: they fit every grid whose dealias band holds max_mode.
    """

    max_mode: int
    kx: np.ndarray
    ky: np.ndarray
    value: np.ndarray


def _half_plane(max_mode: int, kx, ky, amplitude, phase) -> _HalfPlane:
    """The half-plane rows of the modes amplitude cos(kx x + ky y + phase), as columns."""
    half = 0.5 * amplitude * np.exp(1j * phase)
    flip = ky < 0
    half = np.where(flip, np.conj(half), half)
    kx = np.where(flip, -kx, kx)
    ky = np.abs(ky)
    axis = ky == 0
    return _HalfPlane(
        max_mode,
        np.concatenate([kx, -kx[axis]]),
        np.concatenate([ky, ky[axis]]),
        np.concatenate([half, np.conj(half[axis])]),
    )


def _random_rows(spec: RandomFieldSpec, l1_norm: float | None = None) -> _HalfPlane:
    """Draw the rows of a spec: one normal amplitude, then one phase, per mode.

    With ``l1_norm`` the amplitudes are scaled to that l1 norm (all zero stays zero).
    """
    kx, ky, weight = _mode_table(spec.max_mode, spec.spectrum_decay)
    rng = np.random.default_rng(spec.seed)
    # 2 pi * random() is the value uniform(0, 2 pi) draws from the same state
    draws = np.array([draw() for draw in (rng.standard_normal, rng.random) * kx.size])
    amplitude = draws[0::2] * weight
    if l1_norm is not None:
        total = sum(abs(a) for a in amplitude.tolist())
        amplitude = amplitude * (l1_norm / total if total > 0.0 else 0.0)
    return _half_plane(spec.max_mode, kx, ky, amplitude, 2.0 * np.pi * draws[1::2])


def _require_band(grid: TorusGrid, max_mode: int) -> None:
    """Reject a grid whose dealias band cannot hold modes up to max_mode."""
    if max_mode > grid.dealias_cutoff:
        raise ValueError(
            f"max_mode {max_mode} exceeds the dealias band "
            f"{grid.dealias_cutoff} of an N={grid.size} grid"
        )


def _member(grid: TorusGrid, rows: _HalfPlane) -> Field:
    """The field of the rows on a grid, one scatter into disjoint bins."""
    _require_band(grid, rows.max_mode)
    n = grid.size
    c = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    c[rows.kx % n, rows.ky] += rows.value
    return Field._adopt(grid, coefficients=c)


def random_field(grid: TorusGrid, spec: RandomFieldSpec) -> Field:
    """Seeded random trig polynomial on the grid, zero mean."""
    return _member(grid, _random_rows(spec))


class _Products:
    """Kept arrays of the doubled-grid products on one grid, for one thread.

    ``spectra`` is the padded half-plane that :func:`_lift` inverts; only
    its first ``columns`` columns may be nonzero.  ``first`` holds the
    lifted left factor of a product and ``second`` the right one, which
    the product overwrites.  ``half`` and ``rows`` hold the restriction's
    half-spectrum and its kept columns.
    """

    def __init__(self, grid: TorusGrid) -> None:
        n = grid.size
        self.spectra = np.zeros((2 * n, n + 1), dtype=np.complex128)
        self.columns = 0
        self.first = np.empty((2 * n, 2 * n))
        self.second = np.empty((2 * n, 2 * n))
        self.half = np.empty((2 * n, n + 1), dtype=np.complex128)
        self.rows = np.empty((2 * n, n // 2), dtype=np.complex128)


#: Grids per thread whose product arrays are kept; a sweep alternates two.
_KEPT_GRIDS = 2
_kept = threading.local()


def _products(grid: TorusGrid) -> _Products:
    """The calling thread's kept product arrays for ``grid``, built on first use.

    A thread keeps those of its last _KEPT_GRIDS grids.
    """
    kept = getattr(_kept, "products", None)
    if kept is None:
        kept = _kept.products = {}
    products = kept.get(grid)
    if products is None:
        if len(kept) == _KEPT_GRIDS:
            del kept[next(iter(kept))]
        products = kept[grid] = _Products(grid)
    return products


def _lift(f: Field, out: np.ndarray | None = None) -> np.ndarray:
    """Samples of a field on the doubled grid, by spectral zero-padding.

    The padded half-plane's columns up to the last nonzero one (a family
    member fills 9 of the N/2 + 1) go through :func:`spectral._band_irfft2`
    into zero columns of the exact input length N + 1, so the values are
    those of ``irfft2`` of the padded half-plane with ``norm="forward"``.
    The padded half-plane is the calling thread's kept ``spectra`` of the
    grid, and the samples are written into ``out``, by default its kept
    ``first``; they hold until the next lift into the same array.
    """
    products = _products(f.grid)
    c = f.coefficients
    n = c.shape[0]
    filled = np.flatnonzero(c.any(axis=0))
    m = filled[-1] + 1 if filled.size else 0
    half = n // 2 + 1  # rows kx = 0..N/2; the other N/2 - 1 are negative
    padded = products.spectra
    padded[:, m : products.columns] = 0.0  # the last lift's columns past m
    products.columns = m
    band = padded[:, :m]
    band[:half] = c[:half, :m]
    band[half : n + half] = 0.0
    band[n + half :] = c[half:, :m]
    if out is None:
        out = products.first
    return spectral._band_irfft2(band, padded, 2 * n, out=out)


def _restrict(samples: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Half-plane coefficients on ``grid`` of doubled-grid samples, |k| <= N/2 - 1.

    Only the kept columns are transformed along axis 0.  They are scaled by
    1/(2N)^2 between the two passes, where rfft2 scales, so the values equal
    the kept bins of rfft2.  The kept rows k = 0..N/2 - 1 and -(N/2 - 1)..-1
    are two slices of the spectrum.  The half-spectrum and the kept columns
    are the calling thread's kept ``half`` and ``rows`` of the grid; the
    result is a new array.
    """
    products = _products(grid)
    n = grid.size
    limit = n // 2 - 1
    half = spectral._rfft(samples, (1,), scale=False, out=products.half)
    rows = np.multiply(half[:, : limit + 1], 1.0 / (4 * n * n), out=products.rows)
    spectrum = spectral._fft(rows, 0, forward=True, out=rows)
    c = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    c[: limit + 1, : limit + 1] = spectrum[: limit + 1]
    c[n - limit :, : limit + 1] = spectrum[2 * n - limit :]
    return c


def product_exact(f: Field, g: Field) -> Field:
    """Pointwise product computed alias-free on a doubled grid, restricted.

    Both inputs must live on the same grid.  The result keeps the modes
    representable on that grid; content beyond |k| = N/2 - 1 (present only
    when the factors fill more than half the band) is truncated.
    """
    spectral._require_same_grid(f, g)
    return _times(_lift(f), g)


def _times(f_fine: np.ndarray, g: Field) -> Field:
    """The product of a lifted factor and ``g``, restricted to ``g``'s grid.

    ``g`` is lifted into the thread's kept ``second``, which takes the product.
    """
    g_fine = _lift(g, _products(g.grid).second)
    np.multiply(f_fine, g_fine, out=g_fine)
    return Field._adopt(g.grid, coefficients=_restrict(g_fine, g.grid))


def _require_band_limited(f: Field, name: str) -> None:
    """Reject a field whose L2 norm beyond the dealias band exceeds 1e-12 of its total."""
    c = f.coefficients
    power = (c.real**2 + c.imag**2) * f.grid.column_weights
    sums = [np.sum(power[~f.grid.dealias_mask]), np.sum(power)]
    leak, total = 2.0 * np.pi * np.sqrt(sums)
    if leak > 1e-12 * (total + 1e-300):
        raise ValueError(
            f"{name} must be band-limited to the dealias band; "
            f"found relative leakage {leak / (total + 1e-300):.2e}"
        )


def commutator_ratio(f: Field, u: Field, sigma: float, k: float) -> float:
    """Commutator ratio ||L^sigma(f u) - f L^sigma u||_L2 / (||f||_k ||u||_{sigma-1})."""
    if not k > 2.0:
        raise ValueError(f"k must exceed 2, got {k}")
    if not 1.0 < sigma <= k:
        raise ValueError(f"sigma must lie in (1, k] = (1, {k}], got {sigma}")
    spectral._require_same_grid(f, u)
    _require_band_limited(f, "f")
    _require_band_limited(u, "u")
    f_fine = _lift(f)  # shared by both products
    left = lambda_pow(_times(f_fine, u), sigma)
    right = _times(f_fine, lambda_pow(u, sigma))
    numerator = sobolev_norm(left - right, 0.0)
    denominator = sobolev_norm(f, k) * sobolev_norm(u, sigma - 1.0)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def reciprocal_ratio(f: Field, rho: Field, sigma: float, s: float) -> float:
    """Quotient-norm ratio ||f/rho||_sigma / ((1 + ||rho~||_s^sigma) ||f||_sigma).

    rho~ is rho with its mean removed.  The division happens pointwise in
    physical space and the quotient is dealiased.
    """
    if not s > 1.0:
        raise ValueError(f"s must exceed 1, got {s}")
    if not sigma <= s:
        raise ValueError(f"sigma must not exceed s, got sigma={sigma}, s={s}")
    spectral._require_same_grid(f, rho)
    low = float(np.min(rho.samples))
    if not low > 0.0:
        raise ValueError(f"rho must be strictly positive, found min {low:.6e}")
    quotient = spectral.dealias(Field._adopt(f.grid, samples=f.samples / rho.samples))
    numerator = sobolev_norm(quotient, sigma)
    fluctuation = rho.coefficients.copy()
    fluctuation[0, 0] = 0.0
    rho_tilde_norm = sobolev_norm(Field._adopt(rho.grid, coefficients=fluctuation), s)
    denominator = (1.0 + rho_tilde_norm**sigma) * sobolev_norm(f, sigma)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def algebra_ratio(f: Field, g: Field, sigma: float) -> float:
    """Product-norm ratio ||f g||_sigma / (||f||_sigma ||g||_sigma)."""
    if not sigma > 1.0:
        raise ValueError(f"sigma must exceed 1, got {sigma}")
    numerator = sobolev_norm(product_exact(f, g), sigma)
    denominator = sobolev_norm(f, sigma) * sobolev_norm(g, sigma)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def interpolation_ratio(u: Field, sigma: float, s: float, tau: float) -> float:
    """Bound-to-norm ratio (gap + ||u||_s) / ||u||_s of the interpolation bound.

    The bound is ||u||_sigma^alpha ||u||_tau^beta with
    alpha = (tau - s)/(tau - sigma) and beta = (s - sigma)/(tau - sigma),
    and the gap is the bound minus ||u||_s.  The ratio is at least 1 up to
    round-off; 1 for u = 0 and for single-mode spectra.
    """
    if not sigma < s < tau:
        raise ValueError(
            f"orders must satisfy sigma < s < tau, got {sigma}, {s}, {tau}"
        )
    alpha = (tau - s) / (tau - sigma)
    beta = (s - sigma) / (tau - sigma)
    norm_sigma = sobolev_norm(u, sigma)
    norm_tau = sobolev_norm(u, tau)
    norm_s = sobolev_norm(u, s)
    gap = norm_sigma**alpha * norm_tau**beta - norm_s
    return (gap + norm_s) / norm_s if norm_s > 0.0 else 1.0


# ---------------------------------------------------------------------------
# Seeded family sweeps
# ---------------------------------------------------------------------------

_CHECK_IDS = {"commutator": 1, "reciprocal": 2, "algebra": 3, "interpolation": 4}

#: Family defaults: top mode low enough that products stay inside the
#: representable band of an N=64 grid, making the sweeps alias-free there.
FAMILY_MAX_MODE = 8
FAMILY_DECAY = 2.0
RHO_MAX_MODE = 3
RHO_FLUCTUATION = 0.45
#: Every PROBE_PERIOD-th interpolation member is a single-mode probe.
PROBE_PERIOD = 25


def family_seed(base_seed: int, check: str, index: int) -> int:
    """Deterministic per-member seed derived from the base seed."""
    sequence = np.random.SeedSequence([base_seed, _CHECK_IDS[check], index])
    return int(sequence.generate_state(1)[0])


def _member_rows(seed: int) -> _HalfPlane:
    """The rows of a seeded random family field."""
    return _random_rows(RandomFieldSpec(FAMILY_MAX_MODE, FAMILY_DECAY, seed))


def _density_rows(seed: int) -> _HalfPlane:
    """Rows of the fluctuation of a bounded density, of l1 norm RHO_FLUCTUATION.

    The l1 norm of the mode amplitudes bounds the sup norm of the
    fluctuation at every grid size.
    """
    return _random_rows(RandomFieldSpec(RHO_MAX_MODE, FAMILY_DECAY, seed), RHO_FLUCTUATION)


def _bounded_density(grid: TorusGrid, rows: _HalfPlane) -> Field:
    """Density 1 + fluctuation with min value >= 1 - RHO_FLUCTUATION."""
    return Field._adopt(grid, samples=1.0 + _member(grid, rows).samples)


def _pair(
    second: Callable[[int], _HalfPlane],
) -> Callable[[int, str, int], tuple[_HalfPlane, ...]]:
    """Draw of member i: a family field of seed 2 i, then ``second`` of seed 2 i + 1."""
    return lambda base_seed, name, i: (
        _member_rows(family_seed(base_seed, name, 2 * i)),
        second(family_seed(base_seed, name, 2 * i + 1)),
    )


def _interpolation_member(base_seed: int, name: str, i: int) -> tuple[_HalfPlane]:
    """Rows of one field: a single-mode probe every PROBE_PERIOD-th member, else two modes.

    A member's wavenumbers are distinct and its amplitudes nonzero; a
    single-mode probe is an exact equality case of the inequality.
    """
    rng = np.random.default_rng(family_seed(base_seed, name, i))
    n_modes = 1 if i % PROBE_PERIOD == 0 else 2
    modes = []
    drawn: set[tuple[int, int]] = set()
    while len(modes) < n_modes:
        kx = int(rng.integers(0, FAMILY_MAX_MODE + 1))
        ky = int(rng.integers(1 if kx == 0 else -FAMILY_MAX_MODE, FAMILY_MAX_MODE + 1))
        if (kx, ky) in drawn:
            continue
        drawn.add((kx, ky))
        amplitude = float(rng.standard_normal())
        if amplitude == 0.0:
            amplitude = 1.0
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        modes.append((kx, ky, amplitude, phase))
    return (_half_plane(FAMILY_MAX_MODE, *map(np.array, zip(*modes))),)


class RatioCheck(NamedTuple):
    """One ratio check of the seeded family sweeps.

    ``draw(base_seed, name, i)`` draws the grid-free half-plane rows of
    member i's factors, and ``build`` holds one builder per factor that
    puts its rows on a grid.  ``orders(s)`` gives the values of the orders
    that ``ratio`` takes after sigma; ``ratio(*factors, sigma, *orders(s))``
    scores a member.
    """

    name: str
    ratio: Callable[..., float]
    draw: Callable[[int, str, int], tuple[_HalfPlane, ...]]
    build: tuple[Callable[[TorusGrid, _HalfPlane], Field], ...]
    orders: Callable[[float], tuple[float, ...]]


#: The ratio checks, in report order.
RATIO_CHECKS = (
    # the commutator's k is s
    RatioCheck(
        "commutator", commutator_ratio, _pair(_member_rows), (_member, _member),
        lambda s: (s,),
    ),
    RatioCheck(
        "reciprocal", reciprocal_ratio, _pair(_density_rows), (_member, _bounded_density),
        lambda s: (s,),
    ),
    RatioCheck("algebra", algebra_ratio, _pair(_member_rows), (_member, _member), lambda s: ()),
    RatioCheck(
        "interpolation", interpolation_ratio, _interpolation_member, (_member,),
        lambda s: (s, float(math.floor(s) + 1)),
    ),
)


def family_ratios(
    check: RatioCheck,
    grids: Sequence[TorusGrid],
    n_members: int,
    base_seed: int,
    sigma: float,
    s: float,
) -> np.ndarray:
    """Ratios of the first ``n_members`` members of a check's family, one row per grid.

    The ratio takes sigma and ``check.orders(s)``.  Each member's rows are
    drawn once and put on every grid, so row j equals a sweep on
    ``grids[j]`` alone.
    """
    orders = check.orders(s)
    ratios = np.empty((len(grids), n_members))
    for i in range(n_members):
        members = check.draw(base_seed, check.name, i)
        for j, grid in enumerate(grids):
            factors = (build(grid, rows) for build, rows in zip(check.build, members))
            ratios[j, i] = check.ratio(*factors, sigma, *orders)
    return ratios
