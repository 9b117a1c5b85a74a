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
ratio checks: how each draws its member factors and which orders it
takes.  :func:`family_ratios` is the one loop that sweeps a check over its
seeded family.

A family member is made in two steps.  Its mode rows (wavenumber,
amplitude, phase) are drawn once from its seed and turned into half-plane
coefficients with signed wavenumbers; these hold no grid and are then
scattered onto each grid, which checks that the modes fit that grid's
dealias band.  So :func:`family_ratios` scores every member on all its
grids from one draw, and the refined sweep sees the same functions.

Products of band-limited fields are formed on a doubled grid where they
are alias-free, then restricted to the representable band of the original
grid; for the seeded families used by the sweeps the restriction drops
nothing, so the ratios are resolution-independent up to round-off.  The
transforms are pruned, and the pruning lives here, where the lift and its
restriction pay for it: the lift transforms along axis 0 only the columns
up to the last one the factor fills and hands irfft its exact input
length, the restriction transforms only the columns it keeps, and both
give the values of the full ``irfft2``/``rfft2`` bit for bit.  The
commutator lifts its common factor once for both products.
"""

from __future__ import annotations

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
    "interpolation_gap",
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
        if self.max_mode < 1:
            raise ValueError("max_mode must be a positive integer")
        if self.spectrum_decay < 0.0:
            raise ValueError("spectrum_decay must be nonnegative")


class _Modes(NamedTuple):
    """Mode rows (kx, ky, amplitude, phase) of a real trig polynomial, as columns.

    Every wavenumber lies in the half-plane box |kx|, |ky| <= max_mode; the
    rows hold no grid, so the same modes denote the same continuum function
    at every resolution.
    """

    max_mode: int
    kx: np.ndarray
    ky: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray


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


def _random_modes(spec: RandomFieldSpec) -> _Modes:
    """Draw the mode rows of a spec: one normal amplitude, then one phase, per mode."""
    kx, ky, weight = _mode_table(spec.max_mode, spec.spectrum_decay)
    rng = np.random.default_rng(spec.seed)
    # 2 pi * random() is the value uniform(0, 2 pi) draws from the same state
    draws = np.array([draw() for draw in (rng.standard_normal, rng.random) * kx.size])
    return _Modes(spec.max_mode, kx, ky, draws[0::2] * weight, 2.0 * np.pi * draws[1::2])


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


def _half_plane(modes: _Modes) -> _HalfPlane:
    """The half-plane rows of the modes, computed once for every grid."""
    half = 0.5 * modes.amplitude * np.exp(1j * modes.phase)
    flip = modes.ky < 0
    half = np.where(flip, np.conj(half), half)
    kx = np.where(flip, -modes.kx, modes.kx)
    ky = np.abs(modes.ky)
    axis = ky == 0
    return _HalfPlane(
        modes.max_mode,
        np.concatenate([kx, -kx[axis]]),
        np.concatenate([ky, ky[axis]]),
        np.concatenate([half, np.conj(half[axis])]),
    )


def _scatter(grid: TorusGrid, rows: _HalfPlane) -> np.ndarray:
    """Half-plane coefficients of the rows on a grid, one scatter into disjoint bins."""
    if rows.max_mode > grid.dealias_cutoff:
        raise ValueError(
            f"max_mode {rows.max_mode} exceeds the dealias band "
            f"{grid.dealias_cutoff} of an N={grid.size} grid"
        )
    n = grid.size
    c = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    c[rows.kx % n, rows.ky] += rows.value
    return c


def random_field(grid: TorusGrid, spec: RandomFieldSpec) -> Field:
    """Seeded random trig polynomial on the grid, zero mean."""
    return Field(grid, coefficients=_scatter(grid, _half_plane(_random_modes(spec))))


def _lift(f: Field) -> np.ndarray:
    """Samples of a field on the doubled grid, by spectral zero-padding.

    Only the columns up to the last nonzero one are transformed along axis
    0 (a family member fills 9 of the N/2 + 1), straight into the zero
    columns that irfft then reads at its exact input length N + 1.  Each
    column transforms on its own, so the values equal ``irfft2`` of the
    padded half-plane with ``norm="forward"`` bit for bit.
    """
    c = f.coefficients
    n = c.shape[0]
    filled = np.flatnonzero(c.any(axis=0))
    m = filled[-1] + 1 if filled.size else 0
    half = n // 2 + 1  # rows kx = 0..N/2; the other N/2 - 1 are negative
    padded = np.zeros((2 * n, m), dtype=np.complex128)
    padded[:half] = c[:half, :m]
    padded[n + half :] = c[half:, :m]
    columns = np.zeros((2 * n, n + 1), dtype=np.complex128)
    spectral._fft(padded, 0, forward=False, out=columns[:, :m])
    return spectral._irfft(columns, (1,), 2 * n, scale=False)


def _restrict(samples: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Half-plane coefficients on ``grid`` of doubled-grid samples, |k| <= N/2 - 1.

    Only the kept columns are transformed along axis 0.  They are scaled by
    1/(2N)^2 between the two passes, where rfft2 scales, so the values equal
    the kept bins of rfft2.  The kept rows k = 0..N/2 - 1 and -(N/2 - 1)..-1
    are two slices of the spectrum.
    """
    n = grid.size
    limit = n // 2 - 1
    rows = spectral._rfft(samples, (1,), scale=False)[:, : limit + 1]
    spectrum = spectral._fft(rows * (1.0 / (4 * n * n)), 0, forward=True)
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
    return Field(f.grid, coefficients=_restrict(_lift(f) * _lift(g), f.grid))


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

    def times_f(g: Field) -> Field:
        return Field(g.grid, coefficients=_restrict(f_fine * _lift(g), g.grid))

    left = lambda_pow(times_f(u), sigma)
    right = times_f(lambda_pow(u, sigma))
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
    quotient = spectral.dealias(Field(f.grid, samples=f.samples / rho.samples))
    numerator = sobolev_norm(quotient, sigma)
    fluctuation = rho.coefficients.copy()
    fluctuation[0, 0] = 0.0
    rho_tilde_norm = sobolev_norm(Field(rho.grid, coefficients=fluctuation), s)
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


def interpolation_gap(u: Field, sigma: float, s: float, tau: float) -> float:
    """Slack ||u||_sigma^alpha ||u||_tau^beta - ||u||_s of the interpolation bound.

    alpha = (tau - s)/(tau - sigma) and beta = (s - sigma)/(tau - sigma).
    Nonnegative up to round-off; exactly zero for single-mode spectra.
    """
    bound, norm_s = _interpolation_sides(u, sigma, s, tau)
    return bound - norm_s


def _interpolation_sides(u: Field, sigma: float, s: float, tau: float) -> tuple[float, float]:
    """The bound ||u||_sigma^alpha ||u||_tau^beta and the norm ||u||_s it bounds."""
    if not sigma < s < tau:
        raise ValueError(
            f"orders must satisfy sigma < s < tau, got {sigma}, {s}, {tau}"
        )
    alpha = (tau - s) / (tau - sigma)
    beta = (s - sigma) / (tau - sigma)
    norm_sigma = sobolev_norm(u, sigma)
    norm_tau = sobolev_norm(u, tau)
    return norm_sigma**alpha * norm_tau**beta, sobolev_norm(u, s)


def interpolation_ratio(u: Field, sigma: float, s: float, tau: float) -> float:
    """Bound-to-norm ratio (gap + ||u||_s) / ||u||_s of the interpolation bound.

    At least 1 up to round-off; 1 for u = 0 and for single-mode spectra.
    """
    bound, norm_s = _interpolation_sides(u, sigma, s, tau)
    gap = bound - norm_s
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


def _member_modes(seed: int) -> _HalfPlane:
    """The half-plane rows of a seeded random family field."""
    return _half_plane(_random_modes(RandomFieldSpec(FAMILY_MAX_MODE, FAMILY_DECAY, seed)))


def _member(grid: TorusGrid, rows: _HalfPlane) -> Field:
    """A family field with the given half-plane rows, on a grid."""
    return Field(grid, coefficients=_scatter(grid, rows))


def _density_modes(seed: int) -> _HalfPlane:
    """Rows of the fluctuation of a bounded density, scaled to l1 norm RHO_FLUCTUATION.

    The l1 norm of the mode amplitudes bounds the sup norm of the
    fluctuation at every grid size.
    """
    modes = _random_modes(RandomFieldSpec(RHO_MAX_MODE, FAMILY_DECAY, seed))
    total = sum(abs(amplitude) for amplitude in modes.amplitude.tolist())
    scale = RHO_FLUCTUATION / total if total > 0.0 else 0.0
    return _half_plane(modes._replace(amplitude=modes.amplitude * scale))


def _bounded_density(grid: TorusGrid, rows: _HalfPlane) -> Field:
    """Density 1 + fluctuation with min value >= 1 - RHO_FLUCTUATION."""
    return Field(grid, samples=1.0 + _member(grid, rows).samples)


def _pair(
    second: Callable[[int], _HalfPlane],
) -> Callable[[int, str, int], tuple[_HalfPlane, ...]]:
    """Draw of member i: a family field of seed 2 i, then ``second`` of seed 2 i + 1."""
    return lambda base_seed, name, i: (
        _member_modes(family_seed(base_seed, name, 2 * i)),
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
    return (_half_plane(_Modes(FAMILY_MAX_MODE, *map(np.array, zip(*modes)))),)


class RatioCheck(NamedTuple):
    """One ratio check of the seeded family sweeps.

    ``draw(base_seed, name, i)`` draws the grid-independent half-plane rows
    of member i's factors, and ``build`` holds one builder per factor that
    scatters its rows onto a grid.  ``orders`` names the orders that
    ``ratio`` takes after sigma; ``ratio(*factors, sigma, *orders)`` scores
    a member.
    """

    name: str
    ratio: Callable[..., float]
    draw: Callable[[int, str, int], tuple[_HalfPlane, ...]]
    build: tuple[Callable[[TorusGrid, _HalfPlane], Field], ...]
    orders: tuple[str, ...]


#: The ratio checks, in report order.
RATIO_CHECKS = (
    RatioCheck(
        "commutator", commutator_ratio, _pair(_member_modes), (_member, _member), ("k",)
    ),
    RatioCheck(
        "reciprocal", reciprocal_ratio, _pair(_density_modes), (_member, _bounded_density),
        ("s",),
    ),
    RatioCheck("algebra", algebra_ratio, _pair(_member_modes), (_member, _member), ()),
    RatioCheck(
        "interpolation", interpolation_ratio, _interpolation_member, (_member,),
        ("s", "tau"),
    ),
)


def family_ratios(
    check: RatioCheck,
    grids: Sequence[TorusGrid],
    n_members: int,
    base_seed: int,
    sigma: float,
    *orders: float,
) -> np.ndarray:
    """Ratios of the first ``n_members`` members of a check's family, one row per grid.

    ``orders`` are the values of ``check.orders``.  Each member's rows are
    drawn once and scattered onto every grid, so row j equals a sweep on
    ``grids[j]`` alone.
    """
    ratios = np.empty((len(grids), n_members))
    for i in range(n_members):
        members = check.draw(base_seed, check.name, i)
        for j, grid in enumerate(grids):
            factors = (build(grid, rows) for build, rows in zip(check.build, members))
            ratios[j, i] = check.ratio(*factors, sigma, *orders)
    return ratios
