"""Empirical harness for the analytic toolbox inequalities.

The estimates exercised here assert the existence of constants: the
commutator bound ||[L^sigma, f] u||_L2 <= C ||f||_k ||u||_{sigma-1}, the
reciprocal bound ||f/rho||_sigma <= C (1 + ||rho~||_s^sigma) ||f||_sigma,
the Sobolev algebra property, and the interpolation inequality
||u||_s <= ||u||_sigma^alpha ||u||_tau^beta.  A finite run cannot verify
"there exists C", so each check is restated as a computable ratio whose
finiteness, refinement stability, and exact equality cases are testable.
:data:`RATIO_CHECKS` is the one table of the three ratio checks, and
:func:`family_ratios` the one loop that sweeps a check over its seeded
family; the interpolation check sweeps its own two-mode family.

Products of band-limited fields are formed on a doubled grid where they
are alias-free, then restricted to the representable band of the original
grid; for the seeded families used by the sweeps the restriction drops
nothing, so the ratios are resolution-independent up to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import spectral
from .spectral import Field, TorusGrid, lambda_pow, make_grid, sobolev_norm

__all__ = [
    "RandomFieldSpec",
    "random_field",
    "product_exact",
    "commutator_ratio",
    "reciprocal_ratio",
    "algebra_ratio",
    "interpolation_gap",
    "family_seed",
    "RatioCheck",
    "RATIO_CHECKS",
    "family_ratios",
    "interpolation_family_rows",
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


def _random_modes(spec: RandomFieldSpec) -> list[tuple[int, int, float, float]]:
    """Draw (kx, ky, amplitude, phase) mode rows in a fixed half-plane order.

    The order never depends on the grid, so the same seed denotes the same
    continuum function at every resolution.
    """
    rng = np.random.default_rng(spec.seed)
    rows = []
    m = spec.max_mode
    for kx in range(0, m + 1):
        ky_values = range(1, m + 1) if kx == 0 else range(-m, m + 1)
        for ky in ky_values:
            weight = (1.0 + kx * kx + ky * ky) ** (-0.5 * spec.spectrum_decay)
            amplitude = rng.standard_normal() * weight
            phase = rng.uniform(0.0, 2.0 * np.pi)
            rows.append((kx, ky, amplitude, phase))
    return rows


def _assemble_modes(
    grid: TorusGrid, rows: list[tuple[int, int, float, float]]
) -> Field:
    n = grid.size
    c = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    for kx, ky, amplitude, phase in rows:
        half = 0.5 * amplitude * np.exp(1j * phase)
        if ky < 0:  # store the conjugate partner, which lies in the half-plane
            kx, ky, half = -kx, -ky, np.conj(half)
        c[kx % n, ky] += half
        if ky == 0:
            c[-kx % n, 0] += np.conj(half)
    return Field(grid, coefficients=c)


def random_field(grid: TorusGrid, spec: RandomFieldSpec) -> Field:
    """Seeded random trig polynomial on the grid, zero mean."""
    if spec.max_mode > grid.dealias_cutoff:
        raise ValueError(
            f"max_mode {spec.max_mode} exceeds the dealias band "
            f"{grid.dealias_cutoff} of an N={grid.size} grid"
        )
    return _assemble_modes(grid, _random_modes(spec))


def _lift(f: Field, fine: TorusGrid) -> Field:
    """Exact extension of a field to a finer grid by spectral zero-padding."""
    half = f.grid.size // 2 + 1
    c = np.zeros((fine.size, fine.size // 2 + 1), dtype=np.complex128)
    c[f.grid.wavenumbers % fine.size, :half] = f.coefficients
    return Field(fine, coefficients=c)


def _restrict(coefficients: np.ndarray, coarse: TorusGrid, fine: TorusGrid) -> Field:
    k = coarse.wavenumbers
    limit = coarse.size // 2 - 1
    keep = np.abs(k) <= limit
    c = np.zeros((coarse.size, coarse.size // 2 + 1), dtype=np.complex128)
    c[keep, : limit + 1] = coefficients[k[keep] % fine.size, : limit + 1]
    return Field(coarse, coefficients=c)


def product_exact(f: Field, g: Field) -> Field:
    """Pointwise product computed alias-free on a doubled grid, restricted.

    Both inputs must live on the same grid.  The result keeps the modes
    representable on that grid; content beyond |k| = N/2 - 1 (present only
    when the factors fill more than half the band) is truncated.
    """
    if f.grid != g.grid:
        raise ValueError("product factors live on different grids")
    fine = make_grid(2 * f.grid.size, f.grid.cells)
    product = _lift(f, fine).samples * _lift(g, fine).samples
    return _restrict(Field(fine, samples=product).coefficients, f.grid, fine)


def _require_band_limited(f: Field, name: str) -> None:
    inside = spectral.dealias(f)
    leak = sobolev_norm(f - inside, 0.0)
    total = sobolev_norm(f, 0.0)
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
    _require_band_limited(f, "f")
    _require_band_limited(u, "u")
    left = lambda_pow(product_exact(f, u), sigma)
    right = product_exact(f, lambda_pow(u, sigma))
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
    if rho.grid != f.grid:
        raise ValueError("f and rho live on different grids")
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
    if not sigma < s < tau:
        raise ValueError(
            f"orders must satisfy sigma < s < tau, got {sigma}, {s}, {tau}"
        )
    alpha = (tau - s) / (tau - sigma)
    beta = (s - sigma) / (tau - sigma)
    norm_sigma = sobolev_norm(u, sigma)
    norm_tau = sobolev_norm(u, tau)
    norm_s = sobolev_norm(u, s)
    return norm_sigma**alpha * norm_tau**beta - norm_s


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


def _random_member(grid: TorusGrid, seed: int) -> Field:
    """A seeded random family field."""
    return random_field(grid, RandomFieldSpec(FAMILY_MAX_MODE, FAMILY_DECAY, seed))


def _bounded_density(grid: TorusGrid, seed: int) -> Field:
    """Density 1 + fluctuation with min value >= 1 - RHO_FLUCTUATION.

    The fluctuation is scaled by the l1 norm of its mode amplitudes, a
    resolution-independent bound on its sup norm, so the same seed gives
    the same continuum density at every grid size.
    """
    rows = _random_modes(RandomFieldSpec(RHO_MAX_MODE, FAMILY_DECAY, seed))
    total = sum(abs(amplitude) for _, _, amplitude, _ in rows)
    if total == 0.0:
        return spectral.constant_field(grid, 1.0)
    scale = RHO_FLUCTUATION / total
    scaled = [(kx, ky, amplitude * scale, phase) for kx, ky, amplitude, phase in rows]
    fluctuation = _assemble_modes(grid, scaled)
    return Field(grid, samples=1.0 + fluctuation.samples)


class RatioCheck(NamedTuple):
    """One ratio check of the seeded family sweeps.

    ``ratio(first, second, sigma[, order])`` scores a member, ``second``
    builds its second factor from (grid, seed), and ``takes_order`` says
    whether ``ratio`` takes the order k or s.
    """

    name: str
    ratio: Callable[..., float]
    second: Callable[[TorusGrid, int], Field]
    takes_order: bool


#: The ratio checks, in report order.
RATIO_CHECKS = (
    RatioCheck("commutator", commutator_ratio, _random_member, True),
    RatioCheck("reciprocal", reciprocal_ratio, _bounded_density, True),
    RatioCheck("algebra", algebra_ratio, _random_member, False),
)


def family_ratios(
    check: RatioCheck,
    grid: TorusGrid,
    n_members: int,
    base_seed: int,
    sigma: float,
    order: float,
) -> np.ndarray:
    """Ratios of the first ``n_members`` members of a check's family.

    Member i pairs the random field of ``family_seed(base_seed, check.name,
    2 i)`` with the second factor of index 2 i + 1.  ``order`` is k for the
    commutator and s for the reciprocal check; algebra ignores it.
    """
    orders = (order,) if check.takes_order else ()
    ratios = np.empty(n_members)
    for i in range(n_members):
        first = _random_member(grid, family_seed(base_seed, check.name, 2 * i))
        second = check.second(grid, family_seed(base_seed, check.name, 2 * i + 1))
        ratios[i] = check.ratio(first, second, sigma, *orders)
    return ratios


def interpolation_family_rows(
    grid: TorusGrid,
    n_members: int,
    base_seed: int,
    sigma: float,
    s: float,
    tau: float,
) -> list[dict]:
    """Interpolation sweep rows: mostly two-mode fields, periodic single-mode probes.

    Each row reports the gap, the norm ||u||_s for relative scaling, the
    bound-to-norm ratio, and whether the member was a single-mode probe
    (an exact equality case of the inequality).
    """
    rows = []
    for i in range(n_members):
        rng = np.random.default_rng(family_seed(base_seed, "interpolation", i))
        is_probe = i % PROBE_PERIOD == 0
        modes = []
        n_modes = 1 if is_probe else 2
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
        u = _assemble_modes(grid, modes)
        gap = interpolation_gap(u, sigma, s, tau)
        norm_s = sobolev_norm(u, s)
        ratio = (gap + norm_s) / norm_s if norm_s > 0.0 else 1.0
        rows.append(
            {"gap": gap, "norm_s": norm_s, "ratio": ratio, "is_probe": is_probe}
        )
    return rows
