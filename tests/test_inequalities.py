"""Product, commutator, quotient, and interpolation estimates on seeded families."""

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgas import inequalities
from torusgas.inequalities import (
    FAMILY_MAX_MODE,
    PROBE_PERIOD,
    RHO_FLUCTUATION,
    RATIO_CHECKS,
    RHO_MAX_MODE,
    RandomFieldSpec,
    _bounded_density,
    _density_modes,
    _lift,
    _random_modes,
    algebra_ratio,
    commutator_ratio,
    family_ratios,
    family_seed,
    interpolation_gap,
    interpolation_ratio,
    product_exact,
    random_field,
    reciprocal_ratio,
)
from torusgas.spectral import (
    Field,
    constant_field,
    lambda_pow,
    make_grid,
    sobolev_norm,
    synthesize,
)


def rolled(f, shift_x, shift_y):
    """Translate a field by whole grid nodes (exact on the torus)."""
    return Field(f.grid, samples=np.roll(f.samples, (shift_x, shift_y), axis=(0, 1)))


class TestRandomField:
    def test_deterministic(self):
        grid = make_grid(64)
        spec = RandomFieldSpec(max_mode=6, seed=11)
        a = random_field(grid, spec)
        b = random_field(grid, spec)
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_field(self):
        grid = make_grid(64)
        a = random_field(grid, RandomFieldSpec(max_mode=6, seed=1))
        b = random_field(grid, RandomFieldSpec(max_mode=6, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_zero_mean_and_band_limited(self):
        grid = make_grid(64)
        f = random_field(grid, RandomFieldSpec(max_mode=5, seed=3))
        assert abs(np.mean(f.samples)) <= 1e-15
        kx = grid.wavenumbers
        ky = np.arange(grid.size // 2 + 1)
        outside = (np.abs(kx)[:, None] > 5) | (ky[None, :] > 5)
        assert np.all(f.coefficients[outside] == 0.0)

    def test_rejects_mode_beyond_band(self):
        grid = make_grid(16)
        with pytest.raises(ValueError, match="dealias band"):
            random_field(grid, RandomFieldSpec(max_mode=6))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="positive integer"):
            RandomFieldSpec(max_mode=0)
        with pytest.raises(ValueError, match="nonnegative"):
            RandomFieldSpec(max_mode=4, spectrum_decay=-1.0)


class TestModeStream:
    # rows 0, 72 and 143 of RandomFieldSpec(8, 2.0, seed), as drawn by the
    # per-mode rng.standard_normal() / rng.uniform(0, 2 pi) loop
    PINNED = {
        0: [
            (0, 1, 0.06286511054669665, 1.6951199159934145),
            (4, 5, 0.007605100482199545, 2.609934880447815),
            (8, 8, -0.02276004221718692, 2.4591157440751488),
        ],
        20161: [
            (0, 1, -0.9128224871916438, 1.610798233749982),
            (4, 5, 0.004278304217935966, 2.745217063392288),
            (8, 8, -0.006038959429219315, 4.891042605990631),
        ],
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_rows_pinned(self, seed):
        modes = _random_modes(RandomFieldSpec(8, 2.0, seed))
        assert modes.max_mode == 8 and modes.kx.size == 144
        rows = [
            (int(modes.kx[i]), int(modes.ky[i]), float(modes.amplitude[i]), float(modes.phase[i]))
            for i in (0, 72, 143)
        ]
        assert rows == self.PINNED[seed]

    def test_scatter_matches_mode_loop(self):
        # one scatter writes disjoint bins, so it equals the per-mode sum
        grid = make_grid(32)
        modes = _random_modes(RandomFieldSpec(8, 2.0, 3))
        expected = np.zeros((32, 17), dtype=np.complex128)
        for kx, ky, amplitude, phase in zip(*(c.tolist() for c in modes[1:])):
            half = 0.5 * amplitude * np.exp(1j * phase)
            if ky < 0:
                kx, ky, half = -kx, -ky, np.conj(half)
            expected[kx % 32, ky] += half
            if ky == 0:
                expected[-kx % 32, 0] += np.conj(half)
        f = random_field(grid, RandomFieldSpec(8, 2.0, 3))
        assert np.array_equal(f.coefficients, expected)


def plain_lift(f):
    """irfft2 of the half-plane zero-padded to the doubled grid."""
    n, fine = f.grid.size, 2 * f.grid.size
    padded = np.zeros((fine, fine // 2 + 1), dtype=np.complex128)
    padded[f.grid.wavenumbers % fine, : n // 2 + 1] = f.coefficients
    return sfft.irfft2(padded, s=(fine, fine), norm="forward")


def plain_product(f, g):
    """Lift, irfft2, multiply, rfft2 and restrict, with no pruned transform."""
    grid = f.grid
    n, fine = grid.size, 2 * grid.size
    spectrum = sfft.rfft2(plain_lift(f) * plain_lift(g), norm="forward")
    k = grid.wavenumbers
    limit = n // 2 - 1
    keep = np.abs(k) <= limit
    c = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    c[keep, : limit + 1] = spectrum[k[keep] % fine, : limit + 1]
    return c


def lift_cases(grid):
    """Fields that fill none, some and all of the half-plane columns, with their L^1.5 images.

    On a grid whose band holds FAMILY_MAX_MODE the fields include one member
    factor of every RATIO_CHECKS builder; on a smaller one, a random field
    that fills the band.
    """
    n = grid.size
    last = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    last[[0, 3, -3], -1] = [0.5, 1.0 - 2.0j, 0.25j]
    last[2, 1] = -1.5
    fields = {
        "zero": Field(grid, coefficients=np.zeros_like(last)),
        "zero_samples": constant_field(grid, 0.0),
        "last_column": Field(grid, coefficients=last),
    }
    if FAMILY_MAX_MODE <= grid.dealias_cutoff:
        for check in RATIO_CHECKS:
            factors = zip(check.build, check.draw(0, check.name, 1))
            for j, (build, rows) in enumerate(factors):
                fields[f"{check.name}_{j}"] = build(grid, rows)
    else:
        spec = RandomFieldSpec(grid.dealias_cutoff, seed=5)
        fields["random"] = random_field(grid, spec)
    images = {f"L_{name}": lambda_pow(f, 1.5) for name, f in fields.items()}
    return {**fields, **images}


class TestLift:
    @pytest.mark.parametrize("size, cells", [(64, 1), (128, 1), (16, 4)])
    def test_pruned_lift_equals_irfft2_bytes(self, size, cells):
        # tobytes also tells +0.0 from -0.0
        for name, f in lift_cases(make_grid(size, cells)).items():
            assert _lift(f).tobytes() == plain_lift(f).tobytes(), name

    @pytest.mark.parametrize("size, cells", [(64, 1), (128, 1), (16, 4)])
    def test_pruned_samples_equal_irfft2_bytes(self, size, cells):
        # Field.samples is one plain irfft2, not the lift's pruned inverse;
        # add a full-plane field
        grid = make_grid(size, cells)
        full = np.random.default_rng(size).standard_normal((size, size))
        cases = {**lift_cases(grid), "full": Field(grid, samples=full)}
        for name, f in cases.items():
            c = f.coefficients
            want = sfft.irfft2(c, s=(size, size), norm="forward")
            assert Field(grid, coefficients=c).samples.tobytes() == want.tobytes(), name


class TestProductExact:
    @pytest.mark.parametrize("size, cells", [(8, 1), (32, 1), (64, 1), (16, 4)])
    def test_pruned_equals_plain_transforms(self, size, cells):
        # full-band factors, so the restriction truncates
        grid = make_grid(size, cells)
        rng = np.random.default_rng(size + cells)
        f, g = (Field(grid, samples=rng.standard_normal((size, size))) for _ in range(2))
        assert np.array_equal(product_exact(f, g).coefficients, plain_product(f, g))

    def test_matches_closed_form(self):
        # cos(y)^2 = 1/2 + cos(2y)/2
        grid = make_grid(32)
        f = synthesize(grid, [(0, 1, 1.0, "cos", 0.0)])
        p = product_exact(f, f)
        expected = synthesize(grid, [(0, 2, 0.5, "cos", 0.0)]).samples + 0.5
        assert np.max(np.abs(p.samples - expected)) <= 1e-14

    def test_grid_mismatch(self):
        f = constant_field(make_grid(16), 1.0)
        g = constant_field(make_grid(32), 1.0)
        with pytest.raises(ValueError, match="different grids"):
            product_exact(f, g)

    def test_cell_and_full_grid_of_one_size_rejected(self):
        f = constant_field(make_grid(16), 1.0)
        with pytest.raises(ValueError, match="different grids"):
            product_exact(f, constant_field(make_grid(16, 2), 1.0))

    def test_product_on_cell_grid(self):
        # cos(2y)^2 = 1/2 + cos(4y)/2 on a 2*pi/2 cell
        cell = make_grid(16, 2)
        f = synthesize(cell, [(0, 2, 1.0, "cos", 0.0)])
        p = product_exact(f, f)
        assert p.grid == cell
        expected = synthesize(cell, [(0, 4, 0.5, "cos", 0.0)]).samples + 0.5
        assert np.max(np.abs(p.samples - expected)) <= 1e-14


class TestCommutatorRatio:
    def test_constant_u_oracle(self):
        # u constant: numerator is |c| ||(L^2 - 1) f||_L2 = 9 sqrt(2) pi |c|
        # for f = cos(3x), and the ratio reduces to 9 / (2 pi 10^{3/2})
        grid = make_grid(64)
        f = synthesize(grid, [(3, 0, 1.0, "cos", 0.0)])
        u = constant_field(grid, 0.7)
        expected = 9.0 / (2.0 * np.pi * 10.0**1.5)
        assert commutator_ratio(f, u, 2.0, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_constant_f_vanishes(self):
        grid = make_grid(64)
        f = constant_field(grid, 2.0)
        u = synthesize(grid, [(2, -1, 0.8, "sin", 0.3)])
        assert commutator_ratio(f, u, 1.5, 3.0) <= 1e-13

    def test_zero_u(self):
        grid = make_grid(32)
        f = synthesize(grid, [(1, 0, 1.0, "cos", 0.0)])
        assert commutator_ratio(f, constant_field(grid, 0.0), 2.0, 3.0) == 0.0

    def test_translation_invariance(self):
        grid = make_grid(64)
        f = random_field(grid, RandomFieldSpec(max_mode=6, seed=5))
        u = random_field(grid, RandomFieldSpec(max_mode=6, seed=6))
        base = commutator_ratio(f, u, 1.5, 3.0)
        moved = commutator_ratio(rolled(f, 7, 13), rolled(u, 7, 13), 1.5, 3.0)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_parameter_validation(self):
        grid = make_grid(32)
        f = synthesize(grid, [(1, 0, 1.0, "cos", 0.0)])
        u = synthesize(grid, [(0, 1, 1.0, "cos", 0.0)])
        with pytest.raises(ValueError, match="k must exceed 2"):
            commutator_ratio(f, u, 1.5, 2.0)
        with pytest.raises(ValueError, match="sigma must lie in"):
            commutator_ratio(f, u, 3.5, 3.0)

    def test_rejects_unresolved_factor(self):
        grid = make_grid(16)
        f = synthesize(grid, [(6, 0, 1.0, "cos", 0.0)])  # beyond cutoff 5
        u = synthesize(grid, [(0, 1, 1.0, "cos", 0.0)])
        with pytest.raises(ValueError, match="band-limited"):
            commutator_ratio(f, u, 2.0, 3.0)

    def test_leakage_weighs_interior_columns_twice(self):
        # cos(x) puts 1/2 of the power in bins (+-1, 0); cos(6y) the other
        # 1/2 in the interior column ky = 6, beyond cutoff 5 on N = 16
        grid = make_grid(16)
        f = synthesize(grid, [(1, 0, 1.0, "cos", 0.0), (0, 6, 1.0, "cos", 0.0)])
        u = synthesize(grid, [(0, 1, 1.0, "cos", 0.0)])
        with pytest.raises(ValueError, match="relative leakage 7.07e-01"):
            commutator_ratio(f, u, 2.0, 3.0)


class TestReciprocalRatio:
    def test_constant_density_oracle(self):
        grid = make_grid(32)
        f = synthesize(grid, [(2, 1, 1.0, "cos", 0.0)])
        for c in (0.5, 1.0, 2.0):
            ratio = reciprocal_ratio(f, constant_field(grid, c), 1.5, 3.0)
            assert ratio == pytest.approx(1.0 / c, rel=1e-12)

    def test_zero_numerator_field(self):
        grid = make_grid(32)
        rho = constant_field(grid, 1.0)
        assert reciprocal_ratio(constant_field(grid, 0.0), rho, 1.5, 3.0) == 0.0

    def test_rejects_nonpositive_density(self):
        grid = make_grid(32)
        f = synthesize(grid, [(1, 0, 1.0, "cos", 0.0)])
        rho = synthesize(grid, [(0, 1, 2.0, "cos", 0.0)])  # dips to -2
        with pytest.raises(ValueError, match="strictly positive"):
            reciprocal_ratio(f, rho, 1.5, 3.0)

    def test_cell_and_full_grid_of_one_size_rejected(self):
        f = synthesize(make_grid(32), [(2, 0, 1.0, "cos", 0.0)])
        rho = constant_field(make_grid(32, 2), 1.0)
        with pytest.raises(ValueError, match="different grids"):
            reciprocal_ratio(f, rho, 1.5, 3.0)

    def test_parameter_validation(self):
        grid = make_grid(32)
        f = synthesize(grid, [(1, 0, 1.0, "cos", 0.0)])
        rho = constant_field(grid, 1.0)
        with pytest.raises(ValueError, match="s must exceed 1"):
            reciprocal_ratio(f, rho, 0.5, 1.0)
        with pytest.raises(ValueError, match="must not exceed"):
            reciprocal_ratio(f, rho, 3.5, 3.0)


class TestAlgebraRatio:
    def test_constant_factor_oracle(self):
        grid = make_grid(32)
        f = synthesize(grid, [(3, -2, 0.9, "sin", 1.1)])
        ratio = algebra_ratio(f, constant_field(grid, 4.0), 2.0)
        assert ratio == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)

    def test_cos_squared_oracle(self):
        # ||cos^2 y||_2 = 2 pi sqrt(27/8), ||cos y||_2 = 2 pi sqrt(2)
        grid = make_grid(32)
        f = synthesize(grid, [(0, 1, 1.0, "cos", 0.0)])
        expected = 2.0 * np.pi * np.sqrt(27.0 / 8.0) / (2.0 * np.pi * np.sqrt(2.0)) ** 2
        assert algebra_ratio(f, f, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        grid = make_grid(64)
        f = random_field(grid, RandomFieldSpec(max_mode=7, seed=8))
        g = random_field(grid, RandomFieldSpec(max_mode=7, seed=9))
        assert algebra_ratio(f, g, 1.5) == pytest.approx(
            algebra_ratio(g, f, 1.5), rel=1e-13
        )

    def test_parameter_validation(self):
        grid = make_grid(32)
        f = constant_field(grid, 1.0)
        with pytest.raises(ValueError, match="sigma must exceed 1"):
            algebra_ratio(f, f, 1.0)


class TestInterpolationGap:
    def test_single_mode_equality(self):
        grid = make_grid(64)
        for kx, ky in [(0, 1), (2, 3), (5, -4)]:
            u = synthesize(grid, [(kx, ky, 1.3, "cos", 0.7)])
            assert abs(interpolation_gap(u, 1.5, 3.0, 4.0)) <= 1e-12

    def test_zero_field(self):
        grid = make_grid(32)
        assert interpolation_gap(constant_field(grid, 0.0), 1.5, 3.0, 4.0) == 0.0

    def test_two_mode_strictly_positive(self):
        grid = make_grid(64)
        u = synthesize(grid, [(0, 1, 1.0, "cos", 0.0), (4, 2, 1.0, "cos", 0.0)])
        assert interpolation_gap(u, 1.5, 3.0, 4.0) > 1e-3

    def test_order_validation(self):
        grid = make_grid(32)
        u = constant_field(grid, 1.0)
        with pytest.raises(ValueError, match="sigma < s < tau"):
            interpolation_gap(u, 3.0, 1.5, 4.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_gap_nonnegative_up_to_roundoff(self, seed):
        grid = make_grid(64)
        u = random_field(grid, RandomFieldSpec(max_mode=6, seed=seed))
        gap = interpolation_gap(u, 1.5, 3.0, 4.0)
        assert gap >= -1e-10 * max(sobolev_norm(u, 3.0), 1.0)


class TestInterpolationRatio:
    def test_ratio_is_gap_over_norm_plus_one(self):
        grid = make_grid(64)
        u = synthesize(grid, [(0, 1, 1.0, "cos", 0.0), (4, 2, 1.0, "cos", 0.0)])
        norm_s = sobolev_norm(u, 3.0)
        expected = (interpolation_gap(u, 1.5, 3.0, 4.0) + norm_s) / norm_s
        assert interpolation_ratio(u, 1.5, 3.0, 4.0) == expected > 1.0

    def test_zero_field(self):
        assert interpolation_ratio(constant_field(make_grid(32), 0.0), 1.5, 3.0, 4.0) == 1.0


#: The value of each declared order in the sweeps below.
ORDER_VALUES = {"k": 3.0, "s": 3.0, "tau": 4.0}


def declared_orders(check):
    return tuple(ORDER_VALUES[order] for order in check.orders)


class TestFamilies:
    def test_family_seed_deterministic_and_distinct(self):
        assert family_seed(7, "algebra", 3) == family_seed(7, "algebra", 3)
        seeds = {
            family_seed(7, check, i)
            for check in ("commutator", "reciprocal", "algebra", "interpolation")
            for i in range(50)
        }
        assert len(seeds) == 200

    def test_commutator_family_reproducible(self):
        grid = make_grid(64)
        commutator = RATIO_CHECKS[0]
        assert commutator.name == "commutator"
        a = family_ratios(commutator, (grid,), 10, 7, 1.5, 3.0)
        b = family_ratios(commutator, (grid,), 10, 7, 1.5, 3.0)
        assert np.array_equal(a, b)
        assert a.shape == (1, 10)
        assert np.all(a > 0.0)

    def test_refinement_stability(self):
        # members are band-limited to FAMILY_MAX_MODE, so the doubled grid
        # sees the same functions and ratios move only by round-off
        coarse = make_grid(64)
        fine = make_grid(128)
        assert [c.name for c in RATIO_CHECKS] == [
            "commutator",
            "reciprocal",
            "algebra",
            "interpolation",
        ]
        for check in RATIO_CHECKS:
            orders = declared_orders(check)
            base, refined = family_ratios(check, (coarse, fine), 20, 7, 1.5, *orders)
            assert np.max(np.abs(refined - base) / base) <= 1e-10

    def test_declared_orders(self):
        assert {c.name: c.orders for c in RATIO_CHECKS} == {
            "commutator": ("k",),
            "reciprocal": ("s",),
            "algebra": (),
            "interpolation": ("s", "tau"),
        }

    @pytest.mark.parametrize("check", RATIO_CHECKS, ids=lambda c: c.name)
    def test_two_grid_sweep_equals_single_grid_sweeps(self, check):
        grids = (make_grid(32), make_grid(64))
        orders = declared_orders(check)
        both = family_ratios(check, grids, 6, 11, 1.5, *orders)
        assert both.shape == (2, 6)
        for row, grid in zip(both, grids):
            assert np.array_equal(row, family_ratios(check, (grid,), 6, 11, 1.5, *orders)[0])

    @pytest.mark.parametrize("check", RATIO_CHECKS, ids=lambda c: c.name)
    @pytest.mark.parametrize("sizes", [(16, 32), (32, 16)])
    def test_band_checked_on_every_grid(self, check, sizes):
        grids = tuple(make_grid(n) for n in sizes)
        match = "max_mode 8 exceeds the dealias band 5 of an N=16 grid"
        with pytest.raises(ValueError, match=match):
            family_ratios(check, grids, 3, 0, 1.5, *declared_orders(check))

    @pytest.mark.parametrize("check", RATIO_CHECKS, ids=lambda c: c.name)
    def test_each_member_drawn_once(self, check, monkeypatch):
        # the draws look up family_seed at call time, so this counts them
        seeds = []

        def counting_seed(base_seed, name, index):
            seeds.append((name, index))
            return family_seed(base_seed, name, index)

        monkeypatch.setattr(inequalities, "family_seed", counting_seed)
        grids = (make_grid(32), make_grid(64))
        family_ratios(check, grids, 4, 7, 1.5, *declared_orders(check))
        per_member = 1 if check.name == "interpolation" else 2
        assert seeds == [(check.name, i) for i in range(4 * per_member)]

    def test_bounded_density_floor(self):
        grid = make_grid(64)
        for seed in range(30):
            rho = _bounded_density(grid, _density_modes(seed))
            assert np.min(rho.samples) >= 1.0 - RHO_FLUCTUATION - 1e-12
            assert np.mean(rho.samples) == pytest.approx(1.0, abs=1e-14)

    def test_interpolation_ratio_row(self):
        interpolation = RATIO_CHECKS[-1]
        assert interpolation.name == "interpolation"
        (ratios,) = family_ratios(interpolation, (make_grid(64),), 60, 7, 1.5, 3.0, 4.0)
        assert ratios.shape == (60,)
        probes = ratios[::PROBE_PERIOD]
        assert probes.size == 3  # members 0, 25, 50
        assert np.all(np.abs(probes - 1.0) <= 1e-12)
        assert np.all(ratios >= 1.0 - 1e-10)

    # family_ratios(check, (make_grid(64), make_grid(128)), 3, 0, 1.5,
    # *declared_orders(check)), one float.hex list per grid; a change to the
    # transforms or the draws must reproduce these bits
    PINNED_SWEEPS = {
        "commutator": [
            ["0x1.90ea9d71592ccp-8", "0x1.6a15407d02b8ep-8", "0x1.9a4808c145321p-8"],
            ["0x1.90ea9d71592cbp-8", "0x1.6a15407d02b8ep-8", "0x1.9a4808c145321p-8"],
        ],
        "reciprocal": [
            ["0x1.63a5debcac72bp-5", "0x1.94e23ccbb3663p-6", "0x1.90f718c42aad8p-6"],
            ["0x1.63a5debcac72bp-5", "0x1.94e23ccbb367cp-6", "0x1.90f718c42ab6ep-6"],
        ],
        "algebra": [
            ["0x1.5503fc07790c4p-5", "0x1.9cb3092cf93f1p-5", "0x1.5a4947e0ed743p-5"],
            ["0x1.5503fc07790c4p-5", "0x1.9cb3092cf93f1p-5", "0x1.5a4947e0ed743p-5"],
        ],
        "interpolation": [
            ["0x1.ffffffffffffep-1", "0x1.050c413ed82abp+0", "0x1.0002c970623d0p+0"],
            ["0x1.ffffffffffffep-1", "0x1.050c413ed82abp+0", "0x1.0002c970623d0p+0"],
        ],
    }

    @pytest.mark.parametrize("check", RATIO_CHECKS, ids=lambda c: c.name)
    def test_sweep_bytes_pinned(self, check):
        grids = (make_grid(64), make_grid(128))
        ratios = family_ratios(check, grids, 3, 0, 1.5, *declared_orders(check))
        assert [[float(r).hex() for r in row] for row in ratios] == self.PINNED_SWEEPS[
            check.name
        ]

    def test_family_max_mode_fits_default_grids(self):
        assert FAMILY_MAX_MODE <= make_grid(64).dealias_cutoff
        assert RHO_MAX_MODE <= make_grid(64).dealias_cutoff
