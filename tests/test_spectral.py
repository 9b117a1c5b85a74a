"""Grid construction, Fourier calculus, and norm conventions."""

import math
import os

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgas import spectral
from torusgas.euler import GasParams, _RhsKernel, state_to_hat
from torusgas.families import FamilyParams, initial_data
from torusgas.inequalities import RandomFieldSpec, _lift, product_exact, random_field
from torusgas.lab import ExperimentConfig, run_experiment
from torusgas.spectral import (
    Field,
    TorusGrid,
    _band_irfft2,
    _fft,
    _irfft,
    _rfft,
    dealias,
    constant_field,
    lambda_pow,
    make_grid,
    partial_x,
    partial_y,
    sobolev_norm,
    synthesize,
)

TWO_PI = 2.0 * np.pi


def random_band_limited(grid, seed, max_mode=8, n_modes=6):
    """Seeded sum of trig modes with |k| <= max_mode on both axes."""
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(n_modes):
        kx = int(rng.integers(-max_mode, max_mode + 1))
        ky = int(rng.integers(-max_mode, max_mode + 1))
        amplitude = float(rng.standard_normal())
        kind = "cos" if rng.integers(2) else "sin"
        phase = float(rng.uniform(0.0, TWO_PI))
        modes.append((kx, ky, amplitude, kind, phase))
    return synthesize(grid, modes)


class TestMakeGrid:
    def test_coordinates_n4(self):
        grid = make_grid(4)
        assert np.allclose(grid.x, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_wavenumber_table_n8(self):
        # DFT bin order, the half-way bin zeroed in the derivative table
        grid = make_grid(8)
        assert (grid.ikx[:, 0] / 1j).real.tolist() == [0, 1, 2, 3, 0, -3, -2, -1]
        assert grid.one_plus_ksq[:, 0].tolist() == [1, 2, 5, 10, 17, 10, 5, 2]

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(3)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match=">= 4"):
            make_grid(2)

    def test_built_once_per_size(self):
        assert make_grid(32) is make_grid(32)
        with pytest.raises(TypeError, match="integer"):
            make_grid(32.0)

    def test_half_plane_tables(self):
        grid = make_grid(8)
        assert grid.dealias_mask.shape == grid.one_plus_ksq.shape == (8, 5)
        assert grid.column_weights.tolist() == [1.0, 2.0, 2.0, 2.0, 1.0]
        assert grid.ikx[4, 0] == 0.0 and grid.iky[0, 4] == 0.0  # bin N/2 zeroed
        assert grid.iky[0, 3] == 3j

    def test_period_is_two_pi(self):
        assert make_grid(16).period == TWO_PI
        assert make_grid(16, 4).period == TWO_PI / 4
        with pytest.raises(TypeError):
            TorusGrid(16, period=1.0)  # the period follows from cells

    def test_node_formula(self):
        grid = make_grid(10)
        assert np.allclose(grid.x, TWO_PI * np.arange(10) / 10)


class TestCellGrid:
    """A grid on one 2*pi/cells cell: tables in cell units, scaled by cells."""

    def test_tables_scale_by_cells(self):
        cell, full = make_grid(8, 4), make_grid(8)
        assert np.array_equal(cell.ikx, 4 * full.ikx)
        assert np.array_equal(cell.iky, 4 * full.iky)
        assert np.array_equal(cell.one_plus_ksq, 1.0 + 16 * (full.one_plus_ksq - 1.0))
        assert np.array_equal(cell.dealias_mask, full.dealias_mask)
        assert cell.dealias_cutoff == 2
        assert np.allclose(cell.x, full.x / 4, rtol=1e-15)

    def test_identity_is_size_and_cells(self):
        assert make_grid(8, 2) == TorusGrid(8, 2) == make_grid(8, cells=2)
        assert make_grid(8, 2) != make_grid(8) and make_grid(8, 2) != make_grid(16, 2)
        assert make_grid(8, 1) == make_grid(8) and hash(make_grid(8, 1)) == hash(make_grid(8))

    def test_rejects_bad_cells(self):
        with pytest.raises(ValueError, match="cells must be positive"):
            make_grid(8, 0)
        with pytest.raises(TypeError, match="cells must be an integer"):
            make_grid(8, 2.0)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(TypeError, match="cells must be an integer, got True"):
            TorusGrid(16, True)
        with pytest.raises(TypeError, match="size must be an integer, got True"):
            TorusGrid(True)

    def test_cells_one_tables_are_the_whole_torus_formulas(self):
        grid = make_grid(16)
        k = np.fft.fftfreq(16, 1.0 / 16)
        ky = np.arange(9, dtype=float)
        kx_d, ky_d = k.copy(), ky.copy()
        kx_d[8] = ky_d[8] = 0.0
        assert np.array_equal(grid.x, TWO_PI * np.arange(16) / 16)
        assert np.array_equal(grid.ikx, (1j * kx_d)[:, None])
        assert np.array_equal(grid.iky, (1j * ky_d)[None, :])
        assert np.array_equal(grid.one_plus_ksq, 1.0 + k[:, None] ** 2 + ky[None, :] ** 2)

    def test_fields_on_cell_and_full_grid_do_not_mix(self):
        a = constant_field(make_grid(8), 1.0)
        b = constant_field(make_grid(8, 2), 1.0)
        with pytest.raises(ValueError, match="different grids"):
            a + b
        with pytest.raises(ValueError, match="different grids"):
            a - b

    @pytest.mark.parametrize("cells", [2, 5])
    def test_cell_field_matches_full_torus_field(self, cells):
        # mode (kx, ky) of the torus is mode (kx, ky)/cells of the cell
        modes = [(2 * cells, -cells, 0.7, "cos", 0.3), (0, 3 * cells, -1.1, "sin", 1.0)]
        cell = synthesize(make_grid(16, cells), modes)
        full = synthesize(make_grid(16 * cells), modes)
        assert np.allclose(full.samples[:16, :16], cell.samples, atol=1e-14)
        rows = (cells * np.fft.fftfreq(16, 1.0 / 16).astype(int)) % full.grid.size
        cols = cells * np.arange(9)
        assert np.allclose(full.coefficients[np.ix_(rows, cols)], cell.coefficients, atol=1e-15)
        for sigma in (0.0, 1.5, 3.0):
            assert sobolev_norm(cell, sigma) == pytest.approx(
                sobolev_norm(full, sigma), rel=1e-13
            )
        for d in (partial_x, partial_y):
            assert np.allclose(d(full).samples[:16, :16], d(cell).samples, atol=1e-12)


class TestField:
    def test_round_trip_samples(self):
        grid = make_grid(32)
        f = random_band_limited(grid, seed=1)
        g = Field(grid, coefficients=f.coefficients)
        scale = np.max(np.abs(f.samples))
        assert np.max(np.abs(g.samples - f.samples)) <= 1e-12 * scale

    def test_conjugate_symmetry(self):
        # the half-plane keeps ky = 0..N/2; only its ky = 0 and ky = N/2
        # columns contain conjugate pairs, mirrored in kx
        grid = make_grid(16)
        f = random_band_limited(grid, seed=2, max_mode=5)
        c = f.coefficients
        n = grid.size
        assert c.shape == (n, n // 2 + 1)
        for i in range(n):
            for j in (0, n // 2):
                assert c[i, j] == pytest.approx(np.conj(c[-i % n, j]), abs=1e-13)

    @staticmethod
    def rejections(grid, **arrays):
        """The messages with which Field and Field._adopt reject the same arrays."""
        messages = []
        for make in (Field, Field._adopt):
            with pytest.raises(ValueError) as caught:
                make(grid, **arrays)
            messages.append(str(caught.value))
        return messages

    def test_rejects_nonfinite_samples(self):
        grid = make_grid(8)
        bad = np.zeros((8, 8))
        bad[3, 3] = np.nan
        assert self.rejections(grid, samples=bad) == ["field samples must be finite"] * 2
        bad_c = np.zeros((8, 5), dtype=complex)
        bad_c[1, 2] = complex(0.0, np.inf)
        assert self.rejections(grid, coefficients=bad_c) == [
            "field coefficients must be finite"
        ] * 2

    def test_rejects_shape_mismatch(self):
        grid = make_grid(8)
        assert self.rejections(grid, samples=np.zeros((4, 4))) == [
            "samples shape (4, 4) does not match grid (8, 8)"
        ] * 2
        assert self.rejections(grid, coefficients=np.zeros((8, 8), complex)) == [
            "coefficients shape (8, 8) does not match grid (8, 5)"
        ] * 2

    def test_takes_one_view(self):
        # both views would be two fields: these samples sum to 0, the coefficients to 40
        grid = make_grid(8)
        message = "Field needs exactly one of samples and coefficients"
        both = {"samples": np.zeros((8, 8)), "coefficients": np.ones((8, 5))}
        assert self.rejections(grid, **both) == [message] * 2
        assert self.rejections(grid) == [message] * 2

    def test_constructor_copies_and_adopt_freezes_in_place(self):
        grid = make_grid(8)
        a = np.arange(64.0).reshape(8, 8)
        f = Field(grid, samples=a)
        a[0, 0] = -1.0
        assert f.samples[0, 0] == 0.0 and not np.shares_memory(f.samples, a)
        c = np.zeros((8, 5), dtype=complex)
        g = Field(grid, coefficients=c)
        c[1, 1] = 1.0
        assert not g.coefficients.any()
        adopted = Field._adopt(grid, samples=a)
        assert adopted.samples is a and not a.flags.writeable

    def test_immutable(self):
        grid = make_grid(8)
        f = constant_field(grid, 1.0)
        with pytest.raises(AttributeError, match="immutable"):
            f.grid = grid
        with pytest.raises(ValueError):
            f.samples[0, 0] = 2.0

    def test_arithmetic(self):
        grid = make_grid(32)
        f = random_band_limited(grid, seed=3)
        g = random_band_limited(grid, seed=4)
        total = f + g
        assert np.allclose(total.samples, f.samples + g.samples)
        assert np.allclose((f - g).samples, f.samples - g.samples)


class TestSynthesize:
    def test_single_cos_mode(self):
        grid = make_grid(32)
        f = synthesize(grid, [(0, 3, 1.0, "cos", 0.0)])
        _, yrow = grid.meshgrid()
        assert np.allclose(f.samples, np.cos(3.0 * yrow))

    def test_empty_mode_list(self):
        grid = make_grid(16)
        f = synthesize(grid, [])
        assert np.all(f.samples == 0.0)

    def test_nyquist_rejected(self):
        grid = make_grid(16)
        with pytest.raises(ValueError, match="not representable"):
            synthesize(grid, [(0, 8, 1.0, "cos", 0.0)])
        with pytest.raises(ValueError, match="not representable"):
            synthesize(grid, [(7, 8, 1.0, "sin", 0.0)])

    def test_non_integer_mode_rejected(self):
        grid = make_grid(16)
        with pytest.raises(ValueError, match="integers"):
            synthesize(grid, [(0.5, 1, 1.0, "cos", 0.0)])

    def test_bad_kind_rejected(self):
        grid = make_grid(16)
        with pytest.raises(ValueError, match="kind"):
            synthesize(grid, [(1, 1, 1.0, "tan", 0.0)])

    def test_mode_not_periodic_on_cell_rejected(self):
        cell = make_grid(16, 3)
        with pytest.raises(ValueError, match="not periodic on a 2\\*pi/3 cell"):
            synthesize(cell, [(3, 1, 1.0, "cos", 0.0)])
        with pytest.raises(ValueError, match="not representable"):
            synthesize(cell, [(0, 24, 1.0, "cos", 0.0)])  # cell mode 8, the Nyquist bin
        edge = synthesize(cell, [(21, -21, 1.0, "cos", 0.0)])
        assert np.mean(edge.samples) == pytest.approx(0.0)

    def test_phase_shift(self):
        grid = make_grid(32)
        f = synthesize(grid, [(2, 0, 1.0, "cos", np.pi / 2)])
        g = synthesize(grid, [(2, 0, -1.0, "sin", 0.0)])
        assert np.allclose(f.samples, g.samples, atol=1e-15)


class TestDerivatives:
    def test_partial_y_cos3y(self):
        grid = make_grid(32)
        f = synthesize(grid, [(0, 3, 1.0, "cos", 0.0)])
        _, yrow = grid.meshgrid()
        expected = -3.0 * np.sin(3.0 * yrow)
        assert np.max(np.abs(partial_y(f).samples - expected)) < 1e-12

    def test_partial_x_constant(self):
        grid = make_grid(16)
        assert np.all(partial_x(constant_field(grid, 4.2)).samples == 0.0)

    def test_partial_x_product_mode(self):
        grid = make_grid(32)
        f = synthesize(grid, [(2, 0, 1.0, "sin", 0.0), (0, 1, 0.0, "cos", 0.0)])
        # sin(2x)cos(y) as a two-factor sample product, derivative by hand
        xcol, yrow = grid.meshgrid()
        g = Field(grid, samples=np.sin(2.0 * xcol) * np.cos(yrow))
        expected = 2.0 * np.cos(2.0 * xcol) * np.cos(yrow)
        assert np.max(np.abs(partial_x(g).samples - expected)) < 1e-12

    def test_axis_constant_field_has_exact_zero_derivative(self):
        # Fields constant along one axis must differentiate to exactly zero
        # along it; the perturbation-form residue assembly depends on this.
        grid = make_grid(64)
        _, yrow = grid.meshgrid()
        f = Field(grid, samples=np.broadcast_to(np.cos(5.0 * yrow), (64, 64)))
        assert np.all(partial_x(f).samples == 0.0)

    def test_derivative_commutes_with_lambda(self):
        grid = make_grid(32)
        f = random_band_limited(grid, seed=5)
        a = partial_x(lambda_pow(f, 1.5))
        b = lambda_pow(partial_x(f), 1.5)
        scale = sobolev_norm(a, 0.0)
        assert sobolev_norm(a - b, 0.0) <= 1e-10 * scale


class TestLambdaPow:
    def test_constant(self):
        grid = make_grid(16)
        f = lambda_pow(constant_field(grid, 1.0), 2.0)
        assert np.allclose(f.samples, 1.0)

    def test_cos3y_sigma2(self):
        grid = make_grid(32)
        f = synthesize(grid, [(0, 3, 1.0, "cos", 0.0)])
        assert np.allclose(lambda_pow(f, 2.0).samples, 10.0 * f.samples)

    def test_inverse(self):
        grid = make_grid(32)
        f = random_band_limited(grid, seed=6)
        g = lambda_pow(lambda_pow(f, 1.7), -1.7)
        scale = np.max(np.abs(f.samples))
        assert np.max(np.abs(g.samples - f.samples)) <= 1e-12 * scale

    @pytest.mark.parametrize("size, cells", [(16, 1), (64, 1), (8, 4)])
    def test_cached_multiplier_matches_formula(self, size, cells):
        # the multiplier is cached per (grid, sigma); the values stay bit for bit
        grid = make_grid(size, cells)
        f = Field(grid, samples=np.random.default_rng(size).standard_normal((size, size)))
        for sigma in (1.5, 3, -1.7, 1.5):
            expected = f.coefficients * grid.one_plus_ksq ** (0.5 * float(sigma))
            assert lambda_pow(f, sigma).coefficients.tobytes() == expected.tobytes()

    @given(
        a=st.floats(min_value=-2.0, max_value=2.0),
        b=st.floats(min_value=-2.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_composition(self, a, b, seed):
        grid = make_grid(16)
        f = random_band_limited(grid, seed, max_mode=4)
        lhs = lambda_pow(lambda_pow(f, a), b)
        rhs = lambda_pow(f, a + b)
        scale = np.max(np.abs(rhs.samples)) + 1e-30
        assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-12 * scale


def mode_sum_norm(coefficient_table, sigma):
    """Independent norm oracle: 2*pi*sqrt(sum (1+|k|^2)^sigma |c_k|^2)
    over an explicit {(kx, ky): amplitude} table."""
    total = sum(
        (1.0 + kx * kx + ky * ky) ** sigma * abs(c) ** 2
        for (kx, ky), c in coefficient_table.items()
    )
    return TWO_PI * math.sqrt(total)


class TestSobolevNorm:
    @pytest.mark.parametrize("size, cells", [(16, 1), (64, 1), (8, 4)])
    def test_cached_weights_match_formula(self, size, cells):
        # the weight table is cached per (grid, sigma); norms stay bit for bit
        grid = make_grid(size, cells)
        rng = np.random.default_rng(size)
        f = Field(grid, samples=rng.standard_normal((size, size)))
        c = f.coefficients
        for sigma in (0.0, 1.5, 3.0, 0.5, 1.5):
            weight = grid.one_plus_ksq ** float(sigma) * grid.column_weights
            expected = float(2.0 * np.pi * np.sqrt(np.sum(weight * (c.real**2 + c.imag**2))))
            assert sobolev_norm(f, sigma) == expected

    @pytest.mark.parametrize("sigma", [0.0, 1.5, 3.0])
    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_cos_ny_formula(self, n, sigma):
        grid = make_grid(64)
        f = synthesize(grid, [(0, n, 1.0, "cos", 0.0)])
        expected = np.pi * np.sqrt(2.0) * (1.0 + n * n) ** (sigma / 2.0)
        assert sobolev_norm(f, sigma) == pytest.approx(expected, rel=1e-12)

    def test_constant(self):
        grid = make_grid(16)
        assert sobolev_norm(constant_field(grid, 3.0), 2.0) == pytest.approx(
            6.0 * np.pi, rel=1e-13
        )
        assert sobolev_norm(constant_field(grid, -0.5), 0.0) == pytest.approx(
            np.pi, rel=1e-13
        )

    @pytest.mark.parametrize("sigma", [0.0, 1.5, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_sin2nx_cosny(self, n, sigma):
        # sin(2nx)cos(ny) has four modes at (+-2n, +-n), each of magnitude
        # 1/4; the exact norm follows from the mode sum.
        grid = make_grid(64)
        xcol, yrow = grid.meshgrid()
        f = Field(grid, samples=np.sin(2.0 * n * xcol) * np.cos(n * yrow))
        table = {
            (2 * n, n): 0.25,
            (2 * n, -n): 0.25,
            (-2 * n, n): 0.25,
            (-2 * n, -n): 0.25,
        }
        oracle = mode_sum_norm(table, sigma)
        closed = np.pi * (1.0 + 5.0 * n * n) ** (sigma / 2.0)
        assert oracle == pytest.approx(closed, rel=1e-13)
        assert sobolev_norm(f, sigma) == pytest.approx(closed, rel=1e-10)

    def test_norm_formula_all_n_up_to_cutoff(self):
        grid = make_grid(64)
        for n in range(1, grid.dealias_cutoff + 1):
            for sigma in (0.0, 1.5, 3.0):
                f = synthesize(grid, [(0, n, 1.0, "cos", 0.0)])
                expected = np.pi * np.sqrt(2.0) * (1.0 + n * n) ** (sigma / 2.0)
                assert abs(sobolev_norm(f, sigma) - expected) <= 1e-9 * expected

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_parseval(self, seed):
        grid = make_grid(32)
        f = random_band_limited(grid, seed)
        quadrature = (TWO_PI / grid.size) * np.linalg.norm(f.samples)
        assert sobolev_norm(f, 0.0) == pytest.approx(quadrature, rel=1e-10)

    def test_grid_refinement_invariance(self):
        modes = [(3, -2, 0.8, "cos", 0.4), (1, 5, -1.1, "sin", 1.9)]
        coarse = sobolev_norm(synthesize(make_grid(64), modes), 1.5)
        fine = sobolev_norm(synthesize(make_grid(128), modes), 1.5)
        assert fine == pytest.approx(coarse, rel=1e-12)

    def test_translation_invariance(self):
        grid = make_grid(32)
        base = [(2, 3, 1.0, "cos", 0.0)]
        shifted = [(2, 3, 1.0, "cos", 0.71)]
        for sigma in (0.0, 2.0):
            assert sobolev_norm(synthesize(grid, base), sigma) == pytest.approx(
                sobolev_norm(synthesize(grid, shifted), sigma), rel=1e-12
            )


class TestDealias:
    def test_band_limited_unchanged(self):
        grid = make_grid(32)  # cutoff 10
        f = random_band_limited(grid, seed=7, max_mode=10)
        g = dealias(f)
        assert np.max(np.abs(g.samples - f.samples)) < 1e-13

    def test_high_mode_removed(self):
        grid = make_grid(32)
        f = synthesize(grid, [(15, 0, 1.0, "cos", 0.0)])  # 15 > 10 = cutoff
        assert np.max(np.abs(dealias(f).samples)) < 1e-13

    def test_idempotent(self):
        grid = make_grid(32)
        f = random_band_limited(grid, seed=8, max_mode=14)
        once = dealias(f)
        twice = dealias(once)
        assert np.array_equal(once.coefficients, twice.coefficients)

    def test_cutoff_value(self):
        assert make_grid(64).dealias_cutoff == 21
        assert make_grid(32).dealias_cutoff == 10


#: scipy.fft's public transforms; the package calls none of them.
PUBLIC_TRANSFORMS = (
    "fft", "ifft", "rfft", "irfft",
    "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)  # fmt: skip


def assert_same_bytes(got, want, what):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


class TestKernelAdapter:
    """The pocketfft adapter against the public scipy.fft functions it replaces.

    Every call shape the package makes must give the public function's bytes.
    The adapter calls scipy's private kernel module with the arguments the
    public functions pass, so a scipy release that changes those arguments
    (normalization codes, axis handling) fails here.  Sizes 6, 48 and 100 are
    not powers of two, so one 1/N^2 factor and two per-axis 1/N factors round
    differently there.
    """

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("size", [6, 8, 48, 64, 100, 512])
    def test_every_call_shape_equals_public_bytes(self, size, cores, monkeypatch):
        monkeypatch.setattr(spectral, "_CORES", cores)
        rng = np.random.default_rng(size)
        batch = rng.standard_normal((4, size, size))  # a state's four fields
        one = batch[0]
        hat = sfft.rfft2(batch, axes=(-2, -1))
        m = size // 4  # filled half-plane columns of a pruned inverse
        columns = hat[0, :, :m].copy()
        with sfft.set_workers(cores):
            cases = {
                "rfft2 batch": (
                    _rfft(batch, (-2, -1), scale=True),
                    sfft.rfft2(batch, axes=(-2, -1), norm="forward"),
                ),
                "rfft2 forward": (
                    _rfft(one, (0, 1), scale=True),
                    sfft.rfft2(one, norm="forward"),
                ),
                "rfft axis 1": (_rfft(one, (1,), scale=False), sfft.rfft(one, axis=1)),
                "irfft2 batch": (
                    _irfft(hat, (-2, -1), size),
                    sfft.irfft2(hat, s=(size, size), axes=(-2, -1), norm="forward"),
                ),
                "irfft2 forward": (
                    _irfft(hat[0], (0, 1), size),
                    sfft.irfft2(hat[0], s=(size, size), norm="forward"),
                ),
                "irfft axis 1": (
                    _irfft(hat[0], (1,), size),
                    sfft.irfft(hat[0], n=size, axis=1, norm="forward"),
                ),
                "fft axis 0": (
                    _fft(columns, 0, forward=True),
                    sfft.fft(columns, axis=0),
                ),
                "ifft axis 0": (
                    _fft(columns, 0, forward=False),
                    sfft.ifft(columns, axis=0, norm="forward"),
                ),
            }
            in_place = columns.copy()
            _fft(in_place, 0, forward=False, out=in_place)
            cases["ifft in place"] = (in_place, sfft.ifft(columns, axis=0, norm="forward"))
            in_place = columns.copy()
            _fft(in_place, 0, forward=True, out=in_place)
            cases["fft in place"] = (in_place, sfft.fft(columns, axis=0))
            into = {"rfft2": np.empty_like(hat), "irfft": np.empty_like(batch)}
            into["rfft"] = np.empty_like(hat[0])
            _rfft(one, (1,), scale=False, out=into["rfft"])
            cases["rfft axis 1 into out"] = (into["rfft"], sfft.rfft(one, axis=1))
            _rfft(batch, (-2, -1), scale=True, out=into["rfft2"])
            _irfft(hat, (-1,), size, out=into["irfft"])
            cases["rfft2 batch into out"] = (
                into["rfft2"],
                sfft.rfft2(batch, axes=(-2, -1), norm="forward"),
            )
            cases["irfft last axis into out"] = (
                into["irfft"],
                sfft.irfft(hat, n=size, axis=-1, norm="forward"),
            )
            for filled in (m, 0):  # the column view, and no filled column at all
                out = np.zeros((size, size // 2 + 1), dtype=np.complex128)
                _fft(columns[:, :filled], 0, forward=False, out=out[:, :filled])
                want = sfft.ifft(columns[:, :filled], axis=0, norm="forward")
                cases[f"ifft into {filled} columns"] = (out[:, :filled].copy(), want)
                assert not out[:, filled:].any()
            for filled in (0, m, size // 2 + 1):  # none, some and all columns
                padded = np.zeros_like(hat)
                padded[..., :filled] = hat[..., :filled]
                want = sfft.irfft2(padded, s=(size, size), norm="forward")
                band = hat[..., :filled].copy()
                got = _band_irfft2(band, np.zeros_like(hat), size)
                cases[f"band irfft2 of {filled} columns"] = (got, want)
                spectra, out = padded.copy(), np.empty_like(batch)
                _band_irfft2(spectra[..., :filled], spectra, size, out=out)
                cases[f"band irfft2 in place of {filled} columns"] = (out, want)
            zero = Field(make_grid(size), samples=np.zeros((size, size)))
            cases["pruned inverse of zero"] = (
                _lift(zero),
                sfft.irfft2(np.zeros((2 * size, size + 1), complex), norm="forward"),
            )
        for what, (got, want) in cases.items():
            assert_same_bytes(got, want, what)

    def test_runs_reach_no_public_transform(self, monkeypatch):
        # the nonuniform experiment and a doubled-grid product, the two paths
        # that make the most transforms, with every public transform disabled
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.fft public transform called")

        for name in PUBLIC_TRANSFORMS:
            monkeypatch.setattr(sfft, name, refuse)
        report = run_experiment(ExperimentConfig("nonuniform", n_list=(4, 8)))
        assert {row["n"] for row in report.rows} == {4, 8}
        grid = make_grid(32)
        f, g = (random_field(grid, RandomFieldSpec(max_mode=6, seed=k)) for k in (1, 2))
        product = product_exact(f, g)
        assert np.isfinite(product.samples).all()

    def test_missing_kernel_is_a_one_line_import_error(self, monkeypatch):
        find_spec = spectral.importlib.machinery.PathFinder.find_spec

        def without_kernel(name, path=None, target=None):
            if name == "pypocketfft":
                return None
            return find_spec(name, path, target)

        monkeypatch.setattr(
            spectral.importlib.machinery.PathFinder, "find_spec", without_kernel
        )
        with pytest.raises(ImportError) as info:
            spectral._load_kernel()
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith("pocketfft kernel pypocketfft not found in ")
        assert message.endswith(os.path.join("scipy", "fft", "_pocketfft"))


class TestThreadRule:
    """Transforms of at least 2**17 elements run on every core, all others on one."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(spectral, "_CORES", 2)

    @staticmethod
    def rhs_threads(grid, kernel_threads):
        """The threads of each transform of the solver's band kernel, in call order."""
        state = initial_data(FamilyParams(1, 8, 3.0), GasParams(), grid)
        state_hat = state_to_hat(state) * grid.dealias_mask
        kernel = _RhsKernel(grid, grid.dealias_cutoff + 1)
        kernel_threads.clear()
        kernel(state_hat, GasParams())
        return list(kernel_threads)

    def test_below_the_cut_one_thread(self, kernel_threads):
        assert self.rhs_threads(make_grid(8, cells=8), kernel_threads) == [1] * 4
        kernel_threads.clear()
        _fft(np.ones(2**17 - 1, complex), 0, forward=True)
        for base in (64, 128):  # each product makes six transforms
            grid = make_grid(base)
            f, g = (random_field(grid, RandomFieldSpec(max_mode=6, seed=k)) for k in (1, 2))
            product_exact(f, g)
        assert kernel_threads == [1] * 13

    def test_at_the_cut_all_cores(self, kernel_threads):
        # the band's inverse column transform (12 x 256 x 86 elements) runs on
        # both cores; the workers transform their four blocks of rows on one
        # thread each, two transforms a block; the forward column transform of
        # the four products' band (4 x 256 x 86) falls below the cut
        assert self.rhs_threads(make_grid(256), kernel_threads) == [2] + [1] * 9
        kernel_threads.clear()
        _fft(np.ones(2**17, complex), 0, forward=True)
        big = Field(make_grid(512), coefficients=np.zeros((512, 257), complex))
        assert big.samples.shape == (512, 512)
        assert kernel_threads == [2, 2]
