"""Closed-form solution families, the residue, and their norm scalings."""

import math

import numpy as np
import pytest

from torusgas.euler import (
    GasParams,
    rhs,
    state_difference,
    state_norm,
)
from torusgas.families import (
    FamilyParams,
    approx_difference,
    approx_solution,
    approx_time_derivative,
    assemble_approx_residual,
    exact_solution,
    exact_time_derivative,
    initial_data,
    residue_field,
    residue_identity_errors,
    residue_norm_bound,
)
from torusgas.spectral import make_grid, sobolev_norm

GAS = GasParams()
TWO_PI = 2.0 * np.pi


def fit_slope(ns, values):
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


class TestFamilyParams:
    def test_valid(self):
        f = FamilyParams(omega=-1, n=8, s=3.0)
        assert f.omega == -1 and f.n == 8

    def test_omega_restricted(self):
        with pytest.raises(ValueError, match="omega"):
            FamilyParams(omega=0, n=4, s=3.0)
        with pytest.raises(ValueError, match="omega"):
            FamilyParams(omega=2, n=4, s=3.0)

    def test_n_positive_integer(self):
        with pytest.raises(ValueError, match="positive integer"):
            FamilyParams(omega=1, n=0, s=3.0)
        with pytest.raises(ValueError, match="positive integer"):
            FamilyParams(omega=1, n=2.5, s=3.0)
        with pytest.raises(ValueError, match="positive integer, got True"):
            FamilyParams(omega=1, n=True, s=3.0)

    def test_s_range(self):
        with pytest.raises(ValueError, match="s must exceed 2"):
            FamilyParams(omega=1, n=4, s=2.0)


class TestExactFamily:
    def test_component_values(self):
        grid = make_grid(32)
        V = exact_solution(FamilyParams(1, 2, 3.0), GAS, grid, 0.0)
        _, yrow = grid.meshgrid()
        assert np.allclose(V.rho.samples, 1.0)
        assert np.allclose(V.u.samples, 0.125 * np.cos(2.0 * yrow))
        assert np.allclose(V.v.samples, 0.5)
        assert np.allclose(V.h.samples, 1.0)

    def test_aliasing_rejected(self):
        grid = make_grid(16)
        with pytest.raises(ValueError, match="dealias band"):
            exact_solution(FamilyParams(1, 7, 3.0), GAS, grid, 0.0)

    def test_time_derivative_against_finite_difference(self):
        # the closed form should match a central difference of the
        # solution itself to O(eps^2)
        grid = make_grid(64)
        f = FamilyParams(-1, 5, 3.0)
        t, eps = 0.4, 1e-5
        plus = exact_solution(f, GAS, grid, t + eps)
        minus = exact_solution(f, GAS, grid, t - eps)
        fd = (plus.u.samples - minus.u.samples) / (2.0 * eps)
        closed = exact_time_derivative(f, grid, t)
        assert np.max(np.abs(fd - closed.u.samples)) < 1e-9
        assert np.all(closed.rho.samples == 0.0)
        assert np.all(closed.v.samples == 0.0)
        assert np.all(closed.h.samples == 0.0)

    def test_pair_distance_closed_form(self):
        # V(+1) - V(-1) = (0, 2 n^{-s} sin(ny) sin t, 2/n, 0)
        grid = make_grid(64)
        n, s, t = 4, 3.0, 0.8
        d = state_difference(
            exact_solution(FamilyParams(1, n, s), GAS, grid, t),
            exact_solution(FamilyParams(-1, n, s), GAS, grid, t),
        )
        mode_term = 2.0 * n ** (-s) * np.pi * np.sqrt(2.0) * (1 + n * n) ** (s / 2.0)
        expected = math.sqrt(
            (mode_term * math.sin(t)) ** 2 + (TWO_PI * 2.0 / n) ** 2
        )
        assert state_norm(d, s) == pytest.approx(expected, rel=1e-12)

    def test_satisfies_equation(self):
        grid = make_grid(64)
        for t in (0.0, 0.9):
            f = FamilyParams(1, 6, 3.0)
            V = exact_solution(f, GAS, grid, t)
            dV = exact_time_derivative(f, grid, t)
            assert state_norm(state_difference(rhs(V, GAS), dV), 0.0) <= 1e-10


class TestApproxFamily:
    def test_t0_matches_initial_data(self):
        grid = make_grid(64)
        f = FamilyParams(1, 4, 3.0)
        at_zero = approx_solution(f, GAS, grid, 0.0)
        init = initial_data(f, GAS, grid)
        for a, b in zip(at_zero.fields(), init.fields()):
            assert np.array_equal(a.samples, b.samples)

    def test_density_constant(self):
        grid = make_grid(64)
        for t in (0.0, 0.5, 2.0):
            U = approx_solution(FamilyParams(-1, 4, 2.5), GAS, grid, t)
            assert np.all(U.rho.samples == GAS.rho0)

    def test_resolution_rule(self):
        grid = make_grid(32)  # cutoff 10, residue of n=6 reaches mode 12
        with pytest.raises(ValueError, match="dealias band"):
            approx_solution(FamilyParams(1, 6, 3.0), GAS, grid, 0.0)

    def test_resolution_rule_on_cells(self):
        # a 2*pi/4 cell of 8 points keeps physical modes up to 2 * 4 = 8
        cell = make_grid(8, 4)
        assert approx_solution(FamilyParams(1, 4, 3.0), GAS, cell, 0.0).grid == cell
        with pytest.raises(ValueError, match="dealias band 8 of an N=8 grid on a 2\\*pi/4 cell"):
            approx_solution(FamilyParams(1, 8, 3.0), GAS, cell, 0.0)
        with pytest.raises(ValueError, match="n=6 is not periodic on the 2\\*pi/4 cell"):
            approx_solution(FamilyParams(1, 6, 3.0), GAS, make_grid(32, 4), 0.0)
        with pytest.raises(ValueError, match="n=2 is not periodic"):
            exact_solution(FamilyParams(1, 2, 3.0), GAS, cell, 0.0)

    def test_deviation_slope_at_sigma_s_minus_1(self):
        # At sigma = s-1 the constant drift omega/n and the oscillatory
        # part both scale like n^{sigma-s}; the fitted slope matches.
        s, sigma = 3.0, 2.0
        ns = [4, 8, 16, 32]
        values = []
        for n in ns:
            grid = make_grid(8 * n)
            from torusgas.euler import base_deviation

            U = approx_solution(FamilyParams(1, n, s), GAS, grid, 0.3)
            values.append(state_norm(base_deviation(U, GAS), sigma))
        assert abs(fit_slope(ns, values) - (sigma - s)) <= 0.05

    @pytest.mark.parametrize("sigma", [3.0, 4.0])
    def test_deviation_bounded_by_anchored_envelope(self, sigma):
        # || U - (rho0,0,0,h0) ||_sigma <= C n^{sigma-s} with C anchored
        # at the smallest n (valid for sigma >= s-1)
        s = 3.0
        ns = [4, 8, 16, 32]
        values = []
        for n in ns:
            grid = make_grid(8 * n)
            from torusgas.euler import base_deviation

            U = approx_solution(FamilyParams(1, n, s), GAS, grid, 0.0)
            values.append(state_norm(base_deviation(U, GAS), sigma))
        anchor = values[0] / ns[0] ** (sigma - s)
        for n, value in zip(ns[1:], values[1:]):
            assert value <= 1.05 * anchor * n ** (sigma - s)


class TestInitialData:
    def test_pair_distance_formula(self):
        for n in (3, 8, 20):
            grid = make_grid(8 * n)
            d = state_difference(
                initial_data(FamilyParams(1, n, 3.0), GAS, grid),
                initial_data(FamilyParams(-1, n, 3.0), GAS, grid),
            )
            assert state_norm(d, 3.0) == pytest.approx(
                4.0 * np.sqrt(2.0) * np.pi / n, rel=1e-12
            )

    def test_h_deviation_amplitude(self):
        n = 4
        grid = make_grid(8 * n)
        U = initial_data(FamilyParams(1, n, 3.0), GAS, grid)
        deviation = np.max(np.abs(U.h.samples - GAS.h0))
        assert deviation == pytest.approx(n ** (-6.0), rel=1e-12)

    def test_stays_admissible(self):
        # n = 1 sits exactly on the boundary (the h-perturbation amplitude
        # n^{-2s} is 1 regardless of s); admissibility needs n >= 2
        for n in (2, 3, 16):
            grid = make_grid(8 * n)
            initial_data(FamilyParams(-1, n, 3.0), GAS, grid).require_admissible()


class TestResidue:
    def test_product_and_sum_forms_agree(self):
        # the product-to-sum rewriting
        # (sin 2a cos b + cos a sin 2b) / (2 n^{3s-1}), a = nx - wt, b = ny - wt
        grid = make_grid(64)
        f = FamilyParams(1, 4, 3.0)
        xcol, yrow = grid.meshgrid()
        for t in (0.0, 0.3, 1.0):
            a = f.n * xcol - f.omega * t
            b = f.n * yrow - f.omega * t
            rewritten = 0.5 * f.n ** (1.0 - 3.0 * f.s) * (
                np.sin(2.0 * a) * np.cos(b) + np.cos(a) * np.sin(2.0 * b)
            )
            product = residue_field(f, grid, t).samples
            assert np.max(np.abs(product - rewritten)) <= 1e-14

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_norm_closed_form(self, sigma):
        # eight modes at (+-2n, +-n) and (+-n, +-2n), all with
        # |k|^2 = 5 n^2 and coefficient magnitude n^{1-3s}/8
        s = 3.0
        for n in (4, 8):
            grid = make_grid(8 * n)
            f = FamilyParams(1, n, s)
            prefactor = n ** (1.0 - 3.0 * s)
            mode_sum = 8 * (prefactor / 8.0) ** 2 * (1.0 + 5.0 * n * n) ** sigma
            oracle = TWO_PI * math.sqrt(mode_sum)
            closed = (np.pi / np.sqrt(2.0)) * prefactor * (
                1.0 + 5.0 * n * n
            ) ** (sigma / 2.0)
            assert oracle == pytest.approx(closed, rel=1e-13)
            measured = sobolev_norm(residue_field(f, grid, 0.0), sigma)
            assert measured == pytest.approx(closed, rel=1e-12)

    def test_norm_time_invariant(self):
        # time evolution translates the residue; norms do not change
        grid = make_grid(64)
        f = FamilyParams(-1, 4, 3.0)
        at_zero = sobolev_norm(residue_field(f, grid, 0.0), 1.5)
        later = sobolev_norm(residue_field(f, grid, 0.77), 1.5)
        assert later == pytest.approx(at_zero, rel=1e-12)

    def test_norm_scaling_slope(self):
        s, sigma = 3.0, 1.5
        ns = [4, 8, 16, 32]
        values = [
            sobolev_norm(residue_field(FamilyParams(1, n, s), make_grid(8 * n), 0.0), sigma)
            for n in ns
        ]
        assert abs(fit_slope(ns, values) - (sigma - 3.0 * s + 1.0)) <= 0.05
        # stays below 10x the bound envelope anchored at the smallest n
        anchor = values[0] / residue_norm_bound(FamilyParams(1, ns[0], s), sigma)
        for n, value in zip(ns, values):
            envelope = anchor * residue_norm_bound(FamilyParams(1, n, s), sigma)
            assert value <= 10.0 * envelope


class TestResidueNormBound:
    def test_round_number_value(self):
        assert residue_norm_bound(FamilyParams(1, 10, 3.0), 1.5) == pytest.approx(1e-5)

    def test_sigma_boundary(self):
        residue_norm_bound(FamilyParams(1, 4, 3.0), 2.0)  # sigma = s-1 accepted
        with pytest.raises(ValueError, match="sigma"):
            residue_norm_bound(FamilyParams(1, 4, 3.0), 3.0)
        with pytest.raises(ValueError, match="sigma"):
            residue_norm_bound(FamilyParams(1, 4, 3.0), 1.0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            residue_norm_bound(FamilyParams(1, 1, 3.0), 1.5)

    def test_exponent_negative(self):
        for s, sigma in ((2.5, 1.4), (3.0, 2.0), (4.0, 2.9)):
            assert 2.0 * sigma - 3.0 * s + 1.0 < 0.0
            bound = residue_norm_bound(FamilyParams(1, 8, s), sigma)
            assert bound < 1.0

    def test_measured_over_bound_decays(self):
        s, sigma = 3.0, 1.5
        ratios = []
        for n in (4, 8, 16):
            grid = make_grid(8 * n)
            f = FamilyParams(1, n, s)
            measured = sobolev_norm(residue_field(f, grid, 0.0), sigma)
            ratios.append(measured / residue_norm_bound(f, sigma))
        assert ratios[0] > ratios[1] > ratios[2]


class TestApproxDifference:
    def test_matches_direct_subtraction(self):
        n, s = 4, 3.0
        grid = make_grid(8 * n)
        for t in (0.0, 0.3, 1.0):
            closed = approx_difference(n, s, grid, t)
            direct = state_difference(
                approx_solution(FamilyParams(1, n, s), GAS, grid, t),
                approx_solution(FamilyParams(-1, n, s), GAS, grid, t),
            )
            for a, b in zip(closed.fields(), direct.fields()):
                assert np.max(np.abs(a.samples - b.samples)) <= 1e-13

    def test_t0_values(self):
        n = 8
        grid = make_grid(64)
        d = approx_difference(n, 3.0, grid, 0.0)
        assert np.all(d.rho.samples == 0.0)
        assert np.allclose(d.u.samples, 2.0 / n)
        assert np.allclose(d.v.samples, 2.0 / n)
        assert np.all(d.h.samples == 0.0)

    def test_velocity_floor_large_n(self):
        grid = make_grid(8 * 64)
        for t in (0.5, 1.0):
            d = approx_difference(64, 3.0, grid, t)
            floor = 2.0 * np.sqrt(2.0) * np.pi * abs(math.sin(t))
            assert state_norm(d, 3.0) >= floor


class TestAssembledResidue:
    @pytest.mark.parametrize("omega", [1, -1])
    def test_componentwise_identity(self, omega):
        n = 8
        grid = make_grid(8 * n)
        f = FamilyParams(omega, n, 3.0)
        for t in (0.0, 1.0):
            errs = residue_identity_errors(f, GAS, grid, t)
            assert all(e <= 1e-10 for e in errs)

    def test_first_three_components_vanish(self):
        n = 4
        grid = make_grid(8 * n)
        res = assemble_approx_residual(FamilyParams(1, n, 3.0), GAS, grid, 0.3)
        assert np.all(res.rho.samples == 0.0)
        scale = n ** (1.0 - 2.0 * 3.0)  # size of the cancelling terms
        assert np.max(np.abs(res.u.samples)) <= 1e-10 * scale
        assert np.max(np.abs(res.v.samples)) <= 1e-10 * scale

    def test_fourth_component_is_residue(self):
        n = 4
        grid = make_grid(8 * n)
        f = FamilyParams(1, n, 3.0)
        res = assemble_approx_residual(f, GAS, grid, 0.0)
        target = residue_field(f, grid, 0.0)
        gap = np.max(np.abs(res.h.samples - target.samples))
        assert gap <= 1e-10 * np.max(np.abs(target.samples))
