"""Coefficient matrices, symmetrizer identities, and the spectral RHS."""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusgas import euler, solver, spectral
from torusgas.euler import (
    AdmissibleStateError,
    GasParams,
    PointState,
    State,
    _RhsKernel,
    _require_admissible,
    _state_norms,
    divergence,
    matrix_A,
    matrix_A0,
    matrix_A1,
    matrix_B,
    matrix_B1,
    max_wave_speed,
    rhs,
    rhs_hat,
    state_difference,
    state_from_hat,
    state_norm,
    state_to_hat,
    symmetrizer_floor,
)
from torusgas.families import (
    FamilyParams,
    approx_solution,
    approx_time_derivative,
    exact_solution,
    exact_time_derivative,
    residue_field,
)
from torusgas.lab import ExperimentConfig, run_experiment
from torusgas.solver import SolveConfig, SolverError, cfl_dt, evolve, step_rk4
from torusgas.spectral import (
    Field,
    _irfft,
    _rfft,
    constant_field,
    dealias,
    make_grid,
    partial_x,
    partial_y,
    sobolev_norm,
    synthesize,
)

GAS = GasParams()


def constant_state(grid, rho, u, v, h):
    return State(
        constant_field(grid, rho),
        constant_field(grid, u),
        constant_field(grid, v),
        constant_field(grid, h),
    )


def random_point(rng):
    """Admissible point with rho, h in [0.5, 2] and u, v in [-1, 1]."""
    return PointState(
        rho=float(rng.uniform(0.5, 2.0)),
        u=float(rng.uniform(-1.0, 1.0)),
        v=float(rng.uniform(-1.0, 1.0)),
        h=float(rng.uniform(0.5, 2.0)),
    )


class TestGasParams:
    def test_defaults(self):
        assert GAS.gamma == 1.4 and GAS.rho0 == 1.0 and GAS.h0 == 1.0

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            GasParams(gamma=1.0)
        with pytest.raises(ValueError, match="gamma"):
            GasParams(gamma=3.0)

    def test_base_positivity(self):
        with pytest.raises(ValueError, match="rho0 > 0"):
            GasParams(rho0=0.0)
        with pytest.raises(ValueError, match="h0 > 0"):
            GasParams(h0=-1.0)

    @pytest.mark.parametrize("name", ["rho0", "h0"])
    def test_bool_is_not_a_number(self, name):
        with pytest.raises(TypeError, match=f"{name} must be a real number, got True"):
            GasParams(**{name: True})


class TestPointState:
    def test_accepts_admissible(self):
        p = PointState(1.0, 2.0, -3.0, 0.1)
        assert p.rho == 1.0 and p.h == 0.1

    def test_rejects_nonpositive(self):
        with pytest.raises(AdmissibleStateError):
            PointState(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(AdmissibleStateError):
            PointState(1.0, 0.0, 0.0, -0.5)


class TestMatrices:
    def test_matrix_A_printed_rows(self):
        a = matrix_A(PointState(1.0, 2.0, 0.0, 1.0), GAS)
        assert np.allclose(a[0], [2.0, 1.0, 0.0, 0.0])
        assert np.allclose(a[1], [1.0, 2.0, 0.0, 1.0])
        assert np.allclose(a[3], [0.0, 0.4, 0.0, 2.0])

    def test_matrix_B_printed_row(self):
        b = matrix_B(PointState(1.0, 0.0, 0.0, 1.0), GAS)
        assert np.allclose(b[2], [1.0, 0.0, 0.0, 1.0])

    def test_zero_velocity_diagonal(self):
        a = matrix_A(PointState(1.3, 0.0, 0.0, 0.7), GAS)
        assert np.allclose(np.diag(a), 0.0)

    def test_matrix_A0_base(self):
        a0 = matrix_A0(PointState(1.0, 0.0, 0.0, 1.0), GAS)
        assert np.allclose(a0, np.diag([1.0, 1.0, 1.0, 2.5]))

    def test_A0A_equals_A1_at_reference_point(self):
        p = PointState(1.0, 0.3, -0.2, 1.1)
        product = matrix_A0(p, GAS) @ matrix_A(p, GAS)
        assert np.max(np.abs(product - matrix_A1(p, GAS))) <= 1e-12

    def test_symmetrizer_identities_random_points(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p = random_point(rng)
            a0 = matrix_A0(p, GAS)
            a1 = matrix_A1(p, GAS)
            b1 = matrix_B1(p, GAS)
            assert np.max(np.abs(a0 @ matrix_A(p, GAS) - a1)) <= 1e-12
            assert np.max(np.abs(a0 @ matrix_B(p, GAS) - b1)) <= 1e-12
            assert np.max(np.abs(a1 - a1.T)) <= 1e-12
            assert np.max(np.abs(b1 - b1.T)) <= 1e-12

    def test_A0_positive_definite_in_box(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_point(rng)
            a0 = matrix_A0(p, GAS)
            # diagonal matrix: leading principal minors are prefix products
            minors = np.cumprod(np.diag(a0))
            assert np.all(minors > 0.0)

    def test_A0_floor_near_base_state(self):
        kappa = symmetrizer_floor(GAS)
        assert kappa == pytest.approx(0.5)
        rng = np.random.default_rng(11)
        radius = 0.1 * min(GAS.rho0, GAS.h0)
        for _ in range(300):
            p = PointState(
                rho=GAS.rho0 + float(rng.uniform(-radius, radius)),
                u=float(rng.uniform(-radius, radius)),
                v=float(rng.uniform(-radius, radius)),
                h=GAS.h0 + float(rng.uniform(-radius, radius)),
            )
            eigenvalues = np.diag(matrix_A0(p, GAS))
            assert eigenvalues.min() >= kappa

    def test_matrix_rejects_inadmissible_point(self):
        with pytest.raises(AdmissibleStateError):
            matrix_A(PointState(-1.0, 0.0, 0.0, 1.0), GAS)


class TestState:
    def test_mixed_grids_rejected(self):
        g1, g2 = make_grid(8), make_grid(16)
        with pytest.raises(ValueError, match="different grids"):
            State(
                constant_field(g1, 1.0),
                constant_field(g1, 0.0),
                constant_field(g2, 0.0),
                constant_field(g1, 1.0),
            )

    def test_cell_and_full_grid_of_one_size_rejected(self):
        full, cell = make_grid(8), make_grid(8, 2)
        with pytest.raises(ValueError, match=r"different grids: .*cells=2"):
            State(*(constant_field(g, 1.0) for g in (full, full, cell, full)))

    def test_components_are_not_assigned(self):
        # an assignment would bypass the same-grid check
        s = constant_state(make_grid(16), 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'rho'"):
            s.rho = constant_field(make_grid(32), 1.0)
        assert s.rho.grid == make_grid(16)

    def test_admissibility_message_names_field(self):
        grid = make_grid(16)
        s = constant_state(grid, 1.0, 0.0, 0.0, 1.0)
        bad = State(
            s.rho, s.u, s.v, Field(grid, samples=np.full((16, 16), -2.0))
        )
        with pytest.raises(AdmissibleStateError, match=r"min\(h\)"):
            bad.require_admissible()

    def test_state_norm_constant(self):
        grid = make_grid(16)
        s = constant_state(grid, 1.0, 0.0, 0.0, 1.0)
        # two unit constants: sqrt(2) * 2 pi, any sigma
        assert state_norm(s, 1.5) == pytest.approx(2.0 * np.pi * np.sqrt(2.0))


class TestRhs:
    def test_constant_state_is_stationary(self):
        grid = make_grid(32)
        s = constant_state(grid, 1.0, 0.3, -0.2, 1.1)
        out = rhs(s, GAS)
        assert state_norm(out, 0.0) <= 1e-14

    @given(
        rho=st.floats(min_value=0.5, max_value=2.0),
        u=st.floats(min_value=-1.0, max_value=1.0),
        h=st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_stationarity_property(self, rho, u, h):
        grid = make_grid(16)
        out = rhs(constant_state(grid, rho, u, -u, h), GAS)
        assert state_norm(out, 0.0) <= 1e-13

    @pytest.mark.parametrize("omega", [1, -1])
    @pytest.mark.parametrize("n", [1, 4])
    def test_exact_family_time_derivative(self, omega, n):
        grid = make_grid(64)
        f = FamilyParams(omega=omega, n=n, s=3.0)
        for t in (0.0, 0.55, 1.0):
            V = exact_solution(f, GAS, grid, t)
            dV = exact_time_derivative(f, grid, t)
            err = state_norm(state_difference(rhs(V, GAS), dV), 0.0)
            assert err <= 1e-10

    def test_approx_family_residue_identity(self):
        # rhs(U) differs from dU/dt exactly by the residue in the fourth
        # component: dU/dt + A U_x + B U_y = (0, 0, 0, R4).
        n = 4
        grid = make_grid(8 * n)
        f = FamilyParams(omega=1, n=n, s=3.0)
        for t in (0.0, 0.3):
            U = approx_solution(f, GAS, grid, t)
            dU = approx_time_derivative(f, grid, t)
            R = residue_field(f, grid, t)
            expected = State(
                dU.rho,
                dU.u,
                dU.v,
                Field(grid, samples=dU.h.samples - R.samples),
            )
            err = state_norm(state_difference(rhs(U, GAS), expected), 0.0)
            assert err <= 1e-10

    def test_rejects_inadmissible_state(self):
        grid = make_grid(16)
        s = State(
            Field(grid, samples=np.full((16, 16), -1.0)),
            constant_field(grid, 0.0),
            constant_field(grid, 0.0),
            constant_field(grid, 1.0),
        )
        with pytest.raises(AdmissibleStateError, match=r"min\(rho\)"):
            rhs(s, GAS)

    def test_names_a_non_finite_state(self):
        grid = make_grid(16)
        state_hat = state_to_hat(constant_state(grid, 1.0, 0.0, 0.0, 1.0))
        state_hat[3, 1, 1] = np.nan
        with pytest.raises(AdmissibleStateError) as caught:
            rhs_hat(state_hat, grid, GAS)
        assert str(caught.value) == "state is not finite: min(h) = nan"


class TestDivergence:
    def test_constant_state(self):
        grid = make_grid(16)
        d = divergence(constant_state(grid, 1.0, 0.5, -0.5, 1.0))
        assert np.all(d.samples == 0.0)

    def test_exact_family_divergence_free(self):
        grid = make_grid(64)
        for t in (0.0, 0.7):
            V = exact_solution(FamilyParams(1, 6, 3.0), GAS, grid, t)
            assert sobolev_norm(divergence(V), 0.0) <= 1e-12

    def test_shear_flow(self):
        grid = make_grid(32)
        s = State(
            constant_field(grid, 1.0),
            synthesize(grid, [(1, 0, 1.0, "sin", 0.0)]),
            constant_field(grid, 0.0),
            constant_field(grid, 1.0),
        )
        xcol, _ = grid.meshgrid()
        expected = np.broadcast_to(np.cos(xcol), (32, 32))
        assert np.max(np.abs(divergence(s).samples - expected)) < 1e-12


class TestMaxWaveSpeed:
    def test_rest_state(self):
        grid = make_grid(16)
        s = constant_state(grid, 1.0, 0.0, 0.0, 1.0)
        assert max_wave_speed(s, GAS) == pytest.approx(np.sqrt(1.4))

    def test_with_velocity(self):
        grid = make_grid(16)
        s = constant_state(grid, 1.0, 2.0, 0.0, 1.0)
        assert max_wave_speed(s, GAS) == pytest.approx(2.0 + np.sqrt(1.4))

    def test_sound_speed_scaling(self):
        grid = make_grid(16)
        base = max_wave_speed(constant_state(grid, 1.0, 0.0, 0.0, 1.0), GAS)
        doubled = max_wave_speed(constant_state(grid, 1.0, 0.0, 0.0, 2.0), GAS)
        assert doubled == pytest.approx(np.sqrt(2.0) * base)


def random_state(grid, seed):
    """Seeded admissible state, band-limited to the dealias band."""
    rng = np.random.default_rng(seed)
    m = grid.dealias_cutoff
    components = []
    for offset, scale in ((1.0, 0.3), (0.0, 0.5), (0.0, 0.5), (1.0, 0.3)):
        modes = [
            (int(rng.integers(-m, m + 1)), int(rng.integers(-m, m + 1)),
             float(rng.standard_normal()), "cos", float(rng.uniform(0.0, 2.0 * np.pi)))
            for _ in range(4)
        ]
        wave = synthesize(grid, modes).samples
        wave = wave / max(np.max(np.abs(wave)), 1e-300)
        components.append(Field(grid, samples=offset + scale * wave))
    return State(*components)


def _translate(s, shift_x, shift_y):
    return State(*(
        Field(s.grid, samples=np.roll(f.samples, (shift_x, shift_y), axis=(0, 1)))
        for f in s.fields()
    ))


def _swap_axes(s):
    rho, u, v, h = (Field(s.grid, samples=f.samples.T) for f in s.fields())
    return State(rho, v, u, h)


def _reflect(s):
    # (x, y) -> (-x, -y) maps node i to node -i mod N on both axes; the velocity changes sign
    return State(
        *(
            Field(s.grid, samples=sign * np.roll(np.flip(f.samples), 1, axis=(0, 1)))
            for sign, f in zip((1.0, -1.0, -1.0, 1.0), s.fields())
        )
    )


class TestRhsMatchesMatrices:
    """The RHS kernel and the matrices A, B of criterion 2 describe one system."""

    @pytest.mark.parametrize("seed", range(3))
    def test_pointwise_matrices_reproduce_kernel(self, seed):
        grid = make_grid(16)
        s = random_state(grid, seed)
        values = np.stack([f.samples for f in s.fields()])
        d_x = np.stack([partial_x(f).samples for f in s.fields()])
        d_y = np.stack([partial_y(f).samples for f in s.fields()])
        flux = np.empty_like(values)
        for i, j in np.ndindex(grid.size, grid.size):
            p = PointState(*values[:, i, j])
            flux[:, i, j] = -(
                matrix_A(p, GAS) @ d_x[:, i, j] + matrix_B(p, GAS) @ d_y[:, i, j]
            )
        expected = [dealias(Field(grid, samples=component)).samples for component in flux]
        scale = max(np.max(np.abs(e)) for e in expected)
        for got, want in zip(rhs(s, GAS).fields(), expected):
            assert np.max(np.abs(got.samples - want)) <= 1e-12 * scale


class TestRhsBackground:
    """A deviation plus a constant background gives the full state's RHS."""

    @pytest.mark.parametrize("seed", range(3))
    def test_deviation_form_matches_full_state(self, seed):
        grid = make_grid(16)
        s = random_state(grid, seed)
        background = (1.0, 0.3, -0.2, 1.0)
        deviation = State(
            *(Field(grid, samples=f.samples - c) for f, c in zip(s.fields(), background))
        )
        want = rhs_hat(state_to_hat(s), grid, GAS)
        got = rhs_hat(state_to_hat(deviation), grid, GAS, background)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestCoefficientConvention:
    """The solver's stacked state holds the coefficients that Field holds."""

    @pytest.mark.parametrize(
        "size, cells", [(8, 16), (16, 1), (24, 1), (38, 1), (48, 1), (202, 1), (256, 1)]
    )
    def test_state_hat_is_field_coefficients(self, size, cells):
        grid = make_grid(size, cells)
        rng = np.random.default_rng(size)
        s = State(*(Field(grid, samples=rng.standard_normal((size, size))) for _ in range(4)))
        state_hat = state_to_hat(s)
        want = np.stack([f.coefficients for f in s.fields()])
        assert state_hat.tobytes() == want.tobytes()
        back = state_from_hat(state_hat, grid)
        for got, plane in zip(back.fields(), state_hat):
            assert got.samples.tobytes() == Field(grid, coefficients=plane).samples.tobytes()


def formula_rhs_hat(state_hat, grid, g, background=None):
    """The right-hand side as three full inverse transforms and expression products.

    The inverses are unscaled and the forward transform divides by N^2, the
    package's one coefficient convention.
    """

    def backward(coeffs):
        return _irfft(coeffs, (-2, -1), grid.size)

    fields = backward(state_hat)
    if background is not None:
        fields += np.asarray(background, dtype=float)[:, None, None]
    rho, u, v, h = fields
    _require_admissible(rho, h)
    d_x = backward(grid.ikx * state_hat)
    d_y = backward(grid.iky * state_hat)
    div = d_x[1] + d_y[2]
    h_over_rho = h / rho
    out = np.empty_like(fields)
    out[0] = -(u * d_x[0] + v * d_y[0] + rho * div)
    out[1] = -(u * d_x[1] + v * d_y[1] + d_x[3] + h_over_rho * d_x[0])
    out[2] = -(u * d_x[2] + v * d_y[2] + d_y[3] + h_over_rho * d_y[0])
    out[3] = -(u * d_x[3] + v * d_y[3] + (g.gamma - 1.0) * h * div)
    out_hat = _rfft(out, (-2, -1), scale=True)
    out_hat *= grid.dealias_mask
    return out_hat


class TestRhsKernelBits:
    """The batched, column-pruned kernel gives the formula's bytes.

    38 = 2*19 and 202 = 2*101 are lengths with large prime factors, which
    pocketfft transforms by other algorithms than the smooth ones.
    """

    BACKGROUND = (1.0, 0.3, -0.2, 1.0)

    @pytest.mark.parametrize("with_background", [False, True])
    @pytest.mark.parametrize("dealiased", [False, True])
    @pytest.mark.parametrize(
        "size, cells",
        [(8, 16), (16, 1), (24, 1), (38, 1), (48, 1), (200, 1), (202, 1), (256, 1), (512, 1)],
    )
    def test_equals_formula_bytes(self, size, cells, dealiased, with_background):
        grid = make_grid(size, cells)
        rng = np.random.default_rng(size)
        background = self.BACKGROUND if with_background else None
        # the deviation from the background, or the full state near it
        offset = np.zeros(4) if with_background else np.array(self.BACKGROUND)
        samples = offset[:, None, None] + 0.05 * rng.standard_normal((4, size, size))
        state_hat = _rfft(samples, (-2, -1), scale=True)
        if dealiased:
            state_hat *= grid.dealias_mask
        before = state_hat.copy()
        want = formula_rhs_hat(state_hat, grid, GAS, background)
        assert rhs_hat(state_hat, grid, GAS, background).tobytes() == want.tobytes()
        if dealiased:  # the solver's kernel gives the dealias band's columns only
            columns = grid.dealias_cutoff + 1
            assert not want[..., columns:].any()
            kernel = _RhsKernel(grid, columns)
            for call in ("first", "second"):  # a kept kernel gives the same bytes again
                got = kernel(state_hat, GAS, background)
                assert got.tobytes() == want[..., :columns].tobytes(), f"{call} call"
        assert state_hat.tobytes() == before.tobytes()

    @pytest.mark.parametrize("with_background", [False, True])
    def test_batched_cells_equal_each_run_alone(self, with_background):
        # four members' 8x8 cells, each with its own derivative tables, in one
        # kernel: every prefix of the batch, as runs join and drop off, gives
        # each run the bytes of its own formula
        grids = [make_grid(8, cells) for cells in (4, 8, 16, 32)]
        columns = grids[0].dealias_cutoff + 1
        rng = np.random.default_rng(8)
        background = self.BACKGROUND if with_background else None
        offset = np.zeros(4) if with_background else np.array(self.BACKGROUND)
        samples = offset[:, None, None] + 0.05 * rng.standard_normal((4, 4, 8, 8))
        state_hat = _rfft(samples, (-2, -1), scale=True) * grids[0].dealias_mask
        want = [
            formula_rhs_hat(state_hat[j], grid, GAS, background)[..., :columns]
            for j, grid in enumerate(grids)
        ]
        kernel = _RhsKernel(grids, columns)
        assert kernel.blocks is None
        for m in (1, 2, 3, 4, 3, 2, 1):
            got = kernel(state_hat[:m], GAS, background)
            assert got.shape == (m, 4, 8, columns)
            for j in range(m):
                assert got[j].tobytes() == want[j].tobytes(), f"run {j} of {m}"


class TestOneBlock:
    """A grid of one block runs the right-hand side and the RK4 stages without dispatch."""

    def test_runs_without_row_dispatch_or_scratch_queue(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("row dispatch on one block")

        class RefusedQueue:
            get = put = refuse

        kernel_init = _RhsKernel.__init__

        def init(kernel, *args):
            kernel_init(kernel, *args)
            kernel.scratch = RefusedQueue()

        monkeypatch.setattr(euler, "_by_rows", refuse)
        monkeypatch.setattr(solver, "_by_rows", refuse)
        monkeypatch.setattr(_RhsKernel, "__init__", init)
        # every run of the default nonuniform experiment marches on an 8x8 cell
        report = run_experiment(ExperimentConfig("nonuniform", output_dir=str(tmp_path)))
        assert report.passed
        s = random_state(make_grid(64), 5)
        dt = cfl_dt(s, GAS, 0.25, s.grid)
        run = evolve(s, GAS, SolveConfig(T=3.0 * dt, dt_fixed=dt))
        assert len(run.states) == 4


class TestRhsSymmetries:
    """The RHS kernel commutes with the exact discrete symmetries of the scheme."""

    @staticmethod
    def _assert_commutes(transform, s):
        expected = transform(rhs(s, GAS))
        got = rhs(transform(s), GAS)
        scale = max(np.max(np.abs(f.samples)) for f in expected.fields())
        for a, b in zip(got.fields(), expected.fields()):
            assert np.max(np.abs(a.samples - b.samples)) <= 1e-12 * scale

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        size=st.sampled_from([16, 32]),
        shift_x=st.integers(min_value=0, max_value=31),
        shift_y=st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=20, deadline=None)
    def test_grid_translation(self, seed, size, shift_x, shift_y):
        s = random_state(make_grid(size), seed)
        self._assert_commutes(lambda t: _translate(t, shift_x, shift_y), s)

    @given(seed=st.integers(min_value=0, max_value=10**6), size=st.sampled_from([16, 32]))
    @settings(max_examples=20, deadline=None)
    def test_axis_swap(self, seed, size):
        self._assert_commutes(_swap_axes, random_state(make_grid(size), seed))

    @given(seed=st.integers(min_value=0, max_value=10**6), size=st.sampled_from([16, 32]))
    @settings(max_examples=20, deadline=None)
    def test_point_reflection(self, seed, size):
        self._assert_commutes(_reflect, random_state(make_grid(size), seed))


class TestEvolveSymmetries:
    """Whole RK4 runs commute with the exact discrete symmetries of the scheme."""

    @staticmethod
    def _assert_commutes(transform, s):
        dt = cfl_dt(s, GAS, 0.25, s.grid)
        cfg = SolveConfig(T=3.0 * dt, dt_fixed=dt)
        run = evolve(s, GAS, cfg)
        transformed_run = evolve(transform(s), GAS, cfg)
        assert transformed_run.times == run.times
        for state, got in zip(run.states, transformed_run.states):
            expected = transform(state)
            scale = max(np.max(np.abs(f.samples)) for f in expected.fields())
            for a, b in zip(got.fields(), expected.fields()):
                assert np.max(np.abs(a.samples - b.samples)) <= 1e-12 * scale

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        size=st.sampled_from([16, 32]),
        shift_x=st.integers(min_value=0, max_value=31),
        shift_y=st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=10, deadline=None)
    def test_grid_translation(self, seed, size, shift_x, shift_y):
        s = random_state(make_grid(size), seed)
        self._assert_commutes(lambda t: _translate(t, shift_x, shift_y), s)

    @given(seed=st.integers(min_value=0, max_value=10**6), size=st.sampled_from([16, 32]))
    @settings(max_examples=10, deadline=None)
    def test_axis_swap(self, seed, size):
        self._assert_commutes(_swap_axes, random_state(make_grid(size), seed))

    @given(seed=st.integers(min_value=0, max_value=10**6), size=st.sampled_from([16, 32]))
    @settings(max_examples=10, deadline=None)
    def test_point_reflection(self, seed, size):
        self._assert_commutes(_reflect, random_state(make_grid(size), seed))


class TestTransformWorkers:
    """The grid alone sets the kernel's layout; values do not depend on it or on the cores.

    Each 1-D line of a transform is computed alone, and on a grid split into
    row blocks (the rule is in ``euler._RhsKernel``'s docstring) the
    row-local work of the right-hand side and of the RK4 combination runs
    in blocks that do the whole-array operations.
    """

    @pytest.mark.parametrize(
        "size, cells, count", [(8, 8, 1), (128, 1, 1), (200, 1, 4), (256, 1, 4), (512, 1, 8)]
    )
    def test_layout_does_not_depend_on_the_cores(self, monkeypatch, size, cells, count):
        # the kernels are only built: a 16-core kernel never starts its pool here
        def refuse():
            raise AssertionError("row-block pool started")

        monkeypatch.setattr(euler, "_pool", refuse)
        grid = make_grid(size, cells=cells)
        layouts = []
        for cores in (1, 2, 16):
            monkeypatch.setattr(spectral, "_CORES", cores)
            kernel = _RhsKernel(grid, grid.dealias_cutoff + 1)
            assert not hasattr(kernel, "threads") and not hasattr(kernel, "pairs")
            assert kernel.scratch.qsize() == min(cores, count)  # pairs never outnumber blocks
            layouts.append(kernel.blocks)
        assert layouts[0] == layouts[1] == layouts[2]
        assert len(layouts[0] or (slice(None),)) == count

    @pytest.mark.parametrize("size", [200, 256])  # 200 rows end in a block of 8
    def test_rhs_and_step_bitwise_across_workers(self, monkeypatch, size):
        # the four fields of the state are above the cut of the thread rule; the
        # first kernel raises the cut past them, so one block holds all rows
        grid = make_grid(size)
        s = random_state(grid, 3)
        state_hat = state_to_hat(s) * grid.dealias_mask
        dt = cfl_dt(s, GAS, 0.25, grid)
        cfg = SolveConfig(T=3.0 * dt, dt_fixed=dt)
        layouts, results = [], []
        for cores, cut in ((1, 4 * size * size + 1), (1, 2**17), (2, 2**17)):
            monkeypatch.setattr(spectral, "_CORES", cores)
            monkeypatch.setattr(spectral, "_PARALLEL_SIZE", cut)
            kernel = _RhsKernel(grid, grid.dealias_cutoff + 1)
            assert kernel.scratch.qsize() == cores
            band = kernel(state_hat, GAS)
            assert band.shape == (4, size, grid.dealias_cutoff + 1)
            layouts.append(kernel.blocks)
            results.append(
                (band, rhs_hat(state_hat, grid, GAS), step_rk4(s, dt, GAS), evolve(s, GAS, cfg))
            )
        whole, blocks, blocks_two = layouts
        assert whole is None and blocks == blocks_two
        assert len(blocks) == 4 and blocks[-1].indices(size) == (192, size, 1)
        band_one, rhs_one, step_one, run_one = results[0]
        for band, rhs, step, run in results[1:]:
            assert band.tobytes() == band_one.tobytes()
            assert rhs.tobytes() == rhs_one.tobytes()
            for a, b in zip(step.fields(), step_one.fields()):
                assert np.array_equal(a.samples, b.samples)
            assert len(run.states) == 4
            for state, state_one in zip(run.states, run_one.states):
                for a, b in zip(state.fields(), state_one.fields()):
                    assert a.samples.tobytes() == b.samples.tobytes()

    def test_blocks_share_no_scratch_pair(self, monkeypatch):
        # four workers race for the two pairs of a two-core kernel, with
        # thread switches every microsecond; a pair taken by two blocks at
        # once would mix their rows
        grid = make_grid(256)
        state_hat = state_to_hat(random_state(grid, 4)) * grid.dealias_mask
        monkeypatch.setattr(spectral, "_CORES", 1)
        want = _RhsKernel(grid, grid.dealias_cutoff + 1)(state_hat, GAS).tobytes()
        monkeypatch.setattr(spectral, "_CORES", 2)
        kernel = _RhsKernel(grid, grid.dealias_cutoff + 1)
        assert kernel.scratch.qsize() == 2 and len(kernel.blocks) == 4
        pool = ThreadPoolExecutor(4)
        monkeypatch.setattr(euler, "_pool", lambda: pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert kernel(state_hat, GAS).tobytes() == want
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()


def _messages_across_cores(monkeypatch, error, fn, *args):
    """The message of ``error`` that ``fn(*args)`` raises with one core, then with two."""
    messages = []
    for cores in (1, 2):
        monkeypatch.setattr(spectral, "_CORES", cores)
        with pytest.raises(error) as caught:
            fn(*args)
        messages.append(str(caught.value))
    return messages


class TestRowBlocks:
    """An unsplit grid never starts the pool; on a split one, errors read as on one core."""

    def test_small_grids_never_start_the_pool(self, monkeypatch, tmp_path):
        def refuse():
            raise AssertionError("row-block pool started")

        monkeypatch.setattr(spectral, "_CORES", 2)
        monkeypatch.setattr(euler, "_pool", refuse)
        report = run_experiment(ExperimentConfig("exact_check", output_dir=str(tmp_path)))
        assert report.passed
        for size in (128, 256):
            grid = make_grid(size)
            state_hat = state_to_hat(random_state(grid, 0)) * grid.dealias_mask
            kernel = _RhsKernel(grid, grid.dealias_cutoff + 1)
            if size == 128:
                kernel(state_hat, GAS)
            else:  # the refusal is what a split grid meets
                with pytest.raises(AssertionError, match="row-block pool started"):
                    kernel(state_hat, GAS)

    def test_inadmissible_state_message(self, monkeypatch):
        grid = make_grid(256)
        one, zero = constant_field(grid, 1.0), constant_field(grid, 0.0)
        dipped = one + synthesize(grid, [(1, 0, 1.5, "cos", 0.0)])
        state_hat = state_to_hat(State(dipped, zero, zero, one))
        got = _messages_across_cores(
            monkeypatch, AdmissibleStateError, rhs_hat, state_hat, grid, GAS
        )
        assert got == [
            "state left the admissible region: min(rho) = -5.000000e-01 <= floor 1.0e-08"
        ] * 2
        # an oversized step drives the density of a compressive flow negative mid-run
        squeeze = State(one, synthesize(grid, [(1, 0, -1.0, "sin", 0.0)]), zero, one)
        cfg = SolveConfig(T=4.0, dt_fixed=0.5)
        got = _messages_across_cores(monkeypatch, SolverError, evolve, squeeze, GAS, cfg)
        assert got == [
            "aborted at t = 1.5 (step 3/8): state left the admissible region: "
            "min(rho) = -4.868789e+01 <= floor 1.0e-08"
        ] * 2

    @staticmethod
    def _region_errors(monkeypatch, rho, fault=None):
        """The region errors of the split kernel and of the whole-array check.

        ``rho`` holds the densities of a batch of runs at u = v = 0 and h = 1,
        shape (R, 256, 256).  ``fault``, if given, edits the samples of each
        row block after the row inverse, and those of the whole array alike.
        """
        monkeypatch.setattr(spectral, "_CORES", 2)
        grid = make_grid(256)
        samples = np.zeros((len(rho), 4, 256, 256))
        samples[:, 0], samples[:, 3] = rho, 1.0
        state_hat = _rfft(samples, (-2, -1), scale=True)
        if fault is not None:
            row_inverse = euler._irfft
            monkeypatch.setattr(euler, "_irfft", lambda *a, **k: fault(row_inverse(*a, **k)))
        kernel = _RhsKernel([grid] * len(rho), 129)
        assert len(kernel.blocks) == 4 and kernel.scratch.qsize() == 2
        with pytest.raises(AdmissibleStateError) as got:
            kernel(state_hat, GAS)
        whole = _irfft(state_hat, (-2, -1), 256)
        if fault is not None:
            fault(whole)
        with pytest.raises(AdmissibleStateError) as want:
            _require_admissible(whole[:, 0], whole[:, 3])
        return (str(got.value), got.value.run), (str(want.value), want.value.run)

    def test_lowest_density_in_the_last_block(self, monkeypatch):
        # both the first and the last block fail; the message is the last one's minimum
        rho = np.ones((1, 256, 256))
        rho[0, 10, 5], rho[0, 250, 7] = -0.3, -0.7
        got, want = self._region_errors(monkeypatch, rho)
        assert got == want
        assert got[0].startswith("state left the admissible region: min(rho) = -7.0")

    def test_nan_in_one_block(self, monkeypatch):
        rho = np.ones((1, 256, 256))
        rho[0, 140, 3] = 0.5

        def fault(samples):
            plane = samples[:, 0]
            plane[plane < 0.75] = np.nan  # row 140 only: the third block

        got, want = self._region_errors(monkeypatch, rho, fault)
        assert got == want == ("state is not finite: min(rho) = nan", 0)

    def test_only_the_second_run_fails(self, monkeypatch):
        rho = np.ones((2, 256, 256))
        rho[0, 100, 9] = 0.2  # admissible
        rho[1, 200, 9] = -0.4
        got, want = self._region_errors(monkeypatch, rho)
        assert got == want
        assert got[1] == 1 and "min(rho) = -4.0" in got[0]

    def test_non_finite_product_ends_in_solver_error(self, monkeypatch):
        # u u_x overflows to inf and the next stage's density is NaN.  The
        # caller's errstate must hold in the pool's workers too, or pytest's
        # RuntimeWarning filter raises there instead of the solver.
        grid = make_grid(256)
        one, zero = constant_field(grid, 1.0), constant_field(grid, 0.0)
        fast = State(one, synthesize(grid, [(1, 0, 1e160, "sin", 0.0)]), zero, one)
        cfg = SolveConfig(T=1e-170, dt_fixed=1e-170)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _messages_across_cores(monkeypatch, SolverError, evolve, fast, GAS, cfg)
        assert got == [
            "aborted at t = 1e-170 (step 1/1): state is not finite: min(rho) = nan"
        ] * 2

    def test_failing_block_raises_its_own_error_after_the_rest(self):
        # every block is still running when the first one fails, so the raise
        # must wait; on two workers, a context shared by the blocks fails to
        # enter in the second one
        rows = np.arange(200.0)[:, None]
        blocks = tuple(slice(start, start + 64) for start in range(0, 200, 64))
        failures = {0: ValueError("block 0"), 128: ValueError("block 128")}
        ended = []

        def work(block):
            time.sleep(0.1)
            start = int(block[0, 0])
            if start in failures:
                raise failures[start]
            ended.append(start)

        with pytest.raises(ValueError) as caught:
            euler._by_rows(work, (rows,), blocks)
        assert caught.value is failures[0]
        assert sorted(ended) == [64, 192]


class TestStateNorms:
    """The stacked norm helper gives every state the bytes of state_norm."""

    @pytest.mark.parametrize("size", [8, 38, 64])
    @pytest.mark.parametrize("sigma", [0.0, 1.5, 3.0, 4.0])
    def test_equals_state_norm_bits(self, size, sigma):
        grid = make_grid(size, 4 if size == 8 else 1)
        rng = np.random.default_rng(size)
        samples = rng.standard_normal((3, 2, 4, size, size))  # any leading axes
        coefficients = _rfft(samples, (-2, -1), scale=True)
        got = _state_norms(coefficients, grid, sigma)
        assert got.shape == (3, 2)
        for index in np.ndindex(3, 2):
            state = State(*(Field(grid, samples=plane) for plane in samples[index]))
            # the sum of state_norm written out over the fields' own norms
            formula = float(np.sqrt(sum(sobolev_norm(f, sigma) ** 2 for f in state.fields())))
            assert got[index].tobytes() == np.float64(state_norm(state, sigma)).tobytes()
            assert state_norm(state, sigma) == formula
