"""Time integration: CFL control, RK4 accuracy, and trajectory recording."""

import math
import tracemalloc

import numpy as np
import pytest

from torusgas import solver, spectral
from torusgas.euler import (
    GasParams,
    State,
    rhs_hat,
    state_difference,
    state_from_hat,
    state_norm,
    state_to_hat,
)
from torusgas.families import FamilyParams, exact_solution, initial_data
from torusgas.solver import (
    Run,
    SolveConfig,
    SolverError,
    Trajectory,
    cfl_dt,
    evolve,
    evolve_batch,
    plan,
    step_rk4,
)
from torusgas.spectral import Field, constant_field, make_grid, synthesize

GAS = GasParams()
BASE = np.array([1.0, 0.0, 0.0, 1.0])


def constant_state(grid, rho=1.0, u=0.0, v=0.0, h=1.0):
    return State(
        constant_field(grid, rho),
        constant_field(grid, u),
        constant_field(grid, v),
        constant_field(grid, h),
    )


class TestSolveConfig:
    def test_defaults(self):
        cfg = SolveConfig(T=1.0)
        assert cfg.cfl == 0.25 and cfg.dt_fixed is None

    def test_validation(self):
        with pytest.raises(ValueError, match="final time"):
            SolveConfig(T=0.0)
        with pytest.raises(ValueError, match="cfl"):
            SolveConfig(T=1.0, cfl=1.5)
        with pytest.raises(ValueError, match="dt_fixed"):
            SolveConfig(T=1.0, dt_fixed=-0.1)
        # the record stride is evolve's argument, not a config field
        with pytest.raises(TypeError, match="record_stride"):
            SolveConfig(T=1.0, record_stride=2)
        s0 = constant_state(make_grid(8))
        with pytest.raises(ValueError, match="record_stride must be a positive"):
            evolve(s0, GAS, SolveConfig(T=1.0), record_stride=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"T": float("inf")}, "final time"),
            ({"T": 1.0, "dt_fixed": float("inf")}, "dt_fixed"),
        ],
    )
    def test_non_finite_times_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SolveConfig(**kwargs)

    @pytest.mark.parametrize("name", ["T", "cfl", "dt_fixed"])
    def test_bool_is_not_a_number(self, name):
        with pytest.raises(TypeError, match=f"{name} must be a real number, got True"):
            SolveConfig(**{"T": 1.0, name: True})

    @pytest.mark.parametrize("stride", [2.5, True, "2"])
    def test_record_stride_must_be_integer(self, stride):
        s0 = constant_state(make_grid(8))
        with pytest.raises(ValueError, match="record_stride must be an integer"):
            evolve(s0, GAS, SolveConfig(T=1.0), record_stride=stride)


class TestTrajectory:
    def test_strictly_increasing_times(self):
        grid = make_grid(8)
        s = constant_state(grid)
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory([0.0, 0.5, 0.5], [s, s, s])

    def test_length_mismatch(self):
        grid = make_grid(8)
        with pytest.raises(ValueError, match="length"):
            Trajectory([0.0, 1.0], [constant_state(grid)])


class TestCflDt:
    def test_formula(self):
        grid = make_grid(64)
        dt = cfl_dt(constant_state(grid), GAS, 0.5, grid)
        assert dt == pytest.approx(0.5 * (2.0 * np.pi / 64) / np.sqrt(1.4))

    def test_halves_with_resolution(self):
        coarse = make_grid(32)
        fine = make_grid(64)
        dt_coarse = cfl_dt(constant_state(coarse), GAS, 0.25, coarse)
        dt_fine = cfl_dt(constant_state(fine), GAS, 0.25, fine)
        assert dt_fine == pytest.approx(dt_coarse / 2.0)

    def test_rejects_bad_cfl(self):
        grid = make_grid(16)
        with pytest.raises(ValueError, match="cfl"):
            cfl_dt(constant_state(grid), GAS, 0.0, grid)

    @pytest.mark.parametrize("other", [make_grid(64), make_grid(16, 2)])
    def test_rejects_another_grid(self, other):
        # on make_grid(64) the step of this N = 16 state would be 4x too small
        s0 = initial_data(FamilyParams(1, 2, 3.0), GAS, make_grid(16))
        match = r"cfl_dt got TorusGrid\(size=\d+, cells=\d\) for a state on TorusGrid\(size=16,"
        with pytest.raises(ValueError, match=match):
            cfl_dt(s0, GAS, 0.25, other)

    def test_integer_step_count(self):
        grid = make_grid(64)
        n_steps, dt = plan(constant_state(grid), GAS, SolveConfig(T=1.0))
        assert dt <= cfl_dt(constant_state(grid), GAS, 0.25, grid)
        assert n_steps * dt == pytest.approx(1.0)

    def test_plan_with_fixed_dt(self):
        grid = make_grid(16)
        cfg = SolveConfig(T=1.0, dt_fixed=0.3)
        n_steps, dt = plan(constant_state(grid), GAS, cfg)
        assert n_steps == 4
        assert dt == pytest.approx(0.25)


class TestStepRk4:
    def test_constant_state_fixed_point(self):
        grid = make_grid(32)
        s = constant_state(grid, rho=1.2, u=0.4, v=-0.3, h=0.9)
        out = step_rk4(s, 0.01, GAS)
        for before, after in zip(s.fields(), out.fields()):
            assert np.max(np.abs(after.samples - before.samples)) <= 1e-15

    def test_result_is_dealiased(self):
        grid = make_grid(32)  # cutoff 10
        s = State(
            constant_field(grid, 1.0),
            synthesize(grid, [(3, 0, 0.1, "cos", 0.0), (14, 0, 0.01, "sin", 0.0)]),
            constant_field(grid, 0.0),
            constant_field(grid, 1.0),
        )
        out = step_rk4(s, 0.01, GAS)
        for f in out.fields():
            assert np.max(np.abs(f.coefficients[~grid.dealias_mask])) <= 1e-15
        assert abs(out.u.coefficients[3, 0]) > 0.04

    def test_rejects_nonpositive_dt(self):
        grid = make_grid(16)
        with pytest.raises(ValueError, match="dt"):
            step_rk4(constant_state(grid), 0.0, GAS)

    def test_local_error_fifth_order(self):
        grid = make_grid(64)
        f = FamilyParams(1, 4, 3.0)
        V0 = exact_solution(f, GAS, grid, 0.0)

        def local_error(dt):
            stepped = step_rk4(V0, dt, GAS)
            return state_norm(
                state_difference(stepped, exact_solution(f, GAS, grid, dt)), 0.0
            )

        ratio = local_error(0.02) / local_error(0.01)
        assert 24.0 <= ratio <= 40.0  # dt^5 scaling gives 32


class TestEvolve:
    def test_constant_trajectory(self):
        grid = make_grid(16)
        s0 = constant_state(grid, rho=1.1, u=0.2, v=0.1, h=0.8)
        traj = evolve(s0, GAS, SolveConfig(T=0.5, dt_fixed=0.05))
        for before, after in zip(s0.fields(), traj.states[-1].fields()):
            assert np.max(np.abs(after.samples - before.samples)) <= 1e-14

    def test_stationary_preservation_many_steps(self):
        grid = make_grid(16)
        s0 = constant_state(grid)
        traj = evolve(s0, GAS, SolveConfig(T=1.0, dt_fixed=1e-3), record_stride=10**9)
        drift = max(
            np.max(np.abs(after.samples - before.samples))
            for before, after in zip(s0.fields(), traj.states[-1].fields())
        )
        assert drift <= 1e-14

    def test_endpoint_times(self):
        grid = make_grid(32)
        f = FamilyParams(1, 4, 3.0)
        traj = evolve(exact_solution(f, GAS, grid, 0.0), GAS, SolveConfig(T=0.25))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 0.25

    def test_record_stride(self):
        grid = make_grid(16)
        cfg = SolveConfig(T=1.0, dt_fixed=0.1)
        traj = evolve(constant_state(grid), GAS, cfg, record_stride=3)
        assert traj.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])

    def test_exact_family_deviation(self):
        grid = make_grid(64)
        f = FamilyParams(1, 8, 3.0)
        traj = evolve(exact_solution(f, GAS, grid, 0.0), GAS, SolveConfig(T=1.0))
        deviation = state_norm(
            state_difference(traj.states[-1], exact_solution(f, GAS, grid, 1.0)), 3.0
        )
        assert deviation <= 1e-8

    def test_richardson_order(self):
        grid = make_grid(64)
        f = FamilyParams(1, 8, 3.0)
        V0 = exact_solution(f, GAS, grid, 0.0)
        VT = exact_solution(f, GAS, grid, 1.0)
        errors = []
        for halvings in range(2):
            cfg = SolveConfig(T=1.0, dt_fixed=0.02 / 2**halvings)
            final = evolve(V0, GAS, cfg, record_stride=10**9).states[-1]
            errors.append(state_norm(state_difference(final, VT), 3.0))
        order = np.log2(errors[0] / errors[1])
        assert order >= 3.8

    def test_spatial_resolution_independence(self):
        # the family is band-limited, so once resolved the semidiscrete
        # system is the same at N and 2N; finals agree on shared nodes
        f = FamilyParams(1, 4, 3.0)
        cfg = SolveConfig(T=0.5, dt_fixed=0.01)
        finals = {}
        for size in (32, 64):
            grid = make_grid(size)
            s0 = exact_solution(f, GAS, grid, 0.0)
            finals[size] = evolve(s0, GAS, cfg, record_stride=10**9).states[-1]
        for coarse, fine in zip(finals[32].fields(), finals[64].fields()):
            assert np.max(np.abs(fine.samples[::2, ::2] - coarse.samples)) <= 1e-10

    def test_mean_density_conserved(self):
        grid = make_grid(32)
        s0 = initial_data(FamilyParams(1, 4, 3.0), GAS, grid)
        traj = evolve(s0, GAS, SolveConfig(T=1.0))
        assert np.mean(traj.states[-1].rho.samples) == pytest.approx(GAS.rho0, abs=1e-12)

    def test_family_run_stays_admissible(self):
        grid = make_grid(32)
        s0 = initial_data(FamilyParams(-1, 4, 3.0), GAS, grid)
        traj = evolve(s0, GAS, SolveConfig(T=1.0))
        for state in traj.states:
            assert np.min(state.rho.samples) >= 0.5
            assert np.min(state.h.samples) >= 0.5

    def test_determinism(self):
        grid = make_grid(32)
        s0 = initial_data(FamilyParams(1, 4, 3.0), GAS, grid)
        cfg = SolveConfig(T=0.5)
        a = evolve(s0, GAS, cfg).states[-1]
        b = evolve(s0, GAS, cfg).states[-1]
        for x, y in zip(a.fields(), b.fields()):
            assert np.array_equal(x.samples, y.samples)

    def test_abort_outside_region(self):
        # an oversized step drives the density of a compressive flow negative
        grid = make_grid(32)
        s0 = State(
            constant_field(grid, 1.0),
            synthesize(grid, [(1, 0, -1.0, "sin", 0.0)]),
            constant_field(grid, 0.0),
            constant_field(grid, 1.0),
        )
        cfg = SolveConfig(T=4.0, dt_fixed=0.5)
        with pytest.raises(SolverError, match=r"aborted at t .*min\(rho\)"):
            evolve(s0, GAS, cfg)


class TestStepperBits:
    """evolve's in-place stepper gives the bytes of the expression-form RK4."""

    @staticmethod
    def expression_step(state_hat, dt, grid):
        k1 = rhs_hat(state_hat, grid, GAS)
        k2 = rhs_hat(state_hat + 0.5 * dt * k1, grid, GAS)
        k3 = rhs_hat(state_hat + 0.5 * dt * k2, grid, GAS)
        k4 = rhs_hat(state_hat + dt * k3, grid, GAS)
        return state_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def test_three_steps_equal_expression_bytes(self, monkeypatch):
        made = []

        class RecordingRK4(solver._RK4):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(solver, "_RK4", RecordingRK4)
        grid = make_grid(64)
        rng = np.random.default_rng(5)  # every coefficient of the band is nonzero
        noise = 0.05 * rng.standard_normal((4, 64, 64))
        s0 = State(*(Field(grid, samples=x) for x in noise + BASE[:, None, None]))
        s0_bytes = [f.samples.tobytes() for f in s0.fields()]
        dt0 = cfl_dt(s0, GAS, 0.25, grid)
        cfg = SolveConfig(T=3.0 * dt0, dt_fixed=dt0)
        n_steps, dt = plan(s0, GAS, cfg)
        assert n_steps == 3
        run = evolve(s0, GAS, cfg)

        state_hat = state_to_hat(s0) * grid.dealias_mask
        expected = [s0]
        for _ in range(n_steps):
            before = state_hat.copy()
            next_hat = self.expression_step(state_hat, dt, grid)
            assert state_hat.tobytes() == before.tobytes()  # rhs_hat leaves its input
            state_hat = next_hat
            expected.append(state_from_hat(state_hat, grid))
        assert len(run.states) == 4
        for got, want in zip(run.states, expected):
            for a, b in zip(got.fields(), want.fields()):
                assert a.samples.tobytes() == b.samples.tobytes()
        assert [f.samples.tobytes() for f in s0.fields()] == s0_bytes
        # each record survives the later steps: none shares the stepper's scratch
        (stepper,) = made
        assert stepper.stage.shape == stepper.acc.shape == stepper.rhs.spare.shape == (1, 4, 64, 22)
        scratch = [stepper.stage, stepper.acc, stepper.rhs.band, *stepper.rhs.pairs[0]]
        for state in run.states[1:]:
            for f in state.fields():
                assert not any(np.shares_memory(f.samples, a) for a in scratch)


class TestMarchMemory:
    """The scratch of the whole-torus march stays band-shaped and row-blocked."""

    def test_two_steps_at_512_traced_peak(self, monkeypatch):
        # On two cores the march holds the band's 12 fields, two workers'
        # 64-row scratch and three states in the band: 46.2 MiB traced.  The
        # full-width kernel and stepper peaked at 74.2 MiB; one more
        # full-width state (8.4 MiB) crosses the bound.
        monkeypatch.setattr(spectral, "_CORES", 2)
        grid = make_grid(512)
        s0 = initial_data(FamilyParams(1, 8, 3.0), GAS, grid)
        dt = cfl_dt(s0, GAS, 0.25, grid)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            (traj,) = evolve_batch([Run(s0, 2 * dt, 2, dt, 2)], GAS)
            peak = (tracemalloc.get_traced_memory()[1] - start) / 2**20
        finally:
            tracemalloc.stop()
        assert traj.times == [0.0, 2 * dt]
        assert peak < 50.0


def _assert_same_trajectory(got: Trajectory, want: Trajectory) -> None:
    assert got.times == want.times
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        for fa, fb in zip(a.fields(), b.fields()):
            assert fa.samples.tobytes() == fb.samples.tobytes()


def _squeeze(grid, amplitude=1.0):
    """A compressive flow whose density an oversized step drives negative."""
    one, zero = constant_field(grid, 1.0), constant_field(grid, 0.0)
    return State(one, synthesize(grid, [(1, 0, -amplitude, "sin", 0.0)]), zero, one)


class TestEvolveBatch:
    """A lockstep batch gives every run the bytes, times and records of its single run."""

    def test_batch_equals_single_runs(self):
        # nonuniform's four cells at their CFL steps, and an exact_check-style
        # pair at half and a quarter of the step of the largest n
        runs, singles = [], []
        for n in (4, 8, 16, 32):
            s0 = initial_data(FamilyParams(1, n, 3.0), GAS, make_grid(8, n))
            cfg = SolveConfig(T=1.0)
            n_steps, dt = plan(s0, GAS, cfg)
            stride = math.ceil(n_steps / 16)
            runs.append(Run(s0, cfg.T, n_steps, dt, stride))
            singles.append(evolve(s0, GAS, cfg, stride))
        exact = exact_solution(FamilyParams(1, 32, 3.0), GAS, make_grid(8, 32), 0.0)
        for halvings in (1, 2):
            cfg = SolveConfig(T=1.0, dt_fixed=runs[-1].dt / 2**halvings)
            n_steps, dt = plan(exact, GAS, cfg)
            stride = math.ceil(n_steps / 16)
            # the refined runs go in the middle, so the batch must reorder them
            runs.insert(2, Run(exact, cfg.T, n_steps, dt, stride))
            singles.insert(2, evolve(exact, GAS, cfg, stride))
        assert len({run.n_steps for run in runs}) > 2
        batched = evolve_batch(runs, GAS)
        assert len(batched) == len(runs)
        for got, want, run in zip(batched, singles, runs):
            assert got.states[0] is run.s0
            _assert_same_trajectory(got, want)

    def test_inadmissible_run_raises_its_single_run_error(self):
        grid = make_grid(32)
        good = initial_data(FamilyParams(1, 2, 3.0), GAS, grid)
        cfg = SolveConfig(T=4.0, dt_fixed=0.5)  # three steps in, min(rho) < 0
        with pytest.raises(SolverError) as alone:
            evolve(_squeeze(grid), GAS, cfg)
        runs = [Run(good, 0.5, 10, 0.05, 1), Run(_squeeze(grid), 4.0, 8, 0.5, 1)]
        with pytest.raises(SolverError) as batched:
            evolve_batch(runs + [runs[0]], GAS)
        assert str(batched.value) == str(alone.value)
        assert str(alone.value).startswith("aborted at t = 1.5 (step 3/8)")
        assert batched.value.run == 1

    def test_first_failing_run_in_order_is_raised(self):
        # the second run fails in its first step, the first only in its third
        grid = make_grid(32)
        late = Run(_squeeze(grid), 4.0, 8, 0.5, 1)
        early = Run(_squeeze(grid, 4.0), 4.0, 4, 1.0, 1)
        messages = {}
        for name, run in (("late", late), ("early", early)):
            with pytest.raises(SolverError) as alone:
                evolve_batch([run], GAS)
            messages[name] = str(alone.value)
        assert messages["late"].startswith("aborted at t = 1.5 (step 3/8)")
        assert messages["early"].startswith("aborted at t = 1 (step 1/4)")
        for runs, first in (([late, early], "late"), ([early, late], "early")):
            with pytest.raises(SolverError) as batched:
                evolve_batch(runs, GAS)
            assert str(batched.value) == messages[first]
            assert batched.value.run == 0

    def test_grids_must_share_one_size(self):
        runs = [
            Run(constant_state(make_grid(size)), 1.0, 10, 0.1, 1) for size in (8, 16)
        ]
        with pytest.raises(ValueError, match="share one size"):
            evolve_batch(runs, GAS)
        assert evolve_batch([], GAS) == []
