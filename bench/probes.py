"""Layer microbenchmarks: public calls timed alone at N = 64, 128, 256, 512.

Usage (``run.py`` starts it with ``src`` on ``PYTHONPATH``)::

    python probes.py RESULT.json

Each probe is called once untimed (FFT plans, grid tables), then k times;
the result holds best-of-k and median seconds per probe and grid size,
and for the FFT probe the bytes it computes (input plus output arrays).
Inputs are rebuilt outside the timed region where a call would otherwise
reuse a cached transform.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np
import scipy.fft as sfft

from torusgas.euler import GasParams, State, state_norm
from torusgas.families import FamilyParams, approx_solution, initial_data
from torusgas.inequalities import FAMILY_MAX_MODE, RandomFieldSpec, product_exact, random_field
from torusgas.solver import cfl_dt, step_rk4
from torusgas.spectral import Field, make_grid

SIZES = (64, 128, 256, 512)
#: product_exact transforms on the doubled grid, so it stops at 256.
PRODUCT_SIZES = (64, 128, 256)
REPEATS = {64: 9, 128: 9, 256: 7, 512: 5}


def _fresh(state: State) -> State:
    """The same state with no cached coefficients."""
    return State(*(Field(f.grid, samples=f.samples) for f in state.fields()))


def _time(call, prepare, k: int) -> tuple[float, float]:
    call(prepare())
    times = []
    for _ in range(k):
        arg = prepare()
        start = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times)


def _probes(n: int):
    gas = GasParams()
    grid = make_grid(n)
    fp = FamilyParams(1, n // 8, 3.0)
    s0 = initial_data(fp, gas, grid)
    dt = cfl_dt(s0, gas, 0.25, grid)
    batch = np.random.default_rng(0).standard_normal((4, n, n))

    def fft_batch(x):
        c = sfft.rfft2(x, axes=(-2, -1))
        sfft.irfft2(c, s=(n, n), axes=(-2, -1))

    half_plane_bytes = 4 * n * (n // 2 + 1) * 16
    yield "fft_batch", fft_batch, lambda: batch, 2 * (batch.nbytes + half_plane_bytes)
    yield "step_rk4", lambda s: step_rk4(s, dt, gas), lambda: _fresh(s0), None
    yield "state_norm", lambda s: state_norm(s, 3.0), lambda: _fresh(s0), None
    yield "approx_solution", lambda t: approx_solution(fp, gas, grid, t), lambda: 0.5, None
    if n in PRODUCT_SIZES:
        f = random_field(grid, RandomFieldSpec(FAMILY_MAX_MODE, 2.0, 1))
        g = random_field(grid, RandomFieldSpec(FAMILY_MAX_MODE, 2.0, 2))
        yield "product_exact", lambda pair: product_exact(*pair), lambda: (f, g), None


def main(result_path: str) -> None:
    results = []
    for n in SIZES:
        for name, call, prepare, computed_bytes in _probes(n):
            best, median = _time(call, prepare, REPEATS[n])
            row = {"probe": name, "n": n, "k": REPEATS[n], "best_s": best, "median_s": median}
            if computed_bytes is not None:
                row["bytes_computed"] = computed_bytes
            results.append(row)
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump(results, handle, indent=1)


if __name__ == "__main__":
    main(sys.argv[1])
