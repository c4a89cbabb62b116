"""Section IV.B — single-CPU optimization, measured on the real kernels.

The paper's gains (31% arithmetic, 2% unrolling, 7% cache blocking; 40%
total on Jaguar) came from Fortran loop restructuring.  Our Python kernels
realise the same *algorithmic* distinctions — reciprocal/pre-averaged
material arrays vs per-step divisions and harmonic means — and this bench
measures them with pytest-benchmark on a real grid.  The numerically
critical property (optimized == baseline results) is asserted alongside.
"""

import numpy as np
import pytest

from repro.core.grid import ALL_FIELDS, Grid3D, WaveField
from repro.core.kernels import (VelocityStressKernel, baseline_stress_update,
                                baseline_velocity_update)
from repro.core.medium import Medium

from _bench_utils import paper_row, print_table

N = 48


@pytest.fixture(scope="module")
def state():
    g = Grid3D(N, N, N, h=50.0)
    rng = np.random.default_rng(0)
    vs = rng.uniform(1000, 2000, g.shape)
    med = Medium.from_velocity_model(g, 2.2 * vs, vs,
                                     rng.uniform(2000, 3000, g.shape))
    wf = WaveField(g)
    for name in ALL_FIELDS:
        getattr(wf, name)[...] = rng.standard_normal(g.padded_shape)
    return g, med, wf


def test_sec4_optimized_kernel_speed(benchmark, state):
    g, med, wf = state
    k = VelocityStressKernel(wf, med, dt=1e-4)

    def step():
        k.step_velocity()
        k.step_stress()

    benchmark.pedantic(step, rounds=8, iterations=1, warmup_rounds=2)
    print_table("Section IV.B: optimized kernel", [
        paper_row("reciprocal arrays + pre-averaged moduli",
                  "the production path", "timed above")])


def test_sec4_baseline_kernel_speed(benchmark, state):
    g, med, wf = state

    def step():
        baseline_velocity_update(wf, med, dt=1e-4)
        baseline_stress_update(wf, med, dt=1e-4)

    benchmark.pedantic(step, rounds=8, iterations=1, warmup_rounds=2)
    print_table("Section IV.B: baseline kernel", [
        paper_row("per-step divisions + harmonic means",
                  "the pre-optimization path", "timed above")])


def test_sec4_optimization_gain_measured(benchmark, state):
    """The headline: optimized faster than baseline, results unchanged.

    Best-of-N timing isolates the structural difference (per-step divisions
    and harmonic means removed) from scheduler noise; the Fortran 40% gain
    shows up as a smaller but consistent edge in numpy, where the vectorised
    baseline already amortises much of the arithmetic.
    """
    import time
    g, med, wf = state

    def tmin(fn, n=5):
        best = float("inf")
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def measure():
        wf_a = wf.copy()
        wf_b = wf.copy()
        k = VelocityStressKernel(wf_a, med, dt=1e-4)
        t_opt = tmin(lambda: (k.step_velocity(), k.step_stress()))
        t_base = tmin(lambda: (baseline_velocity_update(wf_b, med, dt=1e-4),
                               baseline_stress_update(wf_b, med, dt=1e-4)))
        # numeric equivalence checked from single fresh applications
        wf_c, wf_d = wf.copy(), wf.copy()
        kc = VelocityStressKernel(wf_c, med, dt=1e-4)
        kc.step_velocity()
        kc.step_stress()
        baseline_velocity_update(wf_d, med, dt=1e-4)
        baseline_stress_update(wf_d, med, dt=1e-4)
        same = all(np.allclose(wf_c.interior(n), wf_d.interior(n),
                               rtol=1e-7, atol=1e-6 *
                               max(1.0, np.abs(wf_d.interior(n)).max()))
                   for n in ALL_FIELDS)
        return t_base / t_opt, same

    speedup, same = benchmark.pedantic(measure, rounds=2, iterations=1)
    rows = [
        paper_row("baseline / optimized kernel time",
                  "40% gain (1.67x) in Fortran", f"{speedup:.2f}x in numpy"),
        paper_row("results unchanged (aVal)", "required", same),
    ]
    print_table("Section IV.B: single-CPU optimization", rows)
    assert speedup > 1.0
    assert same
    benchmark.extra_info["kernel_speedup"] = round(speedup, 2)
