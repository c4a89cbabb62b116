"""Allocation-freeness and bit-identity of the hot-path refactor.

Two properties the PERFORMANCE.md contract promises:

1. The steady-state :class:`VelocityStressKernel` step performs **zero
   per-step array allocations**: every temporary lives in the preallocated
   scratch pool.  tracemalloc still sees a small *constant* transient —
   NumPy's bounded buffered-iteration scratch (~``np.getbufsize()`` elements
   per strided ufunc call) — so the assertions pin that the peak is (a) far
   below one field array and (b) does not grow with the grid, while the
   pre-optimization baseline kernels allocate O(ncells) per step.

2. The in-place ufunc formulations (``out=``/``work=`` paths in
   :mod:`repro.core.fd`, the pooled attenuation rate hook) are **bit
   identical** to the allocating expression forms they replaced
   (``atol=0`` equality, not approximate).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.attenuation import CoarseGrainedAttenuation
from repro.core import fd
from repro.core.fd import C1, C2, interior
from repro.core.grid import Grid3D, WaveField
from repro.core.kernels import (VelocityStressKernel, baseline_stress_update,
                                baseline_velocity_update)
from repro.core.medium import Medium


def _fixture(n, seed=7):
    g = Grid3D(n, n, n, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
    wf = WaveField(g)
    rng = np.random.default_rng(seed)
    for arr in wf.fields().values():
        interior(arr)[...] = rng.standard_normal(g.shape) * 1e-3
    return g, med, wf


def _peak_transient(fn) -> int:
    """Peak tracemalloc bytes allocated during one (pre-warmed) call."""
    fn()  # warm up: lazy caches, ufunc loops, view materialisation
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - base


class TestSteadyStateAllocationFree:
    def test_kernel_step_peak_is_small_and_flat(self):
        """Peak transient stays ~constant while the grid grows 27x."""
        peaks = {}
        for n in (16, 48):
            g, med, wf, = _fixture(n)
            k = VelocityStressKernel(wf, med, 1e-3)
            peaks[n] = _peak_transient(
                lambda: (k.step_velocity(), k.step_stress()))
        field_bytes = 48 ** 3 * 8
        # far below a single interior field array (no O(N) temporaries) ...
        assert peaks[48] < field_bytes / 2
        # ... and bounded regardless of problem size (numpy's fixed-size
        # iteration buffers, not per-cell temporaries)
        assert peaks[48] < max(4 * peaks[16], 512 * 1024)

    def test_baseline_kernels_allocate_per_cell(self):
        """The 'before' kernels allocate O(ncells); the contrast is the point."""
        n = 32
        g, med, wf = _fixture(n)
        k = VelocityStressKernel(wf, med, 1e-3)
        opt = _peak_transient(lambda: (k.step_velocity(), k.step_stress()))
        g2, med2, wf2 = _fixture(n)
        base = _peak_transient(
            lambda: (baseline_velocity_update(wf2, med2, 1e-3),
                     baseline_stress_update(wf2, med2, 1e-3)))
        assert base > n ** 3 * 8        # at least one per-cell temporary
        assert base > 8 * opt

    def test_attenuated_update_stress_is_allocation_free(self):
        g, med, wf = _fixture(24)
        med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0,
                                 qs=50.0, qp=100.0)
        k = VelocityStressKernel(wf, med, 1e-3)
        att = CoarseGrainedAttenuation(g, med, 0.2, 2.0)
        hook = att.rate_hook(1e-3)
        peak = _peak_transient(lambda: k.step_stress(rate_hook=hook))
        # bounded by numpy's constant iteration buffers, not O(ncells)
        assert peak < 512 * 1024

    def test_blocked_step_is_allocation_free(self):
        g, med, wf = _fixture(24)
        k = VelocityStressKernel(wf, med, 1e-3)
        peak = _peak_transient(lambda: k.step_blocked(kblock=8, jblock=8))
        assert peak < 512 * 1024

    def test_compiled_step_with_sponge_and_free_surface(self):
        """The whole compiled step (sweeps + damp + ghost fill + imaging)
        allocates no arrays: the bound operators hold every pointer."""
        from repro.core import compiled
        from repro.core.solver import SolverConfig, WaveSolver
        if not compiled.compiled_available():
            pytest.skip("no compiled provider (numba or C compiler)")
        peaks = {}
        for n in (16, 40):
            g, med, _ = _fixture(n)
            sol = WaveSolver(g, med, SolverConfig(
                absorbing="sponge", sponge_width=4, free_surface=True,
                stability_check_interval=0, kernel_variant="compiled"))
            sol.wf.vx[...] = 1e-3
            peaks[n] = _peak_transient(sol.step)
        # python frames and span bookkeeping only: far below one k-plane
        assert peaks[40] < 16 * 1024
        assert peaks[40] < max(2 * peaks[16], 4 * 1024)

    def test_scratch_pool_accounting(self):
        g, med, wf = _fixture(16)
        k = VelocityStressKernel(wf, med, 1e-3)
        padded = np.prod(g.padded_shape) * 8
        inner = np.prod(g.shape) * 8
        # 3 padded scratch + 2 padded blocked buffers + 3 interior temporaries
        assert k.scratch_nbytes() == 5 * padded + 3 * inner


class TestBitIdentity:
    """out=/work= in-place paths vs the allocating expression forms."""

    def test_diff4_work_matches_expression_form(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((12, 11, 10))
        work = np.zeros((8, 7, 6))
        for axis in range(3):
            for diff in (fd.diff4_fwd, fd.diff4_bwd):
                out_pooled = np.zeros_like(f)
                diff(f, axis, 100.0, out=out_pooled, work=work)
                out_alloc = diff(f, axis, 100.0)
                assert np.array_equal(out_pooled, out_alloc), (diff, axis)

    def test_diff4_work_matches_reference_arithmetic(self):
        """Against the literal Eq. (3) expression (the pre-refactor code)."""
        rng = np.random.default_rng(4)
        f = rng.standard_normal((10, 10, 10))
        h = 37.5
        got = fd.diff4_fwd(f, 0, h, out=np.zeros_like(f),
                           work=np.zeros((6, 6, 6)))
        ref = np.zeros_like(f)
        dst = interior(ref)
        dst[...] = C1 * f[3:-1, 2:-2, 2:-2]
        dst -= C1 * f[2:-2, 2:-2, 2:-2]
        dst += C2 * f[4:, 2:-2, 2:-2]
        dst -= C2 * f[1:-3, 2:-2, 2:-2]
        dst /= h
        assert np.array_equal(got, ref)

    def test_kernel_step_matches_unpooled_reference(self):
        """One full step vs a fresh-allocating reference of the same ops."""
        g, med, wf = _fixture(14, seed=11)
        ref_wf = wf.copy()
        k = VelocityStressKernel(wf, med, 1e-3)
        k.step_velocity()
        k.step_stress()
        _reference_step(ref_wf, med, 1e-3)
        for name, arr in wf.fields().items():
            assert np.array_equal(arr, getattr(ref_wf, name)), name

    def test_attenuation_hook_matches_allocating_form(self):
        g = Grid3D(10, 10, 10, h=100.0)
        med = Medium.homogeneous(g, qs=40.0, qp=80.0)
        att_new = CoarseGrainedAttenuation(g, med, 0.2, 2.0)
        att_ref = CoarseGrainedAttenuation(g, med, 0.2, 2.0)
        dt = 1e-3
        hook = att_new.rate_hook(dt)
        a, b = att_ref._coeffs(dt)
        rng = np.random.default_rng(5)
        for comp in ("sxx", "sxy"):
            for _ in range(3):
                rate = rng.standard_normal(g.shape)
                got = hook(comp, rate.copy()).copy()
                # the allocating formulation the hook replaced
                zeta = att_ref._zeta[comp]
                delta = att_ref._delta[
                    "p" if comp in att_ref._P_COMPONENTS else "s"]
                zeta_new = a * zeta + b * (delta * rate)
                want = rate - 0.5 * (zeta + zeta_new)
                att_ref._zeta[comp] = zeta_new
                assert np.array_equal(got, want), comp
                assert np.array_equal(att_new._zeta[comp],
                                      att_ref._zeta[comp]), comp


def _reference_step(wf, med, dt, order=4):
    """The allocating formulation of the optimized kernel's update order."""
    from repro.core.kernels import (_SHEAR_MOD, _SHEAR_TERMS, _VEL_BUOYANCY,
                                    _VEL_TERMS)
    h = wf.grid.h
    for comp, terms in _VEL_TERMS.items():
        b_int = interior(getattr(med, _VEL_BUOYANCY[comp]))
        dst = interior(getattr(wf, comp))
        for axis, sname, dirn in terms:
            s = getattr(wf, sname)
            d = (fd.diff_fwd if dirn == "f" else fd.diff_bwd)(
                s, axis, h, order=order)
            t_int = interior(d) * b_int
            dst += t_int * dt
    for comp in ("sxx", "syy", "szz"):
        dvx = interior(fd.diff_bwd(wf.vx, 0, h, order=order)).copy()
        dvy = interior(fd.diff_bwd(wf.vy, 1, h, order=order)).copy()
        dvz = interior(fd.diff_bwd(wf.vz, 2, h, order=order)).copy()
        own = {"sxx": dvx, "syy": dvy, "szz": dvz}[comp]
        lam2mu = interior(med.lam2mu)
        lam = interior(med.lam)
        parts = []
        for t in (dvx, dvy, dvz):
            parts.append(t * (lam2mu if t is own else lam))
        rate = parts[0].copy()
        rate += parts[1]
        rate += parts[2]
        interior(getattr(wf, comp))[...] += rate * dt
    for comp, terms in _SHEAR_TERMS.items():
        mod = interior(getattr(med, _SHEAR_MOD[comp]))
        parts = []
        for axis, vname, _ in terms:
            d = fd.diff_fwd(getattr(wf, vname), axis, h, order=order)
            parts.append(interior(d) * mod)
        rate = parts[0].copy()
        rate += parts[1]
        interior(getattr(wf, comp))[...] += rate * dt
