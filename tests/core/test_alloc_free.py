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
   :mod:`repro.core.fd`, the flat-span kernel, the pooled attenuation rate
   hook and PML update) are **bit identical** to the allocating expression
   forms they replaced (``atol=0`` equality, not approximate).
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
from repro.core.pml import PML, SHEAR_TERM_AXES, PMLConfig


def _fixture(n, seed=7):
    g = Grid3D(n, n, n, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
    wf = WaveField(g)
    rng = np.random.default_rng(seed)
    for arr in wf.fields().values():
        interior(arr)[...] = rng.standard_normal(g.shape) * 1e-3
    return g, med, wf


def _heterogeneous(shape, dtype):
    """A random heterogeneous medium built from Fortran-ordered arrays, so
    the kernel's buoyancy and lambda arrays are not C-contiguous."""
    g = Grid3D(*shape, h=100.0)
    rng = np.random.default_rng(23)
    vs = np.asfortranarray(2000.0 + 600.0 * rng.random(g.shape))
    rho = np.asfortranarray(2200.0 + 500.0 * rng.random(g.shape))
    med = Medium.from_velocity_model(g, 1.9 * vs, vs, rho, dtype=dtype)
    assert not med.bx.flags.c_contiguous and not med.lam.flags.c_contiguous
    return g, med


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

    def test_compiled_step_with_sponge_and_free_surface(self):
        """The whole compiled step (sweeps + damp + ghost fill + imaging)
        allocates no arrays: the bound operators hold every pointer."""
        from repro.core import compiled
        from repro.core.solver import SolverConfig, WaveSolver
        if not compiled.compiled_available():
            pytest.skip("no compiled provider (no C compiler)")
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
        # 3 padded axis-term scratch + padded rate, increment and work
        assert k.scratch_nbytes() == 6 * padded
        k.step_velocity()
        k.step_stress()
        # + the shared normal-derivative triple, made on the first call
        assert k.scratch_nbytes() == 9 * padded

    def test_pml_update_is_allocation_free(self):
        """One PML update allocates no box-sized temporaries.  What is left
        is numpy's bounded iteration buffer for the strided term and frame
        views, so the peak stays flat as the grid and its boxes grow and
        far below the smallest box."""
        peaks = {}
        for n, width in ((48, 6), (64, 8)):
            g, med, wf = _fixture(n)
            pml = PML(g, med, PMLConfig(width=width))
            k = VelocityStressKernel(wf, med, 1e-3)
            vterms = k.update_velocity("vx")
            peaks[n, "vx"] = _peak_transient(
                lambda: pml.update(wf, "vx", vterms, 1e-3))
            sterms = k.update_stress("sxz")
            peaks[n, "sxz"] = _peak_transient(
                lambda: pml.update(wf, "sxz", sterms, 1e-3,
                                   term_axes=SHEAR_TERM_AXES["sxz"]))
            smallest = min(p.nbytes for parts in pml.parts.values()
                           for p in parts)
        for comp in ("vx", "sxz"):
            assert peaks[64, comp] < smallest / 2, comp
            assert peaks[64, comp] <= peaks[48, comp] + 16 * 1024, comp


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("shape,width", [((22, 20, 18), 4),
                                             ((25, 23, 11), 4),
                                             ((16, 14, 6), 3)])
    def test_production_step_matches_allocating_reference(
            self, dtype, order, shape, width):
        """Pooled kernel + attenuation hook + PML, as the schedule drives
        them, against the allocating reference: fields with their ghosts,
        memory variables and PML parts equal byte for byte."""
        g, med = _heterogeneous(shape, dtype)
        k_wf = WaveField(g, dtype=dtype)
        rng = np.random.default_rng(17)
        for arr in k_wf.fields().values():
            arr[...] = rng.standard_normal(arr.shape) * 1e-3
        r_wf = k_wf.copy()
        dt = 5e-3
        att, r_att = (CoarseGrainedAttenuation(g, med, 0.2, 2.0, dtype=dtype)
                      for _ in range(2))
        pml, r_pml = (PML(g, med, PMLConfig(width=width), dtype=dtype)
                      for _ in range(2))
        for p in (pml, r_pml):
            p.attach(k_wf)
        k = VelocityStressKernel(k_wf, med, dt, order=order)
        hook = att.rate_hook(dt)
        for _ in range(3):
            for comp in ("vx", "vy", "vz"):
                pml.update(k_wf, comp, k.update_velocity(comp), dt)
            for comp in ("sxx", "syy", "szz", "sxy", "sxz", "syz"):
                pml.update(k_wf, comp, k.update_stress(comp, rate_hook=hook),
                           dt, term_axes=SHEAR_TERM_AXES.get(comp))
            _reference_step(r_wf, med, dt, order=order, att=r_att, pml=r_pml)
        # the non-contiguous medium went through the kernel's own copies
        assert k.buffers().keys() >= {"medium_copy.bx", "medium_copy.lam"}
        for name, arr in k_wf.fields().items():
            ref = getattr(r_wf, name)
            assert arr.dtype == ref.dtype == np.dtype(dtype)
            assert arr.tobytes() == ref.tobytes(), name
        for comp, zeta in att._zeta.items():
            assert zeta.tobytes() == r_att._zeta[comp].tobytes(), comp
        for key, parts in pml.parts.items():
            for a, b in zip(parts, r_pml.parts[key]):
                assert a.tobytes() == b.tobytes(), key

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


def _reference_step(wf, med, dt, order=4, att=None, pml=None):
    """The allocating formulation of the optimized kernel's update order.

    Stencils come from the strided reference operators ``fd.diff4_*`` /
    ``fd.diff2_*``; ``att`` (a :class:`CoarseGrainedAttenuation`) relaxes
    each stress rate with the expression form of the rate hook, and ``pml``
    advances its split parts with the expression form of ``PML.update``.
    Each call mirrors the schedule's component order: a velocity component,
    then its PML frame; a stress component, then its PML frame.
    """
    from repro.core.kernels import (_SHEAR_MOD, _SHEAR_TERMS, _VEL_BUOYANCY,
                                    _VEL_TERMS)
    from repro.core.pml import SHEAR_TERM_AXES
    fwd, bwd = {4: (fd.diff4_fwd, fd.diff4_bwd),
                2: (fd.diff2_fwd, fd.diff2_bwd)}[order]
    h = wf.grid.h
    for comp, terms in _VEL_TERMS.items():
        b_int = interior(getattr(med, _VEL_BUOYANCY[comp]))
        dst = interior(getattr(wf, comp))
        parts = []
        for axis, sname, dirn in terms:
            s = getattr(wf, sname)
            d = (fwd if dirn == "f" else bwd)(s, axis, h)
            t_int = interior(d) * b_int
            parts.append(t_int)
            dst += t_int * dt
        if pml is not None:
            _reference_pml(pml, wf, comp, dict(enumerate(parts)), dt)
    for comp in ("sxx", "syy", "szz"):
        dvx = interior(bwd(wf.vx, 0, h)).copy()
        dvy = interior(bwd(wf.vy, 1, h)).copy()
        dvz = interior(bwd(wf.vz, 2, h)).copy()
        own = {"sxx": dvx, "syy": dvy, "szz": dvz}[comp]
        lam2mu = interior(med.lam2mu)
        lam = interior(med.lam)
        parts = []
        for t in (dvx, dvy, dvz):
            parts.append(t * (lam2mu if t is own else lam))
        rate = parts[0].copy()
        rate += parts[1]
        rate += parts[2]
        if att is not None:
            rate = _reference_relax(att, comp, rate, dt)
        interior(getattr(wf, comp))[...] += rate * dt
        if pml is not None:
            _reference_pml(pml, wf, comp, dict(enumerate(parts)), dt)
    for comp, terms in _SHEAR_TERMS.items():
        mod = interior(getattr(med, _SHEAR_MOD[comp]))
        parts = []
        for axis, vname, _ in terms:
            d = fwd(getattr(wf, vname), axis, h)
            parts.append(interior(d) * mod)
        rate = parts[0].copy()
        rate += parts[1]
        if att is not None:
            rate = _reference_relax(att, comp, rate, dt)
        interior(getattr(wf, comp))[...] += rate * dt
        if pml is not None:
            _reference_pml(pml, wf, comp,
                           dict(zip(SHEAR_TERM_AXES[comp], parts)), dt)


def _reference_relax(att, comp, rate, dt):
    """Expression form of ``CoarseGrainedAttenuation.rate_hook``."""
    a, b = att._coeffs(dt)
    zeta = att._zeta[comp]
    delta = att._delta["p" if comp in att._P_COMPONENTS else "s"]
    zeta_new = a * zeta + b * (delta * rate)
    out = rate - 0.5 * (zeta + zeta_new)
    att._zeta[comp] = zeta_new
    return out


def _reference_pml(pml, wf, comp, axis_terms, dt):
    """Expression form of ``PML.update`` (interior-shaped ``axis_terms``)."""
    for bi, box in enumerate(pml.boxes):
        psl = tuple(slice(s.start + fd.NGHOST, s.stop + fd.NGHOST)
                    for s in box)
        parts = pml.parts[(bi, comp)]
        for axis, (decay, gain) in enumerate(pml._coefficients(bi, comp, dt)):
            new = parts[axis] * decay
            if axis in axis_terms:
                new = new + gain * axis_terms[axis][box]
            parts[axis][...] = new
        getattr(wf, comp)[psl] = parts[0] + parts[1] + parts[2]


class TestSpanKernel:
    """Exact-count and freshness guards of the flat-span pooled kernel."""

    def test_one_step_evaluates_eighteen_derivatives(self, monkeypatch):
        """9 velocity terms + one shared normal triple + 6 shear terms."""
        g, med, wf = _fixture(14, seed=3)
        k = VelocityStressKernel(wf, med, 1e-3)
        calls = []
        real = fd.diff_span

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fd, "diff_span", counting)
        for _ in range(3):
            k.step_velocity()
            k.step_stress()
        assert len(calls) == 3 * 18

    def test_syy_alone_equals_in_pass_value(self):
        g, med, wf = _fixture(14, seed=5)
        alone = wf.copy()
        VelocityStressKernel(wf, med, 1e-3).step_stress()
        VelocityStressKernel(alone, med, 1e-3).update_stress("syy")
        assert alone.syy.tobytes() == wf.syy.tobytes()

    def test_velocity_update_drops_the_shared_derivatives(self):
        g, med, wf = _fixture(14, seed=9)
        k = VelocityStressKernel(wf, med, 1e-3)
        k.stress_terms("sxx")
        before = wf.vx.copy()
        k.update_velocity("vx")
        assert not np.array_equal(before, wf.vx)
        got = k.stress_terms("syy")[0]
        want = interior(fd.diff4_bwd(wf.vx, 0, g.h)) * interior(med.lam)
        assert interior(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("done", [("sxx",), ("sxx", "syy", "szz")])
    def test_hand_edit_is_seen_by_a_fresh_pass(self, done):
        """A hand edit of vx followed by a fresh sxx, or by any normal
        component after the pass ended at szz, sees the new velocities."""
        g, med, wf = _fixture(14, seed=10)
        k = VelocityStressKernel(wf, med, 1e-3)
        for comp in done:
            k.stress_terms(comp)
        interior(wf.vx)[...] *= 2.0
        comp = "sxx" if len(done) == 1 else "szz"
        got = k.stress_terms(comp)[0]
        mod = med.lam2mu if comp == "sxx" else med.lam
        want = interior(fd.diff4_bwd(wf.vx, 0, g.h)) * interior(mod)
        assert interior(got).tobytes() == want.tobytes()

    def test_anelastic_solver_makes_nine_kernel_calls_per_step(self):
        """The per-component call surface instrumentation shadows: one
        update_velocity per velocity and one update_stress per stress."""
        from collections import Counter
        from repro.core.solver import SolverConfig, WaveSolver
        g = Grid3D(24, 16, 12, h=200.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
        sol = WaveSolver(g, med, SolverConfig(
            kernel_variant="pooled", absorbing="pml",
            pml=PMLConfig(width=3), free_surface=True,
            attenuation_band=(0.1, 1.0), stability_check_interval=0))
        calls = Counter()
        for name in ("update_velocity", "update_stress"):
            fn = getattr(sol.kernel, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            setattr(sol.kernel, name, counted)
        sol.run(5)
        assert calls == {"update_velocity": 15, "update_stress": 30}

    def test_accounting_counts_medium_copies(self):
        g, med = _heterogeneous((14, 12, 10), np.float64)
        wf = WaveField(g)
        k = VelocityStressKernel(wf, med, 1e-3)
        k.step_velocity()
        k.step_stress()
        copies = {n for n in k.buffers() if n.startswith("medium_copy.")}
        assert copies == {f"medium_copy.{n}"
                          for n in ("bx", "by", "bz", "lam", "lam2mu")}
        padded = np.prod(g.padded_shape) * 8
        assert k.scratch_nbytes() == (9 + len(copies)) * padded

    def test_compiled_solver_creates_no_span_buffers(self):
        from repro.core import compiled
        from repro.core.solver import SolverConfig, WaveSolver
        if not compiled.compiled_available():
            pytest.skip("no compiled provider (no C compiler)")
        g, med, _ = _fixture(16)
        sol = WaveSolver(g, med, SolverConfig(
            absorbing="sponge", sponge_width=4, free_surface=True,
            stability_check_interval=0, kernel_variant="compiled"))
        sol.wf.vx[...] = 1e-3
        sol.run(4)
        bufs = sol.kernel.buffers()
        assert set(bufs) == {"scratch[0]", "scratch[1]", "scratch[2]",
                             "rate", "incr", "work"}
        # the pooled pool is allocated zeroed and never written
        assert not any(b.any() for b in bufs.values())
