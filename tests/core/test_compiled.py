"""Tests for the compiled fused stencil backend (repro.core.compiled).

The headline contract is bitwise: the fused sweeps (generated C) must
reproduce the pooled numpy kernel at atol=0 in both precisions, including
when split over regions (the IV.C overlap path) and when threaded.
Everything provider-dependent is skipped when no C compiler is present;
the config validation and error paths run everywhere.
"""

import hashlib
import os
import re
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import compiled, update
from repro.core.fd import NGHOST
from repro.core.grid import ALL_FIELDS, Grid3D, WaveField
from repro.core.kernels import VelocityStressKernel
from repro.core.medium import Medium
from repro.core.schedule import _split_core_shells
from repro.core.solver import SolverConfig, WaveSolver

from ..fields import seed_solver_fields

needs_provider = pytest.mark.skipif(
    not compiled.compiled_available(),
    reason="no compiled provider (no C compiler)")


def _random_state(seed=0, shape=(10, 12, 11), dtype=np.float64, h=25.0):
    g = Grid3D(*shape, h=h)
    rng = np.random.default_rng(seed)
    vs = rng.uniform(1000.0, 2000.0, g.shape)
    vp = vs * rng.uniform(1.8, 2.2, g.shape)
    rho = rng.uniform(2000.0, 3000.0, g.shape)
    med = Medium.from_velocity_model(g, vp, vs, rho, dtype=dtype)
    wf = WaveField(g, dtype=dtype)
    for name in ALL_FIELDS:
        getattr(wf, name)[...] = rng.standard_normal(
            g.padded_shape).astype(dtype)
    return g, med, wf


def _assert_fields_equal(wf_a, wf_b):
    for comp in ALL_FIELDS:
        a, b = wf_a.interior(comp), wf_b.interior(comp)
        assert np.array_equal(a, b), comp


@needs_provider
class TestFusedBitwise:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fused_matches_pooled(self, dtype):
        g, med, wf = _random_state(1, dtype=dtype)
        wf2 = wf.copy()
        dt = dtype(1e-3)
        pooled = VelocityStressKernel(wf, med, dt)
        stepper = compiled.FusedStepper(wf2, med, dt)
        for _ in range(3):
            pooled.step_velocity()
            pooled.step_stress()
            stepper.step_velocity()
            stepper.step_stress()
        _assert_fields_equal(wf, wf2)
        assert wf2.vx.dtype == np.dtype(dtype)

    def test_region_cover_matches_full_sweep(self):
        """Two region steppers covering the interior == one full sweep
        (the DistributedWaveSolver core/shell overlap contract)."""
        g, med, wf = _random_state(2)
        wf2 = wf.copy()
        dt = 1e-3
        full = compiled.FusedStepper(wf, med, dt)
        other = compiled.FusedStepper(wf2, med, dt)
        cut = g.nx // 2 + compiled.NGHOST
        lo = (slice(compiled.NGHOST, cut),
              slice(compiled.NGHOST, compiled.NGHOST + g.ny),
              slice(compiled.NGHOST, compiled.NGHOST + g.nz))
        hi = (slice(cut, compiled.NGHOST + g.nx), lo[1], lo[2])
        r_lo = compiled.FusedRegionStepper(other, lo)
        r_hi = compiled.FusedRegionStepper(other, hi)
        full.step_velocity()
        r_hi.step_velocity()   # arbitrary order: regions are disjoint
        r_lo.step_velocity()
        full.step_stress()
        r_lo.step_stress()
        r_hi.step_stress()
        _assert_fields_equal(wf, wf2)

    def test_parallel_build_matches_serial(self):
        g, med, wf = _random_state(3)
        wf2 = wf.copy()
        dt = 1e-3
        serial = compiled.FusedStepper(wf, med, dt, parallel=False)
        par = compiled.FusedStepper(wf2, med, dt, parallel=True)
        for _ in range(2):
            serial.step_velocity()
            serial.step_stress()
            par.step_velocity()
            par.step_stress()
        _assert_fields_equal(wf, wf2)
        assert par.target == serial.target == serial.kernels.target

    def test_kernel_set_memoized(self):
        a = compiled.get_kernels(np.dtype(np.float64))
        b = compiled.get_kernels(np.dtype(np.float64))
        assert a is b
        assert a.provider == "cbuild"
        assert a.compile_seconds >= 0.0
        assert re.fullmatch(r"native:[0-9a-f]{8}|baseline", a.target)
        assert a.target == compiled._cc_target(compiled._find_cc())[3]


@needs_provider
class TestSolverCompiledVariant:
    def _solver(self, variant, dtype=np.float64, shape=(20, 20, 16), **kw):
        g = Grid3D(*shape, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0,
                                 dtype=dtype)
        cfg = SolverConfig(absorbing="sponge", sponge_width=4,
                           free_surface=True, stability_check_interval=0,
                           dtype=dtype, kernel_variant=variant, **kw)
        sol = WaveSolver(g, med, cfg)
        seed_solver_fields(sol.wf)
        return sol

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_solver_matches_pooled(self, dtype):
        a = self._solver("pooled", dtype)
        b = self._solver("compiled", dtype)
        assert b.kernel_variant == "compiled"
        assert b.fused is not None
        a.run(5)
        b.run(5)
        _assert_fields_equal(a.wf, b.wf)

    @pytest.mark.parametrize("lts", ["off", ((0, 8, 1), (8, 16, 2)),
                                     ((0, 4, 1), (4, 8, 2), (8, 16, 4))])
    def test_threaded_operators_stay_bitwise(self, lts):
        """compiled_parallel threads the sweeps (with their in-row band
        corrections) AND the sponge and free surface; rows are independent
        because the sweep never writes the fields it reads.  Three rates on
        512 rows (>= 64 per thread up to 8 threads), 20 times over: a blend
        written into the read fields would race with the neighbour rows'
        x/y taps and show up here."""
        shape = (32, 16, 16) if len(lts) == 3 else (20, 20, 16)
        a = self._solver("pooled", shape=shape, lts=lts)
        serial = self._solver("compiled", shape=shape, lts=lts)
        a.run(6)
        serial.run(6)
        _assert_fields_equal(a.wf, serial.wf)
        for _ in range(20 if len(lts) == 3 else 1):
            b = self._solver("compiled", shape=shape, lts=lts,
                             compiled_parallel=True)
            assert b.fused.kernels.parallel
            assert b.sponge.kernels.parallel
            assert b.free_surface.kernels.parallel
            b.run(6)
            for name, arr in serial.wf.fields().items():
                assert np.array_equal(getattr(b.wf, name), arr), name
            if b.lts is not None:
                assert np.array_equal(b.lts.history, serial.lts.history)

    def test_operators_share_the_steppers_kernel_set(self):
        b = self._solver("compiled", lts=((0, 8, 1), (8, 16, 2)))
        ks = b.fused.kernels
        assert b.sponge.kernels is ks and b.free_surface.kernels is ks
        # one bound sweep per (half, phase of the macro cycle), no per-rate
        # steppers or per-group updaters next to solver.fused
        assert set(b.lts.plans) == {(half, phase)
                                    for half in ("velocity", "stress")
                                    for phase in range(b.lts.max_rate)}
        assert all(g.updater is None for g in b.lts.groups)
        p = self._solver("pooled", lts=((0, 8, 1), (8, 16, 2)))
        assert p.sponge.kernels is None and p.free_surface.kernels is None
        assert p.lts.plans is None

    def test_distributed_compiled_zero_state_matches_serial(self):
        """From a shared (zero + source) initial state the distributed
        compiled run must equal the serial compiled run bitwise."""
        from repro.core.source import MomentTensorSource, gaussian_pulse
        from repro.core.source import double_couple_strike_slip
        from repro.parallel.distributed import DistributedWaveSolver
        g = Grid3D(20, 20, 16, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
        cfg = SolverConfig(absorbing="sponge", sponge_width=4,
                           free_surface=True, stability_check_interval=0,
                           kernel_variant="compiled")

        def src():
            return MomentTensorSource(
                position=(g.extent[0] / 2, g.extent[1] / 2,
                          g.extent[2] / 2),
                moment=double_couple_strike_slip(1e15),
                stf=lambda t: gaussian_pulse(np.array([t]), f0=2.0)[0])

        serial = WaveSolver(g, med, cfg)
        serial.add_source(src())
        dist = DistributedWaveSolver(g, med, nranks=4, config=cfg)
        assert dist.kernel_variant == "compiled"
        dist.add_source(src())
        serial.run(6)
        dist.run(6)
        for comp in ("vx", "vy", "vz"):
            assert np.array_equal(dist.gather_field(comp),
                                  serial.wf.interior(comp)), comp


class TestFallbackRunsNumpyOperators:
    def test_disabled_provider_warns_once_and_degrades_every_operator(
            self, monkeypatch):
        """No provider: ONE warning, pooled sweeps, and the sponge, free
        surface and LTS bands on their numpy bodies — never half compiled."""
        monkeypatch.setenv("REPRO_COMPILED_PROVIDER", "none")
        g = Grid3D(14, 12, 16, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)

        def build(variant):
            sol = WaveSolver(g, med, SolverConfig(
                absorbing="sponge", sponge_width=3, free_surface=True,
                stability_check_interval=0, kernel_variant=variant,
                lts=((0, 8, 1), (8, 16, 2))))
            seed_solver_fields(sol.wf)
            return sol

        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            sol = build("compiled")
            sol.run(4)
        assert len(caught) == 1
        assert sol.kernel_variant == "pooled" and sol.fused is None
        assert sol.sponge.kernels is None
        assert sol.free_surface.kernels is None
        assert sol.lts.plans is None
        ref = build("pooled")
        ref.run(4)
        _assert_fields_equal(sol.wf, ref.wf)


class TestKernelSetValidation:
    """Binding refuses what the raw-pointer operators cannot take."""

    @staticmethod
    def _vel_arrays(kernels, seed):
        g, med, wf = _random_state(seed, dtype=np.dtype(kernels.dtype).type)
        box = (NGHOST, NGHOST + g.nx, NGHOST, NGHOST + g.ny)
        return g, wf, [*wf.fields().values(), med.bx, med.by, med.bz], box

    def test_rejects_non_contiguous_and_foreign_dtype(self, kernels):
        g, wf, arrays, box = self._vel_arrays(kernels, 8)
        slabs = [(NGHOST, NGHOST + g.nz, 1e-3)]
        strided = arrays[0].transpose(2, 1, 0).copy().transpose(2, 1, 0)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.vel([strided, *arrays[1:]], 25.0, box, slabs)
        other = np.float32 if kernels.dtype == "float64" else np.float64
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.vel([arrays[0].astype(other), *arrays[1:]], 25.0, box,
                        slabs)

    def test_rejects_planes_outside_the_array(self, kernels):
        g, med, wf = _random_state(9, dtype=np.dtype(kernels.dtype).type)
        npz = g.padded_shape[2]
        with pytest.raises(ValueError, match="surface plane"):
            kernels.fs_stress(wf.sxz, wf.syz, wf.szz, npz - 2)
        ratio = np.ascontiguousarray(med.lam[:, :, 0] / med.lam2mu[:, :, 0])
        with pytest.raises(ValueError, match="surface plane"):
            kernels.fs_velocity(wf.vx, wf.vy, wf.vz, ratio, 0)

    @pytest.mark.parametrize("slabs", [
        [(2, 6, 1e-3), (5, 9, 1e-3)],       # overlapping
        [(6, 9, 1e-3), (2, 6, 1e-3)],       # unordered
        [(2, 2, 1e-3)],                     # empty
        [(1, 6, 1e-3)],                     # into the bottom ghost planes
        [(2, 14, 1e-3)],                    # into the top ghost planes
    ])
    def test_rejects_bad_slab_tables(self, kernels, slabs):
        g, wf, arrays, box = self._vel_arrays(kernels, 10)
        assert g.padded_shape[2] == 15
        with pytest.raises(ValueError, match="slabs"):
            kernels.vel(arrays, 25.0, box, slabs)

    def test_rejects_boxes_and_bands_outside_the_arrays(self, kernels):
        g, wf, arrays, box = self._vel_arrays(kernels, 11)
        npz = g.padded_shape[2]
        slabs = [(2, 6, 1e-3), (6, 13, 2e-3)]
        with pytest.raises(ValueError, match="ghost rim"):
            kernels.vel(arrays, 25.0, (1, *box[1:]), slabs)
        with pytest.raises(ValueError, match="ghost rim"):
            kernels.vel(arrays, 25.0, (*box[:3], box[3] + 1), slabs)
        hist = np.zeros((g.nx, g.ny, 12, 2), dtype=kernels.dtype)
        kernels.vel(arrays, 25.0, box, slabs, hist, save=[(0, 4), (6, 6)],
                    blend=[(0, 9, 6, 0.5), (1, 3, 4, 1.5)])  # a valid plan
        with pytest.raises(ValueError, match="history array"):
            kernels.vel(arrays, 25.0, box, slabs, save=[(0, 4)])
        with pytest.raises(ValueError, match="band"):            # planes
            kernels.vel(arrays, 25.0, box, slabs, hist, save=[(0, npz - 1)])
        with pytest.raises(ValueError, match="band"):            # slots
            kernels.vel(arrays, 25.0, box, slabs, hist,
                        blend=[(0, 10, 6, 0.5)])
        with pytest.raises(ValueError, match="outside the table"):
            kernels.vel(arrays, 25.0, box, slabs, hist,
                        blend=[(2, 3, 6, 0.5)])
        padded = np.zeros((*g.padded_shape[:2], 12, 2), dtype=kernels.dtype)
        with pytest.raises(ValueError, match="interior rows"):
            kernels.vel(arrays, 25.0, box, slabs, padded, save=[(0, 4)])


class TestSlabTableSweep:
    """The one entry point per half: global dt and region boxes are its
    one-slab case, several slabs with their own dt its LTS case."""

    @staticmethod
    def _pair(kernels, seed):
        dtype = np.dtype(kernels.dtype).type
        g, med, wf = _random_state(seed, dtype=dtype)
        wf2 = wf.copy()
        return (g, VelocityStressKernel(wf, med, 1e-3), wf,
                compiled.FusedStepper(wf2, med, 1e-3,
                                      parallel=kernels.parallel), wf2)

    def test_one_slab_is_the_pooled_kernel(self, kernels):
        g, pooled, wf, fused, wf2 = self._pair(kernels, 21)
        assert fused.kernels is kernels
        for _ in range(2):
            pooled.step_velocity()
            pooled.step_stress()
            fused.step_velocity()
            fused.step_stress()
        _assert_fields_equal(wf, wf2)

    @pytest.mark.parametrize("excl", [[[2, 2], [2, 2], [2, 2]],
                                      [[2, 0], [0, 2], [0, 3]]])
    def test_any_core_shell_cover_is_the_pooled_kernel(self, kernels, excl):
        g, pooled, wf, fused, wf2 = self._pair(kernels, 22)
        core, shells = _split_core_shells(g, excl)
        for half in ("step_velocity", "step_stress"):
            getattr(pooled, half)()
            for region in (*shells[::-1], core):    # any order: disjoint
                getattr(compiled.FusedRegionStepper(fused, region), half)()
        _assert_fields_equal(wf, wf2)

    def test_slabs_carry_their_own_dt(self, kernels):
        """One call over three slabs == three pooled region updates."""
        g, pooled, wf, fused, wf2 = self._pair(kernels, 23)
        x = (slice(NGHOST, NGHOST + g.nx), slice(NGHOST, NGHOST + g.ny))
        cuts = [(2, 5, 1e-3), (5, 9, 2e-3), (9, 13, 4e-3)]
        for half in ("velocity", "stress"):
            for z0, z1, dt in cuts:
                getattr(pooled.region((*x, slice(z0, z1)), dt=dt),
                        "step_" + half)()
            fused.bind(half, (x[0].start, x[0].stop, x[1].start, x[1].stop),
                       cuts)()
        _assert_fields_equal(wf, wf2)


@needs_provider
class TestFoldedCoefficients:
    """``c1/h`` and ``c2/h`` are computed in double and rounded once to the
    field dtype on both sides.  At these h they are inexact in both
    precisions, so rounding them any other way (dividing in the field
    dtype, multiplying by a rounded ``1/h``) shows up as a bit difference
    somewhere."""

    @staticmethod
    def _pair(h, dtype):
        g, med, wf = _random_state(41, shape=(12, 10, 14), dtype=dtype, h=h)
        wf2 = wf.copy()
        return (g, VelocityStressKernel(wf, med, 1e-3), wf,
                compiled.FusedStepper(wf2, med, 1e-3), wf2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("h", [37.5, 100.0 / 3.0, 200.0])
    def test_both_halves(self, h, dtype):
        g, pooled, wf, fused, wf2 = self._pair(h, dtype)
        for _ in range(2):
            pooled.step_velocity()
            pooled.step_stress()
            fused.step_velocity()
            fused.step_stress()
        _assert_fields_equal(wf, wf2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("h", [37.5, 100.0 / 3.0, 200.0])
    def test_region_box(self, h, dtype):
        g, pooled, wf, fused, wf2 = self._pair(h, dtype)
        box = (slice(3, 10), slice(4, 9), slice(2, 13))
        for half in ("step_velocity", "step_stress"):
            getattr(pooled.region(box), half)()
            getattr(compiled.FusedRegionStepper(fused, box), half)()
        _assert_fields_equal(wf, wf2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("h", [37.5, 100.0 / 3.0, 200.0])
    def test_lts_slab_table(self, h, dtype):
        g, pooled, wf, fused, wf2 = self._pair(h, dtype)
        x = (slice(NGHOST, NGHOST + g.nx), slice(NGHOST, NGHOST + g.ny))
        cuts = [(2, 6, 1e-3), (6, 11, 2e-3), (11, 16, 4e-3)]
        for half in ("velocity", "stress"):
            for z0, z1, dt in cuts:
                getattr(pooled.region((*x, slice(z0, z1)), dt=dt),
                        "step_" + half)()
            fused.bind(half, (x[0].start, x[0].stop, x[1].start, x[1].stop),
                       cuts)()
        _assert_fields_equal(wf, wf2)


def test_per_cell_code_divides_nothing():
    """The per-cell C — the sweep bodies, the row visits with the stress
    half's folded fill / imaging / damping, the row bodies they share with
    the damp / free-surface operators, and those operators — multiplies
    only: every ``1/h`` and ``lam/lam2mu`` is formed ahead of the loops
    (comments stripped before looking)."""
    fmt = dict(real="double", suf="f64", g=NGHOST)
    ops = compiled._C_OPS_TEMPLATE.format(**fmt)
    rows = compiled._C_ROWS_TEMPLATE.format(**fmt) + "".join(
        compiled._c_damp(family, fields, "double", "f64")
        for family, fields in (("velocity", compiled.VELOCITY_FIELDS),
                               ("stress", compiled.STRESS_FIELDS)))
    sweeps = compiled._c_sweeps("double", "f64")
    # the row loops of the sweeps (velocity, elastic and anelastic
    # stress): each entry point after its prologue
    visits = [fn.split("#pragma omp parallel for")[1]
              for fn in sweeps.split("void fused_")[1:]]
    assert len(visits) == 3
    assert all("fs_image_row_f64" in v for v in visits[1:])
    bodies = [compiled._c_body(blocks) for q in (False, True)
              for blocks in update.halves(4, q).values()]
    for code in (*bodies, ops, rows, *visits):
        assert "/" not in re.sub(r"/\*.*?\*/", "", code, flags=re.S)


@needs_provider
def test_provider_lacking_an_operator_is_unavailable_as_a_whole(monkeypatch):
    """No half-compiled step: a build without (say) ``damp`` fails
    resolution, which the solver turns into the loud pooled fallback."""
    real = compiled._cbuild_kernels
    for op in ("damp", "vel"):      # a per-step operator, the sweep itself
        def lacking(dt, parallel, op=op):
            binders, secs, hit = real(dt, parallel)
            del binders[op]
            return binders, secs, hit

        monkeypatch.setattr(compiled, "_cbuild_kernels", lacking)
        monkeypatch.setattr(compiled, "_KERNEL_CACHE", {})
        with pytest.raises(compiled.CompiledUnavailable, match=op):
            compiled.get_kernels(np.float64)


@needs_provider
def test_torn_jit_cache_entry_is_rebuilt(tmp_path, monkeypatch):
    """A cache entry that is cut short or does not load is rebuilt once,
    instead of demoting every later compiled run on the host to pooled.
    Each case copies this process's library into a fresh cache directory:
    dlopen caches the paths it has loaded, so a new path is really read
    from disk."""
    good = compiled._cbuild_library(False)[0]._name
    blob = Path(good).read_bytes()

    def torn(case, data):
        cache = tmp_path / case
        cache.mkdir()
        (cache / Path(good).name).write_bytes(data)
        monkeypatch.setenv("REPRO_JIT_CACHE", str(cache))
        return cache / Path(good).name

    # cut short: caught before dlopen, which would raise (100 bytes) or
    # fault (half the file) on it
    assert not compiled._truncated(good)
    assert compiled._truncated(torn("cut100", blob[:100]))
    torn_so = torn("half", blob[:len(blob) // 2])
    assert compiled._truncated(torn_so)
    monkeypatch.setattr(compiled, "_KERNEL_CACHE", {})
    g = Grid3D(12, 10, 12, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
    sols = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variant in ("pooled", "compiled"):
            sols[variant] = WaveSolver(g, med, SolverConfig(
                absorbing="sponge", sponge_width=3, free_surface=True,
                stability_check_interval=0, kernel_variant=variant))
            seed_solver_fields(sols[variant].wf)
            sols[variant].run(3)
    fused = sols["compiled"].fused
    assert fused.provider == "cbuild" and not fused.cache_hit
    assert not compiled._truncated(torn_so)
    _assert_fields_equal(sols["pooled"].wf, sols["compiled"].wf)

    # present but not loadable (dlopen raises): rebuilt through the same
    # compile step, stood in for by a copy of the good library
    empty = torn("empty", b"")
    builds = []

    def compile_copy(cmd, **kw):
        builds.append(cmd)
        shutil.copyfile(good, cmd[cmd.index("-o") + 1])
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(compiled.subprocess, "run", compile_copy)
    lib, _, hit = compiled._cbuild_library(False)
    assert not hit and len(builds) == 1
    assert lib._name == str(empty) and empty.read_bytes() == blob


class TestBuildRecipe:
    """The build flags and the JIT-cache address, with the target probe
    stubbed: no compiler runs."""

    #: flags that let the compiler change floating-point results
    UNSAFE = ("-ffast-math", "-Ofast", "-funsafe-math-optimizations",
              "-fassociative-math", "-freciprocal-math",
              "-ffp-contract=fast", "-ffp-contract=on")

    @staticmethod
    def _recipe(monkeypatch, version="cc 12.2", target=("-march=native",),
                signature="a" * 64, parallel=False, cc="/usr/bin/cc"):
        monkeypatch.setattr(compiled, "_find_cc", lambda: cc)
        monkeypatch.setattr(compiled, "_cc_target", lambda _: (
            version, target, signature, "stub"))
        return compiled._cbuild_recipe(parallel)

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("target", [("-march=native",), ()])
    def test_flags_keep_the_bitwise_contract(self, monkeypatch, target,
                                             parallel):
        _, flags, _, _ = self._recipe(monkeypatch, target=target,
                                      parallel=parallel)
        assert "-ffp-contract=off" in flags
        assert not set(self.UNSAFE) & set(flags)
        assert ("-march=native" in flags) == bool(target)
        assert ("-fopenmp" in flags) == parallel

    def test_cache_address_names_compiler_and_target(self, monkeypatch):
        """A cache shared between hosts never hands one host's library to
        another: the ISA signature and the compiler version are both in
        the address, the compiler's path is not."""
        base = self._recipe(monkeypatch)[3]
        assert self._recipe(monkeypatch)[3] == base
        assert self._recipe(monkeypatch, signature="b" * 64)[3] != base
        assert self._recipe(monkeypatch, version="cc 12.3")[3] != base
        assert self._recipe(monkeypatch, cc="/opt/bin/cc")[3] == base

    def test_rejected_native_selects_baseline(self, monkeypatch):
        macros = "#define __x86_64__ 1\n#define __SSE2__ 1\n"
        calls = []

        def probe(cmd, **kw):
            calls.append(cmd)
            if "-march=native" in cmd:
                return subprocess.CompletedProcess(cmd, 1, "", "unknown")
            out = "cc 1.0\n" if "--version" in cmd else macros
            return subprocess.CompletedProcess(cmd, 0, out, "")

        monkeypatch.setattr(compiled.subprocess, "run", probe)
        version, flags, signature = compiled._probe_target("cc")
        assert (version, flags) == ("cc 1.0\n", ())
        assert signature == hashlib.sha256("\n".join(
            sorted(macros.splitlines())).encode()).hexdigest()
        assert [c for c in calls if "-dM" in c] == [
            ["cc", "-march=native", "-dM", "-E", "-x", "c", os.devnull],
            ["cc", "-dM", "-E", "-x", "c", os.devnull]]
        baseline = self._recipe(monkeypatch, version, flags, signature)
        native = self._recipe(monkeypatch, version, ("-march=native",),
                              signature)
        assert "-march=native" not in baseline[1]
        assert baseline[3] != native[3]

    def test_probe_memoized_per_host(self, tmp_path, monkeypatch):
        """A warm process runs no compiler: the probe's answer is kept in
        the JIT cache under the compiler binary and the host, and asked
        again only when one of them differs or the memo is torn."""
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        probes = []

        def probe(cc):
            probes.append(cc)
            return "cc 1.0\n", ("-march=native",), "c" * 64

        monkeypatch.setattr(compiled, "_probe_target", probe)
        resolve = compiled._cc_target.__wrapped__
        cc = shutil.which("sh")     # any binary: only its identity is read
        answer = ("cc 1.0\n", ("-march=native",), "c" * 64, "native:cccccccc")
        assert resolve(cc) == answer and len(probes) == 1
        assert resolve(cc) == answer and len(probes) == 1
        (memo,) = tmp_path.glob("target_*")
        memo.write_text("[")
        assert resolve(cc) == answer and len(probes) == 2
        monkeypatch.setattr(compiled.os, "uname", lambda: ("another host",))
        assert resolve(cc) == answer and len(probes) == 3
        assert len(list(tmp_path.glob("target_*"))) == 2
        # a cache the memo cannot be written to still resolves
        monkeypatch.setenv("REPRO_JIT_CACHE", str(memo / "not-a-dir"))
        assert resolve(cc) == answer and len(probes) == 4


class TestConfigValidation:
    def test_unknown_variant_rejected(self):
        for variant in ("vectorized", "blocked"):
            with pytest.raises(ValueError, match="kernel_variant"):
                SolverConfig(kernel_variant=variant)

    def test_compiled_requires_order_4(self):
        with pytest.raises(ValueError, match="4th-order"):
            SolverConfig(kernel_variant="compiled", order=2)

    def test_unknown_provider_env_rejected(self, monkeypatch):
        for provider in ("fortran", "numba"):
            monkeypatch.setenv("REPRO_COMPILED_PROVIDER", provider)
            with pytest.raises(compiled.CompiledUnavailable,
                               match="REPRO_COMPILED_PROVIDER"):
                compiled.ensure_available()

    def test_env_disable_fails_cleanly(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_PROVIDER", "none")
        assert not compiled.compiled_available()
        with pytest.raises(compiled.CompiledUnavailable):
            compiled.get_kernels(np.dtype(np.float64))


@needs_provider
class TestFusedStepperValidation:
    def test_rejects_unsupported_dtype(self):
        with pytest.raises(compiled.CompiledUnavailable, match="dtype"):
            compiled.get_kernels(np.dtype(np.float16))

    def test_region_must_be_nonempty(self):
        g, med, wf = _random_state(7)
        stepper = compiled.FusedStepper(wf, med, 1e-3)
        empty = (slice(4, 4), slice(2, 6), slice(2, 6))
        with pytest.raises(ValueError):
            compiled.FusedRegionStepper(stepper, empty)
