"""Tests for the FS2 free surface and Cerjan sponge layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (Grid3D, Medium, MomentTensorSource, Receiver,
                        SolverConfig, WaveSolver, compiled)
from repro.core.boundary import (FreeSurfaceFS2, SpongeLayer, sponge_frame,
                                 sponge_profile)
from repro.core.fd import NGHOST
from repro.core.grid import ALL_FIELDS, WaveField
from repro.core.source import gaussian_pulse


def _noise_wf(grid, dtype, seed=0, specials=False):
    """Every cell of every field random (ghosts too); ``specials`` sprinkles
    NaN, +-0.0 and +-inf so skipped cells must come through untouched."""
    rng = np.random.default_rng(seed)
    wf = WaveField(grid, dtype=np.dtype(dtype))
    for name in ALL_FIELDS:
        arr = getattr(wf, name)
        arr[...] = rng.standard_normal(arr.shape)
        if specials:
            pick = rng.integers(0, 12, arr.shape)
            for code, value in enumerate((np.nan, 0.0, -0.0, np.inf,
                                          -np.inf)):
                arr[pick == code] = value
    return wf


def _held_mask(grid, seed):
    """A random row set over the interior (uint8 (nx, ny))."""
    rng = np.random.default_rng(seed)
    return (rng.random(grid.shape[:2]) < 0.3).astype(np.uint8)


def _covered(held):
    """Padded (npx, npy) rows a row-set operator covers: the ghost rim and
    the flagged interior rows."""
    g = NGHOST
    rows = np.ones((held.shape[0] + 2 * g, held.shape[1] + 2 * g), bool)
    rows[g:-g, g:-g] = held.astype(bool)
    return rows


def _assert_bitwise(wf_a, wf_b):
    """Same bits in every cell (NaN payloads and zero signs included)."""
    for name in ALL_FIELDS:
        a, b = getattr(wf_a, name), getattr(wf_b, name)
        bits = np.uint64 if a.dtype == np.float64 else np.uint32
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(bits), b.view(bits)), name


class TestSpongeProfile:
    def test_monotone_increasing_inward(self):
        p = sponge_profile(12, amp=0.92)
        assert np.all(np.diff(p) > 0)
        assert p[0] == pytest.approx(0.92)
        assert p[-1] < 1.0

    def test_width_zero(self):
        assert sponge_profile(0).size == 0

    def test_stronger_amp_damps_more(self):
        weak = sponge_profile(10, amp=0.98)
        strong = sponge_profile(10, amp=0.85)
        assert np.all(strong <= weak)


class TestSpongeLayer:
    def test_interior_untouched(self):
        g = Grid3D(30, 30, 30, h=10.0)
        sp = SpongeLayer(g, width=5)
        wf = WaveField(g)
        wf.interior("vx")[...] = 1.0
        sp.apply(wf)
        assert wf.interior("vx")[15, 15, 25] == 1.0     # centre, below top
        assert wf.interior("vx")[0, 15, 15] < 1.0       # in the x_lo layer

    def test_top_not_damped_by_default(self):
        g = Grid3D(20, 20, 20, h=10.0)
        sp = SpongeLayer(g, width=4)
        wf = WaveField(g)
        wf.interior("vz")[...] = 1.0
        sp.apply(wf)
        assert wf.interior("vz")[10, 10, 19] == 1.0
        assert wf.interior("vz")[10, 10, 0] < 1.0       # bottom damped

    def test_damp_top_option(self):
        g = Grid3D(20, 20, 20, h=10.0)
        sp = SpongeLayer(g, width=4, damp_top=True)
        wf = WaveField(g)
        wf.interior("vz")[...] = 1.0
        sp.apply(wf)
        assert wf.interior("vz")[10, 10, 19] < 1.0

    def test_width_validation(self):
        g = Grid3D(10, 10, 10, h=1.0)
        with pytest.raises(ValueError, match="width"):
            SpongeLayer(g, width=10)

    def test_repeated_application_decays_exponentially(self):
        g = Grid3D(16, 16, 16, h=1.0)
        sp = SpongeLayer(g, width=4)
        wf = WaveField(g)
        wf.interior("vy")[...] = 1.0
        for _ in range(150):
            sp.apply(wf)
        # outermost multiplier is 0.92: 0.92^150 ~ 4e-6
        assert wf.interior("vy")[0, 8, 8] < 1e-3
        assert wf.interior("vy")[8, 8, 12] == 1.0


class TestSpongeFrame:
    """The frame a compiled damping pass visits (boundary.sponge_frame)."""

    @staticmethod
    def _visited(frame, nk):
        k = np.arange(nk)
        return (frame.rowfull.astype(bool)[:, :, None]
                | (k < frame.ka) | (k >= frame.kb))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3,
                                                   max_side=6),
                      elements=st.sampled_from(
                          [1.0, 1.0, 0.5, np.nextafter(1.0, 0.0)])))
    def test_frame_covers_every_damped_cell(self, taper):
        frame = sponge_frame(taper)
        nk = taper.shape[2]
        assert 0 <= frame.ka <= frame.kb <= nk
        assert frame.rowfull.dtype == np.uint8
        assert np.all(self._visited(frame, nk)[taper != 1])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("power", [1, 2, 4])
    def test_layer_tapers_skip_the_undamped_core(self, dtype, power):
        g = Grid3D(14, 12, 10, h=1.0)
        sp = SpongeLayer(g, width=3, dtype=dtype)
        taper = sp.slab_taper(0, g.nz, power=power)
        frame = sponge_frame(taper)
        visited = self._visited(frame, g.nz)
        assert np.all(visited[taper != 1])
        # bottom planes on every row, frame rows in full, nothing else
        assert (frame.ka, frame.kb) == (3, g.nz)
        assert not visited[3:-3, 3:-3, 3:].any()


class TestCompiledSponge:
    """kernels.damp == the numpy multiply, bit for bit (atol=0)."""

    @staticmethod
    def _pair(grid, kernels, width, **kw):
        return (SpongeLayer(grid, width, dtype=kernels.dtype, **kw),
                SpongeLayer(grid, width, dtype=kernels.dtype,
                            kernels=kernels, **kw))

    def _check(self, grid, kernels, width, napply=3, **kw):
        ref, fast = self._pair(grid, kernels, width, **kw)
        a = _noise_wf(grid, kernels.dtype, seed=5, specials=True)
        b = a.copy()
        for _ in range(napply):
            ref.apply(a)
            fast.apply(b)
        _assert_bitwise(a, b)

    def test_whole_domain(self, kernels):
        self._check(Grid3D(13, 11, 9, h=1.0), kernels, width=3)

    def test_damp_top(self, kernels):
        self._check(Grid3D(10, 9, 12, h=1.0), kernels, width=3,
                    damp_top=True)

    def test_overlapping_frames(self, kernels):
        # 2*width > n on every axis: the two sides' profiles overwrite
        # each other and no cell is left undamped
        self._check(Grid3D(6, 7, 5, h=1.0), kernels, width=4, damp_top=True)

    @pytest.mark.parametrize("origin,shape", [
        ((0, 0, 0), (10, 16, 14)),      # x-lo side, both y sides, bottom
        ((10, 0, 0), (10, 16, 14)),     # x-hi side only
        ((6, 0, 5), (8, 16, 9)),        # y sides only, above the bottom
        ((6, 5, 6), (8, 6, 8)),         # strictly inside: nothing damped
    ])
    def test_subdomains(self, kernels, origin, shape):
        self._check(Grid3D(*shape, h=1.0), kernels, width=4,
                    global_shape=(20, 16, 14), index_origin=origin)

    def test_undamped_subdomain_visits_nothing(self, kernels):
        sp = SpongeLayer(Grid3D(8, 6, 8, h=1.0), 4, dtype=kernels.dtype,
                         global_shape=(20, 16, 14), index_origin=(6, 5, 6))
        frame = sponge_frame(sp.slab_taper(0, 8))
        assert not frame.rowfull.any()
        assert (frame.ka, frame.kb) == (0, 8)

    @pytest.mark.parametrize("power", [2, 4])
    def test_rate_power_slabs(self, kernels, power):
        g = Grid3D(12, 10, 14, h=1.0)
        ref, fast = self._pair(g, kernels, 3)
        a = _noise_wf(g, kernels.dtype, seed=6, specials=True)
        b = a.copy()
        for k_lo, k_hi in ((0, 5), (5, 9), (9, 14)):
            t_ref = ref.slab_taper(k_lo, k_hi, power=power)
            t_fast = fast.slab_taper(k_lo, k_hi, power=power)
            assert np.array_equal(t_ref, t_fast)
            for _ in range(2):
                ref.apply_slab(a, k_lo, k_hi, t_ref)
                fast.apply_slab(b, k_lo, k_hi, t_fast)
        _assert_bitwise(a, b)

    def test_held_rows_damp_stresses_there_only(self, kernels):
        """With a held-row mask the velocities are damped everywhere and
        the stresses on the held rows only (the compiled stress sweep
        damps the rest)."""
        g = Grid3D(13, 11, 9, h=1.0)
        held = _held_mask(g, 4)
        ref = SpongeLayer(g, 3, dtype=kernels.dtype)
        fast = SpongeLayer(g, 3, dtype=kernels.dtype, kernels=kernels,
                           held=held)
        a = _noise_wf(g, kernels.dtype, seed=9, specials=True)
        b, before = a.copy(), a.copy()
        ref.apply(a)
        fast.apply(b)
        rows = _covered(held)
        bits = np.uint64 if kernels.dtype == "float64" else np.uint32
        for name in ALL_FIELDS:
            want = getattr(a, name).copy()
            if name.startswith("s"):
                want[~rows] = getattr(before, name)[~rows]
            assert np.array_equal(getattr(b, name).view(bits),
                                  want.view(bits)), name

    def test_foreign_taper_takes_the_numpy_multiply(self, kernels):
        g = Grid3D(8, 8, 8, h=1.0)
        ref, fast = self._pair(g, kernels, 2)
        a = _noise_wf(g, kernels.dtype, seed=7)
        b = a.copy()
        taper = np.full((8, 8, 3), 0.5, dtype=kernels.dtype)
        ref.apply_slab(a, 2, 5, taper)
        fast.apply_slab(b, 2, 5, taper)
        _assert_bitwise(a, b)

    def test_refuses_mismatched_wavefield(self, kernels):
        g = Grid3D(8, 8, 8, h=1.0)
        fast = SpongeLayer(g, 2, dtype=kernels.dtype, kernels=kernels)
        other = np.float32 if kernels.dtype == "float64" else np.float64
        with pytest.raises(ValueError, match="C-contiguous"):
            fast.apply(WaveField(g, dtype=np.dtype(other)))
        with pytest.raises(ValueError, match="C-contiguous"):
            fast.apply(WaveField(Grid3D(9, 8, 8, h=1.0),
                                 dtype=np.dtype(kernels.dtype)))
        with pytest.raises(ValueError, match="does not fit"):
            fast.apply_slab(WaveField(g, dtype=np.dtype(kernels.dtype)),
                            5, 9, fast.slab_taper(4, 8))


class TestCompiledFreeSurface:
    """kernels.fs_velocity / fs_stress == the numpy plane ufuncs (atol=0)."""

    def test_matches_numpy_on_heterogeneous_medium(self, kernels):
        """The one-pass ghost fill (neighbour ghosts recomputed per row)
        equals the numpy plane passes, in the serial and OpenMP builds."""
        g = Grid3D(11, 9, 8, h=25.0)
        rng = np.random.default_rng(3)
        vs = rng.uniform(1000.0, 2000.0, g.shape)
        med = Medium.from_velocity_model(
            g, vs * rng.uniform(1.8, 2.2, g.shape), vs,
            rng.uniform(2000.0, 3000.0, g.shape), dtype=kernels.dtype)
        kt = NGHOST + g.nz - 1
        for parallel in (False, True):
            ref = FreeSurfaceFS2(med)
            fast = FreeSurfaceFS2(med, kernels=compiled.get_kernels(
                kernels.dtype, parallel=parallel))
            a = _noise_wf(g, kernels.dtype, seed=8)
            # exact cancellations: -0.0 differences must keep numpy's signs
            a.vz[3:6, :, kt] = a.vz[3, :, kt][None, :]
            a.vx[:, 2:5, kt] = -0.0
            b = a.copy()
            for _ in range(3):
                ref.apply_velocity(a)
                fast.apply_velocity(b)
                ref.apply_stress(a)
                fast.apply_stress(b)
            _assert_bitwise(a, b)

    def test_held_rows_and_the_ghost_rim_only(self, kernels):
        """With a held-row mask the fill and the imaging cover the ghost
        rim and the held rows — each equal to the numpy planes there — and
        leave every other row (the stress sweep's) untouched."""
        g = Grid3D(11, 9, 8, h=25.0)
        med = Medium.homogeneous(g, dtype=kernels.dtype)
        held = _held_mask(g, 5)
        ref = FreeSurfaceFS2(med)
        fast = FreeSurfaceFS2(med, kernels=kernels, held=held)
        a = _noise_wf(g, kernels.dtype, seed=10)
        b, before = a.copy(), a.copy()
        ref.apply_velocity(a)
        fast.apply_velocity(b)
        ref.apply_stress(a)
        fast.apply_stress(b)
        rows = _covered(held)
        for name in ALL_FIELDS:
            want = getattr(a, name).copy()
            want[~rows] = getattr(before, name)[~rows]
            np.testing.assert_array_equal(getattr(b, name), want,
                                          err_msg=name)

    def test_refuses_mismatched_wavefield(self, kernels):
        g = Grid3D(8, 8, 8, h=1.0)
        fast = FreeSurfaceFS2(Medium.homogeneous(g, dtype=kernels.dtype),
                              kernels=kernels)
        with pytest.raises(ValueError, match="C-contiguous"):
            fast.apply_velocity(WaveField(Grid3D(8, 8, 9, h=1.0),
                                          dtype=np.dtype(kernels.dtype)))


class TestFreeSurfaceConditions:
    def _setup(self):
        g = Grid3D(12, 12, 12, h=10.0)
        med = Medium.homogeneous(g, vp=2000.0, vs=1000.0, rho=2000.0)
        wf = WaveField(g)
        rng = np.random.default_rng(0)
        for name in ("sxx", "syy", "szz", "sxy", "sxz", "syz", "vx", "vy", "vz"):
            getattr(wf, name)[...] = rng.standard_normal(g.padded_shape)
        return g, med, wf

    def test_surface_tractions_zeroed(self):
        g, med, wf = self._setup()
        fs = FreeSurfaceFS2(med)
        fs.apply_stress(wf)
        kt = NGHOST + g.nz - 1
        assert np.all(wf.sxz[:, :, kt] == 0.0)
        assert np.all(wf.syz[:, :, kt] == 0.0)

    def test_antisymmetric_imaging(self):
        g, med, wf = self._setup()
        fs = FreeSurfaceFS2(med)
        fs.apply_stress(wf)
        kt = NGHOST + g.nz - 1
        assert np.array_equal(wf.sxz[:, :, kt + 1], -wf.sxz[:, :, kt - 1])
        assert np.array_equal(wf.szz[:, :, kt + 1], -wf.szz[:, :, kt])
        assert np.array_equal(wf.szz[:, :, kt + 2], -wf.szz[:, :, kt - 1])

    def test_velocity_ghosts_filled(self):
        g, med, wf = self._setup()
        fs = FreeSurfaceFS2(med)
        wf.vx[:, :, NGHOST + g.nz] = 1e99
        fs.apply_velocity(wf)
        kt = NGHOST + g.nz - 1
        assert np.all(np.isfinite(wf.vx[:, :, kt + 1]))
        assert np.abs(wf.vx[:, :, kt + 1]).max() < 1e3


class TestFreeSurfacePhysics:
    def test_surface_amplification(self):
        """An upgoing P wave reflects at the free surface with velocity
        doubling (the classic free-surface amplification factor of 2)."""
        g = Grid3D(16, 16, 60, h=50.0)
        med = Medium.homogeneous(g, vp=3000.0, vs=1732.0, rho=2500.0)
        cfg = SolverConfig(absorbing="none", free_surface=True)
        s = WaveSolver(g, med, cfg)
        f0 = 6.0
        src = MomentTensorSource(
            position=(400.0, 400.0, 1000.0), moment=np.eye(3) * 1e12,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=f0)[0])
        s.add_source(src)
        deep = s.add_receiver(Receiver(position=(400.0, 400.0, 2000.0)))
        surf = s.add_receiver(Receiver(position=(400.0, 400.0, 2975.0)))
        # run until the wave has hit the surface but not returned to bottom
        nt = int(1.0 / s.dt)
        s.run(nt)
        a_deep = np.abs(deep.series("vz")).max()
        a_surf = np.abs(surf.series("vz")).max()
        ratio = a_surf / a_deep
        # geometric spreading reduces the surface amplitude; the free-surface
        # factor of ~2 must overcome it (r_surf ~ 2x r_deep -> ~0.5 geometric)
        assert ratio > 0.8

    def test_free_surface_stable_long_run(self):
        g = Grid3D(14, 14, 14, h=100.0)
        med = Medium.homogeneous(g)
        cfg = SolverConfig(absorbing="none", free_surface=True)
        s = WaveSolver(g, med, cfg)
        s.wf.interior("vx")[...] = np.random.default_rng(1).standard_normal(g.shape)
        # The proxy mixes stress and velocity units, so compare against the
        # state after the stresses have spun up, not the initial kick.
        s.run(50)
        e_ref = s.wf.energy_proxy()
        s.run(250)
        # closed elastic box with a free surface: bounded energy, no FS blow-up
        assert s.wf.energy_proxy() < 10 * e_ref
