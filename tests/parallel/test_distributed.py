"""The central parallel-correctness guarantee: distributed == serial, bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Grid3D, Medium, MomentTensorSource, PMLConfig,
                        Receiver, SolverConfig, WaveSolver)
from repro.core.source import BodyForceSource, gaussian_pulse
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver
from repro.parallel.halo import GHOST_NEEDS, halo_bytes_per_step
from repro.parallel.machine import jaguar


def _heterogeneous_medium(g, seed=5):
    rng = np.random.default_rng(seed)
    vs = rng.uniform(1500, 2500, g.shape)
    vp = 2.0 * vs
    rho = rng.uniform(2200, 2800, g.shape)
    return Medium.from_velocity_model(g, vp, vs, rho)


def _source():
    return MomentTensorSource(
        position=(1200.0, 1000.0, 900.0), moment=np.eye(3) * 1e13,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0],
        spatial_width=150.0)


def _run_serial(g, med, cfg, nsteps):
    s = WaveSolver(g, med, cfg)
    s.add_source(_source())
    r = s.add_receiver(Receiver(position=(2000.0, 1500.0, 1500.0)))
    s.run(nsteps)
    return s, r


class TestBitwiseEquality:
    """Optimizations must not change the numerics (the aVal premise)."""

    CFG = dict(absorbing="pml", pml=PMLConfig(width=4), free_surface=True,
               attenuation_band=(0.3, 3.0))

    def _compare(self, decomp_dims, halo_mode="reduced", sync=False,
                 nsteps=20, **cfg_kw):
        g = Grid3D(24, 20, 18, h=100.0)
        med = _heterogeneous_medium(g)
        cfg = SolverConfig(**{**self.CFG, **cfg_kw})
        ser, r_ser = _run_serial(g, med, cfg, nsteps)
        decomp = Decomposition3D(g, *decomp_dims)
        dist = DistributedWaveSolver(g, med, decomp=decomp, config=cfg,
                                     halo_mode=halo_mode, sync_comm=sync)
        dist.add_source(_source())
        r_dist = dist.add_receiver(Receiver(position=(2000.0, 1500.0, 1500.0)))
        dist.run(nsteps)
        for name in ("vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz"):
            a = ser.wf.interior(name)
            b = dist.gather_field(name)
            assert np.array_equal(a, b), f"{name} differs"
        for comp in ("vx", "vy", "vz"):
            assert np.array_equal(r_ser.series(comp), r_dist.series(comp))

    def test_eight_ranks_reduced_halos(self):
        self._compare((2, 2, 2))

    def test_slab_decomposition_x(self):
        self._compare((4, 1, 1))

    def test_pencil_decomposition_z(self):
        self._compare((1, 2, 3))

    def test_full_halo_mode(self):
        self._compare((2, 2, 1), halo_mode="full")

    def test_synchronous_exchange_same_numerics(self):
        self._compare((2, 2, 1), sync=True, nsteps=12)

    def test_sponge_boundaries(self):
        self._compare((2, 2, 2), absorbing="sponge", sponge_width=4)

    def test_no_attenuation(self):
        self._compare((2, 1, 2), attenuation_band=None, nsteps=15)

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([(1, 1, 2), (2, 1, 1), (3, 2, 1), (1, 4, 1),
                            (2, 2, 3), (4, 2, 1)]))
    def test_random_decompositions(self, dims):
        self._compare(dims, nsteps=8)


class TestSourcesAcrossBoundaries:
    def test_smeared_source_straddles_ranks(self):
        """A smeared source centred on a subdomain boundary is injected by
        multiple ranks; total injection must match the serial run."""
        g = Grid3D(24, 16, 14, h=100.0)
        med = Medium.homogeneous(g, vp=3000.0, vs=1700.0, rho=2400.0)
        cfg = SolverConfig(absorbing="none", free_surface=False)
        src_pos = (1200.0, 800.0, 700.0)  # x = cell 12 = boundary of 2x split

        ser = WaveSolver(g, med, cfg)
        ser.add_source(MomentTensorSource(
            position=src_pos, moment=np.eye(3) * 1e13,
            stf=lambda t: 1.0, spatial_width=200.0))
        ser.run(5)

        dist = DistributedWaveSolver(g, med, nranks=4, config=cfg)
        dist.add_source(MomentTensorSource(
            position=src_pos, moment=np.eye(3) * 1e13,
            stf=lambda t: 1.0, spatial_width=200.0))
        dist.run(5)
        assert np.array_equal(ser.wf.interior("sxx"), dist.gather_field("sxx"))

    @pytest.mark.parametrize("backend", ["sim", "procpool"])
    def test_split_plane_cuts_source_components(self, backend):
        """A point source whose staggered cells fall either side of the
        split plane leaves each rank a *partial* plan (rank 0 holds only
        sxy/sxz, rank 1 the rest); a rank injects what it holds."""
        from repro.parallel import procpool
        if backend == "procpool" and not procpool.procpool_available():
            pytest.skip("fork/shared_memory unavailable")
        g = Grid3D(24, 16, 14, h=100.0)
        med = Medium.homogeneous(g, vp=3000.0, vs=1700.0, rho=2400.0)
        cfg = SolverConfig(absorbing="none", free_surface=False)

        def source():
            # x = 11.7 cells: the cell-centred components round to cell 12
            # (rank 1), the x-staggered ones (offset 0.5) to cell 11 (rank 0)
            return MomentTensorSource(
                position=(1170.0, 800.0, 700.0),
                moment=np.full((3, 3), 1e13), stf=lambda t: 1.0)
        ser = WaveSolver(g, med, cfg)
        ser.add_source(source())
        ser.run(5)
        dist = DistributedWaveSolver(g, med,
                                     decomp=Decomposition3D(g, 2, 1, 1),
                                     config=cfg, backend=backend)
        dist.add_source(source())
        plans = [set(sol.moment_sources[0]._plan) for sol in dist.solvers]
        assert plans[0] and plans[1] and plans[0].isdisjoint(plans[1])
        dist.run(5)
        for name in ("vx", "sxx", "syy", "szz", "sxy", "sxz", "syz"):
            assert np.array_equal(ser.wf.interior(name),
                                  dist.gather_field(name)), name

    def test_body_force_source(self):
        g = Grid3D(20, 16, 14, h=100.0)
        med = Medium.homogeneous(g)
        cfg = SolverConfig(absorbing="none", free_surface=True)
        pos = (900.0, 800.0, 500.0)

        ser = WaveSolver(g, med, cfg)
        ser.add_source(BodyForceSource(position=pos, component="vz",
                                       stf=lambda t: 1.0, amplitude=1e9))
        ser.run(10)

        dist = DistributedWaveSolver(g, med, nranks=4, config=cfg)
        dist.add_source(BodyForceSource(position=pos, component="vz",
                                        stf=lambda t: 1.0, amplitude=1e9))
        dist.run(10)
        assert np.array_equal(ser.wf.interior("vz"), dist.gather_field("vz"))

    def test_force_in_top_plane_bitwise(self):
        """Every driver fills the free-surface velocity ghosts after force
        injection (and after the velocity halo), so a body force in the top
        plane needs no distributed-only refusal."""
        g = Grid3D(16, 16, 12, h=100.0)
        med = Medium.homogeneous(g)
        cfg = SolverConfig(absorbing="none", free_surface=True)

        def force():
            return BodyForceSource(position=(800.0, 800.0, 1150.0),
                                   component="vz", stf=lambda t: 1.0,
                                   amplitude=1e9)
        assert g.index_of(*force().position)[2] == g.nz - 1
        ser = WaveSolver(g, med, cfg)
        ser.add_source(force())
        ser.run(10)
        assert np.abs(ser.wf.interior("vz")).max() > 0
        for nranks in (2, 4):
            dist = DistributedWaveSolver(g, med, nranks=nranks, config=cfg)
            dist.add_source(force())
            dist.run(10)
            for name in ("vx", "vy", "vz", "sxx", "szz", "sxz"):
                assert np.array_equal(ser.wf.interior(name),
                                      dist.gather_field(name)), name

    def test_unsupported_source(self):
        g = Grid3D(16, 16, 12, h=100.0)
        dist = DistributedWaveSolver(g, Medium.homogeneous(g), nranks=2,
                                     config=SolverConfig(absorbing="none"))
        with pytest.raises(TypeError):
            dist.add_source(42)


class TestConstruction:
    def test_needs_decomp_or_nranks(self):
        g = Grid3D(16, 16, 12, h=100.0)
        with pytest.raises(ValueError, match="decomp"):
            DistributedWaveSolver(g, Medium.homogeneous(g))

    def test_global_dt_used_by_all_ranks(self):
        g = Grid3D(16, 16, 12, h=100.0)
        vs = np.full(g.shape, 1000.0)
        vs[:8] = 2000.0  # fast half in rank 0's region
        med = Medium.from_velocity_model(g, 2.0 * vs, vs,
                                         np.full(g.shape, 2400.0))
        dist = DistributedWaveSolver(g, med, nranks=2,
                                     config=SolverConfig(absorbing="none"))
        dts = {s.dt for s in dist.solvers}
        assert len(dts) == 1

    def test_virtual_time_accumulates_with_machine(self):
        g = Grid3D(16, 16, 12, h=100.0)
        med = Medium.homogeneous(g)
        dist = DistributedWaveSolver(g, med, nranks=4,
                                     config=SolverConfig(absorbing="none"),
                                     machine=jaguar())
        res = dist.run(3)
        assert res.elapsed > 0
        assert all(s.bytes_sent > 0 for s in res.stats)


class TestReducedCommunicationVolume:
    def test_sxx_reduction_is_75_percent(self):
        """Section IV.A: xx moves 3 planes in x instead of 12 over all axes."""
        full = sum(n for n in (2, 2, 2, 2, 2, 2))  # planes in full mode
        reduced = sum(GHOST_NEEDS["sxx"].get(ax, (0, 0))[0]
                      + GHOST_NEEDS["sxx"].get(ax, (0, 0))[1]
                      for ax in range(3))
        assert reduced / full == pytest.approx(0.25)

    def test_total_bytes_reduced(self):
        g = Grid3D(24, 24, 24, h=100.0)
        d = Decomposition3D(g, 2, 2, 2)
        full = halo_bytes_per_step(d, 0, "full")
        red = halo_bytes_per_step(d, 0, "reduced")
        assert red < 0.6 * full

    def test_velocity_fields_keep_all_axes(self):
        for comp in ("vx", "vy", "vz"):
            assert set(GHOST_NEEDS[comp]) == {0, 1, 2}

    def test_normal_stresses_single_axis(self):
        assert set(GHOST_NEEDS["sxx"]) == {0}
        assert set(GHOST_NEEDS["syy"]) == {1}
        assert set(GHOST_NEEDS["szz"]) == {2}


class TestDecimatedSurfaceRecording:
    """Every top-layer rank samples the global lattice, so the stitched
    frames equal the serial recorder's for any split and decimation."""

    @pytest.mark.parametrize("backend", ["sim", "procpool"])
    @pytest.mark.parametrize("dims,dec_space", [
        ((2, 2, 1), 2),     # even split, origins on the lattice
        ((3, 3, 1), 2),     # 22 x 17 cells: uneven subdomains, odd origins
        ((2, 3, 1), 3),
        ((3, 2, 2), 4),     # only the top layer records
    ])
    def test_matches_serial_recorder(self, dims, dec_space, backend):
        from repro.parallel import procpool
        if backend == "procpool" and not procpool.procpool_available():
            pytest.skip("fork/shared_memory unavailable")
        g = Grid3D(22, 17, 18, h=100.0)
        med = _heterogeneous_medium(g)
        cfg = SolverConfig(absorbing="sponge", sponge_width=3,
                           free_surface=True)
        ser = WaveSolver(g, med, cfg)
        ser.add_source(_source())
        sr_ser = ser.record_surface(dec_space=dec_space, dec_time=2)
        ser.run(8)
        dist = DistributedWaveSolver(g, med, config=cfg, backend=backend,
                                     decomp=Decomposition3D(g, *dims))
        dist.add_source(_source())
        sr = dist.record_surface(dec_space=dec_space, dec_time=2)
        dist.run(5)
        dist.run(3)
        assert len(sr.frames) == len(sr_ser.frames) == 4
        for (t_d, *planes_d), (t_s, *planes_s) in zip(sr.frames,
                                                      sr_ser.frames):
            assert t_d == t_s
            for a, b in zip(planes_d, planes_s):
                assert a.shape == b.shape and np.array_equal(a, b)
        assert np.abs(sr.frames[-1][3]).max() > 0
