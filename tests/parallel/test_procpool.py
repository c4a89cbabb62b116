"""The multicore backend must not change the numerics (aVal, Section IV.C).

Everything here enforces the same invariant as ``test_distributed``: the
procpool backend — real forked workers, shared-memory halo rings, overlap
schedule — produces **bitwise identical** fields to the serial solver and
to the SimMPI backend (``atol=0`` via ``np.array_equal``), on every tested
processor grid including uneven subdomain splits.  Plus the lifecycle
guarantees: no leaked shared-memory segments, and graceful degradation to
SimMPI when workers cannot spawn.
"""

import os
import warnings

import numpy as np
import pytest

from repro.core import (Grid3D, Medium, MomentTensorSource, PMLConfig,
                        Receiver, SolverConfig, WaveSolver)
from repro.core.source import gaussian_pulse
from repro.parallel import procpool, simmpi
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver

FIELDS = ("vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz")

#: (22, 20, 18) over (4, 1, 1) gives x widths 6, 6, 5, 5 — the uneven case.
DECOMPS = [(2, 1, 1), (4, 1, 1), (2, 2, 1), (1, 1, 2)]

NSTEPS = 8

needs_fork = pytest.mark.skipif(not procpool.procpool_available(),
                                reason="fork/shared_memory unavailable")


@pytest.fixture(autouse=True)
def no_shm_leak():
    """Every test must leave /dev/shm exactly as it found it."""
    if not os.path.isdir("/dev/shm"):
        yield
        return
    before = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    yield
    after = {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    assert after - before == set(), "leaked shared-memory segments"


def _grid():
    return Grid3D(22, 20, 18, h=100.0)


def _medium(g, seed=5):
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


def _recv():
    return Receiver(position=(1500.0, 1200.0, 1100.0))


SPONGE_CFG = dict(absorbing="sponge", sponge_width=6, free_surface=True)
PML_CFG = dict(absorbing="pml", pml=PMLConfig(width=4), free_surface=True,
               attenuation_band=(0.3, 3.0))


def _serial(cfg_kw, nsteps=NSTEPS):
    g = _grid()
    s = WaveSolver(g, _medium(g), SolverConfig(**cfg_kw))
    s.add_source(_source())
    r = s.add_receiver(_recv())
    s.run(nsteps)
    return s, r


@pytest.fixture(scope="module")
def serial_sponge():
    return _serial(SPONGE_CFG)


def _distributed(decomp_dims, cfg_kw, nsteps=NSTEPS, **solver_kw):
    g = _grid()
    d = DistributedWaveSolver(g, _medium(g),
                              decomp=Decomposition3D(g, *decomp_dims),
                              config=SolverConfig(**cfg_kw), **solver_kw)
    d.add_source(_source())
    r = d.add_receiver(_recv())
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # any fallback warning is a failure
        d.run(nsteps)
    return d, r


def _assert_bitwise(dist, recv_dist, serial, recv_serial):
    for name in FIELDS:
        assert np.array_equal(dist.gather_field(name),
                              serial.wf.interior(name)), name
    for comp, data in recv_serial.data.items():
        assert np.array_equal(np.asarray(recv_dist.data[comp]),
                              np.asarray(data)), comp


@needs_fork
class TestBitwiseEquivalence:
    """serial == SimMPI == procpool, atol=0, on every decomposition."""

    @pytest.mark.parametrize("dims", DECOMPS)
    def test_procpool_matches_serial(self, dims, serial_sponge):
        ser, r_ser = serial_sponge
        d, r = _distributed(dims, SPONGE_CFG, backend="procpool")
        _assert_bitwise(d, r, ser, r_ser)
        assert d.last_procpool["overlap"] is True

    @pytest.mark.parametrize("dims", DECOMPS)
    def test_sim_matches_serial(self, dims, serial_sponge):
        ser, r_ser = serial_sponge
        d, r = _distributed(dims, SPONGE_CFG, backend="sim")
        _assert_bitwise(d, r, ser, r_ser)

    def test_overlap_off_matches_serial(self, serial_sponge):
        ser, r_ser = serial_sponge
        d, r = _distributed((2, 2, 1), SPONGE_CFG, backend="procpool",
                            overlap=False)
        _assert_bitwise(d, r, ser, r_ser)
        assert d.last_procpool["overlap"] is False

    def test_pml_attenuation_procpool(self):
        """PML + attenuation force the non-overlap schedule — still bitwise."""
        ser, r_ser = _serial(PML_CFG, nsteps=6)
        d, r = _distributed((2, 2, 1), PML_CFG, nsteps=6, backend="procpool")
        _assert_bitwise(d, r, ser, r_ser)
        assert d.last_procpool["overlap"] is False
        assert not d.overlap_eligible

    @pytest.mark.parametrize("backend", ["sim", "procpool"])
    @pytest.mark.parametrize("cfg_kw", [
        dict(absorbing="pml", pml=PMLConfig(width=4), free_surface=True),
        dict(SPONGE_CFG, attenuation_band=(0.3, 3.0))], ids=["pml", "atten"])
    def test_compiled_composes_with_pml_and_attenuation(self, backend,
                                                        cfg_kw):
        """Distributed inherits serial's per-half degrade (compiled velocity
        half + pooled stress half under attenuation; both pooled under PML)
        instead of refusing the composition."""
        from repro.core import compiled
        if not compiled.compiled_available():
            pytest.skip("no compiled provider (no C compiler)")
        cfg_kw = dict(cfg_kw, kernel_variant="compiled")
        ser, r_ser = _serial(cfg_kw, nsteps=6)
        d, r = _distributed((2, 2, 1), cfg_kw, nsteps=6, backend=backend)
        _assert_bitwise(d, r, ser, r_ser)
        assert not d.overlap_eligible

    def test_multi_run_continuity(self, serial_sponge):
        """Two run() calls equal one long run (state merges back exactly)."""
        ser, _ = serial_sponge
        g = _grid()
        d = DistributedWaveSolver(g, _medium(g),
                                  decomp=Decomposition3D(g, 2, 1, 1),
                                  config=SolverConfig(**SPONGE_CFG),
                                  backend="procpool")
        d.add_source(_source())
        d.run(NSTEPS // 2)
        d.run(NSTEPS - NSTEPS // 2)
        for name in FIELDS:
            assert np.array_equal(d.gather_field(name),
                                  ser.wf.interior(name)), name

    def test_surface_recording_matches_serial(self):
        g = _grid()
        ser = WaveSolver(g, _medium(g), SolverConfig(**SPONGE_CFG))
        ser.add_source(_source())
        sr_ser = ser.record_surface(dec_time=2)
        ser.run(NSTEPS)
        for backend in ("sim", "procpool"):
            d = DistributedWaveSolver(g, _medium(g),
                                      decomp=Decomposition3D(g, 2, 2, 1),
                                      config=SolverConfig(**SPONGE_CFG),
                                      backend=backend)
            d.add_source(_source())
            sr = d.record_surface(dec_time=2)
            d.run(NSTEPS)
            assert len(sr.frames) == len(sr_ser.frames)
            for (t_d, *planes_d), (t_s, *planes_s) in zip(sr.frames,
                                                          sr_ser.frames):
                assert t_d == t_s
                for a, b in zip(planes_d, planes_s):
                    assert np.array_equal(a, b)


@needs_fork
class TestProcpoolMetrics:
    def test_timing_and_stats_populated(self, serial_sponge):
        d, _ = _distributed((2, 1, 1), SPONGE_CFG, backend="procpool")
        lp = d.last_procpool
        assert lp["workers"] == 2
        assert lp["compute_s"] > 0
        assert lp["wall_s"] > 0
        assert 0.0 <= lp["overlap_efficiency"] <= 1.0
        res = d.last_result
        assert all(c > 0 for c in res.clocks)
        st = res.stats[0]
        assert st.messages_sent > 0 and st.bytes_sent > 0
        assert st.messages_sent == st.messages_received

    def test_ring_pool_message_accounting(self):
        g = _grid()
        decomp = Decomposition3D(g, 2, 1, 1)
        pool = procpool.FaceRingPool(decomp)
        try:
            for rank in range(2):
                for group in ("velocity", "stress"):
                    msgs, nbytes = pool.messages_per_round(rank, group)
                    assert msgs > 0 and nbytes > 0
        finally:
            pool.close()

    def test_pool_close_unlinks_segment(self):
        g = _grid()
        pool = procpool.FaceRingPool(Decomposition3D(g, 2, 1, 1))
        name = pool.name
        if os.path.isdir("/dev/shm"):
            assert name.lstrip("/") in os.listdir("/dev/shm")
        pool.close()
        if os.path.isdir("/dev/shm"):
            assert name.lstrip("/") not in os.listdir("/dev/shm")


@needs_fork
class TestGenericRunSpmd:
    """procpool.run_spmd is a drop-in for simmpi.run_spmd."""

    @staticmethod
    def _ring(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.isend(right, 7, comm.rank)
        val = yield comm.recv(source=left, tag=7)
        yield comm.barrier()
        if comm.rank % 2 == 0:
            yield comm.ssend(right, 8, val * 2)
            val2 = yield comm.recv(source=left, tag=8)
        else:
            val2 = yield comm.recv(source=left, tag=8)
            yield comm.ssend(right, 8, val * 2)
        return (val, val2)

    def test_matches_simmpi(self):
        r_sim = simmpi.run_spmd(4, self._ring)
        r_pp = procpool.run_spmd(4, self._ring)
        assert r_pp.results == r_sim.results
        assert all(c > 0 for c in r_pp.clocks)
        for st in r_pp.stats:
            assert st.messages_sent == 2
            assert st.messages_received == 2

    def test_collectives(self):
        def prog(comm):
            total = yield from simmpi.allreduce(comm, comm.rank + 1,
                                                lambda a, b: a + b)
            vals = yield from simmpi.gather(comm, comm.rank ** 2, root=0)
            return total, vals

        r = procpool.run_spmd(3, prog)
        assert [t for t, _ in r.results] == [6, 6, 6]
        assert r.results[0][1] == [0, 1, 4]

    def test_worker_exception_propagates(self):
        def boom(rank):
            raise RuntimeError("kaboom")

        with pytest.raises(RuntimeError, match="kaboom"):
            procpool.run_workers(2, boom)


class TestGracefulDegradation:
    def test_spawn_failure_falls_back_to_sim(self, monkeypatch,
                                             serial_sponge):
        """Worker spawn failure -> one warning, SimMPI results, no crash."""
        ser, r_ser = serial_sponge

        def no_start(p):
            raise OSError("fork refused")

        monkeypatch.setattr(procpool, "_start_process", no_start)
        g = _grid()
        d = DistributedWaveSolver(g, _medium(g),
                                  decomp=Decomposition3D(g, 2, 1, 1),
                                  config=SolverConfig(**SPONGE_CFG),
                                  backend="procpool")
        d.add_source(_source())
        r = d.add_receiver(_recv())
        with pytest.warns(RuntimeWarning, match="falling back"):
            d.run(NSTEPS)
        assert d.backend == "sim"
        _assert_bitwise(d, r, ser, r_ser)

    def test_fallback_warns_only_once(self, monkeypatch):
        monkeypatch.setattr(procpool, "_start_process",
                            lambda p: (_ for _ in ()).throw(OSError("no")))
        g = _grid()
        d = DistributedWaveSolver(g, _medium(g), nranks=2,
                                  config=SolverConfig(**SPONGE_CFG),
                                  backend="procpool")
        d.add_source(_source())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            d.run(2)
            d.run(2)
        assert len([w for w in caught
                    if issubclass(w.category, RuntimeWarning)]) == 1

    def test_shared_memory_failure_falls_back(self, monkeypatch):
        def no_shm():
            raise procpool.ProcPoolUnavailable("no shared memory")

        monkeypatch.setattr(procpool, "ensure_available", no_shm)
        g = _grid()
        d = DistributedWaveSolver(g, _medium(g), nranks=2,
                                  config=SolverConfig(**SPONGE_CFG),
                                  backend="procpool")
        d.add_source(_source())
        with pytest.warns(RuntimeWarning, match="falling back"):
            d.run(2)
        assert d.backend == "sim"


class TestValidation:
    def test_unknown_backend_rejected(self):
        g = _grid()
        with pytest.raises(ValueError, match="backend"):
            DistributedWaveSolver(g, _medium(g), nranks=2, backend="mpi")

    def test_unknown_kernel_variant_rejected(self):
        g = _grid()
        with pytest.raises(ValueError, match="variant"):
            DistributedWaveSolver(g, _medium(g), nranks=2,
                                  kernel_variant="simd")

    def test_procpool_rejects_sync_comm(self):
        g = _grid()
        with pytest.raises(ValueError, match="sync_comm"):
            DistributedWaveSolver(g, _medium(g), nranks=2,
                                  backend="procpool", sync_comm=True)


@needs_fork
class TestHaloStallWatchdog:
    """stall_timeout bounds ring semaphore waits with HaloStallError."""

    def _pool(self, timeout):
        g = _grid()
        return procpool.FaceRingPool(Decomposition3D(g, 2, 1, 1),
                                     stall_timeout=timeout)

    def test_default_waits_forever(self):
        pool = self._pool(None)
        try:
            assert pool.stall_timeout is None
        finally:
            pool.close()

    def test_complete_with_silent_neighbour_raises(self):
        from repro.core.grid import WaveField
        pool = self._pool(0.05)
        try:
            wf = WaveField(pool.decomp.subdomain(0).grid)
            with pytest.raises(procpool.HaloStallError,
                               match="neighbour faces"):
                pool.endpoint(0).complete("velocity", wf)
        finally:
            pool.close()

    def test_post_backpressure_raises_when_ring_full(self):
        from repro.core.grid import WaveField
        pool = self._pool(0.05)
        try:
            wf = WaveField(pool.decomp.subdomain(0).grid)
            ep = pool.endpoint(0)
            with pytest.raises(procpool.HaloStallError, match="free slot"):
                for _ in range(procpool.RING_DEPTH + 1):
                    ep.post("velocity", wf)
        finally:
            pool.close()

    def test_error_names_the_channel(self):
        from repro.core.grid import WaveField
        pool = self._pool(0.01)
        try:
            wf = WaveField(pool.decomp.subdomain(1).grid)
            with pytest.raises(procpool.HaloStallError,
                               match=r"rank 1 stalled .* 0->1"):
                pool.endpoint(1).complete("stress", wf)
        finally:
            pool.close()

    def test_generous_timeout_run_matches_serial(self, serial_sponge):
        """A timeout no healthy run hits changes nothing."""
        ser, r_ser = serial_sponge
        d, r = _distributed((2, 1, 1), SPONGE_CFG, backend="procpool",
                            stall_timeout=60.0)
        _assert_bitwise(d, r, ser, r_ser)

    def test_is_runtime_error(self):
        assert issubclass(procpool.HaloStallError, RuntimeError)
