"""Cross-package integration tests: the production data paths end to end."""

import numpy as np
import pytest

from repro.core import (Grid3D, MomentTensorSource, Receiver, SolverConfig,
                        WaveSolver)
from repro.core.source import gaussian_pulse
from repro.mesh import (extract_mesh_parallel, mesh_to_medium,
                        on_demand_partition, southern_california_like)
from repro.parallel import Decomposition3D, DistributedWaveSolver
from repro.sourcegen import partition_source


@pytest.fixture(scope="module")
def pipeline():
    """CVM -> mesh -> medium -> decomposition, shared by the tests below."""
    cvm = southern_california_like(x_extent=16e3, y_extent=8e3)
    grid = Grid3D(16, 8, 10, h=1000.0)
    mesh, _ = extract_mesh_parallel(cvm, grid, nranks=4)
    medium = mesh_to_medium(mesh)
    decomp = Decomposition3D(grid, 2, 2, 1)
    return cvm, grid, mesh, medium, decomp


class TestMeshToSolver:
    def test_cvm_mesh_runs_in_both_solvers(self, pipeline):
        """The CVM-extracted medium drives serial and distributed solvers to
        identical results — input pipeline and solve pipeline compose."""
        _, grid, _, medium, decomp = pipeline
        cfg = SolverConfig(absorbing="sponge", sponge_width=2,
                           attenuation_band=(0.05, 0.2))

        def src():
            return MomentTensorSource(
                position=(8e3, 4e3, 5e3), moment=np.eye(3) * 1e15,
                stf=lambda t: gaussian_pulse(np.array([t]), f0=0.15)[0],
                spatial_width=800.0)

        ser = WaveSolver(grid, medium, cfg)
        ser.add_source(src())
        ser.run(12)
        dist = DistributedWaveSolver(grid, medium, decomp=decomp, config=cfg)
        dist.add_source(src())
        dist.run(12)
        for name in ("vx", "syy"):
            assert np.array_equal(ser.wf.interior(name),
                                  dist.gather_field(name)), name

    def test_partitioned_blocks_feed_rank_media(self, pipeline):
        """PetaMeshP blocks convert to per-rank media that match the global
        medium's subgrids bitwise on the staggered interior."""
        from repro.core.fd import interior
        _, grid, mesh, medium, decomp = pipeline
        pm = on_demand_partition(mesh, decomp, n_readers=2)
        for rank in range(decomp.nranks):
            sub = decomp.subdomain(rank)
            local = pm.medium(rank)
            assert np.allclose(interior(local.mu),
                               interior(medium.mu)[sub.slices], rtol=1e-6)


class TestSourcePipeline:
    def test_rupture_to_partitioned_source(self):
        """DFR -> dSrcG -> PetaSrcP -> AWM: the full source path."""
        from repro.rupture.friction import SlipWeakeningFriction
        from repro.rupture.solver import FaultModel, SplitNodeFault
        from repro.rupture.stress import InitialStress
        from repro.core import Medium
        from repro.sourcegen import dynamic_source_from_rupture

        # a tiny rupture
        ns, nd, h = 24, 10, 300.0
        g = Grid3D(ns + 16, 24, nd + 8, h=h)
        med = Medium.homogeneous(g, vp=6000.0, vs=3464.0, rho=2670.0)
        fr = SlipWeakeningFriction.uniform((ns, nd), mu_s=0.677, mu_d=0.525,
                                           dc=0.6, cohesion=0.0)
        tau0 = np.full((ns, nd), 70e6)
        xs = (np.arange(ns) + 0.5) * h
        zs = (np.arange(nd) + 0.5) * h
        patch = ((xs[:, None] - 12 * h) ** 2 + (zs[None, :] - 5 * h) ** 2
                 <= 1000.0 ** 2)
        tau0 = np.where(patch, 0.677 * 120e6 * 1.02, tau0)
        init = InitialStress(tau0_x=tau0, tau0_z=np.zeros_like(tau0),
                             sigma_n=np.full((ns, nd), 120e6))
        fm = FaultModel(j0=12, i0=8, i1=8 + ns, n_depth=nd, friction=fr,
                        initial=init)
        rup = SplitNodeFault(fm)
        rup.record_slip_rate(decimate=2)
        fault_solver = WaveSolver(g, med, SolverConfig(
            absorbing="sponge", sponge_width=6), fault=rup)
        fault_solver.run(int(3.0 / fault_solver.dt))

        # export and partition the source over a wave-propagation grid
        wave_grid = Grid3D(20, 12, 12, h=800.0)
        src = dynamic_source_from_rupture(rup, block=4, dt_out=0.05,
                                          f_cut=0.5, y_plane=4800.0,
                                          surface_z=wave_grid.extent[2])
        decomp = Decomposition3D(wave_grid, 2, 2, 1)
        part = partition_source(src, wave_grid, decomp, n_loops=8)
        assigned = sum(len(s) for s in part.by_rank.values())
        assert assigned == len(src.subfaults)
        assert part.max_high_water() <= part.max_unsplit()

        # and the wave solver consumes it
        wmed = __import__("repro.core", fromlist=["Medium"]).Medium.homogeneous(
            wave_grid, vp=4000.0, vs=2300.0, rho=2500.0)
        solver = WaveSolver(wave_grid, wmed,
                            SolverConfig(absorbing="sponge", sponge_width=2))
        solver.add_source(src)
        r = solver.add_receiver(Receiver(position=(12e3, 7e3, 9e3)))
        solver.run(40)
        assert np.abs(r.series("vy")).max() > 0


class TestWorkflowOverRealProducts:
    def test_archive_surface_output_with_integrity(self, pipeline, tmp_path):
        """Surface PGV products survive checkpoint, checksum, and transfer."""
        from repro.io import CheckpointManager, parallel_checksums
        from repro.workflow import TransferService
        _, grid, _, medium, _ = pipeline
        solver = WaveSolver(grid, medium,
                            SolverConfig(absorbing="sponge", sponge_width=2))
        solver.add_source(MomentTensorSource(
            position=(8e3, 4e3, 5e3), moment=np.eye(3) * 1e15,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=0.2)[0],
            spatial_width=800.0))
        rec = solver.record_surface(dec_time=5)
        solver.run(20)
        pgv = rec.peak_horizontal()

        manifest, _ = parallel_checksums({0: pgv})
        ts = TransferService(failure_rate=0.4, max_attempts=6, seed=1)
        record = ts.transfer("pgv.bin", pgv)
        assert record.verified
        assert manifest.verify(0, ts.destination["pgv.bin"])

        cm = CheckpointManager(tmp_path)
        cm.write_epoch(solver.nstep, {0: solver.state()})
        epoch, states = cm.restore_latest([0])
        resumed = WaveSolver(grid, medium,
                             SolverConfig(absorbing="sponge", sponge_width=2))
        resumed.load_state(states[0])
        assert resumed.nstep == solver.nstep
        assert np.array_equal(resumed.wf.interior("vx"),
                              solver.wf.interior("vx"))
