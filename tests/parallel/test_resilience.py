"""Tests for the fault-tolerance framework (Sections III.F / VIII)."""

import numpy as np
import pytest

from repro.core import (Grid3D, Medium, MomentTensorSource, Receiver,
                        SolverConfig, WaveSolver)
from repro.core.source import gaussian_pulse
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver
from repro.parallel.resilience import (ResilientDistributedSolver,
                                       apply_ghost_rim, extract_ghost_rim)


def _setup(failures=None, interval=5):
    g = Grid3D(16, 14, 12, h=100.0)
    med = Medium.homogeneous(g, vp=3000.0, vs=1700.0, rho=2400.0)
    cfg = SolverConfig(absorbing="sponge", sponge_width=3, free_surface=True)
    dist = DistributedWaveSolver(g, med, decomp=Decomposition3D(g, 2, 2, 1),
                                 config=cfg)
    dist.add_source(MomentTensorSource(
        position=(800.0, 700.0, 600.0), moment=np.eye(3) * 1e13,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0],
        spatial_width=150.0))
    return g, med, cfg, ResilientDistributedSolver(
        dist, checkpoint_interval=interval, failures=failures)


def _reference(g, med, cfg, nsteps):
    ser = WaveSolver(g, med, cfg)
    ser.add_source(MomentTensorSource(
        position=(800.0, 700.0, 600.0), moment=np.eye(3) * 1e13,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0],
        spatial_width=150.0))
    ser.run(nsteps)
    return ser


class TestGhostRims:
    def test_rim_roundtrip(self):
        g = Grid3D(8, 8, 8, h=1.0)
        from repro.core.grid import ALL_FIELDS, WaveField
        wf = WaveField(g)
        rng = np.random.default_rng(0)
        for name in ALL_FIELDS:
            getattr(wf, name)[...] = rng.standard_normal(g.padded_shape)
        rim = extract_ghost_rim(wf)
        wf2 = WaveField(g)
        for name in ALL_FIELDS:
            getattr(wf2, name)[...] = rng.standard_normal(g.padded_shape)
            wf2.interior(name)[...] = wf.interior(name)
        apply_ghost_rim(wf2, rim)
        for name in ALL_FIELDS:
            assert np.array_equal(getattr(wf, name), getattr(wf2, name))


class TestFailureFreeEquivalence:
    def test_resilient_driver_matches_serial(self):
        """With no failures, the FT driver is just the distributed solver —
        and therefore bitwise-matches the serial one."""
        g, med, cfg, res = _setup()
        res.run(12)
        ref = _reference(g, med, cfg, 12)
        assert np.array_equal(ref.wf.interior("vx"), res.gather_field("vx"))
        assert res.recoveries == []


class TestLiveStep:
    def test_live_steps_reuse_the_solvers_halo_exchanges(self, monkeypatch):
        """A live step exchanges through the distributed solver's
        persistent per-rank plans: once the first step has built them, no
        HaloExchange is built per step."""
        from repro.parallel import halo
        _, _, _, res = _setup(failures={4: 1})
        res.run(1)
        built = []
        init = halo.HaloExchange.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)
        monkeypatch.setattr(halo.HaloExchange, "__init__", counted)
        res.run(9)
        assert built == []
        assert res.recoveries == [(4, 1, 4)]


class TestRecovery:
    @pytest.mark.parametrize("fail_step,rank", [(7, 1), (5, 0), (11, 3)])
    def test_exact_recovery_after_single_failure(self, fail_step, rank):
        """The headline: a rank dies mid-run, survivors keep their state,
        the replacement replays from its checkpoint + logged halos, and the
        final state is bitwise identical to a failure-free run."""
        g, med, cfg, res = _setup(failures={fail_step: rank}, interval=5)
        res.run(14)
        ref = _reference(g, med, cfg, 14)
        for name in ("vx", "vy", "vz", "sxx", "sxy", "syz"):
            assert np.array_equal(ref.wf.interior(name),
                                  res.gather_field(name)), name
        assert len(res.recoveries) == 1
        step, r, replayed = res.recoveries[0]
        assert step == fail_step and r == rank
        # replay length is bounded by the checkpoint interval
        assert replayed <= 5

    def test_failure_really_destroys_state(self):
        """The injected failure wipes the rank (no silent cheating)."""
        g, med, cfg, res = _setup()
        res.run(3)
        res._wipe_rank(2)
        assert np.isnan(res.solver.solvers[2].wf.vx).all()
        # ...and replay restores it
        res._replay_rank(2)
        assert np.isfinite(res.solver.solvers[2].wf.interior("vx")).all()

    def test_multiple_failures_different_epochs(self):
        g, med, cfg, res = _setup(failures={4: 0, 9: 2}, interval=4)
        res.run(12)
        ref = _reference(g, med, cfg, 12)
        assert np.array_equal(ref.wf.interior("syy"),
                              res.gather_field("syy"))
        assert len(res.recoveries) == 2

    def test_survivors_never_roll_back(self):
        """Non-failing ranks 'continue to run': their state is not touched
        by the recovery (checked via object identity of the arrays)."""
        g, med, cfg, res = _setup(failures={6: 1}, interval=5)
        survivor = res.solver.solvers[0]
        before_id = id(survivor.wf.vx)
        res.run(8)
        assert id(survivor.wf.vx) == before_id

    def test_validation(self):
        g, med, cfg, _ = _setup()
        dist = DistributedWaveSolver(g, med, decomp=Decomposition3D(g, 2, 1, 1),
                                     config=cfg)
        with pytest.raises(ValueError, match="interval"):
            ResilientDistributedSolver(dist, checkpoint_interval=0)


class TestRecords:
    """The user's receiver and surface recorder read the same series after
    a recovery as after a failure-free run and a serial run."""

    POS = (1200.0, 1100.0, 600.0)     # owned by rank 3

    def _records(self, failures, nsteps=8, runs=1):
        g, med, cfg, res = _setup(failures=failures, interval=5)
        rec = res.solver.add_receiver(Receiver(position=self.POS))
        srec = res.solver.record_surface(dec_time=3)
        for _ in range(runs):
            res.run(nsteps // runs)
        return rec, srec

    def _serial(self, nsteps=8):
        g, med, cfg, _ = _setup()
        ser = WaveSolver(g, med, cfg)
        ser.add_source(MomentTensorSource(
            position=(800.0, 700.0, 600.0), moment=np.eye(3) * 1e13,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0],
            spatial_width=150.0))
        rec = ser.add_receiver(Receiver(position=self.POS))
        srec = ser.record_surface(dec_time=3)
        ser.run(nsteps)
        return rec, srec

    @staticmethod
    def _assert_equal(a, b):
        rec_a, srec_a = a
        rec_b, srec_b = b
        for comp in ("vx", "vy", "vz"):
            assert np.array_equal(rec_a.series(comp), rec_b.series(comp)), \
                comp
        assert len(srec_a.frames) == len(srec_b.frames)
        for fa, fb in zip(srec_a.frames, srec_b.frames):
            assert fa[0] == fb[0]
            for pa, pb in zip(fa[1:], fb[1:]):
                assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("failures,runs",
                             [({4: 3}, 1), ({7: 3}, 1), ({7: 3}, 2),
                              ({3: 0, 7: 3}, 2)])
    def test_recovered_records_are_bitwise(self, failures, runs):
        ser = self._serial()
        assert len(ser[0].series("vx")) == 8 and len(ser[1].frames) == 3
        clean = self._records({}, runs=runs)
        self._assert_equal(clean, ser)
        self._assert_equal(self._records(failures, runs=runs), ser)

    def test_replay_without_truncation_records_twice(self, monkeypatch):
        """Tooth: a replay that does not cut the recorders back first
        records its steps a second time."""
        from repro.parallel import resilience
        monkeypatch.setattr(resilience, "_truncate_records",
                            lambda sol, lengths: None)
        rec, srec = self._records({4: 3})
        assert len(rec.series("vx")) == 12

    @staticmethod
    def _late_records(failures):
        """Six steps, then a receiver and a surface recorder, then three."""
        _, _, _, res = _setup(failures=failures, interval=5)
        res.run(6)
        rec = res.solver.add_receiver(
            Receiver(position=(1200.0, 1100.0, 600.0)))
        srec = res.solver.record_surface(dec_time=1)
        res.run(3)
        return rec, srec

    def test_recorder_attached_mid_run_records_no_replayed_step(self):
        """A replay from a checkpoint older than a recorder must not record
        the steps before the recorder was attached."""
        clean = self._late_records({})
        assert len(clean[0].series("vx")) == 3 and len(clean[1].frames) == 3
        self._assert_equal(self._late_records({8: 3}), clean)

    def test_late_recorder_without_entry_checkpoint_records_replay(
            self, monkeypatch):
        """Tooth: without the checkpoint a changed recorder set takes at
        the next run, the replay from step 5 records step 6 too."""
        monkeypatch.setattr(ResilientDistributedSolver, "_recorder_set",
                            lambda self: ())
        rec, _ = self._late_records({8: 3})
        assert len(rec.series("vx")) == 4


class TestLateSource:
    """A moment source added between two runs reaches no replayed step
    from before it was added."""

    @staticmethod
    def _late_source(failures):
        """Six steps, then a point source, then three."""
        g, _, _, res = _setup(failures=failures, interval=5)
        res.run(6)
        res.solver.add_source(MomentTensorSource(
            position=(1000.0, 900.0, 500.0), moment=np.eye(3) * 1e13,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0]))
        res.run(3)
        return res

    def test_recovered_fields_equal_failure_free(self):
        clean = self._late_source({})
        res = self._late_source({8: 3})
        for name in ("vx", "vy", "vz", "sxx", "syy", "szz",
                     "sxy", "sxz", "syz"):
            assert np.array_equal(res.gather_field(name),
                                  clean.gather_field(name)), name
        assert res.recoveries == [(8, 3, 2)]    # from the step-6 checkpoint

    def test_late_source_without_entry_checkpoint_replays_it(
            self, monkeypatch):
        """Tooth: keyed on the recorders alone, the replay from step 5
        injects the new source into step 6 as well."""
        monkeypatch.setattr(
            ResilientDistributedSolver, "_recorder_set",
            lambda self: (len(self.solver.receivers),
                          id(self.solver.surface_recorder)))
        clean = self._late_source({})
        res = self._late_source({8: 3})
        assert not np.array_equal(res.gather_field("vx"),
                                  clean.gather_field("vx"))
