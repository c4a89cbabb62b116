"""Integration tests of the WaveSolver (AWM)."""

import numpy as np
import pytest

from repro.core import (Grid3D, Medium, MomentTensorSource, Receiver,
                        SolverConfig, StateSchemaError, SurfaceRecorder,
                        WaveSolver, compiled)
from repro.core.solver import STATE_SCHEMA, SimulationDiverged
from repro.io.checkpoint import CheckpointManager
from repro.core.source import gaussian_pulse


def _explosion(f0=4.0, m0=1e14):
    return lambda pos: MomentTensorSource(
        position=pos, moment=np.eye(3) * m0,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=f0)[0])


class TestTravelTimes:
    def test_p_wave_speed(self):
        g = Grid3D(64, 24, 24, h=100.0)
        med = Medium.homogeneous(g, vp=6000.0, vs=3464.0, rho=2700.0)
        cfg = SolverConfig(absorbing="sponge", sponge_width=6, free_surface=False)
        s = WaveSolver(g, med, cfg)
        s.add_source(_explosion()( (1000.0, 1200.0, 1200.0) ))
        r1 = s.add_receiver(Receiver(position=(2500.0, 1200.0, 1200.0)))
        r2 = s.add_receiver(Receiver(position=(5500.0, 1200.0, 1200.0)))
        s.run(int(1.1 / s.dt))
        t = (np.arange(len(r1.data["vx"])) + 1) * s.dt
        # Onset (5%-of-peak threshold) is robust against near-field waveform
        # distortion; peaks are not.
        t1, t2 = (t[np.argmax(np.abs(r.series("vx"))
                              > 0.05 * np.abs(r.series("vx")).max())]
                  for r in (r1, r2))
        vp_measured = 3000.0 / (t2 - t1)
        assert vp_measured == pytest.approx(6000.0, rel=0.08)

    def test_s_wave_speed(self):
        g = Grid3D(64, 24, 24, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2000.0, rho=2500.0)
        cfg = SolverConfig(absorbing="sponge", sponge_width=6, free_surface=False)
        s = WaveSolver(g, med, cfg)
        # Mxy double couple: receivers on the x axis see pure S in vy.
        src = MomentTensorSource(
            position=(1000.0, 1200.0, 1200.0),
            moment=np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) * 1e14,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0])
        s.add_source(src)
        r1 = s.add_receiver(Receiver(position=(2500.0, 1200.0, 1200.0)))
        r2 = s.add_receiver(Receiver(position=(5500.0, 1200.0, 1200.0)))
        s.run(int(2.6 / s.dt))
        t = (np.arange(len(r1.data["vy"])) + 1) * s.dt
        # Use peak times: the onset is contaminated by near-field terms that
        # propagate at the P speed, while the S peak dominates the waveform.
        t1, t2 = (t[np.argmax(np.abs(r.series("vy")))] for r in (r1, r2))
        vs_measured = 3000.0 / (t2 - t1)
        assert vs_measured == pytest.approx(2000.0, rel=0.08)


class TestSymmetry:
    def test_explosion_field_symmetric(self):
        """An isotropic source in a homogeneous cube radiates symmetrically."""
        g = Grid3D(31, 31, 31, h=100.0)
        med = Medium.homogeneous(g)
        cfg = SolverConfig(absorbing="none", free_surface=False)
        s = WaveSolver(g, med, cfg)
        # centre cell of sxx is (15,15,15) -> position (1550 h units? no: 15*100)
        s.add_source(_explosion()((1500.0, 1500.0, 1500.0)))
        # Stop before the P front reaches the boundary (15 cells away), where
        # the truncated staggered lattice breaks mirror symmetry.
        s.run(24)
        sxx = s.wf.interior("sxx")
        scale = np.abs(sxx).max()
        # mirror symmetry through the source plane in x and y
        assert np.allclose(sxx, sxx[::-1, :, :], atol=1e-8 * scale)
        assert np.allclose(sxx, sxx[:, ::-1, :], atol=1e-8 * scale)
        # and x<->y exchange symmetry for an isotropic source
        assert np.allclose(sxx, np.transpose(s.wf.interior("syy"), (1, 0, 2)),
                           atol=1e-8 * scale)


class TestCheckpointRestart:
    def test_state_roundtrip_bitwise(self):
        """Restarting from a checkpoint reproduces the run bitwise (III.F)."""
        g = Grid3D(20, 20, 16, h=100.0)
        med = Medium.homogeneous(g, vp=3000.0, vs=1700.0, rho=2400.0)
        cfg = SolverConfig(absorbing="pml", free_surface=True,
                           attenuation_band=(0.3, 3.0),
                           pml=__import__("repro.core.pml", fromlist=["PMLConfig"]).PMLConfig(width=4))
        def make():
            s = WaveSolver(g, med, cfg)
            s.add_source(_explosion(f0=3.0)((1000.0, 1000.0, 800.0)))
            return s
        ref = make()
        ref.run(40)
        chk = make()
        chk.run(20)
        state = chk.state()
        resumed = make()
        resumed.load_state(state)
        resumed.run(20)
        for name in ("vx", "vy", "vz", "sxx", "sxy"):
            assert np.array_equal(ref.wf.interior(name),
                                  resumed.wf.interior(name)), name
        assert resumed.t == pytest.approx(ref.t)
        assert resumed.nstep == ref.nstep

    @staticmethod
    def _sponge_solver():
        g = Grid3D(16, 14, 12, h=100.0)
        med = Medium.homogeneous(g, vp=3000.0, vs=1700.0, rho=2400.0)
        variant = "compiled" if compiled.compiled_available() else "pooled"
        s = WaveSolver(g, med, SolverConfig(absorbing="sponge",
                                            sponge_width=3,
                                            free_surface=True,
                                            kernel_variant=variant))
        s.add_source(_explosion(f0=3.0)((800.0, 700.0, 1050.0)))
        return s

    def test_stamped_state_survives_save_load_run_bitwise(self, tmp_path):
        ref = self._sponge_solver()
        ref.run(16)
        chk = self._sponge_solver()
        chk.run(8)
        state = chk.state()
        assert state["schema"] == STATE_SCHEMA == "repro-state/1"
        CheckpointManager(tmp_path).write_epoch(0, {0: state})
        resumed = self._sponge_solver()
        resumed.load_state(CheckpointManager(tmp_path).read_epoch(0, [0])[0])
        resumed.run(8)
        for name, arr in ref.wf.fields().items():   # ghost planes included
            assert np.array_equal(getattr(resumed.wf, name), arr), name

    @pytest.mark.parametrize("stamp", [None, "repro-state/0", "other/1"])
    def test_unstamped_or_foreign_state_is_refused(self, stamp):
        s = self._sponge_solver()
        state = s.state()
        if stamp is None:
            del state["schema"]
        else:
            state["schema"] = stamp
        fresh = self._sponge_solver()
        with pytest.raises(StateSchemaError) as err:
            fresh.load_state(state)
        assert repr(stamp) in str(err.value)
        assert repr(STATE_SCHEMA) in str(err.value)
        assert isinstance(err.value, ValueError)
        assert fresh.nstep == 0     # nothing was loaded


class TestRobustness:
    def test_divergence_detection(self):
        g = Grid3D(16, 16, 16, h=100.0)
        med = Medium.homogeneous(g)
        # Deliberately unstable: dt far above the CFL limit.
        cfg = SolverConfig(absorbing="none", free_surface=False,
                           dt=0.1, stability_check_interval=10)
        s = WaveSolver(g, med, cfg)
        s.wf.interior("vx")[...] = 1.0
        with pytest.raises(SimulationDiverged):
            s.run(500)

    def test_unknown_absorbing_rejected(self):
        g = Grid3D(16, 16, 16, h=100.0)
        med = Medium.homogeneous(g)
        with pytest.raises(ValueError, match="absorbing"):
            WaveSolver(g, med, SolverConfig(absorbing="abc"))

    def test_unsupported_source_type(self):
        g = Grid3D(16, 16, 16, h=100.0)
        s = WaveSolver(g, Medium.homogeneous(g),
                       SolverConfig(absorbing="none"))
        with pytest.raises(TypeError, match="source"):
            s.add_source(object())

    def test_cfl_dt_chosen_automatically(self):
        g = Grid3D(16, 16, 16, h=100.0)
        med = Medium.homogeneous(g, vp=5000.0)
        s = WaveSolver(g, med, SolverConfig(absorbing="none"))
        from repro.core.stability import cfl_dt
        assert s.dt == pytest.approx(cfl_dt(100.0, 5000.0))


class TestSurfaceRecorderOutput:
    def test_decimation_matches_m8_recipe(self):
        """M8 output: every 20th step, every 2nd point (80 m of a 40 m mesh)."""
        g = Grid3D(20, 20, 12, h=40.0)
        med = Medium.homogeneous(g, vp=3000.0, vs=1732.0, rho=2400.0)
        cfg = SolverConfig(absorbing="none", free_surface=True)
        s = WaveSolver(g, med, cfg)
        rec = s.record_surface(dec_space=2, dec_time=20)
        s.run(60)
        assert len(rec.frames) == 3
        _, vx, _, _ = rec.frames[0]
        assert vx.shape == (10, 10)

    def test_peak_horizontal(self):
        g = Grid3D(10, 10, 8, h=50.0)
        med = Medium.homogeneous(g)
        cfg = SolverConfig(absorbing="none", free_surface=True)
        s = WaveSolver(g, med, cfg)
        rec = s.record_surface()
        s.add_source(_explosion(f0=5.0)((250.0, 250.0, 200.0)))
        s.run(30)
        peak = rec.peak_horizontal()
        assert peak.shape == (10, 10)
        assert peak.max() > 0
        assert rec.output_bytes() > 0

    def test_peak_requires_frames(self):
        rec = SurfaceRecorder()
        with pytest.raises(RuntimeError, match="frames"):
            rec.peak_horizontal()
