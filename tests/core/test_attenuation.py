"""Tests for coarse-grained memory-variable attenuation (Day 1998)."""

import numpy as np
import pytest

from repro.core import (Grid3D, Medium, MomentTensorSource, Receiver,
                        SolverConfig, WaveSolver, compiled)
from repro.core.attenuation import (CoarseGrainedAttenuation, fit_q_weights,
                                    sls_q_inverse)
from repro.core.fd import interior
from repro.core.grid import WaveField
from repro.core.kernels import VelocityStressKernel
from repro.core.source import gaussian_pulse

#: the kernel variants the physics checks run on (compiled where it builds)
VARIANTS = ("pooled",) + (("compiled",) if compiled.compiled_available()
                          else ())


class TestQFit:
    def test_flat_q_over_band(self):
        """The fitted SLS sum approximates constant Q across the band."""
        tau, w = fit_q_weights(0.1, 2.0, n_mech=8)
        f = np.logspace(np.log10(0.1), np.log10(2.0), 50)
        inv_q = sls_q_inverse(2 * np.pi * f, tau, w)
        assert inv_q.max() / inv_q.min() < 1.25   # within ~25% across a decade+
        assert np.all(np.abs(inv_q - 1.0) < 0.15)

    def test_eight_mechanisms_default(self):
        tau, w = fit_q_weights(0.1, 2.0)
        assert tau.size == 8 and w.size == 8

    def test_weights_nonnegative(self):
        _, w = fit_q_weights(0.05, 5.0, n_mech=8)
        assert np.all(w >= 0)

    def test_relaxation_times_span_band(self):
        tau, _ = fit_q_weights(0.1, 1.0, n_mech=8)
        assert tau.min() == pytest.approx(1 / (2 * np.pi * 1.0))
        assert tau.max() == pytest.approx(1 / (2 * np.pi * 0.1))

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            fit_q_weights(2.0, 1.0)
        with pytest.raises(ValueError):
            fit_q_weights(0.0, 1.0)
        with pytest.raises(ValueError, match="mechanism"):
            fit_q_weights(0.1, 1.0, n_mech=0)


class TestCoarseGrainedState:
    def _make(self, origin=(0, 0, 0), dt=1e-2):
        g = Grid3D(8, 8, 8, h=100.0)
        med = Medium.homogeneous(g, qs=50.0, qp=100.0)
        return CoarseGrainedAttenuation(g, med, 0.2, 2.0, dt,
                                        index_origin=origin)

    def test_effective_q_near_target(self):
        att = self._make()
        f = np.array([0.3, 0.5, 1.0, 1.8])
        q = att.effective_q(f, q_target=50.0)
        assert np.all(np.abs(q / 50.0 - 1.0) < 0.2)

    def test_mechanism_assignment_respects_global_indices(self):
        a0 = self._make(origin=(0, 0, 0))
        a1 = self._make(origin=(2, 0, 0))
        # shifting by an even offset keeps the 2x2x2 pattern identical
        assert np.array_equal(a0.coefficients["delta_s"],
                              a1.coefficients["delta_s"])
        a2 = self._make(origin=(1, 0, 0))
        assert not np.array_equal(a0.coefficients["delta_s"],
                                  a2.coefficients["delta_s"])

    def test_state_roundtrip(self):
        """``state_arrays`` are the interiors (the checkpoint layout);
        loading them restores the padded memory variables."""
        att = self._make()
        rng = np.random.default_rng(0)
        interior(att.zeta["sxx"])[...] = rng.standard_normal((8, 8, 8))
        state = {k: v.copy() for k, v in att.state_arrays().items()}
        assert state["sxx"].shape == (8, 8, 8)
        att2 = self._make()
        att2.load_state(state)
        assert np.array_equal(att2.zeta["sxx"], att.zeta["sxx"])

    def test_hook_reduces_rate_magnitude(self):
        """The memory variable removes energy: the relaxed shear rate the
        anelastic stress update integrates is below the elastic one, and
        falls further as the memory variable builds up.

        ``vy = x`` gives every cell the same elastic ``d(sxy)/dt``; the
        velocities stay fixed, so each stress step's increment is
        ``dt`` times that step's relaxed rate.
        """
        dt = 1e-2
        att = self._make(dt=dt)
        incs = []
        for a in (None, att):
            wf = WaveField(att.grid)
            wf.vy[...] = np.arange(wf.vy.shape[0])[:, None, None] / 1024
            k = VelocityStressKernel(wf, Medium.homogeneous(
                att.grid, qs=50.0, qp=100.0), dt, attenuation=a)
            for _ in range(2):
                before = interior(wf.sxy).copy()
                k.step_stress()
                incs.append(interior(wf.sxy) - before)
        elastic, _, first, second = incs
        assert np.ptp(elastic) == 0 and elastic.min() > 0
        # (a mechanism the Q fit weights 0 leaves its cells elastic)
        assert np.all(first <= elastic) and np.all(second <= first)
        assert second.mean() < first.mean() < elastic.mean()


class TestAttenuationPhysics:
    """Each check runs on every kernel variant: the compiled stress sweep
    carries the memory variables itself."""

    def _amplitude_at_receiver(self, band, variant):
        g = Grid3D(72, 20, 20, h=100.0)
        med = Medium.homogeneous(g, vp=3464.0, vs=2000.0, rho=2500.0,
                                 qs=20.0, qp=40.0)
        cfg = SolverConfig(absorbing="sponge", sponge_width=6,
                           free_surface=False, attenuation_band=band,
                           kernel_variant=variant)
        s = WaveSolver(g, med, cfg)
        f0 = 2.0
        src = MomentTensorSource(
            position=(1200.0, 1000.0, 1000.0),
            moment=np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) * 1e14,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=f0)[0])
        s.add_source(src)
        near = s.add_receiver(Receiver(position=(2400.0, 1000.0, 1000.0)))
        far = s.add_receiver(Receiver(position=(6000.0, 1000.0, 1000.0)))
        s.run(int(3.2 / s.dt))
        return (np.abs(near.series("vx")).max(),
                np.abs(far.series("vx")).max())

    def test_amplitude_decay_matches_target_q(self):
        """Peak decay beyond geometric spreading ~ exp(-pi f dx / (Q c)).

        The x-axis receivers sit on the P-wave node of the Mxy double couple
        (P pattern ~ gamma_x*gamma_y = 0 on-axis), so the dominant arrival is
        the S wave at vs = 2000 m/s with Qs = 20.  Dividing the far/near peak
        ratios of the anelastic and elastic runs isolates the Q decay from
        geometric spreading.
        """
        for variant in VARIANTS:
            n_el, f_el = self._amplitude_at_receiver(None, variant)
            n_at, f_at = self._amplitude_at_receiver((0.2, 2.0), variant)
            measured = (f_at / n_at) / (f_el / n_el)
            f0, q, c, dx = 2.0, 20.0, 2000.0, 3600.0
            expected = np.exp(-np.pi * f0 * dx / (q * c))
            assert measured == pytest.approx(expected, rel=0.25), variant
            assert measured < 0.9  # attenuation clearly active

    def test_infinite_q_limit_matches_elastic(self):
        g = Grid3D(24, 12, 12, h=100.0)
        med = Medium.homogeneous(g, vp=3000.0, vs=1732.0, rho=2500.0,
                                 qs=1e9, qp=1e9)
        for variant in VARIANTS:
            runs = []
            for band in (None, (0.2, 2.0)):
                cfg = SolverConfig(absorbing="none", free_surface=False,
                                   attenuation_band=band,
                                   kernel_variant=variant)
                s = WaveSolver(g, med, cfg)
                src = MomentTensorSource(
                    position=(1200.0, 600.0, 600.0), moment=np.eye(3) * 1e13,
                    stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0])
                s.add_source(src)
                s.run(60)
                runs.append(s.wf.interior("vx").copy())
            el, at = runs
            scale = np.abs(el).max()
            assert np.allclose(el, at, atol=1e-6 * scale), variant
