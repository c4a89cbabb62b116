"""Tests for the velocity–stress kernels, including the IV.B baseline."""

import numpy as np
import pytest

from repro.core.grid import ALL_FIELDS, Grid3D, WaveField
from repro.core.kernels import VelocityStressKernel
from repro.core.medium import Medium

from .baseline_kernels import baseline_stress_update, baseline_velocity_update


def _random_state(seed=0, shape=(10, 12, 11)):
    g = Grid3D(*shape, h=25.0)
    rng = np.random.default_rng(seed)
    vs = rng.uniform(1000.0, 2000.0, g.shape)
    vp = vs * rng.uniform(1.8, 2.2, g.shape)
    rho = rng.uniform(2000.0, 3000.0, g.shape)
    med = Medium.from_velocity_model(g, vp, vs, rho)
    wf = WaveField(g)
    for name in ALL_FIELDS:
        getattr(wf, name)[...] = rng.standard_normal(g.padded_shape)
    return g, med, wf


class TestOptimizedVsBaseline:
    """The IV.B optimizations must not change the numerics (cf. aVal)."""

    def test_velocity_update_equivalent(self):
        g, med, wf = _random_state(1)
        wf2 = wf.copy()
        dt = 1e-3
        k = VelocityStressKernel(wf, med, dt)
        k.step_velocity()
        baseline_velocity_update(wf2, med, dt)
        for comp in ("vx", "vy", "vz"):
            a, b = wf.interior(comp), wf2.interior(comp)
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12), comp

    def test_stress_update_equivalent(self):
        g, med, wf = _random_state(2)
        wf2 = wf.copy()
        dt = 1e-3
        k = VelocityStressKernel(wf, med, dt)
        k.step_stress()
        baseline_stress_update(wf2, med, dt)
        for comp in ("sxx", "syy", "szz", "sxy", "sxz", "syz"):
            a, b = wf.interior(comp), wf2.interior(comp)
            scale = max(np.abs(a).max(), 1.0)
            assert np.allclose(a, b, rtol=1e-8, atol=1e-8 * scale), comp


class TestRegionUpdater:
    """Split-region updates (the IV.C overlap machinery) vs the full sweep."""

    def _cover(self, shape, cut):
        """A disjoint 2-box cover of the interior split along x at ``cut``."""
        from repro.core.fd import NGHOST
        nx, ny, nz = shape
        full_y = slice(NGHOST, NGHOST + ny)
        full_z = slice(NGHOST, NGHOST + nz)
        return [(slice(NGHOST, NGHOST + cut), full_y, full_z),
                (slice(NGHOST + cut, NGHOST + nx), full_y, full_z)]

    def test_region_cover_matches_full_sweep(self):
        g, med, wf = _random_state(6)
        wf2 = wf.copy()
        dt = 1e-3
        k1 = VelocityStressKernel(wf, med, dt)
        k1.step_velocity()
        k1.step_stress()
        k2 = VelocityStressKernel(wf2, med, dt)
        regions = [k2.region(r) for r in self._cover(g.shape, 4)]
        for r in regions:
            r.step_velocity()
        for r in reversed(regions):  # order must not matter
            r.step_stress()
        for comp in ALL_FIELDS:
            assert np.array_equal(wf.interior(comp), wf2.interior(comp)), comp

    def test_empty_region_rejected(self):
        from repro.core.fd import NGHOST
        g, med, wf = _random_state(7)
        k = VelocityStressKernel(wf, med, 1e-3)
        with pytest.raises(ValueError):
            k.region((slice(NGHOST, NGHOST), slice(NGHOST, NGHOST + 1),
                      slice(NGHOST, NGHOST + 1)))


class TestKernelStructure:
    def test_grid_mismatch_rejected(self):
        g1 = Grid3D(6, 6, 6, h=1.0)
        g2 = Grid3D(7, 6, 6, h=1.0)
        with pytest.raises(ValueError, match="differ"):
            VelocityStressKernel(WaveField(g1), Medium.homogeneous(g2), 1e-3)

    def test_normal_stress_terms_use_correct_moduli(self):
        """Only the 'own' axis term carries lam+2mu; others carry lam."""
        g = Grid3D(8, 8, 8, h=10.0)
        med = Medium.homogeneous(g, vp=2000.0, vs=1000.0, rho=2000.0)
        wf = WaveField(g)
        # uniform gradient in vx along x only: dvx/dx = 1, others 0
        x = np.arange(g.padded_shape[0]) * g.h
        wf.vx[...] = x[:, None, None]
        k = VelocityStressKernel(wf, med, dt=1.0)
        terms = k.stress_terms("sxx")
        lam2mu = 2000.0 * 2000.0 ** 2
        inner = [t[4, 4, 4] for t in terms]
        assert inner[0] == pytest.approx(lam2mu)
        assert inner[1] == 0.0 and inner[2] == 0.0
        terms_yy = k.stress_terms("syy")
        lam = lam2mu - 2 * (2000.0 * 1000.0 ** 2)
        assert terms_yy[0][4, 4, 4] == pytest.approx(lam)

    def test_shear_terms_symmetric_in_pure_shear(self):
        g = Grid3D(8, 8, 8, h=10.0)
        med = Medium.homogeneous(g, vp=2000.0, vs=1000.0, rho=2000.0)
        wf = WaveField(g)
        x = np.arange(g.padded_shape[0]) * g.h
        y = np.arange(g.padded_shape[1]) * g.h
        wf.vy[...] = np.broadcast_to(x[:, None, None], g.padded_shape)
        wf.vx[...] = np.broadcast_to(y[None, :, None], g.padded_shape)
        k = VelocityStressKernel(wf, med, dt=1.0)
        terms = k.stress_terms("sxy")
        mu = 2000.0 * 1000.0 ** 2
        # d(vy)/dx = 1 and d(vx)/dy = 1, each term = mu
        assert terms[0][4, 4, 4] == pytest.approx(mu)
        assert terms[1][4, 4, 4] == pytest.approx(mu)

    def test_zero_field_stays_zero(self):
        g = Grid3D(6, 6, 6, h=5.0)
        med = Medium.homogeneous(g)
        wf = WaveField(g)
        k = VelocityStressKernel(wf, med, 1e-4)
        k.step_velocity()
        k.step_stress()
        assert wf.energy_proxy() == 0.0
