"""Tests of the SGSN spontaneous rupture (TPV3-style scenarios): a
split-node fault run by the WaveSolver's step schedule."""

import numpy as np
import pytest

from repro.core import Grid3D, Medium, SolverConfig, WaveSolver
from repro.rupture.friction import SlipWeakeningFriction
from repro.rupture.solver import FaultModel, SplitNodeFault
from repro.rupture.stress import InitialStress


def tpv3_fault(ns=60, nd=25, h=200.0, tau_bg=70e6, sigma=120e6,
               mu_s=0.677, mu_d=0.525, dc=0.4, nucleate=True,
               nuc_center=(30, 12), nuc_radius=1500.0):
    """A TPV3-like uniform-stress fault with an overstressed nucleation patch."""
    fr = SlipWeakeningFriction.uniform((ns, nd), mu_s=mu_s, mu_d=mu_d,
                                       dc=dc, cohesion=0.0)
    tau0 = np.full((ns, nd), float(tau_bg))
    if nucleate:
        xs = (np.arange(ns) + 0.5) * h
        zs = (np.arange(nd) + 0.5) * h
        dx = xs[:, None] - nuc_center[0] * h
        dz = zs[None, :] - nuc_center[1] * h
        patch = dx ** 2 + dz ** 2 <= nuc_radius ** 2
        tau0 = np.where(patch, mu_s * sigma * 1.005, tau0)
    init = InitialStress(tau0_x=tau0, tau0_z=np.zeros_like(tau0),
                         sigma_n=np.full((ns, nd), float(sigma)))
    return fr, init


def make_solver(ns=60, nd=25, h=200.0, **fault_kw):
    g = Grid3D(ns + 30, 40, nd + 10, h=h)
    med = Medium.homogeneous(g, vp=6000.0, vs=3464.0, rho=2670.0)
    fr, init = tpv3_fault(ns=ns, nd=nd, h=h, **fault_kw)
    fm = FaultModel(j0=20, i0=15, i1=15 + ns, n_depth=nd, friction=fr,
                    initial=init)
    return WaveSolver(g, med, SolverConfig(absorbing="sponge", sponge_width=8),
                      fault=SplitNodeFault(fm))


def run_rupture(nsteps, **kw):
    """The fault of a ``make_solver(**kw)`` run for ``nsteps`` steps."""
    solver = make_solver(**kw)
    solver.run(nsteps)
    return solver.fault


class TestSpontaneousRupture:
    @pytest.fixture(scope="class")
    def ruptured(self):
        solver = make_solver()
        rs = solver.fault
        rs.record_slip_rate(decimate=5)
        solver.run(260)
        return rs

    def test_rupture_propagates_beyond_nucleation(self, ruptured):
        frac = np.isfinite(ruptured.rupture_time_region()).mean()
        assert frac > 0.5

    def test_slip_accumulates(self, ruptured):
        assert ruptured.final_slip().max() > 1.0

    def test_peak_slip_rate_order_of_magnitude(self, ruptured):
        """M8 saw peak slip rates exceeding 10 m/s in patches (Fig. 19b)."""
        assert 2.0 < ruptured.peak_slip_rate_region().max() < 50.0

    def test_rupture_time_increases_from_hypocentre(self, ruptured):
        tr = ruptured.rupture_time_region()
        t_near = tr[30, 12]
        t_far = tr[5, 12]
        assert np.isfinite(t_near) and np.isfinite(t_far)
        assert t_far > t_near

    def test_rupture_speed_physical(self, ruptured):
        """Rupture speed is bounded by the P speed and well above creep.

        At this resolution (cohesive zone ~3 cells) the front runs near
        ~0.5 vs; fully resolved TPV3 runs at ~0.8 vs.
        """
        v = ruptured.rupture_velocity()
        good = v[np.isfinite(v)]
        assert np.nanmedian(good) > 0.4 * 3464.0
        assert np.nanpercentile(good, 95) < 1.3 * 6000.0

    def test_moment_and_magnitude(self, ruptured):
        m0 = ruptured.seismic_moment()
        assert m0 > 1e17
        assert 5.5 < ruptured.magnitude() < 7.5

    def test_moment_rate_history(self, ruptured):
        t, rate = ruptured.moment_rate_history()
        assert len(t) == len(rate)
        assert rate.max() > 0
        # moment rate rises from ~0 and comes back down after passage
        assert rate[0] < 0.25 * rate.max()

    def test_slip_direction_dominantly_along_strike(self, ruptured):
        sx = np.abs(ruptured.slip_x).max()
        sz = np.abs(ruptured.slip_z).max()
        assert sx > 3 * sz  # tau0_z = 0: strike-slip dominated


class TestArrest:
    def test_subcritical_stress_does_not_rupture(self):
        """With background stress far below strength and no nucleation,
        the fault stays locked."""
        rs = run_rupture(60, tau_bg=30e6, nucleate=False)
        assert not np.isfinite(rs.rupture_time_region()).any()
        assert rs.final_slip().max() < 1e-6

    def test_rupture_arrests_at_strong_barrier(self):
        """Low background stress: the nucleation patch fails but the
        rupture dies out (S-ratio too large)."""
        rs = run_rupture(200, tau_bg=45e6)
        tr = rs.rupture_time_region()
        frac = np.isfinite(tr).mean()
        assert 0.0 < frac < 0.4  # nucleation only, no runaway

    def test_welded_outside_region(self):
        rs = run_rupture(100)
        # No physical slip outside the declared fault region (the locked
        # split nodes leave only floating-point drift, ~1e-20 m).
        full_slip = np.hypot(rs.slip_x, rs.slip_z)
        outside = full_slip.copy()
        ks = rs.grid.nz - 1 - np.arange(rs.fault.n_depth)
        outside[rs.fault.i0:rs.fault.i1, ks] = 0.0
        assert outside.max() < 1e-10


class TestSupershearTransition:
    def test_high_prestress_promotes_supershear(self):
        """Low S ratio -> super-shear transition (Fig. 19c's patches)."""
        lo = run_rupture(180, tau_bg=68e6)   # S ~ 2.6: sub-Rayleigh regime
        hi = run_rupture(180, tau_bg=76e6)   # S ~ 0.4: super-shear regime
        assert hi.supershear_fraction() >= lo.supershear_fraction()
        assert hi.supershear_fraction() > 0.1


class TestValidation:
    def test_fault_too_close_to_boundary(self):
        g = Grid3D(40, 10, 30, h=200.0)
        med = Medium.homogeneous(g)
        fr, init = tpv3_fault(ns=10, nd=10)
        fm = FaultModel(j0=1, i0=5, i1=15, n_depth=10, friction=fr,
                        initial=init)
        with pytest.raises(ValueError, match="boundary"):
            WaveSolver(g, med, SolverConfig(absorbing="sponge", sponge_width=4),
                       fault=SplitNodeFault(fm))

    def test_shape_mismatch(self):
        fr, init = tpv3_fault(ns=10, nd=10)
        with pytest.raises(ValueError, match="shape"):
            FaultModel(j0=10, i0=0, i1=20, n_depth=10, friction=fr,
                       initial=init)

    def test_fault_deeper_than_grid(self):
        g = Grid3D(40, 40, 20, h=200.0)
        med = Medium.homogeneous(g)
        fr, init = tpv3_fault(ns=10, nd=25)
        fm = FaultModel(j0=20, i0=5, i1=15, n_depth=25, friction=fr,
                        initial=init)
        with pytest.raises(ValueError, match="deeper"):
            WaveSolver(g, med, SolverConfig(absorbing="sponge", sponge_width=4),
                       fault=SplitNodeFault(fm))

    def test_moment_rate_requires_recording(self):
        rs = run_rupture(2)
        with pytest.raises(RuntimeError, match="record_slip_rate"):
            rs.moment_rate_history()
