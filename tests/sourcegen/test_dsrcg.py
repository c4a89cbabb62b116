"""Tests for the dynamic source generator (dSrcG)."""

import numpy as np
import pytest

from repro.core import Grid3D, Medium, SolverConfig, WaveSolver
from repro.rupture.friction import SlipWeakeningFriction
from repro.rupture.solver import FaultModel, SplitNodeFault
from repro.rupture.stress import InitialStress
from repro.sourcegen.dsrcg import (FaultSegment, dynamic_source_from_rupture,
                                   lowpass_resample, segmented_trace)


@pytest.fixture(scope="module")
def rupture():
    """A small completed rupture with recorded slip rates."""
    ns, nd, h = 40, 16, 200.0
    g = Grid3D(ns + 20, 30, nd + 8, h=h)
    med = Medium.homogeneous(g, vp=6000.0, vs=3464.0, rho=2670.0)
    fr = SlipWeakeningFriction.uniform((ns, nd), mu_s=0.677, mu_d=0.525,
                                       dc=0.4, cohesion=0.0)
    tau0 = np.full((ns, nd), 70e6)
    xs = (np.arange(ns) + 0.5) * h
    zs = (np.arange(nd) + 0.5) * h
    patch = ((xs[:, None] - 20 * h) ** 2 + (zs[None, :] - 8 * h) ** 2
             <= 1200.0 ** 2)
    tau0 = np.where(patch, 0.677 * 120e6 * 1.01, tau0)
    init = InitialStress(tau0_x=tau0, tau0_z=np.zeros_like(tau0),
                         sigma_n=np.full((ns, nd), 120e6))
    fm = FaultModel(j0=15, i0=10, i1=10 + ns, n_depth=nd, friction=fr,
                    initial=init)
    rs = SplitNodeFault(fm)
    rs.record_slip_rate(decimate=2)
    WaveSolver(g, med, SolverConfig(absorbing="sponge", sponge_width=6),
               fault=rs).run(150)
    return rs


class TestLowpassResample:
    def test_uniform_output_grid(self):
        t = np.linspace(0, 10, 173)
        y = np.sin(t)
        t2, y2 = lowpass_resample(t, y, dt_out=0.1, f_cut=2.0)
        assert np.allclose(np.diff(t2), 0.1)
        assert len(t2) == len(y2)

    def test_lowpass_removes_high_frequency(self):
        dt = 0.01
        t = np.arange(0, 20, dt)
        slow = np.sin(2 * np.pi * 0.2 * t)
        fast = 0.5 * np.sin(2 * np.pi * 8.0 * t)
        _, filtered = lowpass_resample(t, slow + fast, dt_out=dt, f_cut=2.0)
        resid = filtered[200:-200] - slow[200:-200]
        assert np.abs(resid).max() < 0.1

    def test_cut_above_nyquist_passthrough(self):
        t = np.arange(0, 1, 0.1)
        y = np.arange(10.0)
        _, out = lowpass_resample(t, y, dt_out=0.1, f_cut=100.0)
        assert np.allclose(out, y[:len(out)])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            lowpass_resample(np.array([0.0]), np.array([1.0]), 0.1, 2.0)


class TestSegmentedTrace:
    def test_segments_from_polyline(self):
        segs = segmented_trace([(0, 0), (1000, 0), (2000, 500)])
        assert len(segs) == 2
        assert segs[0].length == pytest.approx(1000.0)
        assert segs[1].strike_angle == pytest.approx(np.arctan2(500, 1000))

    def test_point_interpolation(self):
        seg = FaultSegment(0, 0, 1000, 0)
        assert seg.point_at(250.0) == (250.0, 0.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            segmented_trace([(0, 0)])


class TestDynamicSource:
    def test_moment_preserved(self, rupture):
        """The exported source's total moment matches the rupture's."""
        src = dynamic_source_from_rupture(rupture, block=4)
        assert src.total_moment() == pytest.approx(rupture.seismic_moment(),
                                                   rel=0.1)

    def test_unit_area_rate_histories(self, rupture):
        src = dynamic_source_from_rupture(rupture, block=4)
        for sf in src.subfaults[:5]:
            area = np.trapezoid(sf.rate_samples, dx=sf.dt)
            assert area == pytest.approx(1.0, rel=0.02)

    def test_block_size_controls_subfault_count(self, rupture):
        fine = dynamic_source_from_rupture(rupture, block=2)
        coarse = dynamic_source_from_rupture(rupture, block=8)
        assert len(fine.subfaults) > 2 * len(coarse.subfaults)

    def test_segmented_trace_rotation(self, rupture):
        """Subfaults on a bent trace have rotated double couples."""
        trace = segmented_trace([(0.0, 0.0), (5000.0, 0.0),
                                 (10000.0, 4000.0)])
        src = dynamic_source_from_rupture(rupture, block=4, trace=trace)
        # subfaults on the second (rotated) segment have Mxx != 0
        rotated = [sf for sf in src.subfaults if abs(sf.moment[0, 0]) > 0]
        straight = [sf for sf in src.subfaults
                    if abs(sf.moment[0, 0]) < 1e-3 * abs(sf.moment[0, 1])]
        assert rotated and straight
        # total scalar moment unchanged by rotation
        src_plane = dynamic_source_from_rupture(rupture, block=4)
        assert src.magnitude() == pytest.approx(src_plane.magnitude(),
                                                abs=0.05)

    def test_positions_follow_trace(self, rupture):
        trace = segmented_trace([(0.0, 0.0), (20000.0, 0.0)])
        src = dynamic_source_from_rupture(rupture, block=4, trace=trace)
        assert all(abs(sf.position[1]) < 1.0 for sf in src.subfaults)

    def test_requires_recording(self):
        g = Grid3D(30, 20, 16, h=200.0)
        med = Medium.homogeneous(g)
        ns, nd = 10, 8
        fr = SlipWeakeningFriction.uniform((ns, nd))
        init = InitialStress(tau0_x=np.zeros((ns, nd)),
                             tau0_z=np.zeros((ns, nd)),
                             sigma_n=np.full((ns, nd), 1e8))
        fm = FaultModel(j0=10, i0=5, i1=15, n_depth=nd, friction=fr,
                        initial=init)
        rs = SplitNodeFault(fm)
        WaveSolver(g, med, SolverConfig(absorbing="sponge", sponge_width=4),
                   fault=rs)
        with pytest.raises(RuntimeError, match="record_slip_rate"):
            dynamic_source_from_rupture(rs)
