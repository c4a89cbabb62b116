"""Distributed LTS == serial LTS, bitwise — plus the LTS-specific rules.

The halo points of the step schedule (velocity exchange between blocks A
and B, stress exchange after B) re-send held planes unchanged, so ghost
columns always hold the same values the serial scheduler reads in place —
bitwise equality is the contract, not a tolerance.
"""

import numpy as np
import pytest

from repro.core import (Grid3D, MomentTensorSource, Receiver, SolverConfig,
                        WaveSolver)
from repro.core.source import gaussian_pulse
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver
from repro.scenarios import basin_two_layer

LTS_MAP = ((0, 9, 1), (9, 18, 2))
FIELDS = ("vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz")


def _problem():
    g = Grid3D(24, 20, 18, h=100.0)
    med = basin_two_layer(g)
    cfg = SolverConfig(absorbing="sponge", sponge_width=3,
                       stability_check_interval=0, lts=LTS_MAP)
    return g, med, cfg


def _source():
    return MomentTensorSource(
        position=(1200.0, 1000.0, 1100.0), moment=np.eye(3) * 1e13,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0],
        spatial_width=150.0)


class TestDistributedLTSBitwise:
    @pytest.mark.parametrize("dims", [(2, 1, 1), (2, 2, 1)])
    def test_sim_backend_matches_serial(self, dims):
        g, med, cfg = _problem()
        ser = WaveSolver(g, med, cfg)
        ser.add_source(_source())
        r_ser = ser.add_receiver(Receiver(position=(2000.0, 1500.0, 1500.0)))
        ser.run(8)
        dist = DistributedWaveSolver(g, med,
                                     decomp=Decomposition3D(g, *dims),
                                     config=cfg)
        dist.add_source(_source())
        r_dist = dist.add_receiver(Receiver(position=(2000.0, 1500.0,
                                                      1500.0)))
        dist.run(8)
        for name in FIELDS:
            assert np.array_equal(ser.wf.interior(name),
                                  dist.gather_field(name)), f"{name} differs"
        for comp in ("vx", "vy", "vz"):
            assert np.array_equal(r_ser.series(comp), r_dist.series(comp))

    def test_straddling_source_pinned_to_global_group(self):
        # the 11^3 source cloud straddles the k=9 interface; every rank
        # fragment must inherit the *global* representative's rate group
        # or injection cadence diverges from serial
        g, med, cfg = _problem()
        dist = DistributedWaveSolver(g, med,
                                     decomp=Decomposition3D(g, 2, 2, 1),
                                     config=cfg)
        dist.add_source(_source())
        ser = WaveSolver(g, med, cfg)
        ser.add_source(_source())
        k_ser = ser.lts.group_of(ser.moment_sources[0]).index
        for sol in dist.solvers:
            for src in sol.moment_sources:
                assert hasattr(src, "_lts_kplane")
                assert sol.lts.group_of(src).index == k_ser


class TestDistributedLTSRules:
    def test_pz_gt_one_rejected(self):
        g, med, cfg = _problem()
        with pytest.raises(ValueError, match="pz=1"):
            DistributedWaveSolver(g, med,
                                  decomp=Decomposition3D(g, 1, 1, 2),
                                  config=cfg)

    def test_auto_resolved_from_global_medium(self):
        # 'auto' must be resolved once from the global vp field; every
        # rank then runs the same explicit map
        g, med, _ = _problem()
        cfg = SolverConfig(absorbing="sponge", sponge_width=3,
                           stability_check_interval=0, lts="auto")
        dist = DistributedWaveSolver(g, med,
                                     decomp=Decomposition3D(g, 2, 1, 1),
                                     config=cfg)
        ser = WaveSolver(g, med, cfg)
        maps = {sol.lts.rate_map() for sol in dist.solvers}
        assert maps == {ser.lts.rate_map()}

    def test_overlap_disabled_under_lts(self):
        g, med, cfg = _problem()
        dist = DistributedWaveSolver(g, med,
                                     decomp=Decomposition3D(g, 2, 1, 1),
                                     config=cfg, backend="procpool",
                                     overlap=True)
        assert not dist.overlap_eligible

    def test_lts_property_exposes_scheduler(self):
        g, med, cfg = _problem()
        dist = DistributedWaveSolver(g, med,
                                     decomp=Decomposition3D(g, 2, 1, 1),
                                     config=cfg)
        assert dist.lts is not None
        assert dist.lts.rate_map() == LTS_MAP
