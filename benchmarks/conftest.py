"""Shared fixtures for the paper-reproduction benchmarks.

Expensive simulations (the scaled M8 pipeline) run once per session and are
shared by the Fig. 19/21/22/23 benches.  Every bench prints a
paper-vs-measured table; run with ``pytest benchmarks/ --benchmark-only -s``
to see them inline (they are also attached to the benchmark JSON via
``extra_info``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios.m8 import M8Config, run_m8_scaled


@pytest.fixture(scope="session")
def m8_run():
    """The shared scaled-M8 pipeline result (one rupture + one wave run)."""
    cfg = M8Config(x_extent=96e3, h_wave=600.0, h_rupture=500.0,
                   duration=30.0, rupture_duration=24.0, dec_time=10,
                   stress_seed=12)
    return run_m8_scaled(cfg)


@pytest.fixture(scope="session")
def m8_pgv_analysis(m8_run):
    """Distance/site-classified PGV products shared by Fig. 21/23 benches."""
    from repro.analysis.basins import joyner_boore_distance
    from repro.analysis.pgv import geometric_mean_pgv, pgvh_from_frames

    res = m8_run
    d = res.recorder.dec_space
    h = res.grid.h
    gm = geometric_mean_pgv(res.recorder.frames)
    rss = pgvh_from_frames(res.recorder.frames)
    nx, ny = gm.shape
    xs = (np.arange(nx) + 0.5) * h * d
    ys = (np.arange(ny) + 0.5) * h * d
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    surf_vs = res.cvm.surface_vs(xg, yg)
    dist = joyner_boore_distance(xg, yg, res.fault_trace)
    return dict(result=res, gm=gm, rss=rss, xg=xg, yg=yg,
                surface_vs=surf_vs, distance=dist)


# ----------------------------------------------------------------------
# Shared TeraShake-style scenario (Figs. 15-18): a scaled basin domain with
# kinematic and dynamic sources over the same geometry.
# ----------------------------------------------------------------------

TS_X, TS_Y = 72e3, 36e3
TS_H = 600.0
TS_FAULT_Y = 0.62 * TS_Y
TS_FAULT_LEN = 36e3
TS_FAULT_X0 = 18e3
TS_DURATION = 22.0


def _ts_wave_grid():
    from repro.core import Grid3D
    nx, ny = int(TS_X / TS_H), int(TS_Y / TS_H)
    nz = 14
    return Grid3D(nx, ny, nz, h=TS_H)


def _ts_medium(grid):
    from repro.core import Medium
    from repro.mesh.cvm import southern_california_like
    cvm = southern_california_like(x_extent=TS_X, y_extent=TS_Y)
    nx, ny, nz = grid.shape
    x = (np.arange(nx) + 0.5) * TS_H
    y = (np.arange(ny) + 0.5) * TS_H
    depth = grid.extent[2] - (np.arange(nz) + 0.5) * TS_H
    vp, vs, rho = cvm.query(
        np.broadcast_to(x[:, None, None], (nx, ny, nz)),
        np.broadcast_to(y[None, :, None], (nx, ny, nz)),
        np.broadcast_to(depth[None, None, :], (nx, ny, nz)))
    return cvm, Medium.from_velocity_model(grid, vp, vs, rho)


def run_ts_kinematic(reverse: bool):
    """A TS-K style kinematic rupture propagating SE-NW or NW-SE."""
    from repro.core import SolverConfig, WaveSolver
    from repro.core.pml import PMLConfig
    from repro.core.stability import max_frequency
    from repro.rupture.kinematic import KinematicRupture

    grid = _ts_wave_grid()
    cvm, medium = _ts_medium(grid)
    f_max = max_frequency(TS_H, medium.vs_min)
    kin = KinematicRupture(length=TS_FAULT_LEN, depth=7e3, spacing=1500.0,
                           magnitude=7.0, hypocenter=(2e3, 4e3),
                           rupture_velocity=2600.0, rise_time=2.5)
    if reverse:
        kin = kin.reversed()
    ff = kin.to_finite_fault(origin=(TS_FAULT_X0, TS_FAULT_Y, 0.0),
                             y_plane=TS_FAULT_Y, surface_z=grid.extent[2],
                             dt=0.1)
    solver = WaveSolver(grid, medium, SolverConfig(
        absorbing="pml", pml=PMLConfig(width=6), free_surface=True))
    solver.add_source(ff)
    rec = solver.record_surface(dec_space=1, dec_time=8)
    solver.run(int(TS_DURATION / solver.dt))
    return dict(cvm=cvm, grid=grid, recorder=rec, solver=solver, source=ff)


def run_ts_dynamic(seed: int, record_rates: bool = False):
    """A TS-D style spontaneous rupture on the same fault geometry."""
    from repro.core import Grid3D, Medium, SolverConfig, WaveSolver
    from repro.rupture.friction import m8_friction_profiles
    from repro.rupture.solver import FaultModel, SplitNodeFault
    from repro.rupture.stress import build_m8_initial_stress

    h = 500.0
    ns, nd = int(TS_FAULT_LEN / h), int(7e3 / h)
    pad = 12
    g = Grid3D(ns + 2 * pad, 32, nd + 8, h=h)
    med = Medium.homogeneous(g, vp=6000.0, vs=3464.0, rho=2670.0)
    depths = (np.arange(nd) + 0.5) * h
    zs = 900.0
    dcs = h / 100.0
    fr = m8_friction_profiles(depths, n_strike=ns, dc_deep=0.3 * dcs,
                              dc_surface=1.0 * dcs, vs_top=zs,
                              vs_taper=1.5 * zs)
    radius = 0.12 * TS_FAULT_LEN
    init = build_m8_initial_stress(
        ns, nd, h, fr, corr_strike=5e3, corr_depth=3e3,
        taper_depth=zs, seed=seed,
        nucleation_center=(radius + 3 * h, 0.55 * 7e3),
        nucleation_radius=radius, nucleation_overstress=1.1)
    fm = FaultModel(j0=16, i0=pad, i1=pad + ns, n_depth=nd, friction=fr,
                    initial=init)
    rs = SplitNodeFault(fm)
    if record_rates:
        rs.record_slip_rate(decimate=2)
    solver = WaveSolver(g, med, SolverConfig(absorbing="sponge",
                                             sponge_width=8), fault=rs)
    solver.run(int(18.0 / solver.dt))
    return rs


def run_ts_dynamic_wave(rupture):
    """Propagate a TS-D rupture through the basin model (for Fig. 17)."""
    from repro.core import SolverConfig, WaveSolver
    from repro.core.pml import PMLConfig
    from repro.core.stability import max_frequency
    from repro.sourcegen.dsrcg import dynamic_source_from_rupture, segmented_trace

    grid = _ts_wave_grid()
    cvm, medium = _ts_medium(grid)
    f_max = max_frequency(TS_H, medium.vs_min)
    trace = segmented_trace([(TS_FAULT_X0, TS_FAULT_Y),
                             (TS_FAULT_X0 + TS_FAULT_LEN, TS_FAULT_Y)])
    src = dynamic_source_from_rupture(rupture, block=3, dt_out=0.1,
                                      f_cut=f_max, trace=trace,
                                      surface_z=grid.extent[2])
    solver = WaveSolver(grid, medium, SolverConfig(
        absorbing="pml", pml=PMLConfig(width=6), free_surface=True))
    solver.add_source(src)
    rec = solver.record_surface(dec_space=1, dec_time=8)
    solver.run(int(TS_DURATION / solver.dt))
    return dict(cvm=cvm, grid=grid, recorder=rec, solver=solver, source=src)


@pytest.fixture(scope="session")
def ts_kinematic_runs():
    """Forward (SE-NW analogue) and reversed kinematic TeraShake runs."""
    return {"forward": run_ts_kinematic(reverse=False),
            "reverse": run_ts_kinematic(reverse=True)}


@pytest.fixture(scope="session")
def ts_dynamic_ensemble():
    """Three dynamic-rupture realisations (the ShakeOut-D style ensemble)."""
    return {seed: run_ts_dynamic(seed, record_rates=True)
            for seed in (3, 7, 21)}


@pytest.fixture(scope="session")
def ts_dynamic_wave(ts_dynamic_ensemble):
    """One dynamic rupture propagated through the basin model (Fig. 17)."""
    first = sorted(ts_dynamic_ensemble)[0]
    return run_ts_dynamic_wave(ts_dynamic_ensemble[first])
