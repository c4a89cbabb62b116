"""The scaled M8 pipeline — the paper's two-step method (Section VII).

Step 1: spontaneous rupture on a planar vertical fault using the M8 friction
and initial-stress recipes (slip weakening, shallow velocity strengthening,
Von Karman prestress, nucleation near the NW end).

Step 2: the moment-rate histories are transferred onto a (optionally
segmented) fault trace embedded in a Southern-California-like synthetic CVM,
and the wave propagation is solved with the AWM, recording decimated surface
output and seismograms at named sites.

Everything is dimensionally scaled from the production M8 (810 x 405 x 85 km
at 40 m) to laptop size while preserving the controlling ratios: domain
aspect, fault-length fraction, stress-drop-to-strength ratios, and the
points-per-wavelength rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import (Grid3D, Medium, Receiver, SolverConfig, SurfaceRecorder,
                    WaveSolver)
from ..core.pml import PMLConfig
from ..mesh.cvm import SyntheticCVM, southern_california_like
from ..rupture.friction import m8_friction_profiles
from ..rupture.solver import FaultModel, SplitNodeFault
from ..rupture.stress import build_m8_initial_stress
from ..sourcegen.dsrcg import dynamic_source_from_rupture, segmented_trace

__all__ = ["M8Config", "M8Result", "run_m8_scaled", "SITE_FRACTIONS"]

#: Named sites as (x, y) fractions of the domain, placed relative to the
#: synthetic basins the way the paper's sites sit relative to the real ones.
SITE_FRACTIONS: dict[str, tuple[float, float]] = {
    "los_angeles": (0.32, 0.245),      # LA basin centre
    "downey": (0.38, 0.30),            # LA basin edge
    "san_bernardino": (0.52, 0.545),   # SB basin (near-fault)
    "ventura": (0.12, 0.395),          # Ventura basin
    "oxnard": (0.08, 0.37),            # Ventura basin west edge
    "rock_reference": (0.70, 0.15),    # far-field rock site
}


@dataclass
class M8Config:
    """Scaled M8 configuration (defaults ~ a few minutes of laptop time)."""

    x_extent: float = 96e3        #: domain length (production: 810 km)
    h_wave: float = 600.0         #: wave-propagation spacing
    h_rupture: float = 500.0      #: dynamic-rupture spacing
    fault_fraction: float = 0.66  #: fault length / domain length (545/810)
    fault_depth: float = 9e3      #: seismogenic depth (production: 16 km)
    duration: float = 28.0        #: wave-propagation time (production 360 s)
    rupture_duration: float = 26.0
    stress_seed: int = 12
    f_cut: float | None = None    #: source low-pass; None = grid-consistent
    segmented: bool = True        #: bend the trace ('Big Bend' analogue)
    attenuation: bool = True
    source_block: int = 3
    dec_time: int = 10


@dataclass
class M8Result:
    config: M8Config
    cvm: SyntheticCVM
    grid: Grid3D
    rupture: SplitNodeFault
    source: object
    wave: WaveSolver
    recorder: SurfaceRecorder
    receivers: dict[str, Receiver]
    sites: dict[str, tuple[float, float]]
    fault_trace: list[tuple[float, float]]

    def pgvh_map(self) -> np.ndarray:
        from ..analysis.pgv import pgvh_from_frames
        return pgvh_from_frames(self.recorder.frames)

    def site_pgvh(self) -> dict[str, float]:
        from ..analysis.pgv import pgvh_timeseries
        return {name: pgvh_timeseries(r.series("vx"), r.series("vy"))
                for name, r in self.receivers.items()}


def _run_rupture(cfg: M8Config) -> SplitNodeFault:
    h = cfg.h_rupture
    fault_len = cfg.fault_fraction * cfg.x_extent
    ns = int(fault_len / h)
    nd = int(cfg.fault_depth / h)
    pad = 14
    g = Grid3D(ns + 2 * pad, 36, nd + 8, h=h)
    med = Medium.homogeneous(g, vp=6000.0, vs=3464.0, rho=2670.0)
    depths = (np.arange(nd) + 0.5) * h
    # Scale the shallow-strengthening / dc-taper depths with the fault depth
    # (production values assume a 16 km fault).
    # Strengthening-zone depth: the production 2 km scales with the
    # seismogenic depth (16 km in production); all quantities in metres.
    zs = cfg.fault_depth * 2.0 / 16.0
    # The production recipe (dc = 0.3 m) assumes the 100 m rupture mesh;
    # scale dc with h so the cohesive zone stays resolved (~4 cells).
    dc_scale = h / 100.0
    friction = m8_friction_profiles(depths, n_strike=ns,
                                    dc_deep=0.3 * dc_scale,
                                    dc_surface=1.0 * dc_scale,
                                    vs_top=zs, vs_taper=1.5 * zs)
    init = build_m8_initial_stress(
        ns, nd, h, friction,
        corr_strike=50e3 * fault_len / 545e3,
        corr_depth=10e3 * cfg.fault_depth / 16e3,
        taper_depth=zs, seed=cfg.stress_seed,
        # Nucleation near the NW (low-x) end, mid-depth.  The patch radius
        # scales with the fault so it stays super-critical for the scaled
        # fracture energy (dc grows with h; critical crack size with dc).
        nucleation_center=(0.1 * fault_len + 3.0 * h,
                           0.55 * cfg.fault_depth),
        nucleation_radius=0.1 * fault_len,
        nucleation_overstress=1.1)
    fm = FaultModel(j0=18, i0=pad, i1=pad + ns, n_depth=nd,
                    friction=friction, initial=init)
    rupture = SplitNodeFault(fm)
    rupture.record_slip_rate(decimate=2)
    solver = WaveSolver(g, med, SolverConfig(absorbing="sponge",
                                             sponge_width=8), fault=rupture)
    solver.run(int(cfg.rupture_duration / solver.dt))
    return rupture


def _fault_trace(cfg: M8Config, cvm: SyntheticCVM) -> list[tuple[float, float]]:
    """Map-view trace along the CVM's fault line; optionally bent."""
    y = cvm.fault_trace_y
    x0 = 0.5 * (1 - cfg.fault_fraction) * cfg.x_extent
    x1 = x0 + cfg.fault_fraction * cfg.x_extent
    if not cfg.segmented:
        return [(x0, y), (x1, y)]
    # three segments with a gentle bend ~ the SAF 'Big Bend'
    xb = x0 + 0.45 * (x1 - x0)
    xc = x0 + 0.65 * (x1 - x0)
    return [(x0, y + 0.02 * cfg.x_extent), (xb, y), (xc, y - 0.01 * cfg.x_extent),
            (x1, y - 0.02 * cfg.x_extent)]


def run_m8_scaled(cfg: M8Config | None = None) -> M8Result:
    """Run the full scaled M8 pipeline (rupture -> dSrcG -> AWM)."""
    cfg = cfg or M8Config()
    y_extent = cfg.x_extent / 2.0
    cvm = southern_california_like(x_extent=cfg.x_extent, y_extent=y_extent)

    # Step 1: dynamic rupture.
    rupture = _run_rupture(cfg)

    # Step 2: wave propagation.
    h = cfg.h_wave
    nx = int(cfg.x_extent / h)
    ny = int(y_extent / h)
    nz = max(16, int(0.105 * cfg.x_extent / h))  # 85/810 aspect
    grid = Grid3D(nx, ny, nz, h=h)

    # Extract the medium directly from the CVM on the wave grid.
    x = (np.arange(nx) + 0.5) * h
    y = (np.arange(ny) + 0.5) * h
    z_up = (np.arange(nz) + 0.5) * h
    depth = grid.extent[2] - z_up          # z-up -> depth below surface
    xg = x[:, None, None]
    yg = y[None, :, None]
    dg = np.broadcast_to(depth[None, None, :], (nx, ny, nz))
    vp, vs, rho = cvm.query(np.broadcast_to(xg, (nx, ny, nz)),
                            np.broadcast_to(yg, (nx, ny, nz)), dg)
    medium = Medium.from_velocity_model(grid, vp, vs, rho)

    f_cut = cfg.f_cut
    if f_cut is None:
        from ..core.stability import max_frequency
        f_cut = max_frequency(h, medium.vs_min)

    trace = _fault_trace(cfg, cvm)
    source = dynamic_source_from_rupture(
        rupture, block=cfg.source_block, dt_out=0.1, f_cut=f_cut,
        trace=segmented_trace(trace), surface_z=grid.extent[2])

    band = (max(0.05, f_cut / 10.0), f_cut) if cfg.attenuation else None
    solver = WaveSolver(grid, medium, SolverConfig(
        absorbing="pml", pml=PMLConfig(width=6), free_surface=True,
        attenuation_band=band))
    solver.add_source(source)

    receivers: dict[str, Receiver] = {}
    sites: dict[str, tuple[float, float]] = {}
    for name, (fx, fy) in SITE_FRACTIONS.items():
        pos = (fx * cfg.x_extent, fy * y_extent, grid.extent[2] - 0.75 * h)
        receivers[name] = solver.add_receiver(Receiver(position=pos, name=name))
        sites[name] = (pos[0], pos[1])
    recorder = solver.record_surface(dec_space=2, dec_time=cfg.dec_time)

    solver.run(int(cfg.duration / solver.dt))
    return M8Result(config=cfg, cvm=cvm, grid=grid, rupture=rupture,
                    source=source, wave=solver, recorder=recorder,
                    receivers=receivers, sites=sites, fault_trace=trace)
