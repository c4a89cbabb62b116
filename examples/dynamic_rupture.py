#!/usr/bin/env python3
"""Spontaneous dynamic rupture on a planar strike-slip fault (SGSN mode).

Reproduces the qualitative content of the paper's Fig. 19 at laptop scale:
final slip distribution, peak slip rates, rupture-time contours, and the
sub-Rayleigh vs super-shear classification, for two prestress levels
(high prestress -> low S ratio -> super-shear transition).

Run:  python examples/dynamic_rupture.py
"""

import numpy as np

from repro.core import Grid3D, Medium, SolverConfig, WaveSolver
from repro.rupture import (FaultModel, InitialStress, SlipWeakeningFriction,
                           SplitNodeFault)
from repro.analysis.rupturemetrics import classify_rupture_speed


def run_case(tau_background: float, label: str) -> None:
    h = 200.0
    ns, nd = 70, 28                       # 14 km x 5.6 km fault
    grid = Grid3D(ns + 30, 40, nd + 10, h=h)
    medium = Medium.homogeneous(grid, vp=6000.0, vs=3464.0, rho=2670.0)

    friction = SlipWeakeningFriction.uniform(
        (ns, nd), mu_s=0.677, mu_d=0.525, dc=0.4, cohesion=0.0)
    sigma_n = np.full((ns, nd), 120e6)
    tau0 = np.full((ns, nd), tau_background)
    # overstressed circular nucleation patch
    xs = (np.arange(ns) + 0.5) * h
    zs = (np.arange(nd) + 0.5) * h
    patch = ((xs[:, None] - 20 * h) ** 2 + (zs[None, :] - 14 * h) ** 2
             <= 1500.0 ** 2)
    tau0 = np.where(patch, 0.677 * 120e6 * 1.01, tau0)

    fault = FaultModel(j0=20, i0=15, i1=15 + ns, n_depth=nd,
                       friction=friction,
                       initial=InitialStress(tau0_x=tau0,
                                             tau0_z=np.zeros_like(tau0),
                                             sigma_n=sigma_n))
    rupture = SplitNodeFault(fault)
    rupture.record_slip_rate(decimate=4)
    wave = WaveSolver(grid, medium, SolverConfig(absorbing="sponge",
                                                 sponge_width=8),
                      fault=rupture)
    wave.run(int(5.0 / wave.dt))

    slip = rupture.final_slip()
    tr = rupture.rupture_time_region()
    v = rupture.rupture_velocity()
    vs_arr = np.full(v.shape, 3464.0)
    labels = classify_rupture_speed(v, vs_arr)
    s_ratio = (0.677 * 120e6 - tau_background) / (tau_background
                                                  - 0.525 * 120e6)
    print(f"--- {label} (tau0 = {tau_background / 1e6:.0f} MPa, "
          f"S = {s_ratio:.2f}) ---")
    print(f"  ruptured area:      {np.isfinite(tr).mean() * 100:.0f}%")
    print(f"  final slip:         max {slip.max():.2f} m, "
          f"mean {slip[np.isfinite(tr)].mean():.2f} m")
    print(f"  peak slip rate:     {rupture.peak_slip_rate_region().max():.1f} m/s")
    print(f"  seismic moment:     {rupture.seismic_moment():.2e} N*m "
          f"(Mw {rupture.magnitude():.2f})")
    print(f"  super-shear area:   {100 * rupture.supershear_fraction():.0f}% "
          f"(cells classified super-shear: "
          f"{(labels == 3).sum()}/{np.isfinite(tr).sum()})")
    t, rate = rupture.moment_rate_history()
    print(f"  peak moment rate:   {rate.max():.2e} N*m/s at "
          f"t = {t[np.argmax(rate)]:.1f} s")


def main() -> None:
    # Moderate prestress: sub-Rayleigh rupture (the 'yellow' of Fig. 19c).
    run_case(70e6, "sub-Rayleigh regime")
    # High prestress: S < 1 promotes the super-shear transition
    # (the red/blue patches of Fig. 19c and the Mach cones of Fig. 22).
    run_case(76e6, "super-shear regime")


if __name__ == "__main__":
    main()
