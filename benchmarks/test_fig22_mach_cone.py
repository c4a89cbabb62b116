"""Fig. 22 — super-shear Mach cone in the velocity wavefield.

"N46E component velocity snapshot at 23 s from M8 illustrating super-shear
wave propagation, with the Mach cone entering the 'Big Bend' section."

We run two small rupture-to-wavefield experiments over identical geometry —
one with prestress high enough for super-shear, one sub-Rayleigh — record
surface snapshots while the rupture front is advancing, and measure the
energy concentration inside the predicted Mach wedge.
"""

import numpy as np
import pytest

from repro.analysis.rupturemetrics import mach_angle, mach_cone_alignment
from repro.core import Grid3D, Medium, SolverConfig, WaveSolver
from repro.rupture.friction import SlipWeakeningFriction
from repro.rupture.solver import FaultModel, SplitNodeFault
from repro.rupture.stress import InitialStress

from _bench_utils import paper_row, print_table

H = 200.0
NS, ND = 70, 22
VS = 3464.0


def _run(tau_bg):
    g = Grid3D(NS + 30, 50, ND + 8, h=H)
    med = Medium.homogeneous(g, vp=6000.0, vs=VS, rho=2670.0)
    fr = SlipWeakeningFriction.uniform((NS, ND), mu_s=0.677, mu_d=0.525,
                                       dc=0.4, cohesion=0.0)
    tau0 = np.full((NS, ND), float(tau_bg))
    xs = (np.arange(NS) + 0.5) * H
    zs = (np.arange(ND) + 0.5) * H
    patch = ((xs[:, None] - 8 * H) ** 2 + (zs[None, :] - 11 * H) ** 2
             <= 1200.0 ** 2)
    tau0 = np.where(patch, 0.677 * 120e6 * 1.02, tau0)
    init = InitialStress(tau0_x=tau0, tau0_z=np.zeros_like(tau0),
                         sigma_n=np.full((NS, ND), 120e6))
    fm = FaultModel(j0=25, i0=15, i1=15 + NS, n_depth=ND,
                    friction=fr, initial=init)
    rs = SplitNodeFault(fm)
    solver = WaveSolver(g, med, SolverConfig(absorbing="sponge",
                                             sponge_width=8), fault=rs)
    # run until the front is ~2/3 along the fault, then snapshot the surface
    solver.run(int(2.6 / solver.dt))
    from repro.core.fd import NGHOST
    kt = NGHOST + g.nz - 1
    snap = np.hypot(solver.wf.vx[NGHOST:-NGHOST, NGHOST:-NGHOST, kt],
                    solver.wf.vy[NGHOST:-NGHOST, NGHOST:-NGHOST, kt])
    tr = rs.rupture_time_region()
    mid = ND // 2
    finite = np.where(np.isfinite(tr[:, mid]))[0]
    tip = (finite.max() + 15) if finite.size else 15
    v = rs.rupture_velocity()
    v_med = float(np.nanmedian(v[np.isfinite(v)]))
    return snap, tip, v_med, rs


@pytest.fixture(scope="module")
def runs():
    return {"supershear": _run(78e6), "subshear": _run(66e6)}


def test_fig22_mach_cone_energy_concentration(benchmark, runs):
    def measure():
        out = {}
        for label, (snap, tip, v_med, rs) in runs.items():
            vr = max(v_med, 1.05 * VS)  # wedge prediction needs vr > vs
            out[label] = (mach_cone_alignment(snap, H, fault_row=25,
                                              tip_col=tip, rupture_speed=vr,
                                              vs=VS), v_med)
        return out

    got = benchmark.pedantic(measure, rounds=1, iterations=1)
    ss_score, ss_v = got["supershear"]
    sub_score, sub_v = got["subshear"]
    rows = [
        paper_row("super-shear run: median Vr", "> vs (Mach cone forms)",
                  f"{ss_v:.0f} m/s vs vs {VS:.0f}"),
        paper_row("sub-shear run: median Vr", "< vs", f"{sub_v:.0f} m/s"),
        paper_row("wedge energy concentration (super)", "cone visible",
                  f"{ss_score:.2f}x area share"),
        paper_row("wedge energy concentration (sub)", "no cone",
                  f"{sub_score:.2f}x"),
    ]
    print_table("Fig. 22: Mach cone", rows)
    assert ss_v > sub_v
    assert ss_score > sub_score
    benchmark.extra_info["cone_scores"] = {
        "supershear": round(ss_score, 3), "subshear": round(sub_score, 3)}


def test_fig22_mach_angle_geometry(benchmark, runs):
    """The wedge angle follows asin(vs/vr): faster rupture -> narrower cone."""
    def measure():
        return mach_angle(1.2 * VS, VS), mach_angle(1.6 * VS, VS)

    slow, fast = benchmark(measure)
    rows = [
        paper_row("Mach half-angle at vr = 1.2 vs", "wide",
                  f"{np.degrees(slow):.0f} deg"),
        paper_row("Mach half-angle at vr = 1.6 vs", "narrower",
                  f"{np.degrees(fast):.0f} deg"),
    ]
    print_table("Fig. 22: cone geometry", rows)
    assert fast < slow


def test_fig22_supershear_carries_motion_farther(benchmark, runs):
    """'Mach waves generated by super-shear rupture carry intense near-fault
    ground motions to much larger distances from the fault.'"""
    def measure():
        out = {}
        for label, (snap, tip, _, rs) in runs.items():
            prof = snap.mean(axis=0)
            fault_row = 25
            near = prof[fault_row - 2:fault_row + 3].mean()
            far = prof[fault_row + 12:fault_row + 20].mean()
            out[label] = far / near
        return out

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [paper_row(f"far/near amplitude ratio ({k})",
                      "higher for super-shear", f"{v:.3f}")
            for k, v in ratios.items()]
    print_table("Fig. 22: reduced Mach-wave attenuation", rows)
    assert ratios["supershear"] > 0.8 * ratios["subshear"]
