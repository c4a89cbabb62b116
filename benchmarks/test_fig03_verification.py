"""Fig. 3 — verification of AWP-ODC against independent codes.

The paper shows "nearly identical peak ground velocities from three
different 3D codes" for the ShakeOut scenario.  Our three independent
discretisations of the same elastodynamic system are:

1. the production 4th-order staggered-grid FD solver (AWP-ODC proper);
2. the same solver at 2nd order (a genuinely different stencil family —
   the URS-FD stand-in);
3. the Fourier pseudospectral solver (the finite-element CMU stand-in:
   different spatial discretisation entirely).

All three propagate the identical buried source and the bench compares
their PGV maps on an interior plane (the PS comparator is periodic, so the
comparison stops before boundary effects)."""

import numpy as np
import pytest

from repro.core import (Grid3D, Medium, MomentTensorSource, Receiver,
                        SolverConfig, WaveSolver)
from repro.core.fd import NGHOST
from repro.core.pseudospectral import PseudospectralSolver
from repro.core.source import double_couple_strike_slip, gaussian_pulse
from repro.analysis.seismogram import l2_misfit

from _bench_utils import paper_row, print_table

N = 44
H = 100.0
F0 = 1.5
DT = 0.25 * H / 3000.0 / np.sqrt(3.0)
NSTEPS = int(0.95 / DT)
PLANE = N // 2 + 6  # interior z plane for the PGV comparison


def _source():
    c = N * H / 2
    return MomentTensorSource(
        position=(c, c, c), moment=double_couple_strike_slip(1e13),
        stf=lambda t: gaussian_pulse(np.array([t]), f0=F0)[0],
        spatial_width=150.0)


def _pgv_tracker():
    return {"pgv": None}


def _run_fd(order: int):
    g = Grid3D(N, N, N, h=H)
    med = Medium.homogeneous(g, vp=3000.0, vs=1732.0, rho=2400.0)
    s = WaveSolver(g, med, SolverConfig(absorbing="none", free_surface=False,
                                        dt=DT, order=order))
    s.add_source(_source())
    pgv = np.zeros((N, N))
    for _ in range(NSTEPS):
        s.step()
        mag = np.hypot(s.wf.interior("vx")[:, :, PLANE],
                       s.wf.interior("vy")[:, :, PLANE])
        np.maximum(pgv, mag, out=pgv)
    return pgv


def _run_ps():
    g = Grid3D(N, N, N, h=H)
    med = Medium.homogeneous(g, vp=3000.0, vs=1732.0, rho=2400.0)
    s = PseudospectralSolver(g, med, dt=DT)
    s.add_source(_source())
    pgv = np.zeros((N, N))
    for _ in range(NSTEPS):
        s.step()
        mag = np.hypot(s.v["vx"][:, :, PLANE], s.v["vy"][:, :, PLANE])
        np.maximum(pgv, mag, out=pgv)
    return pgv


@pytest.fixture(scope="module")
def pgv_maps():
    return {"FD4 (AWP-ODC)": _run_fd(4),
            "FD2 (URS-like)": _run_fd(2),
            "PS (FE-like)": _run_ps()}


def test_fig03_three_code_pgv_agreement(benchmark, pgv_maps):
    """The Fig. 3 claim: nearly identical PGV maps across codes."""
    ref = pgv_maps["FD4 (AWP-ODC)"]

    def compare():
        out = {}
        for name, pgv in pgv_maps.items():
            if name.startswith("FD4"):
                continue
            corr = np.corrcoef(ref.ravel(), pgv.ravel())[0, 1]
            mis = l2_misfit(pgv.ravel(), ref.ravel())
            out[name] = (corr, mis)
        return out

    got = benchmark(compare)
    rows = [paper_row("inter-code PGV agreement", "nearly identical", "")]
    for name, (corr, mis) in got.items():
        rows.append(paper_row(f"  {name} vs FD4", "corr ~ 1",
                              f"corr {corr:.4f}, L2 {mis:.3f}"))
        assert corr > 0.98, name
        assert mis < 0.25, name
    print_table("Fig. 3: three-code verification", rows)
    benchmark.extra_info["agreement"] = {
        k: (round(c, 4), round(m, 4)) for k, (c, m) in got.items()}


def _peak_cells(p: np.ndarray, rtol: float = 1e-12) -> set:
    """Cells within ``rtol`` (relative) of the map's maximum.

    The double couple's PGV lobes are mirror images of one another, so on
    this symmetric setup they tie to rounding (a few ULP) and ``argmax``
    alone picks one of them by noise."""
    return {tuple(int(v) for v in c)
            for c in np.argwhere(p >= p.max() * (1.0 - rtol))}


def test_fig03_peak_location_agreement(benchmark, pgv_maps):
    """The codes agree on where the strongest shaking lands."""
    peaks = benchmark(lambda: {name: np.unravel_index(np.argmax(p), p.shape)
                               for name, p in pgv_maps.items()})
    ref = _peak_cells(pgv_maps["FD4 (AWP-ODC)"])
    # the tie set is one lobe and its mirror images (x <-> y, the strike-
    # slip radiation symmetry), never an unrelated cell
    assert 1 <= len(ref) <= 4 and ref == {(j, i) for i, j in ref}, ref
    rows = []
    for name, loc in peaks.items():
        d = min(np.abs(np.array(loc) - np.array(r)).max() for r in ref)
        rows.append(paper_row(f"peak PGV cell ({name})", sorted(ref),
                              tuple(int(v) for v in loc), f"(offset {d})"))
        assert d <= 2
    print_table("Fig. 3: peak locations", rows)


def test_fig03_amplitude_scale_agreement(benchmark, pgv_maps):
    """Absolute PGV scales agree across codes within a few percent."""
    vals = benchmark(lambda: {name: p.max() for name, p in pgv_maps.items()})
    ref = vals["FD4 (AWP-ODC)"]
    rows = [paper_row(f"max PGV ({n})", f"{ref:.3e}", f"{v:.3e}",
                      f"(x{v / ref:.3f})") for n, v in vals.items()]
    print_table("Fig. 3: amplitude scales", rows)
    for name, v in vals.items():
        assert v / ref == pytest.approx(1.0, abs=0.15), name
