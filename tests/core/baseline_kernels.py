"""Pre-optimization ("version <= 6.x") velocity–stress kernels (Section IV.B).

The formulation the paper's single-CPU work removed: divisions by density
in the update loop and harmonic averaging of the moduli every step.  It
shares no code with :class:`repro.core.kernels.VelocityStressKernel` beyond
the finite-difference operators, so the tests use it as an independent
oracle (equal up to floating-point reassociation) and the Section IV.B
benchmark as the measurable "before" case.
"""

from __future__ import annotations

import numpy as np

from repro.core import fd, update
from repro.core.fd import interior
from repro.core.grid import WaveField
from repro.core.medium import Medium


def _harmonic4(a: np.ndarray, ax1: int, ax2: int) -> np.ndarray:
    """Per-step 4-point harmonic mean, as the unoptimized kernel computed it."""
    nd = a.ndim

    def sh(d1: int, d2: int) -> np.ndarray:
        sl = [slice(None)] * nd
        sl[ax1] = slice(d1, None) if d1 else slice(None)
        sl[ax2] = slice(d2, None) if d2 else slice(None)
        v = a[tuple(sl)]
        pad = [(0, 0)] * nd
        if d1:
            pad[ax1] = (0, d1)
        if d2:
            pad[ax2] = (0, d2)
        return np.pad(v, pad, mode="edge")

    return 4.0 / (1.0 / sh(0, 0) + 1.0 / sh(1, 0) + 1.0 / sh(0, 1) + 1.0 / sh(1, 1))


def baseline_velocity_update(wf: WaveField, medium: Medium, dt: float,
                             order: int = 4) -> None:
    """Velocity update with in-loop divisions by density (pre-IV.B code).

    Numerically equivalent to the optimized kernel up to floating-point
    reassociation.
    """
    h = wf.grid.h
    rho_at = {"vx": 0, "vy": 1, "vz": 2}
    for comp, (_, terms) in update.VELOCITY.items():
        total = np.zeros(wf.grid.padded_shape, dtype=wf.dtype)
        for axis, sname, fwd in terms:
            s = getattr(wf, sname)
            d = (fd.diff_fwd if fwd else fd.diff_bwd)(s, axis, h, order=order)
            interior(total)[...] += interior(d)
        ax = rho_at[comp]
        nd = medium.rho.ndim
        lo = [slice(None)] * nd
        hi = [slice(None)] * nd
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        rho_avg = medium.rho.copy()
        rho_avg[tuple(lo)] = 0.5 * (medium.rho[tuple(lo)] + medium.rho[tuple(hi)])
        # Division in the inner loop: the expensive form the paper removed.
        interior(getattr(wf, comp))[...] += dt * interior(total) / interior(rho_avg)


def baseline_stress_update(wf: WaveField, medium: Medium, dt: float,
                           order: int = 4) -> None:
    """Stress update recomputing harmonic moduli every step (pre-IV.B code)."""
    h = wf.grid.h
    dvx = fd.diff_bwd(wf.vx, 0, h, order=order)
    dvy = fd.diff_bwd(wf.vy, 1, h, order=order)
    dvz = fd.diff_bwd(wf.vz, 2, h, order=order)
    lam, mu = medium.lam, medium.mu
    div = interior(dvx) + interior(dvy) + interior(dvz)
    for comp, own in (("sxx", dvx), ("syy", dvy), ("szz", dvz)):
        interior(getattr(wf, comp))[...] += dt * (
            interior(lam) * div + 2.0 * interior(mu) * interior(own))
    for comp, (_, terms) in update.SHEAR.items():
        (ax1, _), (ax2, _) = terms
        mod = _harmonic4(mu, ax1, ax2)
        total = np.zeros(wf.grid.padded_shape, dtype=wf.dtype)
        for axis, vname in terms:
            d = fd.diff_fwd(getattr(wf, vname), axis, h, order=order)
            interior(total)[...] += interior(d)
        interior(getattr(wf, comp))[...] += dt * interior(mod) * interior(total)
