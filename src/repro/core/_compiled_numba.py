"""Numba implementations of the fused sweeps and per-step operators.

Imported lazily by :mod:`repro.core.compiled` — importing this module
requires numba.  The kernels live in a real source file (not exec-generated
code) because ``@njit(cache=True)`` needs one to key its on-disk cache.

Bitwise contract (same as the cbuild provider): every per-cell expression
replays the pooled numpy ufunc sequence with fixed association order, and
every scalar (``c1``/``c2``/``h``/``dt``, the band weights, even the
``zero``/``two`` of the free-surface fill) arrives pre-cast to the array
dtype: numba promotes ``float32 array * float64 scalar`` to float64, unlike
NEP-50 numpy, so the cast must happen in the python wrapper and no float
literal may appear in an expression here.  fastmath is left off, so LLVM
emits strict IEEE ops with no FMA contraction.

``prange`` is a plain ``range`` alias under the serial dispatchers and a
thread-parallel loop under ``parallel=True``; rows are independent within
a half-step, so the split is bitwise-safe.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

from .fd import NGHOST as G


@njit(cache=True)
def _save_bands(hrow, o0, o1, o2, tab, nslab, nsave):
    """Copy the saved bands' planes of one row's own band trio ``o0..o2``
    into its history ``hrow`` (slots x planes)."""
    for s in range(nsave):
        slot = tab[2 * nslab + 2 * s]
        k0 = tab[2 * nslab + 2 * s + 1]
        for b in range(hrow.shape[1]):
            hrow[slot, b] = o0[k0 + b]
            hrow[slot + 1, b] = o1[k0 + b]
            hrow[slot + 2, b] = o2[k0 + b]


@njit(cache=True)
def _blend_columns(hrow, r0, r1, r2, col, tab, wts, nslab, nsave, nblend,
                   s, z0, z1):
    """If slab ``s`` has blended bands, fill ``col`` with the row's read
    band trio ``r0..r2`` over the slab's z-tap range, the band planes
    holding ``(now*w) + (history*(1-w))``, and return True."""
    blended = False
    for m in range(nblend):
        at = 2 * nslab + 2 * nsave + 3 * m
        if tab[at] != s:
            continue
        if not blended:
            blended = True
            for k in range(z0 - G, z1 + G):
                col[0, k] = r0[k]
                col[1, k] = r1[k]
                col[2, k] = r2[k]
        slot = tab[at + 1]
        k0 = tab[at + 2]
        w = wts[nslab + 2 * m]
        omw = wts[nslab + 2 * m + 1]
        for b in range(hrow.shape[1]):
            col[0, k0 + b] = (r0[k0 + b] * w) + (hrow[slot, b] * omw)
            col[1, k0 + b] = (r1[k0 + b] * w) + (hrow[slot + 1, b] * omw)
            col[2, k0 + b] = (r2[k0 + b] * w) + (hrow[slot + 2, b] * omw)
    return blended


def _velocity_impl(vx, vy, vz, sxx, syy, szz, sxy, sxz, syz,
                   bx, by, bz, hist, tab, wts, c1, c2, h,
                   x0, x1, y0, y1, nslab, nsave, nblend):
    # One visit per (i, j) row: save the owned band levels, then update each
    # slab of the table with its own dt against z columns that are the row
    # itself or a private copy with time-interpolated band planes (same
    # loop as compiled._c_sweep; table layout: compiled._sweep_tables).
    # A sweep without bands gets a one-row stand-in for ``hist``.
    bands = nsave + nblend > 0
    for i in prange(x0, x1):
        col = np.empty((3, vx.shape[2]), vx.dtype)
        for j in range(y0, y1):
            hrow = hist[i - G, j - G] if bands else hist[0, 0]
            _save_bands(hrow, vx[i, j], vy[i, j], vz[i, j], tab, nslab, nsave)
            for s in range(nslab):
                z0 = tab[2 * s]
                z1 = tab[2 * s + 1]
                dt = wts[s]
                zsxz = sxz[i, j]
                zsyz = syz[i, j]
                zszz = szz[i, j]
                if _blend_columns(hrow, zsxz, zsyz, zszz, col, tab, wts,
                                  nslab, nsave, nblend, s, z0, z1):
                    zsxz = col[0]
                    zsyz = col[1]
                    zszz = col[2]
                for k in range(z0, z1):
                    # vx: fwd d/dx sxx, bwd d/dy sxy, bwd d/dz sxz
                    v = vx[i, j, k]
                    t = ((((sxx[i + 1, j, k] * c1) - (sxx[i, j, k] * c1))
                          + (sxx[i + 2, j, k] * c2))
                         - (sxx[i - 1, j, k] * c2)) / h
                    t = t * bx[i, j, k]
                    v = v + (t * dt)
                    t = ((((sxy[i, j, k] * c1) - (sxy[i, j - 1, k] * c1))
                          + (sxy[i, j + 1, k] * c2))
                         - (sxy[i, j - 2, k] * c2)) / h
                    t = t * bx[i, j, k]
                    v = v + (t * dt)
                    t = ((((zsxz[k] * c1) - (zsxz[k - 1] * c1))
                          + (zsxz[k + 1] * c2))
                         - (zsxz[k - 2] * c2)) / h
                    t = t * bx[i, j, k]
                    v = v + (t * dt)
                    vx[i, j, k] = v
                    # vy: bwd d/dx sxy, fwd d/dy syy, bwd d/dz syz
                    v = vy[i, j, k]
                    t = ((((sxy[i, j, k] * c1) - (sxy[i - 1, j, k] * c1))
                          + (sxy[i + 1, j, k] * c2))
                         - (sxy[i - 2, j, k] * c2)) / h
                    t = t * by[i, j, k]
                    v = v + (t * dt)
                    t = ((((syy[i, j + 1, k] * c1) - (syy[i, j, k] * c1))
                          + (syy[i, j + 2, k] * c2))
                         - (syy[i, j - 1, k] * c2)) / h
                    t = t * by[i, j, k]
                    v = v + (t * dt)
                    t = ((((zsyz[k] * c1) - (zsyz[k - 1] * c1))
                          + (zsyz[k + 1] * c2))
                         - (zsyz[k - 2] * c2)) / h
                    t = t * by[i, j, k]
                    v = v + (t * dt)
                    vy[i, j, k] = v
                    # vz: bwd d/dx sxz, bwd d/dy syz, fwd d/dz szz
                    v = vz[i, j, k]
                    t = ((((sxz[i, j, k] * c1) - (sxz[i - 1, j, k] * c1))
                          + (sxz[i + 1, j, k] * c2))
                         - (sxz[i - 2, j, k] * c2)) / h
                    t = t * bz[i, j, k]
                    v = v + (t * dt)
                    t = ((((syz[i, j, k] * c1) - (syz[i, j - 1, k] * c1))
                          + (syz[i, j + 1, k] * c2))
                         - (syz[i, j - 2, k] * c2)) / h
                    t = t * bz[i, j, k]
                    v = v + (t * dt)
                    t = ((((zszz[k + 1] * c1) - (zszz[k] * c1))
                          + (zszz[k + 2] * c2))
                         - (zszz[k - 1] * c2)) / h
                    t = t * bz[i, j, k]
                    v = v + (t * dt)
                    vz[i, j, k] = v


def _stress_impl(vx, vy, vz, sxx, syy, szz, sxy, sxz, syz,
                 lam, lam2mu, mu_xy, mu_xz, mu_yz, hist, tab, wts, c1, c2, h,
                 x0, x1, y0, y1, nslab, nsave, nblend):
    # as _velocity_impl with the roles swapped: saves sxz/syz/szz, reads
    # vx/vy/vz through the z columns
    bands = nsave + nblend > 0
    for i in prange(x0, x1):
        col = np.empty((3, vx.shape[2]), vx.dtype)
        for j in range(y0, y1):
            hrow = hist[i - G, j - G] if bands else hist[0, 0]
            _save_bands(hrow, sxz[i, j], syz[i, j], szz[i, j], tab, nslab,
                        nsave)
            for s in range(nslab):
                z0 = tab[2 * s]
                z1 = tab[2 * s + 1]
                dt = wts[s]
                zvx = vx[i, j]
                zvy = vy[i, j]
                zvz = vz[i, j]
                if _blend_columns(hrow, zvx, zvy, zvz, col, tab, wts,
                                  nslab, nsave, nblend, s, z0, z1):
                    zvx = col[0]
                    zvy = col[1]
                    zvz = col[2]
                for k in range(z0, z1):
                    # Normal stresses share bwd d/dx vx, d/dy vy, d/dz vz.
                    dvx = ((((vx[i, j, k] * c1) - (vx[i - 1, j, k] * c1))
                            + (vx[i + 1, j, k] * c2))
                           - (vx[i - 2, j, k] * c2)) / h
                    dvy = ((((vy[i, j, k] * c1) - (vy[i, j - 1, k] * c1))
                            + (vy[i, j + 1, k] * c2))
                           - (vy[i, j - 2, k] * c2)) / h
                    dvz = ((((zvz[k] * c1) - (zvz[k - 1] * c1))
                            + (zvz[k + 1] * c2))
                           - (zvz[k - 2] * c2)) / h
                    l2m = lam2mu[i, j, k]
                    lm = lam[i, j, k]
                    sxx[i, j, k] = sxx[i, j, k] + (
                        (((dvx * l2m) + (dvy * lm)) + (dvz * lm)) * dt)
                    syy[i, j, k] = syy[i, j, k] + (
                        (((dvx * lm) + (dvy * l2m)) + (dvz * lm)) * dt)
                    szz[i, j, k] = szz[i, j, k] + (
                        (((dvx * lm) + (dvy * lm)) + (dvz * l2m)) * dt)
                    # sxy: fwd d/dx vy + fwd d/dy vx, scaled by mu_xy
                    t = ((((vy[i + 1, j, k] * c1) - (vy[i, j, k] * c1))
                          + (vy[i + 2, j, k] * c2))
                         - (vy[i - 1, j, k] * c2)) / h
                    t = t * mu_xy[i, j, k]
                    u = ((((vx[i, j + 1, k] * c1) - (vx[i, j, k] * c1))
                          + (vx[i, j + 2, k] * c2))
                         - (vx[i, j - 1, k] * c2)) / h
                    u = u * mu_xy[i, j, k]
                    sxy[i, j, k] = sxy[i, j, k] + ((t + u) * dt)
                    # sxz: fwd d/dx vz + fwd d/dz vx, scaled by mu_xz
                    t = ((((vz[i + 1, j, k] * c1) - (vz[i, j, k] * c1))
                          + (vz[i + 2, j, k] * c2))
                         - (vz[i - 1, j, k] * c2)) / h
                    t = t * mu_xz[i, j, k]
                    u = ((((zvx[k + 1] * c1) - (zvx[k] * c1))
                          + (zvx[k + 2] * c2))
                         - (zvx[k - 1] * c2)) / h
                    u = u * mu_xz[i, j, k]
                    sxz[i, j, k] = sxz[i, j, k] + ((t + u) * dt)
                    # syz: fwd d/dy vz + fwd d/dz vy, scaled by mu_yz
                    t = ((((vz[i, j + 1, k] * c1) - (vz[i, j, k] * c1))
                          + (vz[i, j + 2, k] * c2))
                         - (vz[i, j - 1, k] * c2)) / h
                    t = t * mu_yz[i, j, k]
                    u = ((((zvy[k + 1] * c1) - (zvy[k] * c1))
                          + (zvy[k + 2] * c2))
                         - (zvy[k - 1] * c2)) / h
                    u = u * mu_yz[i, j, k]
                    syz[i, j, k] = syz[i, j, k] + ((t + u) * dt)


def _damp_impl(vx, vy, vz, sxx, syy, szz, sxy, sxz, syz,
               taper, rowfull, k0, ka, kb):
    nx, ny, nk = taper.shape
    for i in prange(nx):
        for j in range(ny):
            p = i + G
            q = j + G
            # frame rows run every plane, the others only the z frame
            # [0, ka) + [kb, nk): x * 1.0 == x, so skipping is exact
            full = rowfull[i, j] != 0
            for seg in range(2):
                if seg == 0:
                    lo = 0
                    hi = nk if full else ka
                else:
                    lo = nk if full else kb
                    hi = nk
                for k in range(lo, hi):
                    t = taper[i, j, k]
                    r = k0 + k
                    vx[p, q, r] = vx[p, q, r] * t
                    vy[p, q, r] = vy[p, q, r] * t
                    vz[p, q, r] = vz[p, q, r] * t
                    sxx[p, q, r] = sxx[p, q, r] * t
                    syy[p, q, r] = syy[p, q, r] * t
                    szz[p, q, r] = szz[p, q, r] * t
                    sxy[p, q, r] = sxy[p, q, r] * t
                    sxz[p, q, r] = sxz[p, q, r] * t
                    syz[p, q, r] = syz[p, q, r] * t


def _fs_velocity_impl(vx, vy, vz, lam, lam2mu, zero, two, kt):
    npx, npy, _ = vx.shape
    # horizontal ghosts first: the vz ghost below differences them
    for i in prange(npx):
        for j in range(npy):
            dzx = zero
            if i + 1 < npx:
                dzx = vz[i + 1, j, kt] - vz[i, j, kt]
            dzy = zero
            if j + 1 < npy:
                dzy = vz[i, j + 1, kt] - vz[i, j, kt]
            vx[i, j, kt + 1] = vx[i, j, kt] - dzx
            vy[i, j, kt + 1] = vy[i, j, kt] - dzy
    for i in prange(npx):
        for j in range(npy):
            # horiz_div(kt+1), horiz_div(kt): zeros, then `+=` per axis
            d1 = zero
            d0 = zero
            if i > 0:
                d1 = d1 + (vx[i, j, kt + 1] - vx[i - 1, j, kt + 1])
                d0 = d0 + (vx[i, j, kt] - vx[i - 1, j, kt])
            if j > 0:
                d1 = d1 + (vy[i, j, kt + 1] - vy[i, j - 1, kt + 1])
                d0 = d0 + (vy[i, j, kt] - vy[i, j - 1, kt])
            ratio = lam[i, j, kt] / lam2mu[i, j, kt]
            vz[i, j, kt + 1] = (((two * vz[i, j, kt]) - vz[i, j, kt - 1])
                                - (ratio * (d1 + d0)))


def _fs_stress_impl(sxz, syz, szz, zero, kt):
    npx, npy, _ = sxz.shape
    for i in prange(npx):
        for j in range(npy):
            sxz[i, j, kt] = zero
            syz[i, j, kt] = zero
            sxz[i, j, kt + 1] = -sxz[i, j, kt - 1]
            syz[i, j, kt + 1] = -syz[i, j, kt - 1]
            sxz[i, j, kt + 2] = -sxz[i, j, kt - 2]
            syz[i, j, kt + 2] = -syz[i, j, kt - 2]
            szz[i, j, kt + 1] = -szz[i, j, kt]
            szz[i, j, kt + 2] = -szz[i, j, kt - 1]


_IMPLS = {"velocity": _velocity_impl, "stress": _stress_impl,
          "damp": _damp_impl,
          "fs_velocity": _fs_velocity_impl, "fs_stress": _fs_stress_impl}

#: op name -> dispatcher, single-threaded and ``prange``-threaded builds
SERIAL = {name: njit(cache=True)(fn) for name, fn in _IMPLS.items()}
PARALLEL = {name: njit(cache=True, parallel=True)(fn)
            for name, fn in _IMPLS.items()}
