"""Compiled fused stencil kernels (``kernel_variant="compiled"``).

The pooled numpy kernels (:mod:`repro.core.kernels`) are allocation-free but
still traverse memory once per ufunc: one velocity component costs ~15 whole-
array passes.  The paper's single-CPU story (Section IV.B) is built on *fused*
sweeps — every term of the update evaluated per cell in one pass so operands
stay in registers/cache.  This module provides that backend behind the
existing kernel-variant switch, as a tiny C extension (the ``cbuild``
provider) generated from the *same* operator tables the numpy kernels use
(:data:`~repro.core.kernels._VEL_TERMS` et al.), compiled with the system C
compiler for the host's ISA (``-O3 -march=native -ffp-contract=off``, without
``-march=native`` where the compiler rejects it, ``-fopenmp`` for the
threaded build) into a shared library under a JIT cache addressed by source,
compiler version, flags and target ISA, and bound via ``ctypes``.

The generated code is one *scalar expression tree per cell* that replays
the pooled kernels' exact ufunc sequence (each derivative as
``((f[+1] - f[0]) * c1) + ((f[+2] - f[-1]) * c2)``, ``t*dt`` increments
added sequentially), with floating-point contraction disabled, so results
are **bitwise identical** to the pooled kernels at both precisions — the
same aVal invariant every other optimization layer holds.  The cells
multiply only: ``1/h`` is folded into ``c1 = (real)(C1 / h_in)`` and
``c2``, computed once per sweep in double and rounded once to the field
dtype, exactly as numpy rounds the python-float coefficients of
:func:`repro.core.fd.diff_span`.  No flag lets the compiler change a
value, so the vector ISA it targets changes only how many cells one
instruction updates.
Velocity updates read only stresses and stress updates read only
velocities, so fusing all components into one pass (and splitting the pass
over threads or regions) cannot change any cell's result.

Each half has ONE entry point and ONE loop nest, driven by a *slab table*:
``KernelSet.vel``/``.stress`` bind a padded x/y box and a list of k-slabs
``(z0, z1, dt)`` and return the callable that visits every (i, j) row of the
box once, updating each slab's k-range with that slab's ``dt``.  Global dt
and the IV.C core/shell region boxes are the one-slab, no-band case — the
same per-row k-loop, its single table entry read once ahead of the row loops
(re-reading it per row cost 4 % of a 64x64x32 sweep) — so there is no
second, "plain" sweep to keep in step.  Clustered LTS
(:mod:`repro.core.lts`) is the many-slab case: one call per half-step covers
every active rate group, and the interface correction happens *inside the
row visit* instead of as whole-plane gather / blend / scatter passes around
per-group sweeps (k is the contiguous axis, so each of those passes paid a
cache line of every array on every row for two planes of work):

* the band planes an updating group owns are copied into the band history
  (``lts._Band.save_prev``) before the row is updated;
* a slab whose neighbour is at another time level reads its z taps from a
  row-private copy of the three band fields' z columns, in which the
  neighbour's two band planes hold ``(now*w) + (history*(1-w))``
  (``_Band.apply``; both weights cast to the field dtype first — what NEP-50
  numpy does with a python float).

Per-row correction is exactly the whole-plane one because a band plane lies
in the *neighbour's* slab and is reached only through z taps, which stay in
the row; the x/y taps of an update read planes of its own slab.  The blend
goes into the private column rather than the field because other rows'
x/y taps (the neighbour group's own update, possibly on another thread)
read those very planes un-interpolated — nothing is written to a field the
half reads, so there is nothing to restore and rows stay independent.

The same :class:`KernelSet` carries the per-step operators that run between
the sweeps, so a compiled step leaves no whole-array numpy pass behind.  Each
is bitwise identical to the numpy body it stands in for (which stays in
place as the reference the pooled variant runs), for one reason per
operator:

``damp`` (:class:`~repro.core.boundary.SpongeLayer` ``apply``/``apply_slab``)
    One pass over the nine fields that visits only the sponge *frame*
    (:func:`~repro.core.boundary.sponge_frame`, a cover of ``taper != 1``
    read off the taper itself).  Visited cells do the numpy multiply;
    skipped cells have ``taper == 1.0`` and ``x * 1.0 == x`` for every float.
``fs_velocity`` / ``fs_stress`` (:class:`~repro.core.boundary.FreeSurfaceFS2`)
    The ~30 strided plane ufuncs as one (i, j) loop each, every expression
    parenthesised in numpy's evaluation order — including the ``0.0 + d``
    of ``zeros(); d[1:] += ...`` that turns a ``-0.0`` difference positive.
    The vertical ghost differences the horizontal ghosts of its row and of
    the rows at ``i-1`` and ``j-1``; it recomputes the neighbours' from
    interior values with the same expressions instead of reading them, so
    no row reads another's writes.  The plane's ``lam / lam2mu`` ratio is
    divided once, at bind.

Rows are independent in all of them, so the threaded (``compiled_parallel``)
builds stay bitwise too.  Operators are *bound*: ``kernels.damp(...)`` checks
its arrays once and returns the callable to run each step, with every
pointer (and, for a sweep, the whole plan: slab table, band slots, weights)
already extracted.

Fallback contract: when the provider is unavailable, solvers warn **once**
(``RuntimeWarning``) and run ``pooled`` — which the equivalence matrix runs
under ``warnings.simplefilter("error")``, so a silent fallback fails the
cell rather than vacuously passing (mirroring the procpool→SimMPI fallback).

Environment knobs:

``REPRO_COMPILED_PROVIDER``
    ``cbuild`` (the default) | ``none`` — ``none`` disables compiled kernels
    entirely, forcing the fallback path (used in tests).
``REPRO_JIT_CACHE``
    Cache directory for the cbuild shared libraries (default
    ``~/.cache/repro-jit``), which also holds each host's target probe;
    safe to share between hosts of different ISAs.
``CC``
    C compiler for the cbuild provider (default: first of ``cc``, ``gcc``,
    ``clang`` on ``PATH``).
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import struct
import subprocess
import time
from functools import cache, partial

import numpy as np

from .fd import C1, C2, NGHOST
from .grid import ALL_FIELDS, STRESS_FIELDS, VELOCITY_FIELDS, WaveField
from .kernels import (_SHEAR_MOD, _SHEAR_TERMS, _VEL_BUOYANCY, _VEL_TERMS,
                      VelocityStressKernel)
from .medium import Medium

__all__ = [
    "CompiledUnavailable",
    "FusedStepper",
    "FusedRegionStepper",
    "compiled_available",
    "ensure_available",
    "get_kernels",
    "jit_cache_dir",
]

#: The compiled-kernel provider: generated C built by the system compiler.
PROVIDER = "cbuild"

#: Medium arrays every fused kernel reads.
_MEDIUM_FIELDS = ("bx", "by", "bz", "lam", "lam2mu",
                  "mu_xy", "mu_xz", "mu_yz")


class CompiledUnavailable(RuntimeError):
    """The compiled-kernel provider cannot run on this host."""


# ----------------------------------------------------------------------
# Provider detection
# ----------------------------------------------------------------------
def jit_cache_dir() -> str:
    """Cache directory for cbuild shared libraries."""
    return os.environ.get("REPRO_JIT_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-jit")


def _find_cc() -> str | None:
    cc = os.environ.get("CC")
    if cc:
        return cc if os.path.sep in cc and os.path.exists(cc) \
            else shutil.which(cc)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def ensure_available() -> None:
    """Raise CompiledUnavailable unless the provider looks usable.

    This is a cheap presence probe (``REPRO_COMPILED_PROVIDER``, a compiler
    on PATH); the actual JIT happens lazily in :func:`get_kernels`, whose
    failures also raise :class:`CompiledUnavailable` so callers hit one
    fallback path.
    """
    override = os.environ.get("REPRO_COMPILED_PROVIDER", "").strip().lower()
    if override in ("none", "off", "0"):
        raise CompiledUnavailable(
            "compiled kernels disabled by REPRO_COMPILED_PROVIDER")
    if override not in ("", PROVIDER):
        raise CompiledUnavailable(
            f"unknown REPRO_COMPILED_PROVIDER={override!r} "
            f"(expected {PROVIDER!r} or 'none')")
    if _find_cc() is None:
        raise CompiledUnavailable(
            f"{PROVIDER}: no C compiler on PATH (cc/gcc/clang) and CC unset")


def compiled_available() -> bool:
    """Whether the compiled-kernel provider looks usable on this host."""
    try:
        ensure_available()
        return True
    except CompiledUnavailable:
        return False


# ----------------------------------------------------------------------
# C source generation (cbuild provider)
# ----------------------------------------------------------------------
# The generators below emit one scalar expression tree per cell derived from
# the SAME operator tables the numpy kernels iterate (_VEL_TERMS etc.), so
# the two formulations cannot drift apart.  Parenthesisation fixes the
# association order to the pooled ufunc sequence; -ffp-contract=off stops
# the compiler fusing `a*b + c` into an FMA (gcc defaults to contract=fast,
# which would change low-order bits).

_STRIDES = ("si", "sj")


def _c_tap(field: str, axis: int, d: int) -> str:
    """The value ``d`` cells from the current one along ``axis``.

    x/y taps index the field itself at ``q +- d*stride``; z taps index the
    row's z column ``z<field>`` at plane ``k +- d`` — the field's own row, or
    a row-private copy carrying time-interpolated band planes.
    """
    name, at, stride = ((f"z{field}", "k", "1") if axis == 2
                        else (field, "q", _STRIDES[axis]))
    if d == 0:
        return f"{name}[{at}]"
    mag = abs(d)
    term = str(mag) if stride == "1" else \
        (stride if mag == 1 else f"{mag}*{stride}")
    return f"{name}[{at} {'+' if d > 0 else '-'} {term}]"


def _c_deriv(field: str, axis: int, dirn: str) -> str:
    """The 4th-order staggered derivative as one parenthesised expression.

    Matches the in-place sequence of :func:`repro.core.fd.diff_span`:
    ``((p_a - p_b) * c1) + ((p_c - p_d) * c2)``, where ``c1``/``c2`` are
    the sweep's ``(real)(C1 / h_in)``/``(real)(C2 / h_in)`` — 1/h folded
    into the coefficients in double, rounded once to the field dtype.
    """
    taps = (1, 0, 2, -1) if dirn == "f" else (0, -1, 1, -2)
    a, b, c, d = (_c_tap(field, axis, t) for t in taps)
    return f"(({a} - {b}) * c1) + (({c} - {d}) * c2)"


def _c_velocity_body() -> str:
    lines: list[str] = []
    for comp in ("vx", "vy", "vz"):
        buoy = _VEL_BUOYANCY[comp]
        lines.append(f"v = {comp}[q];")
        for axis, sname, dirn in _VEL_TERMS[comp]:
            lines.append(f"t = {_c_deriv(sname, axis, dirn)};")
            lines.append(f"t = t * {buoy}[q];")
            lines.append("v = v + (t * dt);")
        lines.append(f"{comp}[q] = v;")
    return "\n        ".join(lines)


def _c_stress_body() -> str:
    lines = [
        f"dvx = {_c_deriv('vx', 0, 'b')};",
        f"dvy = {_c_deriv('vy', 1, 'b')};",
        f"dvz = {_c_deriv('vz', 2, 'b')};",
        "l2m = lam2mu[q];",
        "l = lam[q];",
        "sxx[q] = sxx[q] + ((((dvx * l2m) + (dvy * l)) + (dvz * l)) * dt);",
        "syy[q] = syy[q] + ((((dvx * l) + (dvy * l2m)) + (dvz * l)) * dt);",
        "szz[q] = szz[q] + ((((dvx * l) + (dvy * l)) + (dvz * l2m)) * dt);",
    ]
    for comp in ("sxy", "sxz", "syz"):
        mod = _SHEAR_MOD[comp]
        (a0, v0, _), (a1, v1, _) = _SHEAR_TERMS[comp]
        lines += [
            f"t = {_c_deriv(v0, a0, 'f')};",
            f"t = t * {mod}[q];",
            f"u = {_c_deriv(v1, a1, 'f')};",
            f"u = u * {mod}[q];",
            f"{comp}[q] = {comp}[q] + ((t + u) * dt);",
        ]
    return "\n        ".join(lines)


def _c_ptrs(names, const: bool = False) -> str:
    """``real *restrict a, real *restrict b, ...`` parameter list."""
    qual = "const {real} *restrict " if const else "{real} *restrict "
    return ", ".join(qual + n for n in names)


#: the fields whose z taps cross a rate-group interface (the band trios of
#: :mod:`repro.core.lts`), in band-history slot order
_BAND_TRIO = {VELOCITY_FIELDS: VELOCITY_FIELDS,
              STRESS_FIELDS: ("sxz", "syz", "szz")}


def _c_lines(indent: int, template: str, names) -> str:
    """``template`` once per name (``{n}`` index, ``{f}`` name), indented."""
    return "\n".join(" " * indent + template.format(n=n, f=f)
                     for n, f in enumerate(names))


def _c_sweep(name: str, own, read, coeffs, temps: str, body: str,
             real: str, suf: str) -> str:
    """One half-step: the ``own`` fields advanced from the ``read`` fields.

    Each (i, j) row of the box is visited once.  Inside the visit the band
    planes listed in ``save`` are copied into the history, then every slab's
    k-range is updated with that slab's ``dt`` against the z columns
    ``z<field>`` of the read band trio — the field's own row, or, for a slab
    with ``blend`` entries, a row-private copy whose band planes hold
    ``(now*w) + (history*(1-w))``.  The read fields themselves are never
    written: other rows' x/y taps read those very planes.
    """
    zread = _BAND_TRIO[read]
    zcols = ["z" + f for f in zread]
    ptrs = lambda names, const=False: _c_ptrs(names, const).format(real=real)
    row_params = ",\n    ".join([
        ptrs(own), ptrs((*read, *coeffs), const=True),
        ptrs(zcols, const=True),
        f"const {real} c1, const {real} c2, const {real} dt",
        "const long si, const long sj, const long row, "
        "const long z0, const long z1"])
    params = ",\n    ".join([
        ptrs(VELOCITY_FIELDS, const=own is not VELOCITY_FIELDS),
        ptrs(STRESS_FIELDS, const=own is not STRESS_FIELDS),
        ptrs(coeffs, const=True),
        f"{real} *restrict hist, const long *restrict tab, "
        "const double *restrict wts",
        "const double h_in, const long npy, const long npz",
        "const long hny, const long nslot, const long nb",
        "const long x0, const long x1, const long y0, const long y1",
        "const long nslab, const long nsave, const long nblend"])
    return f"""\
static inline void {name}_row_{suf}(
    {row_params})
{{
    for (long k = z0; k < z1; ++k) {{
        const long q = row + k;
        {real} {temps};
        {body}
    }}
}}

void fused_{name}_{suf}(
    {params})
{{
    const {real} c1 = ({real})({C1!r} / h_in);
    const {real} c2 = ({real})({C2!r} / h_in);
    const long si = npy * npz;
    const long sj = npz;
    const long *saves = tab + 2 * nslab;
    const long *blends = saves + 2 * nsave;
    const double *bw = wts + nslab;
    /* global dt / a region box: one slab, no bands.  Its table entries are
       read here, once, so that case looks nothing up per row. */
    const int plain = nslab == 1 && nsave + nblend == 0;
    const long pz0 = plain ? tab[0] : 0, pz1 = plain ? tab[1] : 0;
    const {real} pdt = plain ? ({real})wts[0] : 0;
#pragma omp parallel for schedule(static)
    for (long i = x0; i < x1; ++i) {{
        {real} col[3 * npz];        /* this thread's blended z columns */
        for (long j = y0; j < y1; ++j) {{
            const long row = i * si + j * sj;
            if (plain) {{
                {name}_row_{suf}(
                    {", ".join((*own, *read, *coeffs))},
                    {", ".join(f + " + row" for f in zread)},
                    c1, c2, pdt, si, sj, row, pz0, pz1);
                continue;
            }}
            {real} *hrow = hist ? hist + ((i - {NGHOST}) * hny
                                        + (j - {NGHOST})) * nslot * nb : 0;
            for (long s = 0; s < nsave; ++s) {{
                {real} *p = hrow + saves[2 * s] * nb;
                const long q = row + saves[2 * s + 1];
                for (long b = 0; b < nb; ++b) {{
{_c_lines(20, "p[{n} * nb + b] = {f}[q + b];", _BAND_TRIO[own])}
                }}
            }}
            for (long s = 0; s < nslab; ++s) {{
                const long z0 = tab[2 * s], z1 = tab[2 * s + 1];
{_c_lines(16, f"const {real} *z{{f}} = {{f}} + row;", zread)}
                for (long m = 0; m < nblend; ++m) {{
                    if (blends[3 * m] != s)
                        continue;
                    if ({zcols[0]} != col) {{
                        for (long k = z0 - {NGHOST}; k < z1 + {NGHOST}; ++k) {{
{_c_lines(28, "col[{n} * npz + k] = {f}[row + k];", zread)}
                        }}
{_c_lines(24, "z{f} = col + {n} * npz;", zread)}
                    }}
                    const {real} *p = hrow + blends[3 * m + 1] * nb;
                    const long k0 = blends[3 * m + 2];
                    const {real} w = ({real})bw[2 * m];
                    const {real} omw = ({real})bw[2 * m + 1];
                    for (long b = 0; b < nb; ++b) {{
{_c_lines(24, "col[{n} * npz + k0 + b] = ({f}[row + k0 + b] * w)"
              " + (p[{n} * nb + b] * omw);", zread)}
                    }}
                }}
                {name}_row_{suf}(
                    {", ".join((*own, *read, *coeffs, *zcols))},
                    c1, c2, ({real})wts[s], si, sj, row, z0, z1);
            }}
        }}
    }}
}}
"""


def _c_sweeps(real: str, suf: str) -> str:
    """Both half-step sweeps at one precision."""
    return "\n".join([
        _c_sweep("velocity", VELOCITY_FIELDS, STRESS_FIELDS,
                 ("bx", "by", "bz"), "t, v", _c_velocity_body(), real, suf),
        _c_sweep("stress", STRESS_FIELDS, VELOCITY_FIELDS,
                 ("lam", "lam2mu", "mu_xy", "mu_xz", "mu_yz"),
                 "t, u, dvx, dvy, dvz, l, l2m", _c_stress_body(), real, suf)])


# The plane operators walk one k-plane: consecutive rows sit a whole
# k-column apart, a stride the hardware prefetcher follows poorly, so they
# ask for the cache line PF_ROWS rows ahead (a hint: running past the end of
# an array cannot fault).
_C_PREAMBLE = """\
#if defined(__GNUC__) || defined(__clang__)
#define PREFETCH_R(p) __builtin_prefetch((p), 0)
#define PREFETCH_W(p) __builtin_prefetch((p), 1)
#else
#define PREFETCH_R(p) ((void)0)
#define PREFETCH_W(p) ((void)0)
#endif
#define PF_ROWS 24

"""


# The per-step operators around the sweeps.  Each replays its numpy
# reference (boundary.SpongeLayer / FreeSurfaceFS2) cell by cell
# in the same association order; see the module docstring for why the
# frame-only damp is exact.
_C_OPS_TEMPLATE = """\
static inline void damp_run_{suf}({real} *restrict f,
                                  const {real} *restrict t,
                                  const long k0, const long k1)
{{
    for (long k = k0; k < k1; ++k)
        f[k] = f[k] * t[k];
}}

void damp_{suf}(
    """ + _c_ptrs(ALL_FIELDS) + """,
    const {real} *restrict taper, const unsigned char *restrict rowfull,
    const long npy, const long npz,
    const long nx, const long ny, const long nk,
    const long k0, const long ka, const long kb)
{{
    {real} *const fields[] = {{""" + ", ".join(ALL_FIELDS) + """}};
    const long si = npy * npz;
    const long sj = npz;
#pragma omp parallel for schedule(static)
    for (long i = 0; i < nx; ++i) {{
        for (long j = 0; j < ny; ++j) {{
            const long row = (i + {g}) * si + (j + {g}) * sj + k0;
            const {real} *t = taper + (i * ny + j) * nk;
            const int full = rowfull[i * ny + j];
            for (int c = 0; c < """ + str(len(ALL_FIELDS)) + """; ++c) {{
                {real} *f = fields[c] + row;
                if (full) {{
                    damp_run_{suf}(f, t, 0, nk);
                }} else {{
                    damp_run_{suf}(f, t, 0, ka);
                    damp_run_{suf}(f, t, kb, nk);
                }}
            }}
        }}
    }}
}}

void fs_velocity_{suf}(
    {real} *restrict vx, {real} *restrict vy, {real} *restrict vz,
    const {real} *restrict ratio,
    const long npx, const long npy, const long npz, const long kt)
{{
    const long si = npy * npz;
    const long sj = npz;
    /* The vz ghost differences the horizontal ghosts of (i, j), (i-1, j)
       and (i, j-1).  The neighbours' are recomputed here from interior
       values with their own expressions, so no row reads another's
       writes and one pass does all three ghost planes. */
#pragma omp parallel for schedule(static)
    for (long i = 0; i < npx; ++i) {{
        for (long j = 0; j < npy; ++j) {{
            const long q = i * si + j * sj + kt;
            PREFETCH_W(vx + q + PF_ROWS * sj);
            PREFETCH_W(vy + q + PF_ROWS * sj);
            PREFETCH_W(vz + q + PF_ROWS * sj);
            const {real} gx = vx[q] - ((i + 1 < npx) ? vz[q + si] - vz[q]
                                                     : ({real})0.0);
            const {real} gy = vy[q] - ((j + 1 < npy) ? vz[q + sj] - vz[q]
                                                     : ({real})0.0);
            /* horiz_div(kt+1), horiz_div(kt): zeros, then `+=` per axis */
            {real} d1 = ({real})0.0, d0 = ({real})0.0;
            if (i > 0) {{
                d1 = d1 + (gx - (vx[q - si] - (vz[q] - vz[q - si])));
                d0 = d0 + (vx[q] - vx[q - si]);
            }}
            if (j > 0) {{
                d1 = d1 + (gy - (vy[q - sj] - (vz[q] - vz[q - sj])));
                d0 = d0 + (vy[q] - vy[q - sj]);
            }}
            vx[q + 1] = gx;
            vy[q + 1] = gy;
            vz[q + 1] = ((({real})2.0 * vz[q]) - vz[q - 1])
                        - (ratio[i * npy + j] * (d1 + d0));
        }}
    }}
}}

void fs_stress_{suf}(
    {real} *restrict sxz, {real} *restrict syz, {real} *restrict szz,
    const long npx, const long npy, const long npz, const long kt)
{{
#pragma omp parallel for schedule(static)
    for (long r = 0; r < npx * npy; ++r) {{
        const long q = r * npz + kt;
        PREFETCH_W(sxz + q + PF_ROWS * npz);
        PREFETCH_W(syz + q + PF_ROWS * npz);
        PREFETCH_W(szz + q + PF_ROWS * npz);
        sxz[q] = ({real})0.0;
        syz[q] = ({real})0.0;
        sxz[q + 1] = -sxz[q - 1];
        syz[q + 1] = -syz[q - 1];
        sxz[q + 2] = -sxz[q - 2];
        syz[q + 2] = -syz[q - 2];
        szz[q + 1] = -szz[q];
        szz[q + 2] = -szz[q - 1];
    }}
}}

"""


def _c_source() -> str:
    """The full generated C translation unit (both dtypes)."""
    units = [_c_sweeps(real, suf)
             + "\n" + _C_OPS_TEMPLATE.format(real=real, suf=suf, g=NGHOST)
             for real, suf in (("double", "f64"), ("float", "f32"))]
    return ("/* generated by repro.core.compiled — fused velocity/stress\n"
            "   sweeps and per-step operators replaying the numpy ufunc\n"
            "   order exactly. */\n\n" + _C_PREAMBLE + "\n".join(units))


def _truncated(path: str) -> bool:
    """Whether the ELF object at ``path`` is cut short: the section-header
    table the linker writes last must end inside the file.  ``dlopen`` of a
    truncated object can fault (SIGBUS) instead of raising, so this is
    checked before loading; a non-ELF file is left to ``dlopen`` to refuse.
    """
    with open(path, "rb") as f:
        head = f.read(64)
        size = os.fstat(f.fileno()).st_size
    if len(head) < 64 or head[:4] != b"\x7fELF":
        return False
    order = "<" if head[5] == 1 else ">"
    if head[4] == 2:    # ELF64
        (shoff,) = struct.unpack_from(order + "Q", head, 0x28)
        entsize, count = struct.unpack_from(order + "HH", head, 0x3A)
    else:               # ELF32
        (shoff,) = struct.unpack_from(order + "I", head, 0x20)
        entsize, count = struct.unpack_from(order + "HH", head, 0x2E)
    return size < shoff + entsize * count


def _probe_target(cc: str) -> tuple[str, tuple[str, ...], str]:
    """Ask ``cc`` what it builds for here: ``(version, flags, signature)``.

    ``version`` is the ``--version`` output; ``flags`` is
    ``("-march=native",)``, or ``()`` (the baseline ISA) when the compiler
    rejects it; ``signature`` hashes the sorted predefined macros under
    those flags, which name every ISA extension the build may use.
    """
    run = partial(subprocess.run, capture_output=True, text=True)
    version = run([cc, "--version"]).stdout
    for flags in (("-march=native",), ()):
        probe = run([cc, *flags, "-dM", "-E", "-x", "c", os.devnull])
        if probe.returncode == 0:
            break
    macros = "\n".join(sorted(probe.stdout.splitlines()))
    return version, flags, hashlib.sha256(macros.encode()).hexdigest()


@cache
def _cc_target(cc: str) -> tuple[str, tuple[str, ...], str, str]:
    """:func:`_probe_target` of ``cc`` plus its label ``target``:
    ``native:<8 hex of the signature>`` or ``baseline``.

    Resolved at the first compiled build of a process (never at import)
    and memoized per host in the JIT cache, so a warm process runs no
    compiler at all: a spawned child costs ~10 ms, and Linux charges it the
    parent's peak resident set in ``ru_maxrss``.  The memo is keyed by what
    the probe's answer depends on, read without running anything: the
    compiler binary, the kernel's ``uname`` and the CPU's ISA flags.
    """
    st = os.stat(cc)
    try:
        with open("/proc/cpuinfo") as f:
            isa = sorted({ln for ln in f
                          if ln.startswith(("flags", "Features"))})
    except OSError:
        isa = []
    host = repr((os.path.realpath(cc), st.st_size, st.st_mtime_ns,
                 tuple(os.uname()), isa))
    memo = os.path.join(jit_cache_dir(), "target_"
                        + hashlib.sha256(host.encode()).hexdigest()[:16])
    try:
        with open(memo) as f:
            version, flags, signature = json.load(f)
        flags = tuple(flags)
    except (OSError, ValueError, TypeError):
        version, flags, signature = _probe_target(cc)
        try:    # best effort: a read-only cache still serves its libraries
            os.makedirs(os.path.dirname(memo), exist_ok=True)
            with open(memo + f".tmp{os.getpid()}", "w") as f:
                json.dump([version, flags, signature], f)
            os.replace(f.name, memo)    # atomic under concurrent probes
        except OSError:
            pass
    return (version, flags, signature,
            f"native:{signature[:8]}" if flags else "baseline")


def _cbuild_recipe(parallel: bool) -> tuple[str, list[str], str, str]:
    """``(cc, flags, source, library path)`` of one build.

    The cache is content-addressed: the source, the compiler's
    ``--version``, the flags and the target signature hash to the library
    filename, so editing the generators, upgrading the compiler or sharing
    the cache with a host of another ISA never loads a stale entry.
    """
    cc = _find_cc()
    if cc is None:
        raise CompiledUnavailable(
            "no C compiler on PATH (cc/gcc/clang) and CC unset")
    version, target, signature, _ = _cc_target(cc)
    source = _c_source()
    # -ffp-contract=off and no value-changing math flag: bitwise == pooled
    flags = ["-O3", *target, "-ffp-contract=off", "-fPIC", "-shared"]
    if parallel:
        flags.append("-fopenmp")
    digest = hashlib.sha256("\0".join(
        [source, version, " ".join(flags), signature]).encode()).hexdigest()
    return (cc, flags, source,
            os.path.join(jit_cache_dir(), f"fused_{digest[:16]}.so"))


def _cbuild_library(parallel: bool) -> tuple[ctypes.CDLL, float, bool]:
    """Compile (or reuse) the shared library for this host's ISA; returns
    ``(lib, secs, cache_hit)``.

    An entry that exists but does not load (a torn write, a truncated file)
    is rebuilt once in place; a rebuilt library that still does not load
    raises.
    """
    cc, flags, source, so_path = _cbuild_recipe(parallel)
    if os.path.exists(so_path) and not _truncated(so_path):
        try:
            return ctypes.CDLL(so_path), 0.0, True
        except OSError:
            pass
    os.makedirs(os.path.dirname(so_path), exist_ok=True)
    c_path = so_path[:-3] + ".c"
    with open(c_path, "w") as f:
        f.write(source)
    tmp_path = so_path + f".tmp{os.getpid()}"
    t0 = time.perf_counter()
    proc = subprocess.run([cc, *flags, "-o", tmp_path, c_path],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise CompiledUnavailable(
            f"C compilation failed ({cc}): {proc.stderr.strip()[-500:]}")
    os.replace(tmp_path, so_path)  # atomic under concurrent builders
    return ctypes.CDLL(so_path), elapsed, False


#: ctypes signatures of the generated entry points, in C parameter order:
#: ``p`` array pointer, ``d`` double, ``l`` long.
_C_SIGNATURES = {
    "fused_velocity": "p" * 15 + "d" + "l" * 12,
    "fused_stress": "p" * 17 + "d" + "l" * 12,
    "damp": "p" * (len(ALL_FIELDS) + 2) + "l" * 8,
    "fs_velocity": "p" * 4 + "l" * 4,
    "fs_stress": "p" * 3 + "l" * 4,
}

_C_TYPES = {"p": ctypes.c_void_p, "d": ctypes.c_double, "l": ctypes.c_long}


def _sweep_tables(slabs, save, blend):
    """A sweep plan flattened for the C entry points: ``(tab, wts, counts)``.

    ``tab`` (C long): ``z0, z1`` per slab, ``slot, k0`` per saved band,
    ``slab, slot, k0`` per blended band; ``wts`` (double): ``dt`` per slab,
    then ``w, 1-w`` per blended band — cast to the field dtype by the kernel,
    which is what NEP-50 numpy does with a python float.
    """
    tab = [z for z0, z1, _ in slabs for z in (z0, z1)]
    tab += [v for band in save for v in band]
    tab += [v for s, slot, k0, _ in blend for v in (s, slot, k0)]
    wts = [dt for _, _, dt in slabs]
    wts += [v for *_, w in blend for v in (w, 1.0 - w)]
    return (np.array(tab, dtype=ctypes.c_long),
            np.array(wts, dtype=np.float64),
            (len(slabs), len(save), len(blend)))


def _cbuild_kernels(dtype: np.dtype, parallel: bool):
    lib, compile_s, cache_hit = _cbuild_library(parallel)
    suf = "f64" if dtype == np.float64 else "f32"
    fn = {}
    for name, sig in _C_SIGNATURES.items():
        f = getattr(lib, f"{name}_{suf}")
        f.restype = None
        f.argtypes = [_C_TYPES[c] for c in sig]
        fn[name] = f

    def frozen(cfn, arrays, *tail):
        """``cfn`` with its leading pointers (and ``tail``) bound once:
        ``ndarray.ctypes`` costs ~1 us per array per call otherwise."""
        call = partial(cfn, *(None if a is None else a.ctypes.data
                              for a in arrays), *tail)
        call.arrays = arrays    # the pointers must not outlive their arrays
        return call

    def sweep(name):
        def bind(arrays, h, box, hist, tab, wts, counts):
            _, npy, npz = arrays[0].shape
            hshape = (0, 0, 0) if hist is None else hist.shape[1:]
            return frozen(fn[name], (*arrays, hist, tab, wts),
                          h, npy, npz, *hshape, *box, *counts)
        return bind

    def damp(fields, taper, rowfull, k0, ka, kb):
        _, npy, npz = fields[0].shape
        return frozen(fn["damp"], (*fields, taper, rowfull),
                      npy, npz, *taper.shape, k0, ka, kb)

    def plane(name):
        def bind(arrays, kt):
            return frozen(fn[name], arrays, *arrays[0].shape, kt)
        return bind

    binders = {"vel": sweep("fused_velocity"),
               "stress": sweep("fused_stress"),
               "damp": damp,
               "fs_velocity": plane("fs_velocity"),
               "fs_stress": plane("fs_stress")}
    return binders, compile_s, cache_hit


# ----------------------------------------------------------------------
# Kernel resolution (memoized per process)
# ----------------------------------------------------------------------
class KernelSet:
    """The resolved compiled operators of one dtype.

    All or nothing: a build that cannot deliver every operator is
    unavailable as a whole (:func:`get_kernels` raises), so a compiled step
    never degrades a single operator to numpy silently.

    Every method *binds*: it checks its arrays once (``dtype``,
    C-contiguous, mutually consistent shapes — the operators take raw
    pointers and fixed strides), freezes them into the provider's entry
    point and returns the callable that runs the operator in place on
    those arrays.  Fields are padded ``(npx, npy, npz)`` arrays.
    """

    def __init__(self, binders: dict, dtype: str, parallel: bool,
                 compile_seconds: float, cache_hit: bool, target: str):
        self._bind = {op: binders[op] for op in (
            "vel", "stress", "damp", "fs_velocity", "fs_stress")}
        self.provider = PROVIDER
        self.dtype = dtype
        self.parallel = parallel
        self.compile_seconds = compile_seconds
        self.cache_hit = cache_hit
        self.target = target    #: ``native:<8 hex>`` | ``baseline``

    def _fields(self, arrays, shape=None) -> tuple:
        """``arrays`` as a tuple, refused unless all are C-contiguous
        ``self.dtype`` arrays of one 3-D shape (``shape`` if given)."""
        arrays = tuple(arrays)
        shape = arrays[0].shape if shape is None else tuple(shape)
        for a in arrays:
            if (a.dtype.name != self.dtype or not a.flags.c_contiguous
                    or a.shape != shape or a.ndim != 3):
                raise ValueError(
                    f"compiled {self.dtype} operators require C-contiguous "
                    f"arrays of one shape {shape} (got {a.dtype.name} "
                    f"{a.shape})")
        return arrays

    def _sweep(self, op: str, arrays, h, box, slabs, hist, save, blend):
        arrays = self._fields(arrays)
        npx, npy, npz = arrays[0].shape
        g = NGHOST
        x0, x1, y0, y1 = box = tuple(int(v) for v in box)
        if not (g <= x0 <= x1 <= npx - g and g <= y0 <= y1 <= npy - g):
            raise ValueError(f"sweep box {box} reaches into the ghost rim of "
                             f"shape {arrays[0].shape}")
        slabs = [(int(z0), int(z1), float(dt)) for z0, z1, dt in slabs]
        top = g
        for z0, z1, _ in slabs:
            if not top <= z0 < z1 <= npz - g:
                raise ValueError(
                    f"slabs {[s[:2] for s in slabs]} must be non-empty, "
                    f"ascending, disjoint and inside [{g}, {npz - g})")
            top = z1
        save = [(int(slot), int(k0)) for slot, k0 in save]
        blend = [(int(s), int(slot), int(k0), float(w))
                 for s, slot, k0, w in blend]
        if hist is not None:
            if (hist.ndim != 4 or hist.dtype.name != self.dtype
                    or not hist.flags.c_contiguous
                    or hist.shape[:2] != (npx - 2 * g, npy - 2 * g)):
                raise ValueError(
                    f"band history must be a C-contiguous {self.dtype} "
                    f"(nx, ny, slots, planes) array over the interior rows "
                    f"(got {hist.dtype.name} {hist.shape})")
        elif save or blend:
            raise ValueError("band entries need a history array")
        for slot, k0 in save + [b[1:3] for b in blend]:
            if not (0 <= slot <= hist.shape[2] - 3
                    and 0 <= k0 <= npz - hist.shape[3]):
                raise ValueError(
                    f"band (slot {slot}, planes from {k0}) lies outside "
                    f"history {hist.shape} / padded range [0, {npz})")
        if any(not 0 <= s < len(slabs) for s, *_ in blend):
            raise ValueError("blended band names a slab outside the table")
        return self._bind[op](arrays, float(h), box, hist,
                              *_sweep_tables(slabs, save, blend))

    def vel(self, arrays, h: float, box, slabs, hist=None, save=(),
            blend=()):
        """``call()``: the fused velocity sweep of ``arrays = (vx..syz, bx,
        by, bz)``: one visit per (i, j) row of the padded x/y ``box =
        (x0, x1, y0, y1)`` that updates every k-slab of ``slabs = ((z0, z1,
        dt), ...)`` (ascending, disjoint) with its own ``dt``.

        ``hist`` is the LTS band history ``(nx, ny, slots, planes)`` over
        the interior rows, a band = three consecutive slots.  Inside the
        row visit each ``save = ((slot, k0), ...)`` band first copies planes
        ``[k0, k0+planes)`` of vx/vy/vz into slots ``slot..slot+2``; each
        ``blend = ((slab, slot, k0, w), ...)`` band makes that slab's z taps
        read ``(now*w) + (history*(1-w))`` on planes ``[k0, k0+planes)`` of
        sxz/syz/szz instead of the field (which is not written).
        """
        return self._sweep("vel", arrays, h, box, slabs, hist, save, blend)

    def stress(self, arrays, h: float, box, slabs, hist=None, save=(),
               blend=()):
        """``call()``: the fused stress sweep of ``arrays = (vx..syz, lam,
        lam2mu, mu_xy, mu_xz, mu_yz)``; as :meth:`vel` with the roles
        swapped (saves sxz/syz/szz, blends vx/vy/vz)."""
        return self._sweep("stress", arrays, h, box, slabs, hist, save, blend)

    def damp(self, fields, taper, rowfull, k0: int, ka: int, kb: int):
        """``call()``: multiply the nine ``fields`` by the interior-shaped
        ``taper`` ``(nx, ny, nk)`` whose plane 0 sits at padded ``k0``,
        visiting only its frame — rows flagged in ``rowfull`` (uint8
        ``(nx, ny)``) on all ``nk`` planes, other rows on ``[0, ka)`` and
        ``[kb, nk)``."""
        fields = self._fields(fields)
        npx, npy, npz = fields[0].shape
        nx, ny, nk = npx - 2 * NGHOST, npy - 2 * NGHOST, taper.shape[2]
        (taper,) = self._fields((taper,), (nx, ny, nk))
        if (len(fields) != len(ALL_FIELDS) or rowfull.dtype != np.uint8
                or rowfull.shape != (nx, ny)
                or not rowfull.flags.c_contiguous
                or not (NGHOST <= k0 and k0 + nk <= npz - NGHOST)
                or not 0 <= ka <= kb <= nk):
            raise ValueError(
                f"damp frame (rows {rowfull.dtype} {rowfull.shape}, planes "
                f"[0, {ka}) + [{kb}, {nk}) at k0={k0}) does not fit "
                f"{len(fields)} fields of shape {fields[0].shape}")
        return self._bind["damp"](fields, taper, rowfull, k0, ka, kb)

    def _plane(self, fields, kt: int, below: int, above: int) -> tuple:
        """:meth:`_fields`, refused unless plane ``kt`` has ``below``
        planes below it and ``above`` above it."""
        fields = self._fields(fields)
        if not below <= kt < fields[0].shape[2] - above:
            raise ValueError(f"surface plane kt={kt} needs {below} planes "
                             f"below and {above} above it")
        return fields

    def fs_velocity(self, vx, vy, vz, lam, lam2mu, kt: int):
        """``call()``: FS2 ghost velocities above the top interior plane
        ``kt`` (:meth:`FreeSurfaceFS2.apply_velocity`).  The plane's
        ``lam / lam2mu`` ratio is formed here, once, so the call divides
        nothing."""
        vx, vy, vz, lam, lam2mu = self._plane((vx, vy, vz, lam, lam2mu),
                                              kt, 1, 1)
        ratio = np.ascontiguousarray(lam[:, :, kt] / lam2mu[:, :, kt])
        return self._bind["fs_velocity"]((vx, vy, vz, ratio), kt)

    def fs_stress(self, sxz, syz, szz, kt: int):
        """``call()``: FS2 stress imaging about plane ``kt``
        (:meth:`FreeSurfaceFS2.apply_stress`)."""
        return self._bind["fs_stress"](
            self._plane((sxz, syz, szz), kt, 2, 2), kt)


_KERNEL_CACHE: dict[tuple[str, bool], KernelSet] = {}


def get_kernels(dtype, parallel: bool = False) -> KernelSet:
    """Resolve (JIT-compiling if needed) the fused kernels for ``dtype``.

    Memoized per process: the distributed solver resolves once up front and
    every rank sub-solver then binds the same compiled functions, so the
    warn-once fallback contract holds (one resolution, one possible warning).
    Raises :class:`CompiledUnavailable` when the provider cannot deliver.
    """
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise CompiledUnavailable(f"unsupported dtype {dt.name} "
                                  "(float64/float32 only)")
    ensure_available()
    key = (dt.name, parallel)
    if key in _KERNEL_CACHE:
        return _KERNEL_CACHE[key]
    try:
        binders, compile_s, cache_hit = _cbuild_kernels(dt, parallel)
        ks = KernelSet(binders, dtype=dt.name, parallel=parallel,
                       compile_seconds=compile_s, cache_hit=cache_hit,
                       target=_cc_target(_find_cc())[3])
    except CompiledUnavailable as exc:
        raise CompiledUnavailable(f"{PROVIDER}: {exc}") from exc
    except Exception as exc:  # noqa: BLE001 - any JIT failure => fallback
        raise CompiledUnavailable(
            f"{PROVIDER}: {type(exc).__name__}: {exc}") from exc
    _KERNEL_CACHE[key] = ks
    return ks


# ----------------------------------------------------------------------
# Stepper facade (what the solvers hold)
# ----------------------------------------------------------------------
class FusedStepper:
    """Fused velocity/stress sweeps bound to one wavefield and medium.

    The compiled counterpart of :class:`~repro.core.kernels.
    VelocityStressKernel`: ``step_velocity()``/``step_stress()`` update the
    whole interior; passing ``region=`` (a tuple of padded-coordinate slices
    with explicit bounds) restricts the sweep to that box, which is what the
    IV.C core/shell overlap split uses.  Bitwise identical to the pooled
    kernels per cell, at both precisions, for any disjoint region cover.
    """

    def __init__(self, wf: WaveField, medium: Medium, dt: float,
                 order: int = 4, parallel: bool = False):
        if order != 4:
            raise ValueError("compiled kernels implement the 4th-order "
                             f"stencil only (got order={order})")
        missing = [n for n in _MEDIUM_FIELDS if not hasattr(medium, n)]
        if missing:
            raise ValueError("medium lacks fused-kernel arrays: "
                             + ", ".join(missing))
        if medium.grid.padded_shape != wf.grid.padded_shape:
            raise ValueError("medium and wavefield grids differ")
        self.wf = wf
        self.medium = medium
        self.dt = float(dt)
        self.h = float(wf.grid.h)
        #: the resolved :class:`KernelSet` (the solver hands it to its sponge
        #: and free surface)
        self.kernels = get_kernels(wf.dtype, parallel=parallel)
        self.provider = self.kernels.provider
        self.parallel = parallel
        self.compile_seconds = self.kernels.compile_seconds
        self.cache_hit = self.kernels.cache_hit
        self.target = self.kernels.target
        g = wf.grid
        self._interior = (NGHOST, NGHOST + g.nx, NGHOST, NGHOST + g.ny,
                          NGHOST, NGHOST + g.nz)
        fields = tuple(wf.fields().values())
        #: half -> (KernelSet binder, its arrays)
        self._halves = {
            "velocity": (self.kernels.vel,
                         (*fields, medium.bx, medium.by, medium.bz)),
            "stress": (self.kernels.stress,
                       (*fields, medium.lam, medium.lam2mu,
                        medium.mu_xy, medium.mu_xz, medium.mu_yz))}
        #: (half, x0, x1, y0, y1, z0, z1) -> bound one-slab sweep
        self._boxes: dict[tuple, object] = {}
        for half in self._halves:   # refuse unusable arrays now, not mid-run
            self._box(half, None)
        from ..obs.metrics import default_registry
        default_registry().gauge("compiled.jit_compile_s").set(
            self.compile_seconds)

    @classmethod
    def for_kernel(cls, kernel: VelocityStressKernel,
                   parallel: bool = False) -> "FusedStepper":
        """Build a stepper sharing a pooled kernel's bindings (wf, medium,
        dt, order) — the hook the solvers use."""
        return cls(kernel.wf, kernel.medium, kernel.dt, order=kernel.order,
                   parallel=parallel)

    def _bounds(self, region) -> tuple[int, int, int, int, int, int]:
        if region is None:
            return self._interior
        out = []
        for s in region:
            if s.start is None or s.stop is None:
                raise ValueError("region slices need explicit start/stop")
            out += [s.start, s.stop]
        return tuple(out)

    def bind(self, half: str, box, slabs, hist=None, save=(), blend=()):
        """The zero-argument ``half`` ('velocity' | 'stress') sweep of this
        wavefield for one plan — see :meth:`KernelSet.vel`.  Global dt and
        a region box are its one-slab, no-band case; an LTS substep is one
        plan over every active rate group."""
        binder, arrays = self._halves[half]
        return binder(arrays, self.h, box, slabs, hist, save, blend)

    def _box(self, half: str, region):
        key = (half, *self._bounds(region))
        call = self._boxes.get(key)
        if call is None:
            _, x0, x1, y0, y1, z0, z1 = key
            call = self._boxes[key] = self.bind(
                half, (x0, x1, y0, y1), ((z0, z1, self.dt),))
        return call

    def step_velocity(self, region=None) -> None:
        """Advance vx/vy/vz over the interior (or one region box)."""
        self._box("velocity", region)()

    def step_stress(self, region=None) -> None:
        """Advance the six stresses over the interior (or one region box)."""
        self._box("stress", region)()


class FusedRegionStepper:
    """A :class:`FusedStepper` pinned to one region box.

    Drop-in for :class:`~repro.core.kernels.RegionUpdater` in the IV.C
    overlap plan: same ``step_velocity()``/``step_stress()`` surface, zero
    per-region scratch (the fused sweeps need none).
    """

    def __init__(self, stepper: FusedStepper, region: tuple[slice, ...]):
        for s in region:
            if s.start is None or s.stop is None:
                raise ValueError("region slices need explicit start/stop")
        if any(s.stop - s.start <= 0 for s in region):
            raise ValueError(f"empty region {region!r}")
        self.stepper = stepper
        self.region = region

    def step_velocity(self) -> None:
        self.stepper.step_velocity(self.region)

    def step_stress(self) -> None:
        self.stepper.step_stress(self.region)
