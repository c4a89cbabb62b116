"""Compiled fused stencil kernels (``kernel_variant="compiled"``).

The pooled numpy kernels (:mod:`repro.core.kernels`) are allocation-free but
still traverse memory once per ufunc: one velocity component costs ~15 whole-
array passes.  The paper's single-CPU story (Section IV.B) is built on *fused*
sweeps — every term of the update evaluated per cell in one pass so operands
stay in registers/cache.  This module provides that backend behind the
existing kernel-variant switch, with two JIT providers:

``numba``
    ``@njit(cache=True)`` nested-loop kernels, optionally threaded with
    ``prange`` (``parallel=True`` dispatchers).  Preferred when importable;
    numba's on-disk cache makes warm starts cheap.
``cbuild``
    A tiny C extension generated from the *same* operator tables the numpy
    kernels use (:data:`~repro.core.kernels._VEL_TERMS` et al.), compiled
    with the system C compiler (``-O3 -ffp-contract=off``) into a shared
    library under a content-addressed JIT cache, and bound via ``ctypes``.
    This keeps the compiled path alive on hosts without numba.

Both providers implement one *scalar expression tree per cell* that replays
the pooled kernels' exact ufunc sequence (derivative taps scaled and
accumulated in the same order, ``t*dt`` increments added sequentially), with
floating-point contraction disabled, so results are **bitwise identical** to
the pooled kernels at both precisions — the same aVal invariant every other
optimization layer holds.  Velocity updates read only stresses and stress
updates read only velocities, so fusing all components into one pass (and
splitting the pass over threads or regions) cannot change any cell's result.

The same :class:`KernelSet` carries the per-step operators that run between
the sweeps, so a compiled step leaves no whole-array numpy pass behind.  Each
is bitwise identical to the numpy body it stands in for (which stays in
place as the reference the pooled/blocked variants run), for one reason per
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
    The horizontal ghosts are finished before the vertical one reads them.
``band_gather`` / ``band_blend`` / ``band_scatter`` (:class:`repro.core.lts._Band`)
    Pure copies, and ``(saved*w) + (prev*(1-w))`` with both weights cast to
    the field dtype first — what NEP-50 numpy does with a python float.

Rows are independent in all of them, so the threaded (``compiled_parallel``)
builds stay bitwise too.  Operators are *bound*: ``kernels.damp(...)`` checks
its arrays once and returns the callable to run each step, with every
pointer already extracted.

Fallback contract: when no provider is available, solvers warn **once**
(``RuntimeWarning``) and run ``pooled`` — which the equivalence matrix runs
under ``warnings.simplefilter("error")``, so a silent fallback fails the
cell rather than vacuously passing (mirroring the procpool→SimMPI fallback).

Environment knobs:

``REPRO_COMPILED_PROVIDER``
    ``numba`` | ``cbuild`` — restrict the provider chain (``none`` disables
    compiled kernels entirely, forcing the fallback path; used in tests).
``REPRO_JIT_CACHE``
    Cache directory for the cbuild shared libraries (default
    ``~/.cache/repro-jit``).  Numba manages its own cache (honouring
    ``NUMBA_CACHE_DIR``).
``CC``
    C compiler for the cbuild provider (default: first of ``cc``, ``gcc``,
    ``clang`` on ``PATH``).
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shutil
import subprocess
import time
from functools import partial

import numpy as np

from .fd import C1, C2, NGHOST
from .grid import ALL_FIELDS, WaveField
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
    "provider_info",
]

#: Provider names in default resolution order.
PROVIDERS = ("numba", "cbuild")

#: Medium arrays every fused kernel reads.
_MEDIUM_FIELDS = ("bx", "by", "bz", "lam", "lam2mu",
                  "mu_xy", "mu_xz", "mu_yz")


class CompiledUnavailable(RuntimeError):
    """No compiled-kernel provider can run on this host."""


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


def _numba_present() -> bool:
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):
        return False


def _provider_chain() -> tuple[str, ...]:
    """The providers to try, honouring ``REPRO_COMPILED_PROVIDER``."""
    override = os.environ.get("REPRO_COMPILED_PROVIDER", "").strip().lower()
    if not override:
        return PROVIDERS
    if override in ("none", "off", "0"):
        return ()
    if override not in PROVIDERS:
        raise CompiledUnavailable(
            f"unknown REPRO_COMPILED_PROVIDER={override!r} "
            f"(expected one of {', '.join(PROVIDERS)}, or 'none')")
    return (override,)


def _probe(provider: str) -> str | None:
    """None if ``provider`` looks usable, else a human-readable reason."""
    if provider == "numba":
        return None if _numba_present() else "numba not importable"
    if provider == "cbuild":
        return None if _find_cc() is not None else \
            "no C compiler on PATH (cc/gcc/clang) and CC unset"
    return f"unknown provider {provider!r}"


def ensure_available() -> str:
    """Return the first usable provider name or raise CompiledUnavailable.

    This is a cheap presence probe (importability / compiler on PATH); the
    actual JIT happens lazily in :func:`get_kernels`, whose failures also
    raise :class:`CompiledUnavailable` so callers hit one fallback path.
    """
    chain = _provider_chain()
    if not chain:
        raise CompiledUnavailable(
            "compiled kernels disabled by REPRO_COMPILED_PROVIDER")
    reasons = []
    for provider in chain:
        reason = _probe(provider)
        if reason is None:
            return provider
        reasons.append(f"{provider}: {reason}")
    raise CompiledUnavailable("; ".join(reasons))


def compiled_available() -> bool:
    """Whether some compiled-kernel provider looks usable on this host."""
    try:
        ensure_available()
        return True
    except CompiledUnavailable:
        return False


def provider_info() -> dict:
    """Host capability record for bench reports (``host.compiled``)."""
    try:
        provider = ensure_available()
        return {"available": True, "provider": provider, "detail": ""}
    except CompiledUnavailable as exc:
        return {"available": False, "provider": None, "detail": str(exc)}


# ----------------------------------------------------------------------
# C source generation (cbuild provider)
# ----------------------------------------------------------------------
# The generators below emit one scalar expression tree per cell derived from
# the SAME operator tables the numpy kernels iterate (_VEL_TERMS etc.), so
# the two formulations cannot drift apart.  Parenthesisation fixes the
# association order to the pooled ufunc sequence; -ffp-contract=off stops
# the compiler fusing `a*b + c` into an FMA (gcc defaults to contract=fast,
# which would change low-order bits).

_STRIDES = ("si", "sj", "1")


def _c_off(axis: int, d: int) -> str:
    """Index expression ``q ± d*stride`` for a tap ``d`` cells along axis."""
    if d == 0:
        return "q"
    stride = _STRIDES[axis]
    mag = abs(d)
    term = str(mag) if stride == "1" else \
        (stride if mag == 1 else f"{mag}*{stride}")
    return f"q {'+' if d > 0 else '-'} {term}"


def _c_deriv(field: str, axis: int, dirn: str) -> str:
    """The 4th-order staggered derivative as one parenthesised expression.

    Matches fd.diff4_fwd/_bwd's in-place sequence:
    ``(((p_a*c1 - p_b*c1) + p_c*c2) - p_d*c2) / h``.
    """
    taps = (1, 0, 2, -1) if dirn == "f" else (0, -1, 1, -2)
    a, b, c, d = (f"{field}[{_c_off(axis, t)}]" for t in taps)
    return (f"(((({a} * c1) - ({b} * c1)) + ({c} * c2)) - ({d} * c2)) / h")


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
    return "\n                ".join(lines)


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
    return "\n                ".join(lines)


_C_TEMPLATE = """\
void fused_velocity_{suf}(
    {real} *restrict vx, {real} *restrict vy, {real} *restrict vz,
    const {real} *restrict sxx, const {real} *restrict syy,
    const {real} *restrict szz, const {real} *restrict sxy,
    const {real} *restrict sxz, const {real} *restrict syz,
    const {real} *restrict bx, const {real} *restrict by,
    const {real} *restrict bz,
    const double h_in, const double dt_in,
    const long npy, const long npz,
    const long x0, const long x1, const long y0, const long y1,
    const long z0, const long z1)
{{
    const {real} c1 = ({real})({c1});
    const {real} c2 = ({real})({c2});
    const {real} h = ({real})h_in;
    const {real} dt = ({real})dt_in;
    const long si = npy * npz;
    const long sj = npz;
#pragma omp parallel for schedule(static)
    for (long i = x0; i < x1; ++i) {{
        for (long j = y0; j < y1; ++j) {{
            const long row = i * si + j * sj;
            for (long k = z0; k < z1; ++k) {{
                const long q = row + k;
                {real} t, v;
                {vel_body}
            }}
        }}
    }}
}}

void fused_stress_{suf}(
    const {real} *restrict vx, const {real} *restrict vy,
    const {real} *restrict vz,
    {real} *restrict sxx, {real} *restrict syy, {real} *restrict szz,
    {real} *restrict sxy, {real} *restrict sxz, {real} *restrict syz,
    const {real} *restrict lam, const {real} *restrict lam2mu,
    const {real} *restrict mu_xy, const {real} *restrict mu_xz,
    const {real} *restrict mu_yz,
    const double h_in, const double dt_in,
    const long npy, const long npz,
    const long x0, const long x1, const long y0, const long y1,
    const long z0, const long z1)
{{
    const {real} c1 = ({real})({c1});
    const {real} c2 = ({real})({c2});
    const {real} h = ({real})h_in;
    const {real} dt = ({real})dt_in;
    const long si = npy * npz;
    const long sj = npz;
#pragma omp parallel for schedule(static)
    for (long i = x0; i < x1; ++i) {{
        for (long j = y0; j < y1; ++j) {{
            const long row = i * si + j * sj;
            for (long k = z0; k < z1; ++k) {{
                const long q = row + k;
                {real} t, u, dvx, dvy, dvz, l, l2m;
                {stress_body}
            }}
        }}
    }}
}}
"""


# The plane and band operators walk one k-plane: consecutive rows sit a whole
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


def _c_ptrs(names, const: bool = False) -> str:
    """``real *restrict a, real *restrict b, ...`` parameter list."""
    qual = "const {real} *restrict " if const else "{real} *restrict "
    return ", ".join(qual + n for n in names)


def _c_band(name: str, fconst: str, bconst: str, body, extra_ptrs: str = "",
            extra_args: str = "", prologue: str = "") -> str:
    """One LTS band operator: a walk over planes ``[k0, k0+nb)`` of three
    fields ``f0..f2`` and three contiguous buffers ``b0..b2``, running
    ``body`` (``{c}`` = 0, 1, 2; ``q``/``m`` index field/buffer) per cell."""
    cells = "\n".join("            " + line.format(c=c)
                      for c in range(3) for line in body)
    hint = "R" if fconst else "W"
    return (
        f"void {name}_{{suf}}(\n"
        f"    {_c_ptrs(('f0', 'f1', 'f2'), const=bool(fconst))},\n"
        f"    {_c_ptrs(('b0', 'b1', 'b2'), const=bool(bconst))},\n"
        f"    {extra_ptrs}"
        "const long rows, const long npz, const long k0, const long nb"
        f"{extra_args})\n"
        "{{\n"
        f"{prologue}"
        "#pragma omp parallel for schedule(static)\n"
        "    for (long r = 0; r < rows; ++r) {{\n"
        "        const long ahead = (r + PF_ROWS) * npz + k0;\n"
        f"        PREFETCH_{hint}(f0 + ahead);\n"
        f"        PREFETCH_{hint}(f1 + ahead);\n"
        f"        PREFETCH_{hint}(f2 + ahead);\n"
        "        for (long b = 0; b < nb; ++b) {{\n"
        "            const long q = r * npz + k0 + b;\n"
        "            const long m = r * nb + b;\n"
        f"{cells}\n"
        "        }}\n"
        "    }}\n"
        "}}\n")


# The per-step operators around the sweeps.  Each replays its numpy
# reference (boundary.SpongeLayer / FreeSurfaceFS2, lts._Band) cell by cell
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
    const {real} *restrict lam, const {real} *restrict lam2mu,
    const long npx, const long npy, const long npz, const long kt)
{{
    const long si = npy * npz;
    const long sj = npz;
    /* horizontal ghosts first: the vz ghost below differences them */
#pragma omp parallel for schedule(static)
    for (long i = 0; i < npx; ++i) {{
        for (long j = 0; j < npy; ++j) {{
            const long q = i * si + j * sj + kt;
            PREFETCH_W(vx + q + PF_ROWS * sj);
            PREFETCH_W(vy + q + PF_ROWS * sj);
            PREFETCH_R(vz + q + PF_ROWS * sj);
            const {real} dzx = (i + 1 < npx) ? vz[q + si] - vz[q]
                                             : ({real})0.0;
            const {real} dzy = (j + 1 < npy) ? vz[q + sj] - vz[q]
                                             : ({real})0.0;
            vx[q + 1] = vx[q] - dzx;
            vy[q + 1] = vy[q] - dzy;
        }}
    }}
#pragma omp parallel for schedule(static)
    for (long i = 0; i < npx; ++i) {{
        for (long j = 0; j < npy; ++j) {{
            const long q = i * si + j * sj + kt;
            PREFETCH_W(vz + q + PF_ROWS * sj);
            PREFETCH_R(lam + q + PF_ROWS * sj);
            PREFETCH_R(lam2mu + q + PF_ROWS * sj);
            /* horiz_div(kt+1), horiz_div(kt): zeros, then `+=` per axis */
            {real} d1 = ({real})0.0, d0 = ({real})0.0;
            if (i > 0) {{
                d1 = d1 + (vx[q + 1] - vx[q + 1 - si]);
                d0 = d0 + (vx[q] - vx[q - si]);
            }}
            if (j > 0) {{
                d1 = d1 + (vy[q + 1] - vy[q + 1 - sj]);
                d0 = d0 + (vy[q] - vy[q - sj]);
            }}
            const {real} ratio = lam[q] / lam2mu[q];
            vz[q + 1] = ((({real})2.0 * vz[q]) - vz[q - 1])
                        - (ratio * (d1 + d0));
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

""" + _c_band("band_gather", "const ", "", ["b{c}[m] = f{c}[q];"]) + """
""" + _c_band("band_scatter", "", "const ", ["f{c}[q] = b{c}[m];"]) + """
""" + _c_band(
    "band_blend", "", "const ",
    ["s{c}[m] = f{c}[q];", "f{c}[q] = (s{c}[m] * w) + (b{c}[m] * omw);"],
    extra_ptrs="{real} *restrict s0, {real} *restrict s1, "
               "{real} *restrict s2,\n    ",
    extra_args=",\n    const double w_in, const double omw_in",
    prologue="    const {real} w = ({real})w_in;\n"
             "    const {real} omw = ({real})omw_in;\n")


def _c_source() -> str:
    """The full generated C translation unit (both dtypes)."""
    vel_body = _c_velocity_body()
    stress_body = _c_stress_body()
    units = []
    for real, suf in (("double", "f64"), ("float", "f32")):
        units.append((_C_TEMPLATE + "\n" + _C_OPS_TEMPLATE).format(
            real=real, suf=suf, c1=repr(C1), c2=repr(C2), g=NGHOST,
            vel_body=vel_body, stress_body=stress_body))
    return ("/* generated by repro.core.compiled — fused velocity/stress\n"
            "   sweeps and per-step operators replaying the numpy ufunc\n"
            "   order exactly. */\n\n" + _C_PREAMBLE + "\n".join(units))


def _cbuild_library(parallel: bool) -> tuple[ctypes.CDLL, float, bool]:
    """Compile (or reuse) the shared library; returns (lib, secs, cache_hit).

    The cache is content-addressed: source + compiler + flags hash to the
    library filename, so editing the generators or switching compilers
    naturally invalidates stale entries.
    """
    cc = _find_cc()
    if cc is None:
        raise CompiledUnavailable(
            "no C compiler on PATH (cc/gcc/clang) and CC unset")
    source = _c_source()
    flags = ["-O3", "-ffp-contract=off", "-fPIC", "-shared"]
    if parallel:
        flags.append("-fopenmp")
    digest = hashlib.sha256(
        "\0".join([source, cc, " ".join(flags)]).encode()).hexdigest()[:16]
    cache = jit_cache_dir()
    so_path = os.path.join(cache, f"fused_{digest}.so")
    if os.path.exists(so_path):
        return ctypes.CDLL(so_path), 0.0, True
    os.makedirs(cache, exist_ok=True)
    c_path = os.path.join(cache, f"fused_{digest}.c")
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
    "fused_velocity": "p" * 12 + "dd" + "l" * 8,
    "fused_stress": "p" * 14 + "dd" + "l" * 8,
    "damp": "p" * (len(ALL_FIELDS) + 2) + "l" * 8,
    "fs_velocity": "p" * 5 + "l" * 4,
    "fs_stress": "p" * 3 + "l" * 4,
    "band_gather": "p" * 6 + "l" * 4,
    "band_scatter": "p" * 6 + "l" * 4,
    "band_blend": "p" * 9 + "l" * 4 + "dd",
}

_C_TYPES = {"p": ctypes.c_void_p, "d": ctypes.c_double, "l": ctypes.c_long}


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
        call = partial(cfn, *(a.ctypes.data for a in arrays), *tail)
        call.arrays = arrays    # the pointers must not outlive their arrays
        return call

    def sweep(name):
        def bind(arrays, h, dt):
            _, npy, npz = arrays[0].shape
            return frozen(fn[name], arrays, h, dt, npy, npz)
        return bind

    def damp(fields, taper, rowfull, k0, ka, kb):
        _, npy, npz = fields[0].shape
        return frozen(fn["damp"], (*fields, taper, rowfull),
                      npy, npz, *taper.shape, k0, ka, kb)

    def plane(name):
        def bind(arrays, kt):
            return frozen(fn[name], arrays, *arrays[0].shape, kt)
        return bind

    def band(name):
        def bind(fields, *bufs, k0):
            npx, npy, npz = fields[0].shape
            arrays = (*fields, *(a for buf in bufs for a in buf))
            return frozen(fn[name], arrays, npx * npy, npz, k0,
                          bufs[0][0].shape[2])
        return bind

    def band_blend(fields, prev, saved, k0):
        call = band("band_blend")(fields, prev, saved, k0=k0)
        return lambda w: call(w, 1.0 - w)

    binders = {"vel": sweep("fused_velocity"),
               "stress": sweep("fused_stress"),
               "damp": damp,
               "fs_velocity": plane("fs_velocity"),
               "fs_stress": plane("fs_stress"),
               "band_gather": band("band_gather"),
               "band_scatter": band("band_scatter"),
               "band_blend": band_blend}
    return binders, compile_s, cache_hit


# ----------------------------------------------------------------------
# Numba provider
# ----------------------------------------------------------------------
def _numba_kernels(dtype: np.dtype, parallel: bool):
    try:
        from . import _compiled_numba as nbmod
    except ImportError as exc:
        raise CompiledUnavailable(f"numba not importable: {exc}") from exc
    jit = nbmod.PARALLEL if parallel else nbmod.SERIAL
    cast = dtype.type
    c1, c2, zero, two = cast(C1), cast(C2), cast(0.0), cast(2.0)

    def sweep(name):
        def bind(arrays, h, dt):
            return partial(jit[name], *arrays, c1, c2, cast(h), cast(dt))
        return bind

    def damp(fields, taper, rowfull, k0, ka, kb):
        return partial(jit["damp"], *fields, taper, rowfull, k0, ka, kb)

    def fs_velocity(arrays, kt):
        return partial(jit["fs_velocity"], *arrays, zero, two, kt)

    def fs_stress(arrays, kt):
        return partial(jit["fs_stress"], *arrays, zero, kt)

    def band(name):
        def bind(fields, *bufs, k0):
            return partial(jit[name], *fields,
                           *(a for buf in bufs for a in buf), k0)
        return bind

    def band_blend(fields, prev, saved, k0):
        call = band("band_blend")(fields, prev, saved, k0=k0)
        return lambda w: call(cast(w), cast(1.0 - w))

    binders = {"vel": sweep("velocity"), "stress": sweep("stress"),
               "damp": damp,
               "fs_velocity": fs_velocity, "fs_stress": fs_stress,
               "band_gather": band("band_gather"),
               "band_scatter": band("band_scatter"),
               "band_blend": band_blend}

    # Warm the dispatchers on a minimal fixture so the one-time JIT (or the
    # on-disk cache load) is accounted here, not inside a timed step.
    t0 = time.perf_counter()
    tiny = [np.zeros((5, 5, 5), dtype=dtype) for _ in range(14)]
    bufs = [np.zeros((5, 5, 1), dtype=dtype) for _ in range(6)]
    binders["vel"](tiny[:12], 1.0, 0.0)(2, 3, 2, 3, 2, 3)
    binders["stress"](tiny, 1.0, 0.0)(2, 3, 2, 3, 2, 3)
    binders["damp"](tiny[:9], np.ones((1, 1, 1), dtype=dtype),
                    np.zeros((1, 1), dtype=np.uint8), 2, 0, 1)()
    tiny[4][...] = 1.0      # lam2mu: the vz ghost divides by it
    binders["fs_velocity"](tiny[:5], 2)()
    binders["fs_stress"](tiny[:3], 2)()
    binders["band_gather"](tiny[:3], bufs[:3], k0=2)()
    binders["band_blend"](tiny[:3], bufs[:3], bufs[3:], k0=2)(0.5)
    binders["band_scatter"](tiny[:3], bufs[3:], k0=2)()
    compile_s = time.perf_counter() - t0

    def _hits(fn) -> int:
        counter = getattr(fn, "_cache_hits", None)
        try:
            return sum(counter.values()) if counter else 0
        except (TypeError, AttributeError):
            return 0

    cache_hit = sum(_hits(f) for f in jit.values()) > 0
    return binders, compile_s, cache_hit


# ----------------------------------------------------------------------
# Kernel resolution (memoized per process)
# ----------------------------------------------------------------------
class KernelSet:
    """The resolved compiled operators of one dtype/provider.

    All or nothing: a provider that cannot deliver every operator is
    unavailable as a whole (:func:`get_kernels` moves on to the next one),
    so a compiled step never degrades a single operator to numpy silently.

    Every method *binds*: it checks its arrays once (``dtype``,
    C-contiguous, mutually consistent shapes — the operators take raw
    pointers and fixed strides), freezes them into the provider's entry
    point and returns the callable that runs the operator in place on
    those arrays.  Fields are padded ``(npx, npy, npz)`` arrays.
    """

    def __init__(self, binders: dict, provider: str, dtype: str,
                 parallel: bool, compile_seconds: float, cache_hit: bool):
        self._bind = {op: binders[op] for op in (
            "vel", "stress", "damp", "fs_velocity", "fs_stress",
            "band_gather", "band_scatter", "band_blend")}
        self.provider = provider
        self.dtype = dtype
        self.parallel = parallel
        self.compile_seconds = compile_seconds
        self.cache_hit = cache_hit

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

    def vel(self, arrays, h: float, dt: float):
        """``call(x0, x1, y0, y1, z0, z1)``: the fused velocity sweep of
        ``arrays = (vx..syz, bx, by, bz)`` over a half-open padded box."""
        return self._bind["vel"](self._fields(arrays), h, dt)

    def stress(self, arrays, h: float, dt: float):
        """``call(x0..z1)``: the fused stress sweep of ``arrays =
        (vx..syz, lam, lam2mu, mu_xy, mu_xz, mu_yz)``."""
        return self._bind["stress"](self._fields(arrays), h, dt)

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

    def _plane(self, op: str, arrays, kt: int, below: int, above: int):
        arrays = self._fields(arrays)
        if not below <= kt < arrays[0].shape[2] - above:
            raise ValueError(f"surface plane kt={kt} needs {below} planes "
                             f"below and {above} above it")
        return self._bind[op](arrays, kt)

    def fs_velocity(self, vx, vy, vz, lam, lam2mu, kt: int):
        """``call()``: FS2 ghost velocities above the top interior plane
        ``kt`` (:meth:`FreeSurfaceFS2.apply_velocity`)."""
        return self._plane("fs_velocity", (vx, vy, vz, lam, lam2mu), kt, 1, 1)

    def fs_stress(self, sxz, syz, szz, kt: int):
        """``call()``: FS2 stress imaging about plane ``kt``
        (:meth:`FreeSurfaceFS2.apply_stress`)."""
        return self._plane("fs_stress", (sxz, syz, szz), kt, 2, 2)

    def _band(self, op: str, fields, bufs, k0: int):
        fields = self._fields(fields)
        npx, npy, npz = fields[0].shape
        nb = bufs[0][0].shape[2]
        bufs = [self._fields(buf, (npx, npy, nb)) for buf in bufs]
        if len(fields) != 3 or any(len(buf) != 3 for buf in bufs) \
                or not 0 <= k0 <= npz - nb:
            raise ValueError(f"band [{k0}, {k0 + nb}) of three fields does "
                             f"not fit shape {fields[0].shape}")
        return self._bind[op](fields, *bufs, k0=k0)

    def band_gather(self, fields, bufs, k0: int):
        """``call()``: copy planes ``[k0, k0+nb)`` of three ``fields`` into
        three contiguous ``(npx, npy, nb)`` buffers."""
        return self._band("band_gather", fields, (bufs,), k0)

    def band_scatter(self, fields, bufs, k0: int):
        """``call()``: copy three buffers back into the band planes."""
        return self._band("band_scatter", fields, (bufs,), k0)

    def band_blend(self, fields, prev, saved, k0: int):
        """``call(w)``: ``saved = band; band = (saved*w) + (prev*(1-w))``,
        both weights cast to ``dtype`` first."""
        return self._band("band_blend", fields, (prev, saved), k0)


_KERNEL_CACHE: dict[tuple[str, bool, str], KernelSet] = {}

_BUILDERS = {"numba": _numba_kernels, "cbuild": _cbuild_kernels}


def get_kernels(dtype, parallel: bool = False,
                provider: str | None = None) -> KernelSet:
    """Resolve (JIT-compiling if needed) the fused kernels for ``dtype``.

    Memoized per process: the distributed solver resolves once up front and
    every rank sub-solver then binds the same compiled functions, so the
    warn-once fallback contract holds (one resolution, one possible warning).
    Raises :class:`CompiledUnavailable` when no provider can deliver.
    """
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise CompiledUnavailable(f"unsupported dtype {dt.name} "
                                  "(float64/float32 only)")
    chain = (provider,) if provider else _provider_chain()
    if not chain:
        raise CompiledUnavailable(
            "compiled kernels disabled by REPRO_COMPILED_PROVIDER")
    errors = []
    for prov in chain:
        if prov not in _BUILDERS:
            raise CompiledUnavailable(f"unknown provider {prov!r}")
        key = (dt.name, parallel, prov)
        if key in _KERNEL_CACHE:
            return _KERNEL_CACHE[key]
        reason = _probe(prov)
        if reason is not None:
            errors.append(f"{prov}: {reason}")
            continue
        try:
            binders, compile_s, cache_hit = _BUILDERS[prov](dt, parallel)
            ks = KernelSet(binders, provider=prov, dtype=dt.name,
                           parallel=parallel, compile_seconds=compile_s,
                           cache_hit=cache_hit)
        except CompiledUnavailable as exc:
            errors.append(f"{prov}: {exc}")
            continue
        except Exception as exc:  # noqa: BLE001 - any JIT failure => fallback
            errors.append(f"{prov}: {type(exc).__name__}: {exc}")
            continue
        _KERNEL_CACHE[key] = ks
        return ks
    raise CompiledUnavailable("; ".join(errors))


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
                 order: int = 4, parallel: bool = False,
                 provider: str | None = None):
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
        #: the resolved :class:`KernelSet` (the solver hands it to its sponge,
        #: free surface and LTS bands)
        self.kernels = get_kernels(wf.dtype, parallel=parallel,
                                   provider=provider)
        self.provider = self.kernels.provider
        self.parallel = parallel
        self.compile_seconds = self.kernels.compile_seconds
        self.cache_hit = self.kernels.cache_hit
        g = wf.grid
        self._interior = (NGHOST, NGHOST + g.nx, NGHOST, NGHOST + g.ny,
                          NGHOST, NGHOST + g.nz)
        fields = tuple(wf.fields().values())
        self._vel = self.kernels.vel(
            (*fields, medium.bx, medium.by, medium.bz), self.h, self.dt)
        self._stress = self.kernels.stress(
            (*fields, medium.lam, medium.lam2mu,
             medium.mu_xy, medium.mu_xz, medium.mu_yz), self.h, self.dt)
        from ..obs.metrics import default_registry
        default_registry().gauge("compiled.jit_compile_s").set(
            self.compile_seconds)

    @classmethod
    def for_kernel(cls, kernel: VelocityStressKernel,
                   parallel: bool = False,
                   provider: str | None = None) -> "FusedStepper":
        """Build a stepper sharing a pooled kernel's bindings (wf, medium,
        dt, order) — the hook the solvers use."""
        return cls(kernel.wf, kernel.medium, kernel.dt, order=kernel.order,
                   parallel=parallel, provider=provider)

    def _bounds(self, region) -> tuple[int, int, int, int, int, int]:
        if region is None:
            return self._interior
        out = []
        for s in region:
            if s.start is None or s.stop is None:
                raise ValueError("region slices need explicit start/stop")
            out += [s.start, s.stop]
        return tuple(out)

    def step_velocity(self, region=None) -> None:
        """Advance vx/vy/vz over the interior (or one region box)."""
        self._vel(*self._bounds(region))

    def step_stress(self, region=None) -> None:
        """Advance the six stresses over the interior (or one region box)."""
        self._stress(*self._bounds(region))


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
