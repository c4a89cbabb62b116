"""Velocity–stress update kernels (paper Sections II.A–B, IV.B).

The nine governing scalar equations (three velocity components, six stress
components; Eq. 1a/1b decomposed component-wise) are advanced with the
explicit staggered-grid leapfrog scheme: 2nd-order in time (Eq. 2), 4th-order
in space (Eq. 3).

Each component's time derivative is computed as up to three *axis terms* —
the x-, y-, z- derivative contributions.  Keeping the terms separate serves
two masters:

* the interior update simply sums them (``f += dt * (tx + ty + tz)``);
* the PML absorbing boundaries (Section II.D) damp each directional part
  independently, exactly the equation-splitting of Eq. (5)–(6).

Two kernel families are provided, mirroring the paper's single-CPU
optimization study (Section IV.B):

* :class:`VelocityStressKernel` — the production kernel: reciprocal
  (buoyancy) arrays and pre-averaged moduli, multiplication-only inner
  loops that each run as one unit-stride pass over the padded array, one
  set of velocity derivatives shared by the three normal stresses, and a
  preallocated scratch pool that makes the steady-state step
  allocation-free (all hot-loop arithmetic runs through in-place ufuncs;
  see PERFORMANCE.md and ``tests/core/test_alloc_free.py``).
* :func:`baseline_velocity_update` / :func:`baseline_stress_update` — the
  pre-optimization formulation with divisions by density and per-step
  harmonic averaging of moduli, kept as the measurable "before" case for the
  kernel-optimization benchmark.
"""

from __future__ import annotations

import numpy as np

from . import fd
from .fd import interior
from .grid import WaveField
from .medium import Medium

__all__ = [
    "VelocityStressKernel",
    "RegionUpdater",
    "baseline_velocity_update",
    "baseline_stress_update",
]

# (component, [(axis, stress_field, direction), ...]) for velocity updates.
# direction 'f' = forward staggered derivative, 'b' = backward; determined by
# the relative staggering of the velocity component and the stress field.
_VEL_TERMS: dict[str, tuple[tuple[int, str, str], ...]] = {
    "vx": ((0, "sxx", "f"), (1, "sxy", "b"), (2, "sxz", "b")),
    "vy": ((0, "sxy", "b"), (1, "syy", "f"), (2, "syz", "b")),
    "vz": ((0, "sxz", "b"), (1, "syz", "b"), (2, "szz", "f")),
}

_VEL_BUOYANCY = {"vx": "bx", "vy": "by", "vz": "bz"}

# Shear stress components: (axis term) -> (axis, velocity field, direction).
_SHEAR_TERMS: dict[str, tuple[tuple[int, str, str], ...]] = {
    "sxy": ((0, "vy", "f"), (1, "vx", "f")),
    "sxz": ((0, "vz", "f"), (2, "vx", "f")),
    "syz": ((1, "vz", "f"), (2, "vy", "f")),
}

_SHEAR_MOD = {"sxy": "mu_xy", "sxz": "mu_xz", "syz": "mu_yz"}

# Normal stress -> the one whose terms may reuse its velocity derivatives.
_NORMAL_NEXT = {"sxx": "syy", "syy": "szz", "szz": None}


class VelocityStressKernel:
    """Optimized elastic update kernel bound to one wavefield and medium.

    Scratch arrays are allocated once; :meth:`velocity_terms` and
    :meth:`stress_terms` overwrite and return them, so callers must consume
    a component's terms before requesting the next component's.

    The steady-state step path is **allocation-free**: every temporary the
    update needs (axis-term derivatives, the summed stress rate, the
    ``dt``-scaled increment) lives in a buffer allocated here, and all
    arithmetic is expressed as in-place ufunc calls (``out=``).  The
    arithmetic is ordered exactly as the expression forms it replaced, so
    results are bit-identical to the allocating formulation — the same
    invariant the paper's IV.B optimizations had to preserve (aVal).

    Every stencil and pointwise operation (derivatives, buoyancy and moduli
    multiplies, rate sums, ``dt`` scaling) runs as one unit-stride ufunc over
    the flat span of the padded arrays (:func:`repro.core.fd.diff_span`).
    Span positions that are y/z ghost cells of the kernel's scratch hold
    finite garbage that nothing reads: the field update adds the *interior*
    of the increment (strided, so field ghosts are never written), the
    attenuation hook receives the interior of the rate and PML reads frame
    boxes inside the interior.

    In one stress pass the three normal stresses share one set of velocity
    derivatives: they are computed when ``sxx`` is requested, or ``syy``/
    ``szz`` without its in-pass predecessor, and dropped after ``szz`` and by
    any velocity update.  A caller that edits velocities by hand between the
    normal components must restart the pass at ``sxx``.

    The span bindings — flat field and medium views, C-contiguous copies of
    any non-contiguous medium array, and the shared-derivative buffers — are
    made on the first pooled call, so a solver that only steps the compiled
    sweeps never creates them.
    """

    def __init__(self, wf: WaveField, medium: Medium, dt: float, order: int = 4):
        if medium.grid.padded_shape != wf.grid.padded_shape:
            raise ValueError("medium and wavefield grids differ")
        self.wf = wf
        self.medium = medium
        self.dt = float(dt)
        self.order = order
        self.h = wf.grid.h
        shape = wf.grid.padded_shape
        # Axis-term scratch plus the pooled stress rate, dt-scaled increment
        # and stencil work buffer, all padded-shape so each has a flat span.
        self._scratch = [np.zeros(shape, dtype=wf.dtype) for _ in range(3)]
        self._rate = np.zeros(shape, dtype=wf.dtype)
        self._incr = np.zeros(shape, dtype=wf.dtype)
        self._work = np.zeros(shape, dtype=wf.dtype)
        self._lo, self._hi = fd.interior_span(shape)
        self._strides = (shape[1] * shape[2], shape[2], 1)
        # Interior views resolved once (slicing in the component loop would
        # churn small view objects; the data is shared either way).
        self._rate_int = interior(self._rate)
        self._incr_int = interior(self._incr)
        self._wf_int = {name: interior(getattr(wf, name))
                        for name in self.wf.fields()}
        # Span bindings, made by _bind_spans() on the first pooled call.
        self._med_span: dict[str, np.ndarray] | None = None
        self._med_copies: dict[str, np.ndarray] = {}
        self._dv: list[np.ndarray] | None = None
        self._dv_next: str | None = None

    def _span(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(-1)[self._lo:self._hi]

    def _bind_spans(self) -> None:
        """Resolve flat span views and the lazily created buffers."""
        self._wf_flat = {}
        for name, arr in self.wf.fields().items():
            if not arr.flags.c_contiguous:
                raise ValueError(f"wavefield array {name} is not C-contiguous")
            self._wf_flat[name] = arr.reshape(-1)
        med = {}
        for name in ("bx", "by", "bz", "lam", "lam2mu",
                     "mu_xy", "mu_xz", "mu_yz"):
            a = getattr(self.medium, name)
            if not a.flags.c_contiguous:
                # a view would not be flat: read a C-order copy instead
                a = self._med_copies[name] = np.ascontiguousarray(a)
            med[name] = self._span(a)
        self._dv = [np.zeros_like(s) for s in self._scratch]
        self._dv_span = [self._span(d) for d in self._dv]
        self._scratch_span = [self._span(s) for s in self._scratch]
        self._rate_span = self._span(self._rate)
        self._incr_span = self._span(self._incr)
        self._work_span = self._span(self._work)
        self._med_span = med

    def _diff(self, fname: str, axis: int, fwd: bool,
              out: np.ndarray) -> np.ndarray:
        return fd.diff_span(self._wf_flat[fname], self._lo, self._hi,
                            self._strides[axis], self.h, self.order, fwd,
                            out=out, work=self._work_span)

    def buffers(self) -> dict[str, np.ndarray]:
        """Every buffer the kernel holds (span buffers once they exist)."""
        bufs = {f"scratch[{i}]": s for i, s in enumerate(self._scratch)}
        bufs.update(rate=self._rate, incr=self._incr, work=self._work)
        for i, d in enumerate(self._dv or ()):
            bufs[f"dv[{i}]"] = d
        for name, a in self._med_copies.items():
            bufs[f"medium_copy.{name}"] = a
        return bufs

    def scratch_nbytes(self) -> int:
        """Total bytes held by the preallocated scratch/temporary pool."""
        return sum(b.nbytes for b in self.buffers().values())

    # ------------------------------------------------------------------
    # Axis-term computation
    # ------------------------------------------------------------------
    def velocity_terms(self, comp: str) -> list[np.ndarray]:
        """Per-axis contributions to ``d(comp)/dt`` (buoyancy included)."""
        if self._med_span is None:
            self._bind_spans()
        self._dv_next = None
        b = self._med_span[_VEL_BUOYANCY[comp]]
        for (axis, sname, dirn), t in zip(_VEL_TERMS[comp],
                                          self._scratch_span):
            self._diff(sname, axis, dirn == "f", t)
            t *= b
        return self._scratch[:]

    def stress_terms(self, comp: str) -> list[np.ndarray]:
        """Per-axis contributions to ``d(comp)/dt`` (moduli included).

        Normal components produce three terms (x, y, z strain-rate parts);
        shear components produce two (the third axis does not contribute).
        """
        if self._med_span is None:
            self._bind_spans()
        med = self._med_span
        if comp in _NORMAL_NEXT:
            if comp == "sxx" or self._dv_next != comp:
                for axis, (vname, dv) in enumerate(
                        zip(("vx", "vy", "vz"), self._dv_span)):
                    self._diff(vname, axis, False, dv)
            self._dv_next = _NORMAL_NEXT[comp]
            own = "xyz".index(comp[1])
            for axis, (dv, t) in enumerate(zip(self._dv_span,
                                               self._scratch_span)):
                np.multiply(dv, med["lam2mu" if axis == own else "lam"],
                            out=t)
            return self._scratch[:]
        mod = med[_SHEAR_MOD[comp]]
        for (axis, vname, _), t in zip(_SHEAR_TERMS[comp], self._scratch_span):
            self._diff(vname, axis, True, t)
            t *= mod
        return self._scratch[:2]

    # ------------------------------------------------------------------
    # Plain interior updates
    # ------------------------------------------------------------------
    def update_velocity(self, comp: str) -> list[np.ndarray]:
        """Advance one velocity component over the whole interior.

        Returns the axis terms (still valid views) for boundary modules.
        """
        terms = self.velocity_terms(comp)
        dst = self._wf_int[comp]
        for t in self._scratch_span[:len(terms)]:
            np.multiply(t, self.dt, out=self._incr_span)
            dst += self._incr_int
        return terms

    def update_stress(self, comp: str,
                      rate_hook=None) -> list[np.ndarray]:
        """Advance one stress component over the whole interior.

        ``rate_hook(comp, rate_interior) -> rate_interior`` lets the
        attenuation module transform the elastic stress rate (adding memory
        variable relaxation) before integration.  The rate array is a pooled
        buffer: the hook may modify it in place (and should, to stay
        allocation-free), but must not retain it across calls.  Returns the
        axis terms.
        """
        terms = self.stress_terms(comp)
        t = self._scratch_span
        rate = self._rate_span
        np.add(t[0], t[1], out=rate)
        if len(terms) == 3:
            rate += t[2]
        if rate_hook is None:
            np.multiply(rate, self.dt, out=self._incr_span)
        else:
            np.multiply(rate_hook(comp, self._rate_int), self.dt,
                        out=self._incr_int)
        self._wf_int[comp] += self._incr_int
        return terms

    def step_velocity(self) -> None:
        for comp in ("vx", "vy", "vz"):
            self.update_velocity(comp)

    def step_stress(self, rate_hook=None) -> None:
        for comp in ("sxx", "syy", "szz", "sxy", "sxz", "syz"):
            self.update_stress(comp, rate_hook=rate_hook)


class RegionUpdater:
    """Velocity/stress updates restricted to one box of the interior.

    The compute/comm overlap schedule (paper Section IV.C) advances an
    interior "core" block while halo faces are in flight, then finishes the
    thin face "shell" slabs after the receive.  Each instance binds a kernel
    to one such box (padded-coordinate slices with explicit bounds, inside
    the interior) and owns region-shaped scratch buffers, so steady-state
    region updates are allocation-free like the full-interior path.

    Bit-identity contract: per cell, the ufunc sequence (operations and
    their order) matches :meth:`VelocityStressKernel.update_velocity` /
    ``update_stress`` exactly — region derivatives replay the work-buffer
    stencil path, moduli/buoyancy multiplies and the rate/increment
    accumulation run in the same order on region views.  A disjoint cover of
    the interior by regions therefore reproduces the full-interior update
    bit-for-bit, in any region order (a component's update only reads the
    other field family, never its own neighbours).

    No PML or attenuation hooks: those operate on whole-interior state and
    are not region-splittable, so the overlap schedule is only eligible
    without them (the distributed solver enforces this).
    """

    def __init__(self, kernel: VelocityStressKernel, region: tuple[slice, ...],
                 dt: float | None = None):
        for s in region:
            if s.start is None or s.stop is None:
                raise ValueError("region slices need explicit start/stop")
        self.kernel = kernel
        self.region = region
        # Local-time-stepping rate groups integrate their slab with a
        # multiple of the kernel dt; the default (None) inherits kernel.dt
        # and is bit-identical to the pre-override behaviour.
        self.dt = float(kernel.dt if dt is None else dt)
        self.shape = tuple(s.stop - s.start for s in region)
        if any(n <= 0 for n in self.shape):
            raise ValueError(f"empty region {region!r}")
        dtype = kernel.wf.dtype
        self._t = [np.empty(self.shape, dtype) for _ in range(3)]
        self._work = np.empty(self.shape, dtype)
        self._rate = np.empty(self.shape, dtype)
        self._incr = np.empty(self.shape, dtype)
        self._med = {name: getattr(kernel.medium, name)[region]
                     for name in ("bx", "by", "bz", "lam", "lam2mu",
                                  "mu_xy", "mu_xz", "mu_yz")
                     if hasattr(kernel.medium, name)}
        self._wf = {name: getattr(kernel.wf, name)[region]
                    for name in kernel.wf.fields()}

    def nbytes(self) -> int:
        """Bytes held by this region's scratch buffers."""
        return sum(b.nbytes for b in (*self._t, self._work, self._rate,
                                      self._incr))

    def update_velocity(self, comp: str) -> None:
        k = self.kernel
        b = self._med[_VEL_BUOYANCY[comp]]
        nterms = len(_VEL_TERMS[comp])
        for (axis, sname, dirn), t in zip(_VEL_TERMS[comp], self._t):
            s = getattr(k.wf, sname)
            d = fd.diff_fwd_region if dirn == "f" else fd.diff_bwd_region
            d(s, axis, k.h, self.region, order=k.order, out=t,
              work=self._work)
            t *= b
        dst = self._wf[comp]
        for t in self._t[:nterms]:
            np.multiply(t, self.dt, out=self._incr)
            dst += self._incr

    def update_stress(self, comp: str) -> None:
        k = self.kernel
        wf = k.wf
        if comp in ("sxx", "syy", "szz"):
            dvx, dvy, dvz = self._t
            fd.diff_bwd_region(wf.vx, 0, k.h, self.region, order=k.order,
                               out=dvx, work=self._work)
            fd.diff_bwd_region(wf.vy, 1, k.h, self.region, order=k.order,
                               out=dvy, work=self._work)
            fd.diff_bwd_region(wf.vz, 2, k.h, self.region, order=k.order,
                               out=dvz, work=self._work)
            own = {"sxx": dvx, "syy": dvy, "szz": dvz}[comp]
            lam2mu = self._med["lam2mu"]
            lam = self._med["lam"]
            for t in (dvx, dvy, dvz):
                t *= lam2mu if t is own else lam
            terms = [dvx, dvy, dvz]
        else:
            mod = self._med[_SHEAR_MOD[comp]]
            terms = []
            for (axis, vname, _), t in zip(_SHEAR_TERMS[comp], self._t):
                fd.diff_fwd_region(getattr(wf, vname), axis, k.h, self.region,
                                   order=k.order, out=t, work=self._work)
                t *= mod
                terms.append(t)
        rate = self._rate
        np.copyto(rate, terms[0])
        for t in terms[1:]:
            rate += t
        np.multiply(rate, self.dt, out=self._incr)
        self._wf[comp] += self._incr

    def step_velocity(self) -> None:
        for comp in ("vx", "vy", "vz"):
            self.update_velocity(comp)

    def step_stress(self) -> None:
        for comp in ("sxx", "syy", "szz", "sxy", "sxz", "syz"):
            self.update_stress(comp)


# ----------------------------------------------------------------------
# Pre-optimization ("version <= 6.x") kernels for the Section IV.B study
# ----------------------------------------------------------------------

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
    reassociation; kept for the kernel-optimization benchmark.
    """
    h = wf.grid.h
    rho_at = {"vx": 0, "vy": 1, "vz": 2}
    for comp, terms in _VEL_TERMS.items():
        total = np.zeros(wf.grid.padded_shape, dtype=wf.dtype)
        for axis, sname, dirn in terms:
            s = getattr(wf, sname)
            d = (fd.diff_fwd if dirn == "f" else fd.diff_bwd)(s, axis, h, order=order)
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
    for comp, terms in _SHEAR_TERMS.items():
        ax1, ax2 = {"sxy": (0, 1), "sxz": (0, 2), "syz": (1, 2)}[comp]
        mod = _harmonic4(mu, ax1, ax2)
        total = np.zeros(wf.grid.padded_shape, dtype=wf.dtype)
        for axis, vname, _ in terms:
            d = fd.diff_fwd(getattr(wf, vname), axis, h, order=order)
            interior(total)[...] += interior(d)
        interior(getattr(wf, comp))[...] += dt * interior(mod) * interior(total)
