"""Velocity–stress update kernels (paper Sections II.A–B, IV.B).

The nine governing scalar equations (three velocity components, six stress
components; Eq. 1a/1b decomposed component-wise) are advanced with the
explicit staggered-grid leapfrog scheme: 2nd-order in time (Eq. 2), 4th-order
in space (Eq. 3).

Each component's time derivative is computed as up to three *axis terms* —
the x-, y-, z- derivative contributions.  Keeping the terms separate serves
two masters:

* the interior update integrates them;
* the PML absorbing boundaries (Section II.D) damp each directional part
  independently, exactly the equation-splitting of Eq. (5)–(6).

The update is the statement list of :mod:`repro.core.update`, and
:class:`UpdateExecutor` is its one numpy consumer: the list bound once to
in-place ufunc calls over the flat interior span of the padded arrays
(:class:`VelocityStressKernel`, the production kernel) or over one region
box with its own ``dt`` (:meth:`VelocityStressKernel.region`: the IV.C
core/shell boxes, the LTS slabs).  Per cell both perform the list's
operations in its order, so a disjoint box cover reproduces the span update
bit for bit, in any box order.

The pre-optimization formulation (divisions by density, per-step harmonic
averaging of moduli) lives in ``tests/core/baseline_kernels.py`` as the
independent oracle these kernels are checked against.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from . import fd, update
from .fd import interior
from .grid import STRESS_FIELDS, VELOCITY_FIELDS, WaveField
from .medium import Medium

__all__ = [
    "VelocityStressKernel",
    "UpdateExecutor",
]

_UFUNCS = {"sub": np.subtract, "mul": np.multiply, "add": np.add}


def _bind(stmts, view, cell) -> tuple:
    """``(ufunc, a, b, out)`` per statement; one that writes a field binds
    its operands through ``cell``, the others through ``view``."""
    return tuple((_UFUNCS[s.op], *map(cell if s.out.kind == "field" else view,
                                      (s.a, s.b, s.out))) for s in stmts)


def _call(calls) -> None:
    for f, a, b, out in calls:
        f(a, b, out=out)


def span_views(shape, arrays: dict, temps: dict, scalars: dict):
    """``(view, cell)``: operands over the flat interior span of padded
    C-contiguous arrays (:func:`repro.core.fd.interior_span`), taps shifted
    by a flat offset; or their interior views, for field writes.  The
    span's y/z ghost positions get the stencil across the row seam: finite
    values that only temporaries receive (and memory variables, whose
    zero-ghost coefficients keep them zero)."""
    lo, hi = fd.interior_span(shape)
    strides = (shape[1] * shape[2], shape[2], 1)

    def view(r):
        if r.kind == "scalar":
            return scalars[r.name]
        a = (temps if r.kind == "temp" else arrays)[r.name]
        if a.shape != tuple(shape) or not a.flags.c_contiguous:
            raise ValueError(f"{r.name} is not a C-contiguous {shape} array")
        s = r.d * strides[r.axis]
        if lo + s < 0 or hi + s > a.size:
            raise ValueError(f"{r} reads outside the array")
        return a.reshape(-1)[lo + s:hi + s]

    def cell(r):
        if r.kind == "scalar":
            return scalars[r.name]
        return interior((temps if r.kind == "temp" else arrays)[r.name])

    return view, cell


def box_views(region, arrays: dict, temps: dict, scalars: dict):
    """``(view, view)``: operands over the padded-coordinate box ``region``,
    taps shifted along their axis; temporaries are box-shaped."""

    def view(r):
        if r.kind in ("scalar", "temp"):
            return (scalars if r.kind == "scalar" else temps)[r.name]
        a, sl = arrays[r.name], list(region)
        sl[r.axis] = slice(sl[r.axis].start + r.d, sl[r.axis].stop + r.d)
        if sl[r.axis].start < 0 or sl[r.axis].stop > a.shape[r.axis]:
            raise ValueError(f"{r} reads outside the {a.shape} array")
        return a[tuple(sl)]

    return view, view


class _Plan(NamedTuple):
    """One component block, bound."""

    pos: int            # its place in list order
    uses: str | None    # the shared block it reads
    terms: tuple        # the calls that form its axis terms
    rest: tuple         # the calls that finish it


class UpdateExecutor:
    """The statement list of :mod:`repro.core.update` bound to arrays, once,
    as flat tuples of ``(ufunc, a, b, out)`` calls: a step allocates nothing
    and does, per cell, the list's operations in the list's order.

    A shared block is computed by the first component of a pass that uses
    it and reused by the later ones.  A pass ends when a component runs
    that is not after the previous one in list order (a velocity ends a
    stress pass); a caller that edits the read fields mid-pass restarts it.
    """

    def __init__(self, halves: dict, view, cell, kernel=None):
        #: the kernel whose wavefield and medium are bound
        self.kernel = kernel
        view, cell = cache(view), cache(cell)   # one view object per operand
        self._shared, self._plans, self._names = {}, {}, {}
        for half, blocks in halves.items():
            self._names[half] = [b.name for b in blocks if b.terms]
            for b in blocks:
                body = b.body
                if not b.terms:
                    self._shared[b.name] = _bind(body, view, cell)
                    continue
                terms = {t for _, t in b.terms}
                n = 1 + max(i for i, s in enumerate(body) if s.out in terms)
                self._plans[b.name] = _Plan(
                    len(self._plans), b.uses, _bind(body[:n], view, cell),
                    _bind(body[n:], view, cell))
        self._last, self._fresh = -1, set()

    def _terms(self, name: str) -> _Plan:
        plan = self._plans[name]
        if plan.pos <= self._last:
            self._fresh.clear()     # a new pass
        self._last = plan.pos
        if plan.uses is not None and plan.uses not in self._fresh:
            _call(self._shared[plan.uses])
            self._fresh.add(plan.uses)
        _call(plan.terms)
        return plan

    def terms(self, name: str) -> None:
        """Form the axis terms of the component ``name``."""
        self._terms(name)

    def run(self, name: str) -> None:
        """Advance the component ``name``."""
        _call(self._terms(name).rest)

    def step_velocity(self) -> None:
        for name in self._names["velocity"]:
            self.run(name)

    def step_stress(self) -> None:
        for name in self._names["stress"]:
            self.run(name)


def _label(name: str) -> str:
    """A temporary's buffer label: ``t0`` -> ``scratch[0]``, ``dv1`` ->
    ``dv[1]``, ``rate`` -> ``rate``."""
    stem = name.rstrip("0123456789")
    return name if stem == name else \
        f"{'scratch' if stem == 't' else stem}[{name[len(stem):]}]"


class VelocityStressKernel:
    """Optimized elastic update kernel bound to one wavefield and medium.

    The update list runs through an :class:`UpdateExecutor` over the flat
    interior span: each operation is one unit-stride ufunc, and only field
    writes run strided on interiors; with ``attenuation`` the list is the
    anelastic one.  The step is **allocation-free** and bit-identical to the
    allocating expression forms (the invariant of the paper's IV.B
    optimizations, aVal).  A component's terms are overwritten by the next
    component's.  The span binding (flat views, C-order copies of
    non-contiguous medium arrays, the shared-derivative buffers) is made on
    the first pooled call: a compiled-only solver never creates it.
    """

    def __init__(self, wf: WaveField, medium: Medium, dt: float,
                 order: int = 4, attenuation=None):
        if medium.grid.padded_shape != wf.grid.padded_shape:
            raise ValueError("medium and wavefield grids differ")
        self.wf = wf
        self.medium = medium
        self.dt = float(dt)
        self.order = order
        self.h = wf.grid.h
        self.attenuation = attenuation
        self._halves = update.halves(order, attenuation is not None)
        blocks = [b for h in self._halves.values() for b in h]
        comps = [b for b in blocks if b.terms]
        # the components' temporaries, padded so each has a flat span
        self._temps = {t: np.zeros(wf.grid.padded_shape, dtype=wf.dtype)
                       for t in update.temporaries(comps)}
        self._terms = {b.name: [self._temps[t.name] for _, t in b.terms]
                       for b in comps}
        self._all_temps = update.temporaries(blocks)
        self._span: UpdateExecutor | None = None
        self._made: dict[str, np.ndarray] = {}   # by the span binding

    def _executor(self) -> UpdateExecutor:
        if self._span is None:
            shape = self.wf.grid.padded_shape
            arrays = dict(self.wf.fields())
            for name, a in update.medium_arrays(self.medium).items():
                if not a.flags.c_contiguous:
                    # a view would not be flat: read a C-order copy instead
                    a = self._made[f"medium_copy.{name}"] = \
                        np.ascontiguousarray(a)
                arrays[name] = a
            arrays.update(self.attenuation.arrays(self.dt)
                          if self.attenuation else {})
            temps = dict(self._temps)
            for t in self._all_temps:
                if t not in temps:
                    temps[t] = self._made[_label(t)] = np.zeros(
                        shape, dtype=self.wf.dtype)
            self._span = UpdateExecutor(
                self._halves, *span_views(shape, arrays, temps, update.scalars(
                    self.h, self.dt, self.order)), kernel=self)
        return self._span

    def region(self, region: tuple[slice, ...],
               dt: float | None = None) -> UpdateExecutor:
        """The update list bound to one box of the interior (padded
        coordinates, explicit bounds), with box-shaped temporaries and its
        own ``dt`` (default: the kernel's; an LTS rate group integrates with
        a multiple — refused under attenuation, whose coefficients are
        built for the kernel's).  No PML: its split parts are
        whole-interior state, so the schedules that cut boxes run without
        it."""
        if any(s.start is None or s.stop is None for s in region):
            raise ValueError("region slices need explicit start/stop")
        shape = tuple(s.stop - s.start for s in region)
        if any(n <= 0 for n in shape):
            raise ValueError(f"empty region {region!r}")
        dt = self.dt if dt is None else dt
        arrays = {**self.wf.fields(), **update.medium_arrays(self.medium),
                  **(self.attenuation.arrays(dt) if self.attenuation else {})}
        temps = {t: np.empty(shape, self.wf.dtype) for t in self._all_temps}
        return UpdateExecutor(self._halves, *box_views(
            region, arrays, temps, update.scalars(self.h, dt, self.order)),
            kernel=self)

    def buffers(self) -> dict[str, np.ndarray]:
        """Every buffer the kernel holds (span buffers once they exist)."""
        return {**{_label(t): a for t, a in self._temps.items()},
                **self._made}

    def scratch_nbytes(self) -> int:
        """Total bytes held by the preallocated scratch/temporary pool."""
        return sum(b.nbytes for b in self.buffers().values())

    def stress_terms(self, comp: str) -> list[np.ndarray]:
        """Per-axis contributions to ``d(comp)/dt`` (buoyancy or moduli
        included) without advancing ``comp``: three for velocities and
        normal stresses, two for shear stresses (axes:
        :data:`repro.core.update.TERM_AXES`)."""
        self._executor().terms(comp)
        return self._terms[comp][:]

    velocity_terms = stress_terms

    def update_velocity(self, comp: str) -> list[np.ndarray]:
        """Advance one velocity component over the whole interior.

        Returns the axis terms (still valid views) for boundary modules.
        """
        self._executor().run(comp)
        return self._terms[comp][:]

    def update_stress(self, comp: str) -> list[np.ndarray]:
        """Advance one stress component (relaxed by its memory variable
        under attenuation) over the whole interior; returns the axis
        terms."""
        self._executor().run(comp)
        return self._terms[comp][:]

    def step_velocity(self) -> None:
        for comp in VELOCITY_FIELDS:
            self.update_velocity(comp)

    def step_stress(self) -> None:
        for comp in STRESS_FIELDS:
            self.update_stress(comp)
