"""Staggered-grid finite-difference operators (paper Section II.B).

AWP-ODC approximates spatial derivatives with the 4th-order accurate
staggered-grid operator of Eq. (3):

    d/dx F(i,j,k) ~= [ c1*(F(i+1/2) - F(i-1/2)) + c2*(F(i+3/2) - F(i-3/2)) ] / h

with ``c1 = 9/8`` and ``c2 = -1/24``.  On the discrete array (one sample per
cell in each direction), a staggered derivative either moves a quantity from
integer positions to half-integer positions ("forward") or the reverse
("backward").  Both are the same operator applied with a half-cell shift of
the output location:

* ``diff*_fwd`` — output lives half a cell *up* from the input samples::

      out[i] = (c1*(f[i+1] - f[i]) + c2*(f[i+2] - f[i-1])) / h

* ``diff*_bwd`` — output lives half a cell *down* from the input samples::

      out[i] = (c1*(f[i] - f[i-1]) + c2*(f[i+1] - f[i-2])) / h

All operators act on *padded* arrays: every field array carries ``NGHOST = 2``
ghost cells on each side of every axis (the "two-cell padding layer" used for
halo exchange in the paper, Section III.A).  Derivatives are written into the
interior region only; ghost cells of the output are left untouched.

Second-order variants (``c1 = 1, c2 = 0``) are provided for the independent
verification solver and for the reduced-accuracy stencils used adjacent to the
fault plane by the SGSN scheme (Eq. 4b/4c).

The ``diff*`` operators above are the reference formulation.  The production
kernel evaluates the same stencil with :func:`diff_span`: one unit-stride
pass over the flat C-order *span* of a padded array, from its first to its
last interior cell, with the axis shift as a flat offset (``nyp*nzp``,
``nzp`` or ``1``).  Per interior cell it performs the same operations in the
same order, so interior values are bit-identical; the span also covers the
y/z ghost cells between interior rows, where it writes finite values that
mean nothing (see :func:`diff_span`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "C1",
    "C2",
    "NGHOST",
    "diff4_fwd",
    "diff4_bwd",
    "diff2_fwd",
    "diff2_bwd",
    "interior",
    "diff_fwd",
    "diff_bwd",
    "diff_fwd_region",
    "diff_bwd_region",
    "interior_span",
    "diff_span",
]

#: 4th-order staggered-grid coefficients of Eq. (3).
C1: float = 9.0 / 8.0
C2: float = -1.0 / 24.0

#: Ghost-cell padding width required by the 4th-order stencil (Section III.A).
NGHOST: int = 2


def interior(a: np.ndarray) -> np.ndarray:
    """Return a view of the interior (non-ghost) region of a padded array."""
    sl = tuple(slice(NGHOST, -NGHOST) for _ in range(a.ndim))
    return a[sl]


def _resolve_out(f: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Validate a caller-supplied ``out`` buffer (or allocate a fresh one).

    Hot loops pass preallocated scratch arrays here every substep; a shape
    mismatch would otherwise surface as an opaque broadcasting error deep in
    the stencil slicing.
    """
    if out is None:
        return np.zeros_like(f)
    if out.shape != f.shape:
        raise ValueError(
            f"out has shape {out.shape}, expected {f.shape} (the padded "
            "shape of the input field)")
    return out


def _shift(axis: int, lo: int, hi: int, ndim: int) -> tuple[slice, ...]:
    """Interior slice shifted by ``lo`` cells at the low end along ``axis``.

    ``lo``/``hi`` are offsets relative to the interior window ``[NGHOST,
    -NGHOST)``; e.g. ``_shift(0, 1, 1, 3)`` selects ``[NGHOST+1 : -NGHOST+1)``
    along axis 0 and the plain interior on other axes.
    """
    out: list[slice] = []
    for ax in range(ndim):
        if ax == axis:
            stop = -NGHOST + hi
            out.append(slice(NGHOST + lo, stop if stop != 0 else None))
        else:
            out.append(slice(NGHOST, -NGHOST))
    return tuple(out)


def diff4_fwd(f: np.ndarray, axis: int, h: float, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """4th-order staggered derivative; output half a cell up along ``axis``.

    ``out[i] = (c1*(f[i+1]-f[i]) + c2*(f[i+2]-f[i-1])) / h`` over the interior.
    If ``out`` is given, the interior of ``out`` is overwritten and ``out`` is
    returned; otherwise a zero-initialised array of the same shape is created.
    ``work`` (interior-shaped) makes the stencil evaluation allocation-free:
    the coefficient-scaled shifted planes are formed in it instead of in
    fresh temporaries.  Results are bit-identical either way (the in-place
    ufunc sequence performs the same operations in the same order).
    """
    out = _resolve_out(f, out)
    nd = f.ndim
    p1 = f[_shift(axis, 1, 1, nd)]
    p0 = f[_shift(axis, 0, 0, nd)]
    p2 = f[_shift(axis, 2, 2, nd)]
    m1 = f[_shift(axis, -1, -1, nd)]
    dst = interior(out)
    np.multiply(p1, C1, out=dst)
    if work is None:
        dst -= C1 * p0
        dst += C2 * p2
        dst -= C2 * m1
    else:
        np.multiply(p0, C1, out=work)
        dst -= work
        np.multiply(p2, C2, out=work)
        dst += work
        np.multiply(m1, C2, out=work)
        dst -= work
    dst /= h
    return out


def diff4_bwd(f: np.ndarray, axis: int, h: float, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """4th-order staggered derivative; output half a cell down along ``axis``.

    ``out[i] = (c1*(f[i]-f[i-1]) + c2*(f[i+1]-f[i-2])) / h`` over the interior.
    ``out``/``work`` behave as in :func:`diff4_fwd`.
    """
    out = _resolve_out(f, out)
    nd = f.ndim
    p0 = f[_shift(axis, 0, 0, nd)]
    m1 = f[_shift(axis, -1, -1, nd)]
    p1 = f[_shift(axis, 1, 1, nd)]
    m2 = f[_shift(axis, -2, -2, nd)]
    dst = interior(out)
    np.multiply(p0, C1, out=dst)
    if work is None:
        dst -= C1 * m1
        dst += C2 * p1
        dst -= C2 * m2
    else:
        np.multiply(m1, C1, out=work)
        dst -= work
        np.multiply(p1, C2, out=work)
        dst += work
        np.multiply(m2, C2, out=work)
        dst -= work
    dst /= h
    return out


def diff2_fwd(f: np.ndarray, axis: int, h: float, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """2nd-order staggered derivative, output half a cell up (Eq. 4b form).

    Already allocation-free with ``out=``; ``work`` is accepted (and unused)
    for signature parity with the 4th-order operators.
    """
    out = _resolve_out(f, out)
    nd = f.ndim
    dst = interior(out)
    np.subtract(f[_shift(axis, 1, 1, nd)], f[_shift(axis, 0, 0, nd)], out=dst)
    dst /= h
    return out


def diff2_bwd(f: np.ndarray, axis: int, h: float, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """2nd-order staggered derivative, output half a cell down (Eq. 4c form).

    Already allocation-free with ``out=``; ``work`` is accepted (and unused)
    for signature parity with the 4th-order operators.
    """
    out = _resolve_out(f, out)
    nd = f.ndim
    dst = interior(out)
    np.subtract(f[_shift(axis, 0, 0, nd)], f[_shift(axis, -1, -1, nd)], out=dst)
    dst /= h
    return out


def diff_fwd(f: np.ndarray, axis: int, h: float, order: int = 4,
             out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """Forward staggered derivative of the requested ``order`` (2 or 4)."""
    if order == 4:
        return diff4_fwd(f, axis, h, out, work)
    if order == 2:
        return diff2_fwd(f, axis, h, out, work)
    raise ValueError(f"unsupported FD order: {order!r} (expected 2 or 4)")


def diff_bwd(f: np.ndarray, axis: int, h: float, order: int = 4,
             out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """Backward staggered derivative of the requested ``order`` (2 or 4)."""
    if order == 4:
        return diff4_bwd(f, axis, h, out, work)
    if order == 2:
        return diff2_bwd(f, axis, h, out, work)
    raise ValueError(f"unsupported FD order: {order!r} (expected 2 or 4)")


# ---------------------------------------------------------------------------
# Region-restricted variants (compute/comm overlap, paper Section IV.C)
# ---------------------------------------------------------------------------
#
# The overlap schedule splits each update into an interior "core" block that
# can run while halo faces are in flight and thin "shell" slabs completed
# after the receive.  These operators evaluate the same stencil restricted to
# an arbitrary box of the padded array, replaying the exact in-place ufunc
# sequence of the full-interior operators so that core+shell coverage of the
# interior is bit-identical to one full-interior sweep.
#
# A region is a tuple of three slices in *padded* coordinates with explicit
# integer start/stop; it must lie inside the interior window so every stencil
# read (up to 2 cells outward along the differentiated axis) stays in bounds
# of the padded array.


def _region_shift(region: tuple[slice, ...], axis: int,
                  d: int) -> tuple[slice, ...]:
    """Shift a padded-coordinate region by ``d`` cells along ``axis``."""
    sl = list(region)
    s = sl[axis]
    sl[axis] = slice(s.start + d, s.stop + d)
    return tuple(sl)


def diff4_fwd_region(f: np.ndarray, axis: int, h: float,
                     region: tuple[slice, ...], out: np.ndarray,
                     work: np.ndarray) -> np.ndarray:
    """:func:`diff4_fwd` restricted to ``region``; ``out``/``work`` are
    region-shaped buffers.  Per-cell arithmetic (ops and their order) is
    identical to the full-interior work-buffer path, so a disjoint cover of
    the interior by regions reproduces ``diff4_fwd`` bit-for-bit."""
    np.multiply(f[_region_shift(region, axis, 1)], C1, out=out)
    np.multiply(f[region], C1, out=work)
    out -= work
    np.multiply(f[_region_shift(region, axis, 2)], C2, out=work)
    out += work
    np.multiply(f[_region_shift(region, axis, -1)], C2, out=work)
    out -= work
    out /= h
    return out


def diff4_bwd_region(f: np.ndarray, axis: int, h: float,
                     region: tuple[slice, ...], out: np.ndarray,
                     work: np.ndarray) -> np.ndarray:
    """:func:`diff4_bwd` restricted to ``region`` (see
    :func:`diff4_fwd_region` for the bit-identity contract)."""
    np.multiply(f[region], C1, out=out)
    np.multiply(f[_region_shift(region, axis, -1)], C1, out=work)
    out -= work
    np.multiply(f[_region_shift(region, axis, 1)], C2, out=work)
    out += work
    np.multiply(f[_region_shift(region, axis, -2)], C2, out=work)
    out -= work
    out /= h
    return out


def diff2_fwd_region(f: np.ndarray, axis: int, h: float,
                     region: tuple[slice, ...], out: np.ndarray,
                     work: np.ndarray | None = None) -> np.ndarray:
    """:func:`diff2_fwd` restricted to ``region`` (``work`` unused)."""
    np.subtract(f[_region_shift(region, axis, 1)], f[region], out=out)
    out /= h
    return out


def diff2_bwd_region(f: np.ndarray, axis: int, h: float,
                     region: tuple[slice, ...], out: np.ndarray,
                     work: np.ndarray | None = None) -> np.ndarray:
    """:func:`diff2_bwd` restricted to ``region`` (``work`` unused)."""
    np.subtract(f[region], f[_region_shift(region, axis, -1)], out=out)
    out /= h
    return out


def diff_fwd_region(f: np.ndarray, axis: int, h: float,
                    region: tuple[slice, ...], order: int = 4,
                    out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Forward region-restricted derivative of the requested ``order``."""
    if order == 4:
        return diff4_fwd_region(f, axis, h, region, out, work)
    if order == 2:
        return diff2_fwd_region(f, axis, h, region, out, work)
    raise ValueError(f"unsupported FD order: {order!r} (expected 2 or 4)")


def diff_bwd_region(f: np.ndarray, axis: int, h: float,
                    region: tuple[slice, ...], order: int = 4,
                    out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Backward region-restricted derivative of the requested ``order``."""
    if order == 4:
        return diff4_bwd_region(f, axis, h, region, out, work)
    if order == 2:
        return diff2_bwd_region(f, axis, h, region, out, work)
    raise ValueError(f"unsupported FD order: {order!r} (expected 2 or 4)")


# ---------------------------------------------------------------------------
# Flat-span variant (the production kernel's unit-stride form)
# ---------------------------------------------------------------------------


def interior_span(shape: tuple[int, ...]) -> tuple[int, int]:
    """Flat C-order bounds ``[lo, hi)`` from the first to the last interior
    cell of a padded array of ``shape``.

    Every interior cell lies in the span; so do the y/z ghost cells between
    interior rows, but no cell of the low/high x ghost planes.  Stencil reads
    reach at most ``NGHOST`` flat strides outward, which stays in bounds.
    """
    lo = hi = 0
    stride = 1
    for n in reversed(shape):
        lo += NGHOST * stride
        hi += (n - NGHOST - 1) * stride
        stride *= n
    return lo, hi + 1


def diff_span(f: np.ndarray, lo: int, hi: int, stride: int, h: float,
              order: int = 4, fwd: bool = True, *, out: np.ndarray,
              work: np.ndarray | None = None) -> np.ndarray:
    """Staggered derivative as one unit-stride pass over the span ``[lo, hi)``.

    ``f`` is the flat C-order view of a padded array, ``stride`` the flat
    distance of one cell along the differentiated axis, and ``out``/``work``
    are span-length buffers (``work`` only for ``order=4``).  ``out[p]`` is
    the ``fwd`` (:func:`diff_fwd`) or backward (:func:`diff_bwd`) derivative
    at flat position ``lo + p``, evaluated with the same operations in the
    same order as the ``diff4_*``/``diff2_*`` work-buffer path, so it is
    bit-identical to them at every interior cell.

    Positions of the span that are y/z ghost cells get the stencil applied
    across the row seam: finite values (the field is finite) that are not a
    derivative.  Only kernel-private scratch may receive them, and no reader
    may look at them — consumers take interior views.
    """
    if not fwd:
        lo -= stride
        hi -= stride
    if lo - stride < 0 or hi + 2 * stride > f.size:
        raise ValueError("span stencil reads outside the array")

    def at(d: int) -> np.ndarray:
        return f[lo + d * stride:hi + d * stride]

    if order == 4:
        np.multiply(at(1), C1, out=out)
        np.multiply(at(0), C1, out=work)
        out -= work
        np.multiply(at(2), C2, out=work)
        out += work
        np.multiply(at(-1), C2, out=work)
        out -= work
    elif order == 2:
        np.subtract(at(1), at(0), out=out)
    else:
        raise ValueError(f"unsupported FD order: {order!r} (expected 2 or 4)")
    out /= h
    return out
