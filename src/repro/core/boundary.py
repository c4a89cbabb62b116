"""Free-surface and sponge-layer boundary conditions (Sections II.D–E).

* :class:`FreeSurfaceFS2` — the paper's zero-stress condition "FS2"
  (Gottschammer & Olsen 2001), defined at the vertical level of the
  ``sxz``/``syz`` stresses: those stresses vanish on the surface plane and
  are imaged antisymmetrically above it, ``szz`` is imaged antisymmetrically
  about the surface, and ghost velocities above the surface are filled so the
  discrete zero-traction conditions are preserved.

* :class:`SpongeLayer` — Cerjan et al. (1985) absorbing layers: an
  unconditionally stable exponential taper applied to the full (un-split)
  wavefield inside frame regions.  Poorer absorption than PML but never
  unstable — exactly the trade-off described in the paper, which falls back
  to sponge layers when strong medium gradients destabilise split PMLs.

Both operators take an optional ``kernels`` (a resolved
:class:`repro.core.compiled.KernelSet`): with one, their public methods run
the compiled operators — bitwise identical to the numpy bodies here, which
stay the reference the pooled variant executes (DESIGN.md §3).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fd import NGHOST, interior
from .grid import ALL_FIELDS, WaveField
from .medium import Medium

__all__ = ["FreeSurfaceFS2", "SpongeFrame", "SpongeLayer", "sponge_frame",
           "sponge_profile"]


class FreeSurfaceFS2:
    """FS2 zero-stress free surface at the top of the grid (z max).

    The surface plane coincides with the ``sxz``/``syz`` level of the
    top-most interior cell, i.e. ``z = (nz - 1/2) * h`` above the grid
    origin.  Apply :meth:`apply_stress` after each stress update and
    :meth:`apply_velocity` after each velocity update.
    """

    def __init__(self, medium: Medium, kernels=None):
        self.medium = medium
        self.kernels = kernels
        self._wf = None     # the wavefield ``_bound`` is bound to

    def _compiled(self, wf: WaveField):
        """(ghost fill, imaging) bound to ``wf``; rebound when it changes."""
        if wf is not self._wf:
            kt = NGHOST + wf.grid.nz - 1
            self._bound = (
                self.kernels.fs_velocity(wf.vx, wf.vy, wf.vz, self.medium.lam,
                                         self.medium.lam2mu, kt),
                self.kernels.fs_stress(wf.sxz, wf.syz, wf.szz, kt))
            self._wf = wf
        return self._bound

    def apply_stress(self, wf: WaveField) -> None:
        """Zero surface shear tractions and image stresses antisymmetrically."""
        if self.kernels is not None:
            _, image = self._compiled(wf)
            image()
            return
        kt = NGHOST + wf.grid.nz - 1  # padded index of top interior plane
        # sxz, syz live on the surface plane itself: traction-free.
        wf.sxz[:, :, kt] = 0.0
        wf.syz[:, :, kt] = 0.0
        wf.sxz[:, :, kt + 1] = -wf.sxz[:, :, kt - 1]
        wf.syz[:, :, kt + 1] = -wf.syz[:, :, kt - 1]
        wf.sxz[:, :, kt + 2] = -wf.sxz[:, :, kt - 2]
        wf.syz[:, :, kt + 2] = -wf.syz[:, :, kt - 2]
        # szz sits half a cell below the surface; antisymmetric imaging makes
        # the traction vanish exactly on the surface plane.
        wf.szz[:, :, kt + 1] = -wf.szz[:, :, kt]
        wf.szz[:, :, kt + 2] = -wf.szz[:, :, kt - 1]

    def apply_velocity(self, wf: WaveField) -> None:
        """Fill ghost velocities above the surface from zero-traction rates.

        The ghost planes are chosen so the discrete time derivative of the
        surface tractions remains zero: ``d(sxz)/dt = 0`` and ``d(syz)/dt = 0``
        on the surface give the horizontal ghosts; ``d(szz)/dt`` antisymmetry
        gives the vertical ghost (2nd-order one-sided, the usual reduction of
        order at the boundary).
        """
        if self.kernels is not None:
            fill, _ = self._compiled(wf)
            fill()
            return
        kt = NGHOST + wf.grid.nz - 1
        lam = self.medium.lam
        lam2mu = self.medium.lam2mu
        # mu(dvx/dz + dvz/dx) = 0 on surface -> vx ghost.
        # vx is at (i+1/2, j, k); dvz/dx at (i+1/2, ..., surface) is forward.
        dvz_dx = np.empty_like(wf.vz[:, :, kt])
        dvz_dx[:-1, :] = wf.vz[1:, :, kt] - wf.vz[:-1, :, kt]
        dvz_dx[-1, :] = 0.0
        wf.vx[:, :, kt + 1] = wf.vx[:, :, kt] - dvz_dx
        dvz_dy = np.empty_like(wf.vz[:, :, kt])
        dvz_dy[:, :-1] = wf.vz[:, 1:, kt] - wf.vz[:, :-1, kt]
        dvz_dy[:, -1] = 0.0
        wf.vy[:, :, kt + 1] = wf.vy[:, :, kt] - dvz_dy

        # d(szz)/dt antisymmetry about the surface -> vz ghost (2nd order):
        #   lam2mu*(vz[kt+1]-vz[kt])/h + lam*A[kt+1]
        #     = -( lam2mu*(vz[kt]-vz[kt-1])/h + lam*A[kt] )
        # with A = dvx/dx + dvy/dy evaluated with the ghosts just filled.
        def horiz_div(k: int) -> np.ndarray:
            d = np.zeros_like(wf.vx[:, :, k])
            d[1:, :] += wf.vx[1:, :, k] - wf.vx[:-1, :, k]
            d[:, 1:] += wf.vy[:, 1:, k] - wf.vy[:, :-1, k]
            return d

        a_sum = horiz_div(kt + 1) + horiz_div(kt)
        ratio = lam[:, :, kt] / lam2mu[:, :, kt]
        wf.vz[:, :, kt + 1] = (2.0 * wf.vz[:, :, kt] - wf.vz[:, :, kt - 1]
                               - ratio * a_sum)


def sponge_profile(width: int, amp: float = 0.92) -> np.ndarray:
    """Cerjan damping multipliers for a layer of ``width`` cells.

    ``out[0]`` is the outermost (most damped) cell.  The classic profile is
    ``exp(-(a * (W - d) / W)^2)`` with ``a`` set so the outermost multiplier
    equals ``amp``-derived damping; we use the standard parametrisation with
    ``a = sqrt(-ln(amp))`` giving ``out[0] = amp``.
    """
    if width < 1:
        return np.ones(0)
    a = np.sqrt(-np.log(amp))
    d = np.arange(width, dtype=np.float64)
    return np.exp(-(a * (width - d) / width) ** 2)


class SpongeFrame(NamedTuple):
    """The cells of a taper slab a damping pass must visit.

    Row ``(i, j)`` is visited on every plane when ``rowfull[i, j]``, and on
    planes ``[0, ka)`` and ``[kb, nk)`` otherwise.
    """

    rowfull: np.ndarray     #: uint8 (nx, ny), C-contiguous
    ka: int
    kb: int


def sponge_frame(taper: np.ndarray) -> SpongeFrame:
    """The frame of a 3-D ``taper``: a cover of ``{taper != 1}``.

    ``x * 1.0 == x`` for every float (signed zeros, infinities and quiet-NaN
    payloads included), so a pass that skips the cells outside the frame
    equals the whole-slab multiply bit for bit.  The frame is read off the
    taper itself, never off the profiles it was built from, so rounding in
    the profile product (or a ``taper**rate``) cannot drop a cell: planes
    damped on every row form the z frame ``[0, ka) + [kb, nk)``, and any row
    damped anywhere else is visited in full.
    """
    damped = taper != 1
    nk = taper.shape[2]
    plane = damped.all(axis=(0, 1))
    ka = nk if plane.all() else int(np.argmin(plane))
    kb = nk - (0 if ka == nk else int(np.argmin(plane[::-1])))
    rowfull = damped[:, :, ka:kb].any(axis=2)
    return SpongeFrame(np.ascontiguousarray(rowfull, dtype=np.uint8), ka, kb)


class SpongeLayer:
    """Cerjan sponge frame on x/y sides and the bottom (top = free surface).

    Damping multipliers are the product of per-axis profiles, applied to all
    nine field components every time step.  ``damp_top=True`` adds a top
    layer for runs without a free surface.
    """

    def __init__(self, grid, width: int = 20, amp: float = 0.92,
                 damp_top: bool = False,
                 global_shape: tuple[int, int, int] | None = None,
                 index_origin: tuple[int, int, int] = (0, 0, 0),
                 dtype=np.float64, kernels=None):
        gshape = global_shape if global_shape is not None else grid.shape
        if width >= min(gshape):
            raise ValueError("sponge width must be smaller than the grid")
        self.grid = grid
        self.width = width
        self.amp = amp
        prof = sponge_profile(width, amp)

        def axis_profile(n: int, both: bool) -> np.ndarray:
            p = np.ones(n, dtype=np.float64)
            p[:width] = prof
            if both:
                p[n - width:] = prof[::-1]
            return p

        # Profiles are defined on the *global* grid, then sliced to this
        # (sub)grid, so decomposed runs damp exactly like serial runs.
        gx = axis_profile(gshape[0], both=True)
        gy = axis_profile(gshape[1], both=True)
        gz = np.ones(gshape[2], dtype=np.float64)
        gz[:width] = prof  # bottom
        if damp_top:
            gz[gshape[2] - width:] = prof[::-1]
        ox, oy, oz = index_origin
        # Profiles are built in float64 at global positions (so decomposed
        # runs damp bit-identically to serial ones at every precision), then
        # stored at the wavefield dtype to keep the taper multiply native.
        dtype = np.dtype(dtype)
        gx = gx[ox:ox + grid.nx].astype(dtype)
        gy = gy[oy:oy + grid.ny].astype(dtype)
        gz = gz[oz:oz + grid.nz].astype(dtype)
        self.gx, self.gy, self.gz = gx, gy, gz
        self._g3 = (gx[:, None, None] * gy[None, :, None] * gz[None, None, :])
        self.kernels = kernels
        self._wf = None     # the wavefield ``_bound`` is bound to
        #: id(taper) -> (taper, its frame) for the tapers this layer made;
        #: empty without kernels (the numpy multiply needs no frame)
        self._frames: dict[int, tuple[np.ndarray, SpongeFrame]] = {}
        self._framed(self._g3)

    def _framed(self, taper: np.ndarray) -> np.ndarray:
        if self.kernels is not None:
            self._frames[id(taper)] = (taper, sponge_frame(taper))
        return taper

    def apply(self, wf: WaveField) -> None:
        self._damp(wf, 0, self.grid.nz, self._g3)

    def slab_taper(self, k_lo: int, k_hi: int, power=1) -> np.ndarray:
        """Taper for interior k-planes ``[k_lo, k_hi)``, raised to ``power``
        (an int, or one int per plane).

        An LTS rate group damped once per ``rate`` substeps uses
        ``power=rate`` — identical to damping the held slab every fine
        substep, since the multiplier commutes with holding; a run of
        adjacent groups damped in one pass carries each group's rate on
        that group's planes.
        """
        powers = np.broadcast_to(power, (k_hi - k_lo,))
        cuts = [0, *(np.flatnonzero(np.diff(powers)) + 1), len(powers)]
        # one scalar power per piece: ``x ** 2`` must stay numpy's square
        return self._framed(np.concatenate(
            [self._g3[:, :, k_lo + a:k_lo + b] ** int(powers[a])
             for a, b in zip(cuts, cuts[1:])], axis=2))

    def apply_slab(self, wf: WaveField, k_lo: int, k_hi: int,
                   taper: np.ndarray) -> None:
        """Damp interior planes ``[k_lo, k_hi)`` by ``taper``.

        With kernels and a taper from :meth:`slab_taper` (whose frame is
        known) only the frame is visited; any other taper takes the numpy
        whole-slab multiply.
        """
        self._damp(wf, k_lo, k_hi, taper)

    def _damp(self, wf: WaveField, k_lo: int, k_hi: int,
              taper: np.ndarray) -> None:
        if wf is not self._wf:
            self._wf, self._bound = wf, {}
        call = self._bound.get((id(taper), k_lo))
        if call is None:
            entry = self._frames.get(id(taper))
            if entry is None:
                for name in ALL_FIELDS:
                    interior(getattr(wf, name))[:, :, k_lo:k_hi] *= taper
                return
            if taper.shape[2] != k_hi - k_lo:
                raise ValueError(f"taper has {taper.shape[2]} planes, slab "
                                 f"[{k_lo}, {k_hi}) has {k_hi - k_lo}")
            frame = entry[1]
            call = self._bound[id(taper), k_lo] = self.kernels.damp(
                wf.fields().values(), taper, frame.rowfull, NGHOST + k_lo,
                frame.ka, frame.kb)
        call()

    def reflection_estimate(self) -> float:
        """Crude two-way amplitude multiplier through the layer (diagnostic)."""
        return float(np.prod(sponge_profile(self.width, self.amp)) ** 2)
