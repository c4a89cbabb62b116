"""Split-field PML and multi-axial M-PML absorbing boundaries (Section II.D).

The paper's PML follows the time-domain equation-splitting of Eq. (5)–(6):
every wavefield equation is split into directional parts and a damping term
``d(x)`` is added to the part perpendicular to the boundary.  The multi-axial
M-PML of Meza-Fajardo & Papageorgiou additionally damps the parallel parts
with a proportionality ratio ``p``, which stabilises the layer in media with
strong parameter gradients; the paper ran M8 with M-PMLs of width 10.

Implementation: inside a frame of boundary boxes (x/y sides and the bottom;
the top carries the free surface), each of the nine field components ``f`` is
stored as three directional parts ``f = px + py + pz``, where ``pa`` receives
the axis-``a`` derivative term from the kernel.  The damped part update is
the Crank–Nicolson form of Eq. (6):

    pa^{n+1} = [ (1 - dt*d_a/2) * pa^n + dt * term_a ] / (1 + dt*d_a/2)

with effective damping ``d_a = d_a(base) + p * (d_b + d_c)`` (``p = 0``
recovers the classical split PML, ``p > 0`` the M-PML).  Part storage exists
only inside the frame boxes, so memory overhead is proportional to the frame
volume rather than the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fd import NGHOST
from .grid import ALL_FIELDS, FIELD_OFFSETS, Grid3D, WaveField
from .medium import Medium

__all__ = ["PMLConfig", "PML", "damping_profile", "frame_boxes"]


@dataclass(frozen=True)
class PMLConfig:
    """PML parameters.

    ``width`` is in grid cells (the paper's M8 used 10); ``r0`` is the target
    theoretical reflection coefficient; ``exponent`` the polynomial grading;
    ``mpml_ratio`` the M-PML parallel-damping ratio ``p`` (0 = classic PML,
    the paper-style M-PML commonly uses ~0.05–0.15); ``damp_top`` adds a top
    layer for free-surface-less runs.
    """

    width: int = 10
    r0: float = 1e-4
    exponent: int = 2
    mpml_ratio: float = 0.1
    damp_top: bool = False


def damping_profile(depth: np.ndarray, width_m: float, cmax: float,
                    r0: float, exponent: int) -> np.ndarray:
    """PML damping d at penetration ``depth`` (metres) into a layer.

    ``d0 = -(N+1) * cmax * ln(r0) / (2 * L)`` with polynomial grading
    ``d(x) = d0 * (x / L)^N``; zero outside the layer (depth <= 0).
    """
    d0 = -(exponent + 1) * cmax * np.log(r0) / (2.0 * width_m)
    x = np.clip(depth / width_m, 0.0, 1.0)
    return d0 * x ** exponent


def frame_boxes(shape: tuple[int, int, int], widths: dict[str, int]
                ) -> list[tuple[slice, slice, slice]]:
    """Disjoint boxes covering the absorbing frame, in interior coordinates.

    ``widths`` maps face names (``x_lo, x_hi, y_lo, y_hi, z_lo, z_hi``) to
    layer widths (0 = no layer on that face).  X slabs span the full y/z
    extent; y slabs exclude the x slabs; z slabs exclude both, so every frame
    cell belongs to exactly one box.
    """
    nx, ny, nz = shape
    wxl, wxh = widths.get("x_lo", 0), widths.get("x_hi", 0)
    wyl, wyh = widths.get("y_lo", 0), widths.get("y_hi", 0)
    wzl, wzh = widths.get("z_lo", 0), widths.get("z_hi", 0)
    boxes: list[tuple[slice, slice, slice]] = []
    if wxl:
        boxes.append((slice(0, wxl), slice(0, ny), slice(0, nz)))
    if wxh:
        boxes.append((slice(nx - wxh, nx), slice(0, ny), slice(0, nz)))
    xin = slice(wxl, nx - wxh)
    if wyl:
        boxes.append((xin, slice(0, wyl), slice(0, nz)))
    if wyh:
        boxes.append((xin, slice(ny - wyh, ny), slice(0, nz)))
    yin = slice(wyl, ny - wyh)
    if wzl:
        boxes.append((xin, yin, slice(0, wzl)))
    if wzh:
        boxes.append((xin, yin, slice(nz - wzh, nz)))
    return [b for b in boxes
            if all(s.stop - s.start > 0 for s in b)]


class PML:
    """M-PML frame bound to a grid/medium; owns the split-part storage.

    For a decomposed run, pass ``global_shape``/``index_origin`` (the
    subdomain's placement in the global grid) and the *global* ``cmax``: the
    frame boxes are then the intersection of the global frame with this
    subdomain, and damping profiles are evaluated at global positions, so a
    distributed run is bitwise identical to the serial one.
    """

    def __init__(self, grid: Grid3D, medium: Medium, config: PMLConfig | None = None,
                 dtype=np.float64,
                 global_shape: tuple[int, int, int] | None = None,
                 index_origin: tuple[int, int, int] = (0, 0, 0),
                 cmax: float | None = None):
        self.grid = grid
        self.dtype = np.dtype(dtype)
        self.config = cfg = config or PMLConfig()
        self._global_shape = (global_shape if global_shape is not None
                              else grid.shape)
        self._origin = index_origin
        if cfg.width < 2:
            raise ValueError("PML width must be at least 2 cells")
        gnx, gny, gnz = self._global_shape
        if 2 * cfg.width >= min(gnx, gny) or cfg.width >= gnz:
            raise ValueError("PML frame does not fit in the grid")
        self.cmax = float(cmax) if cmax is not None else medium.vp_max
        w = cfg.width
        self.widths = {"x_lo": w, "x_hi": w, "y_lo": w, "y_hi": w,
                       "z_lo": w, "z_hi": w if cfg.damp_top else 0}
        global_boxes = frame_boxes(self._global_shape, self.widths)
        # Intersect the global frame with this (sub)grid; store local slices.
        self.boxes = []
        for box in global_boxes:
            local = []
            empty = False
            for axis, s in enumerate(box):
                lo = max(s.start - index_origin[axis], 0)
                hi = min(s.stop - index_origin[axis], grid.shape[axis])
                if hi <= lo:
                    empty = True
                    break
                local.append(slice(lo, hi))
            if not empty:
                self.boxes.append(tuple(local))
        # Split-part storage: parts[(box_index, comp)] -> (px, py, pz).
        # One pooled box-shaped temporary per box keeps update() free of
        # per-call allocations.
        self.parts: dict[tuple[int, str], list[np.ndarray]] = {}
        self._tmp: list[np.ndarray] = []
        for bi, box in enumerate(self.boxes):
            bshape = tuple(s.stop - s.start for s in box)
            for comp in ALL_FIELDS:
                self.parts[(bi, comp)] = [np.zeros(bshape, dtype=dtype)
                                          for _ in range(3)]
            self._tmp.append(np.zeros(bshape, dtype=dtype))
        self._coeff_cache: dict[tuple[int, str, float], list[tuple]] = {}

    # ------------------------------------------------------------------
    def _base_profile(self, axis: int, positions: np.ndarray) -> np.ndarray:
        """Damping d_axis at *global* axis positions (cell units)."""
        cfg = self.config
        n = self._global_shape[axis]
        w = float(cfg.width)
        lo_name = ("x_lo", "y_lo", "z_lo")[axis]
        hi_name = ("x_hi", "y_hi", "z_hi")[axis]
        d = np.zeros_like(positions, dtype=np.float64)
        h = self.grid.h
        if self.widths[lo_name]:
            depth = (w - positions) * h
            d += damping_profile(depth, w * h, self.cmax, cfg.r0, cfg.exponent)
        if self.widths[hi_name]:
            depth = (positions - (n - w)) * h
            d += damping_profile(depth, w * h, self.cmax, cfg.r0, cfg.exponent)
        return d

    def _coefficients(self, bi: int, comp: str, dt: float) -> list[tuple]:
        """Per-axis (decay, gain) update coefficient arrays for one box."""
        key = (bi, comp, dt)
        cached = self._coeff_cache.get(key)
        if cached is not None:
            return cached
        box = self.boxes[bi]
        offs = FIELD_OFFSETS[comp]
        # 1-D base damping along each axis at this component's stagger.
        base = []
        for axis in range(3):
            s = box[axis]
            pos = (np.arange(s.start, s.stop, dtype=np.float64)
                   + offs[axis] + self._origin[axis])
            base.append(self._base_profile(axis, pos))
        p = self.config.mpml_ratio
        out = []
        for axis in range(3):
            shp = [1, 1, 1]
            shp[axis] = -1
            d = base[axis].reshape(shp).copy()
            if p > 0.0:
                for other in range(3):
                    if other != axis:
                        oshp = [1, 1, 1]
                        oshp[other] = -1
                        d = d + p * base[other].reshape(oshp)
            denom = 1.0 + 0.5 * dt * d
            # Profiles are evaluated in float64 at global positions (identical
            # for serial and decomposed runs), then stored at the part dtype
            # so the update arithmetic never promotes an f32 frame to f64.
            decay = ((1.0 - 0.5 * dt * d) / denom).astype(self.dtype)
            gain = (dt / denom).astype(self.dtype)
            out.append((decay, gain))
        self._coeff_cache[key] = out
        return out

    # ------------------------------------------------------------------
    def attach(self, wf: WaveField) -> None:
        """Initialise split parts from the current field values (f/3 each)."""
        for bi, box in enumerate(self.boxes):
            psl = tuple(slice(s.start + NGHOST, s.stop + NGHOST) for s in box)
            for comp in ALL_FIELDS:
                cur = getattr(wf, comp)[psl]
                for part in self.parts[(bi, comp)]:
                    part[...] = cur / 3.0

    def update(self, wf: WaveField, comp: str, terms, dt: float,
               term_axes: tuple[int, ...] | None = None) -> None:
        """Advance the split parts of ``comp`` and overwrite the frame values.

        ``terms`` are the kernel's full-shape axis-term arrays (interior
        valid); ``term_axes`` names the axis of each term (defaults to
        ``(0, 1, 2)`` truncated to ``len(terms)`` — correct for velocity and
        normal-stress components; shear components must pass their axes).
        """
        if term_axes is None:
            term_axes = tuple(range(len(terms)))
        arr = getattr(wf, comp)
        axis_term = dict(zip(term_axes, terms))
        for bi, box in enumerate(self.boxes):
            psl = tuple(slice(s.start + NGHOST, s.stop + NGHOST) for s in box)
            coeffs = self._coefficients(bi, comp, dt)
            parts = self.parts[(bi, comp)]
            tmp = self._tmp[bi]
            for axis in range(3):
                decay, gain = coeffs[axis]
                part = parts[axis]
                part *= decay
                t = axis_term.get(axis)
                if t is not None:
                    np.multiply(gain, t[psl], out=tmp)
                    part += tmp
            np.add(parts[0], parts[1], out=tmp)
            np.add(tmp, parts[2], out=arr[psl])

    def memory_bytes(self) -> int:
        """Split-part storage footprint (diagnostic)."""
        return sum(p.nbytes for plist in self.parts.values() for p in plist)


#: Axis labels of the two derivative terms of each shear component, matching
#: kernels._SHEAR_TERMS ordering.
SHEAR_TERM_AXES: dict[str, tuple[int, ...]] = {
    "sxy": (0, 1),
    "sxz": (0, 2),
    "syz": (1, 2),
}
