"""Seismic sources: source-time functions, point sources, kinematic faults.

The AWM consumes "a kinematic source description formulated as moment rate
time histories at a finite number of points (sub-faults)" (Section III.D).
This module provides:

* standard source-time functions (Ricker, Gaussian, triangle, Brune, cosine);
* :class:`MomentTensorSource` — a point moment-rate source injected into the
  stress tensor at its staggered positions;
* :class:`SourceTable` — every moment source of a solver as one injection
  operator (PetaSrcP's per-rank source table);
* :class:`BodyForceSource` — a point force injected into a velocity
  component (used by verification problems);
* :class:`SubFault` / :class:`FiniteFaultSource` — a collection of point
  moment-rate histories, the in-memory form of the dSrcG output that
  PetaSrcP partitions across ranks.

Sign/scale convention: a moment tensor ``M`` (N·m) with moment-rate history
``s(t)`` (1/s integrated to 1) contributes a stress-rate density
``-M_ij * s(t) / V_cell`` added to ``sigma_ij`` — so a positive ``Mxy``
produces right-lateral shear consistent with the double-couple convention
used in the scenario catalog.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .fd import NGHOST
from .grid import FIELD_OFFSETS, Grid3D, WaveField

__all__ = [
    "ricker",
    "gaussian_pulse",
    "triangle_stf",
    "brune_stf",
    "cosine_stf",
    "moment_to_magnitude",
    "magnitude_to_moment",
    "double_couple_strike_slip",
    "MomentTensorSource",
    "SourceTable",
    "BodyForceSource",
    "ManufacturedForcing",
    "SubFault",
    "FiniteFaultSource",
]


# ----------------------------------------------------------------------
# Source-time functions.  All are normalised moment-*rate* functions: they
# integrate to ~1 over their support, so multiplying by M0 yields N*m.
# ----------------------------------------------------------------------

def ricker(t: np.ndarray, f0: float, t0: float | None = None) -> np.ndarray:
    """Ricker wavelet (zero-mean; use for radiation tests, not moment rate)."""
    t = np.asarray(t, dtype=np.float64)
    if t0 is None:
        t0 = 1.5 / f0
    a = (np.pi * f0 * (t - t0)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


def gaussian_pulse(t: np.ndarray, f0: float, t0: float | None = None) -> np.ndarray:
    """Normalised Gaussian moment-rate pulse with corner frequency ~f0."""
    t = np.asarray(t, dtype=np.float64)
    sigma = 1.0 / (2.0 * np.pi * f0)
    if t0 is None:
        t0 = 4.0 * sigma
    return np.exp(-0.5 * ((t - t0) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))


def triangle_stf(t: np.ndarray, rise_time: float, t0: float = 0.0) -> np.ndarray:
    """Isosceles-triangle moment rate of duration ``rise_time`` (unit area)."""
    t = np.asarray(t, dtype=np.float64)
    half = rise_time / 2.0
    peak = 1.0 / half
    up = (t - t0) / half * peak
    down = (rise_time - (t - t0)) / half * peak
    out = np.minimum(up, down)
    return np.clip(out, 0.0, None)


def brune_stf(t: np.ndarray, tau: float, t0: float = 0.0) -> np.ndarray:
    """Brune (omega-squared) moment rate ``(t/tau^2) exp(-t/tau)`` (unit area)."""
    t = np.asarray(t, dtype=np.float64)
    x = np.clip(t - t0, 0.0, None)
    return x / tau ** 2 * np.exp(-x / tau)


def cosine_stf(t: np.ndarray, rise_time: float, t0: float = 0.0) -> np.ndarray:
    """Raised-cosine moment rate over ``rise_time`` (unit area); smooth ends."""
    t = np.asarray(t, dtype=np.float64)
    x = (t - t0) / rise_time
    out = np.where((x >= 0) & (x <= 1),
                   (1.0 - np.cos(2.0 * np.pi * np.clip(x, 0, 1))) / rise_time,
                   0.0)
    return out


def moment_to_magnitude(m0: float) -> float:
    """Moment magnitude ``Mw = (2/3) (log10 M0 - 9.1)`` with M0 in N*m."""
    return (2.0 / 3.0) * (np.log10(m0) - 9.1)


def magnitude_to_moment(mw: float) -> float:
    """Seismic moment in N*m for a given Mw (inverse of moment_to_magnitude)."""
    return 10.0 ** (1.5 * mw + 9.1)


def double_couple_strike_slip(m0: float = 1.0) -> np.ndarray:
    """Moment tensor of a vertical right-lateral strike-slip fault.

    Fault plane normal to y (our fault-normal axis), slip along x:
    only ``Mxy = Myx = m0`` are non-zero.
    """
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = m0
    return m


# ----------------------------------------------------------------------
# Injectable sources
# ----------------------------------------------------------------------

#: moment-tensor index -> stress component (the six independent ones, in
#: injection order)
_COMPONENTS = {(0, 0): "sxx", (1, 1): "syy", (2, 2): "szz",
               (0, 1): "sxy", (0, 2): "sxz", (1, 2): "syz"}


@dataclass
class MomentTensorSource:
    """Point moment-rate source at a physical position.

    Parameters
    ----------
    position:
        ``(x, y, z)`` in metres within the grid.
    moment:
        3x3 symmetric moment tensor, N*m (total moment; the time history is
        normalised to unit area).
    stf:
        Callable ``stf(t) -> moment-rate fraction`` (1/s), e.g. a closure over
        :func:`gaussian_pulse`, or a sampled array paired with ``dt_stf``.
    spatial_width:
        Optional Gaussian smearing of the injection (std dev, metres).  Zero
        injects at the single nearest staggered cell.  Smearing is required
        for the pseudospectral comparator (a grid delta excites global sinc
        ringing in a Fourier method) and makes FD/PS comparisons use the
        *identical* discrete source.
    """

    position: tuple[float, float, float]
    moment: np.ndarray
    stf: object
    dt_stf: float | None = None
    spatial_width: float = 0.0
    _cells: dict[str, tuple[int, int, int]] = field(default_factory=dict, repr=False)
    _plan: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict,
                                                            repr=False)

    def bind(self, grid: Grid3D) -> None:
        """Resolve staggered injection indices and weights (padded coords)."""
        m = np.asarray(self.moment, dtype=np.float64)
        if m.shape != (3, 3) or not np.allclose(m, m.T):
            raise ValueError("moment tensor must be symmetric 3x3")
        radius = 0
        sigma_cells = self.spatial_width / grid.h
        if self.spatial_width > 0.0:
            radius = max(1, int(np.ceil(3.0 * sigma_cells)))
        for name in _COMPONENTS.values():
            offs = FIELD_OFFSETS[name]
            centre = []
            for axis in range(3):
                pos = (self.position[axis] - grid.origin[axis]) / grid.h - offs[axis]
                i = int(round(pos))
                if not radius <= i < grid.shape[axis] - radius:
                    raise ValueError(
                        f"source at {self.position} outside grid (or its "
                        f"{radius}-cell smearing stencil does not fit)")
                centre.append(i)
            self._cells[name] = tuple(c + NGHOST for c in centre)
            if radius == 0:
                idx = np.array([self._cells[name]])
                w = np.ones(1)
            else:
                rng = np.arange(-radius, radius + 1)
                di, dj, dk = np.meshgrid(rng, rng, rng, indexing="ij")
                w = np.exp(-(di ** 2 + dj ** 2 + dk ** 2)
                           / (2.0 * sigma_cells ** 2)).ravel()
                w /= w.sum()
                idx = np.stack([di.ravel() + self._cells[name][0],
                                dj.ravel() + self._cells[name][1],
                                dk.ravel() + self._cells[name][2]], axis=1)
            self._plan[name] = (idx, w)

    def rate_at(self, t: float) -> float:
        if self.dt_stf is not None:
            samples = np.asarray(self.stf, dtype=np.float64).ravel()
            return float(_sampled_rates(t, _pairs([samples]), 1,
                                        samples.size - 1, self.dt_stf))
        return float(self.stf(t))

    def inject(self, wf: WaveField, t: float, dt: float) -> None:
        """Add the moment-rate increment for the step ending at ``t + dt``
        (a one-source :class:`SourceTable`; solvers inject every source
        through their own table)."""
        if not self._cells:
            self.bind(wf.grid)
        SourceTable([self], wf.grid, wf.dtype).inject(wf, t, dt)


def _pairs(histories) -> np.ndarray:
    """Each sampled history's rows ``(s[k], s[k + 1])`` for ``k = 0 …
    n - 2``, between two rows of zeros (``max(n, 1) + 1`` rows), stacked."""
    zero = np.zeros(1)
    left, right = [np.zeros(0)], [np.zeros(0)]
    for s in histories:
        left += [zero, s[:-1], zero]
        right += [zero, s[1:], zero]
    return np.stack([np.concatenate(left), np.concatenate(right)], axis=1)


def _sampled_rates(t: float, pairs, base, last, dt):
    """Sampled moment-rate histories at ``t``, interpolated as
    ``(1 - frac) * s[i0] + frac * s[i0 + 1]`` in float64.

    ``pairs`` is :func:`_pairs` of the histories; each one's rows for
    ``k = 0 … n - 2`` start at ``base``, ``last`` is ``n - 1`` and ``dt``
    its sampling interval.  A step before the first sample or at or
    after the last reads a row of zeros, so its rate is 0.
    """
    i = t / dt
    i0 = np.floor(i)
    frac = i - i0
    s = pairs[base + np.minimum(np.maximum(i0, -1), last).astype(np.intp)]
    return (1 - frac) * s[..., 0] + frac * s[..., 1]


class SourceTable:
    """Every moment source of a solver, injected as one operator.

    The in-memory form of PetaSrcP's per-rank source table (Section III.B).
    Per stress component it holds, in source order, the flat padded index
    and the smearing weight (field dtype) of every entry inside the
    solver's box, the source of each entry, and ``M_ab`` per source.  The
    sources are bound on the global grid; ``origin`` is the global index of
    this solver's first interior cell (a rank's subdomain origin; zero for
    a serial solver), and entries outside its box are left to the rank
    that owns them.

    :meth:`inject` subtracts each cell's contributions in source order, the
    order of one ``MomentTensorSource.inject`` after another, so the bits
    are those of the per-source loop.
    """

    def __init__(self, sources, grid: Grid3D, dtype, origin=(0, 0, 0)):
        self.dtype = np.dtype(dtype)
        self.h3 = grid.h ** 3
        sources = list(sources)
        moments = np.array([np.asarray(s.moment, dtype=np.float64)
                            for s in sources]).reshape(-1, 3, 3)
        lo = np.array(origin) + NGHOST
        parts = []
        for (a, b), name in _COMPONENTS.items():
            use = np.flatnonzero(moments[:, a, b])
            plans = [sources[n]._plan[name] for n in use]
            if not plans:
                continue
            # interior coordinates in the box
            loc = np.concatenate([idx for idx, _ in plans]) - lo
            inside = ((loc >= 0) & (loc < grid.shape)).all(axis=1)
            of = np.repeat(use, [w.size for _, w in plans])[inside]
            if of.size:
                flat = np.ravel_multi_index((loc[inside] + NGHOST).T,
                                            grid.padded_shape)
                w = np.concatenate([w for _, w in plans])[inside]
                parts.append((name, flat, w.astype(self.dtype), of, (a, b)))
        has = np.zeros(len(sources), dtype=bool)
        for _, _, _, of, _ in parts:
            has[of] = True
        kept = np.flatnonzero(has)
        number = np.zeros(len(sources), dtype=np.intp)
        number[kept] = np.arange(kept.size)
        #: the sources with at least one entry in the box, in order
        self.sources = [sources[n] for n in kept]
        #: ``(name, flat padded index, weight, source of entry, M_ab per
        #: source)`` per stress component that has entries
        self.components = [(name, flat, w, number[of], moments[kept, a, b])
                           for name, flat, w, of, (a, b) in parts]
        # sampled histories stacked end to end, each with its own dt
        self._sampled = np.array([n for n, s in enumerate(self.sources)
                                  if s.dt_stf is not None], dtype=np.intp)
        samples = [np.asarray(self.sources[n].stf, dtype=np.float64).ravel()
                   for n in self._sampled]
        rows = np.array([max(a.size, 1) + 1 for a in samples], dtype=np.intp)
        self._pairs = _pairs(samples)
        self._base = np.cumsum(rows) - rows + 1
        self._last = rows - 2
        self._dt = np.array([self.sources[n].dt_stf for n in self._sampled],
                            dtype=np.float64)
        self._called = [n for n, s in enumerate(self.sources)
                        if s.dt_stf is None]
        # each sampled history reads 0 outside its window: its nonzero
        # samples, widened by a sample each side against rounding; sorted
        # by start, _reach[k] is the latest end among the first k + 1
        windows = sorted((float((nz[0] - 2) * dt), float((nz[-1] + 2) * dt))
                         for a, dt in zip(samples, self._dt)
                         if (nz := np.flatnonzero(a)).size)
        self._starts = [start for start, _ in windows]
        self._reach = list(accumulate((end for _, end in windows), max))

    def rates(self, t: float) -> np.ndarray:
        """Every source's moment rate at ``t`` (float64): the sampled
        histories in one pass, the callable ones one at a time."""
        rate = np.empty(len(self.sources))
        if self._sampled.size:
            rate[self._sampled] = _sampled_rates(
                t, self._pairs, self._base, self._last, self._dt)
        for n in self._called:
            rate[n] = self.sources[n].rate_at(t)
        return rate

    def inject(self, wf: WaveField, t: float, dt: float) -> None:
        """Add every source's moment-rate increment for the step ending at
        ``t + dt``; a source whose rate is 0 adds nothing."""
        if not self._called:
            k = bisect_right(self._starts, t)   # windows started by t
            if not k or self._reach[k - 1] < t:
                return
        rate = self.rates(t)
        live = rate != 0.0
        if not live.any():
            return
        scale = float(dt) * rate / self.h3
        for name, flat, w, of, m in self.components:
            # the coefficient is formed in float64 and rounded once to the
            # field dtype, as a python-float coefficient times an f32
            # weight array is under NEP 50; a source at rate 0 subtracts
            # +0.0 times its (non-negative) weights, which leaves every
            # value as it is (-0.0 would turn a -0.0 cell into +0.0)
            coeff = np.where(live, m * scale, 0.0).astype(self.dtype,
                                                          copy=False)
            np.subtract.at(getattr(wf, name).reshape(-1), flat,
                           coeff[of] * w)


@dataclass
class BodyForceSource:
    """Point force on one velocity component (N); for verification problems."""

    position: tuple[float, float, float]
    component: str
    stf: object
    amplitude: float = 1.0
    _cell: tuple[int, int, int] | None = field(default=None, repr=False)
    _rho_cell: float = field(default=0.0, repr=False)

    def bind(self, grid: Grid3D, rho: np.ndarray) -> None:
        if self.component not in ("vx", "vy", "vz"):
            raise ValueError("component must be one of vx, vy, vz")
        offs = FIELD_OFFSETS[self.component]
        idx = []
        for axis in range(3):
            pos = (self.position[axis] - grid.origin[axis]) / grid.h - offs[axis]
            i = int(round(pos))
            if not 0 <= i < grid.shape[axis]:
                raise ValueError(f"source at {self.position} outside grid")
            idx.append(i + NGHOST)
        self._cell = tuple(idx)
        self._rho_cell = float(rho[self._cell])

    def inject(self, wf: WaveField, t: float, dt: float) -> None:
        if self._cell is None:
            raise RuntimeError("source not bound; solver binds sources on add")
        f = self.amplitude * float(self.stf(t))
        if f == 0.0:
            return
        vol = wf.grid.h ** 3
        getattr(wf, self.component)[self._cell] += dt * f / (self._rho_cell * vol)


# ----------------------------------------------------------------------
# Manufactured-solution forcing (the repro.verify MMS hook)
# ----------------------------------------------------------------------

class ManufacturedForcing:
    """Whole-domain analytic forcing with exact ghost boundary values.

    This is the method-of-manufactured-solutions hook consumed by
    :mod:`repro.verify`: given analytic space-time fields, the velocity and
    stress equations can be driven by arbitrary forcing terms

    .. math::

        \\partial_t v_i = b \\, \\partial_j \\sigma_{ij} + a_i(x, t), \\qquad
        \\partial_t \\sigma_{ij} = C_{ijkl} \\partial_k v_l + g_{ij}(x, t)

    and the ghost rim of selected components can be overwritten with the
    exact solution each half-step, turning the subgrid boundary into an
    exact (time-dependent Dirichlet) condition so interior error is pure
    discretization error.

    Parameters
    ----------
    velocity_forcing:
        ``comp -> a(x, y, z, t)`` acceleration fields (m/s^2) added to the
        named velocity components.  Callables receive broadcastable
        coordinate arrays at the component's *staggered* positions.
    stress_forcing:
        ``comp -> g(x, y, z, t)`` stress-rate fields (Pa/s) for stress
        components.
    exact:
        ``comp -> u(x, y, z, t)`` analytic solution fields.  After each
        half-update the ghost rim of these components is overwritten with
        the exact value at the field's new time level.
    domain:
        ``"interior"`` (default) applies forcing to the interior only;
        ``"padded"`` applies it over the entire padded array including
        ghosts (used by spatially-uniform temporal-convergence problems,
        where it keeps every FD derivative exactly zero).

    Leapfrog timing convention: velocity lives at half-integer time levels,
    stress at integer levels.  :meth:`apply_velocity` receives ``t`` (=
    ``solver.t``), the centre of the velocity update interval; stress
    forcing is evaluated at ``t + dt/2``, the centre of the stress update
    interval; ghost values are written at each field's *new* level
    (``t + dt/2`` for velocity, ``t + dt`` for stress).
    """

    _VELOCITY = ("vx", "vy", "vz")

    def __init__(self, velocity_forcing: dict | None = None,
                 stress_forcing: dict | None = None,
                 exact: dict | None = None,
                 domain: str = "interior"):
        if domain not in ("interior", "padded"):
            raise ValueError(f"unknown forcing domain {domain!r}")
        self.velocity_forcing = dict(velocity_forcing or {})
        self.stress_forcing = dict(stress_forcing or {})
        self.exact = dict(exact or {})
        self.domain = domain
        self._coords: dict[str, tuple] = {}
        self._grid: Grid3D | None = None

    def bind(self, grid: Grid3D) -> None:
        """Cache padded staggered coordinate arrays per referenced field."""
        self._grid = grid
        names = (set(self.velocity_forcing) | set(self.stress_forcing)
                 | set(self.exact))
        for name in names:
            if name not in FIELD_OFFSETS:
                raise ValueError(f"unknown field component {name!r}")
            offs = FIELD_OFFSETS[name]
            axes = []
            for axis, n in enumerate(grid.shape):
                c = (grid.origin[axis]
                     + (np.arange(-NGHOST, n + NGHOST) + offs[axis]) * grid.h)
                shape = [1, 1, 1]
                shape[axis] = c.size
                axes.append(c.reshape(shape))
            self._coords[name] = tuple(axes)

    def _eval(self, name: str, fn, t: float,
              region: tuple | None = None) -> np.ndarray:
        """Evaluate ``fn`` at the staggered samples of ``name`` (full padded
        array, or only the ``region`` sub-box when given)."""
        x, y, z = self._coords[name]
        if region is not None:
            x = x[region[0], :, :]
            y = y[:, region[1], :]
            z = z[:, :, region[2]]
        return fn(x, y, z, t)

    @staticmethod
    def _rim_slabs(padded_shape: tuple[int, int, int]) -> list[tuple]:
        """Six disjoint slabs covering the NGHOST-wide ghost rim."""
        g = NGHOST
        nxp, nyp, nzp = padded_shape
        mid_x = slice(g, nxp - g)
        mid_y = slice(g, nyp - g)
        full = slice(None)
        return [
            (slice(0, g), full, full), (slice(nxp - g, nxp), full, full),
            (mid_x, slice(0, g), full), (mid_x, slice(nyp - g, nyp), full),
            (mid_x, mid_y, slice(0, g)), (mid_x, mid_y, slice(nzp - g, nzp)),
        ]

    def _add_forcing(self, wf: WaveField, forcing: dict, t: float,
                     dt: float, region: tuple | None = None) -> None:
        for name, fn in forcing.items():
            arr = getattr(wf, name)
            if region is not None:
                # Caller-restricted box (the LTS scheduler forces each rate
                # group over its own slab at its own cadence).  Padded-domain
                # forcings take the box verbatim; interior forcings clip it
                # to the interior.
                box = tuple(
                    slice(s.start if s.start is not None else 0,
                          s.stop if s.stop is not None else n)
                    for s, n in zip(region, arr.shape))
                if self.domain != "padded":
                    box = tuple(
                        slice(max(s.start, NGHOST), min(s.stop, n - NGHOST))
                        for s, n in zip(box, arr.shape))
            elif self.domain == "padded":
                box = (slice(None), slice(None), slice(None))
            else:
                box = tuple(slice(NGHOST, n - NGHOST) for n in arr.shape)
            vals = self._eval(name, fn, t, box)
            np.add(arr[box], dt * vals, out=arr[box],
                   casting="same_kind")

    @staticmethod
    def _intersect(slab: tuple, box: tuple, shape: tuple) -> tuple | None:
        """Intersection of two slice boxes (None = empty)."""
        out = []
        for s, b, n in zip(slab, box, shape):
            lo = max(s.start if s.start is not None else 0,
                     b.start if b.start is not None else 0)
            hi = min(s.stop if s.stop is not None else n,
                     b.stop if b.stop is not None else n)
            if hi <= lo:
                return None
            out.append(slice(lo, hi))
        return tuple(out)

    def _impose_ghosts(self, wf: WaveField, names, t: float,
                       box: tuple | None = None) -> None:
        for name in names:
            fn = self.exact.get(name)
            if fn is None:
                continue
            arr = getattr(wf, name)
            for slab in self._rim_slabs(arr.shape):
                if box is not None:
                    slab = self._intersect(slab, box, arr.shape)
                    if slab is None:
                        continue
                arr[slab] = self._eval(name, fn, t, slab)

    def impose_exact(self, wf: WaveField, t_velocity: float,
                     t_stress: float, box: tuple | None = None) -> None:
        """Overwrite every ``exact`` component with the analytic solution —
        the initial-condition helper for MMS runs.

        ``box`` restricts the imposition to a padded-coordinate sub-box.
        LTS runs initialise each rate group's velocities at the group's own
        staggered level ``-rate*dt/2`` by calling this once per group with
        ``box=group.forcing_region``.
        """
        if self._grid is None:
            self.bind(wf.grid)
        sl = box if box is not None else (slice(None),) * 3
        for name, fn in self.exact.items():
            t = t_velocity if name in self._VELOCITY else t_stress
            getattr(wf, name)[sl] = self._eval(name, fn, t, sl)

    def apply_velocity(self, wf: WaveField, t: float, dt: float,
                       region: tuple | None = None) -> None:
        """Velocity forcing (centred at ``t``) + exact velocity ghosts at
        the new velocity level ``t + dt/2``.

        With ``region`` (a padded-coordinate box) both the forcing and the
        ghost imposition are restricted to that box: rate groups live at
        different time levels, so each group imposes its own rim portion at
        its own new level rather than the whole rim at a single time.
        """
        if self._grid is None:
            self.bind(wf.grid)
        self._add_forcing(wf, self.velocity_forcing, t, dt, region)
        self._impose_ghosts(
            wf, [n for n in self.exact if n in self._VELOCITY],
            t + dt / 2.0, box=region)

    def apply_stress(self, wf: WaveField, t: float, dt: float,
                     region: tuple | None = None) -> None:
        """Stress forcing (centred at ``t + dt/2``) + exact stress ghosts at
        the new stress level ``t + dt`` (restricted to ``region`` when given;
        see :meth:`apply_velocity`)."""
        if self._grid is None:
            self.bind(wf.grid)
        self._add_forcing(wf, self.stress_forcing, t + dt / 2.0, dt, region)
        self._impose_ghosts(
            wf, [n for n in self.exact if n not in self._VELOCITY],
            t + dt, box=region)


# ----------------------------------------------------------------------
# Finite faults (dSrcG output form)
# ----------------------------------------------------------------------

@dataclass
class SubFault:
    """One subfault: position, moment tensor orientation, moment-rate samples."""

    position: tuple[float, float, float]
    moment: np.ndarray           # N*m total for this subfault
    rate_samples: np.ndarray     # normalised moment rate (1/s), unit area
    dt: float                    # sampling interval of rate_samples
    t_start: float = 0.0         # rupture-time offset of the history


@dataclass
class FiniteFaultSource:
    """A set of subfaults forming a finite-fault kinematic source."""

    subfaults: list[SubFault]

    def total_moment(self) -> float:
        """Scalar moment: sum over subfaults of sqrt(M:M / 2)."""
        return float(sum(np.sqrt((sf.moment ** 2).sum() / 2.0)
                         for sf in self.subfaults))

    def magnitude(self) -> float:
        return moment_to_magnitude(self.total_moment())

    def point_sources(self) -> list[MomentTensorSource]:
        """Expand into injectable point sources with shifted time histories."""
        out = []
        for sf in self.subfaults:
            nshift = int(round(sf.t_start / sf.dt))
            samples = np.concatenate([np.zeros(nshift), sf.rate_samples])
            out.append(MomentTensorSource(position=sf.position,
                                          moment=sf.moment,
                                          stf=samples, dt_stf=sf.dt))
        return out

    def duration(self) -> float:
        return max(sf.t_start + sf.dt * sf.rate_samples.size
                   for sf in self.subfaults)
