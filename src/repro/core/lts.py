"""Clustered local time stepping: rate-group ×1/×2/×4 leapfrog integration.

The paper's M8 run pins the global time step to the stiffest cell: the
vs_min = 400 m/s basin fixes dt for all 436 billion cells even though most
of the volume could stably step 2-4x coarser.  This module recovers that
slack as an *algorithmic* speedup (cf. "Next-Generation Local Time Stepping
for the ADER-DG Finite Element Method", arXiv:2202.10313):

1. The per-cell CFL bound (:func:`local_cfl_map`, built on
   :func:`repro.core.stability.cfl_dt_map` and the medium's P speed) is
   collapsed to a per-k-plane bound and each plane assigned the largest rate
   ``r`` in {1, 2, 4} with ``r * dt <= bound``.  Planes are clustered into
   contiguous k-slabs ("rate groups") with adjacent-group rate ratios
   clamped to <= 2 and a minimum group thickness, so every group interface
   is a simple two-plane correction band.

2. A flattened recursive-leapfrog scheduler advances the groups: at fine
   substep ``i`` (of duration ``dt``) exactly the groups with
   ``i % rate == 0`` update, integrating their slab with ``rate * dt``.
   Fine groups substep while coarse groups hold, so the work per macro step
   drops from ``N_total * max_rate`` to ``sum_g N_g * max_rate / r_g``
   slab-cell updates (:func:`theoretical_speedup`).

3. Interface corrections: an updating group's 4th-order z-stencil reads two
   planes into each neighbouring slab, whose fields live at *different* time
   levels.  Before each group update the scheduler overwrites those band
   planes with values linearly interpolated (or half-interval extrapolated)
   in time between the neighbour's previous and current levels, runs the
   update, and restores the band.  One saved level per band suffices:

   * velocity update at substep ``i`` needs neighbour *stress* at ``i*dt``
     — exact in place when the neighbour is active, interpolated with
     ``w = (i - j_last) / r_o`` when it is held;
   * stress update of a rate-``r`` group needs neighbour *velocity* at
     ``(i + r/2) * dt`` — interpolated/extrapolated with
     ``w = (i - j_v + (r + r_o)/2) / r_o`` whenever the rates differ
     (``w <= 1.5``, still 2nd-order accurate).

   The corrections are O(dt^2), preserving the leapfrog's measured ~2.0
   temporal order across interfaces (gated by ``repro verify --only lts``);
   with the correction disabled the scheme degrades to ~1st order, which is
   the harness's must-fail tooth.

Held cells under an absorbing sponge are damped with the slab taper raised
to the group rate when the group updates — identical to damping them every
fine substep (damping commutes with holding).

The step sequence itself (what runs around these per-slab updates, and what
LTS may not be combined with) is :mod:`repro.core.schedule` /
DESIGN.md §3 "Step schedule"; :class:`LTSScheduler` only supplies the
per-rate-group pieces of it.
"""

from __future__ import annotations

import numpy as np

from .fd import NGHOST, interior
from .grid import ALL_FIELDS
from .kernels import RegionUpdater
from .schedule import StepSchedule
from .stability import cfl_dt_map, rate_group_histogram

__all__ = [
    "RATES",
    "MIN_GROUP_PLANES",
    "BAND_PLANES",
    "local_cfl_map",
    "plane_cfl_bounds",
    "build_rate_groups",
    "normalize_rate_map",
    "theoretical_speedup",
    "RateGroup",
    "LTSScheduler",
]

#: Supported integration rate multipliers (powers of two; 4 = max depth).
RATES = (1, 2, 4)
MAX_RATE = 4
#: Minimum k-planes per rate group: a group must be at least two correction
#: bands thick so its two interface bands never overlap.
MIN_GROUP_PLANES = 4
#: Correction-band thickness: the 4th-order z-stencil reads two planes
#: beyond the group boundary.
BAND_PLANES = 2

#: Fields an updating group reads from its neighbours' band planes.
#: Velocity updates only take z-derivatives of sxz/syz/szz across the
#: interface; stress updates only take z-derivatives of vx/vy/vz.
_VEL_BAND_FIELDS = ("vx", "vy", "vz")
_STRESS_BAND_FIELDS = ("sxz", "syz", "szz")
#: half -> (band fields its update writes, band fields its z taps read)
_BANDS = {"velocity": (_VEL_BAND_FIELDS, _STRESS_BAND_FIELDS),
          "stress": (_STRESS_BAND_FIELDS, _VEL_BAND_FIELDS)}


# ----------------------------------------------------------------------
# Rate-group partitioning
# ----------------------------------------------------------------------

def local_cfl_map(h: float, medium, order: int = 4,
                  safety: float = 0.95) -> np.ndarray:
    """Per-cell CFL bound (interior shape) from the medium's P speed."""
    return cfl_dt_map(h, interior(medium.vp), order=order, safety=safety)


def plane_cfl_bounds(h: float, medium, order: int = 4,
                     safety: float = 0.95) -> np.ndarray:
    """Per-k-plane CFL bound: the minimum cell bound over each z plane."""
    return local_cfl_map(h, medium, order=order, safety=safety).min(axis=(0, 1))


def build_rate_groups(dt: float, plane_bounds,
                      min_planes: int = MIN_GROUP_PLANES
                      ) -> tuple[tuple[int, int, int], ...]:
    """Cluster per-plane CFL bounds into ``((k_lo, k_hi, rate), ...)``.

    ``dt`` is the fine (rate-1) step; plane ``k`` gets the largest rate in
    :data:`RATES` with ``rate * dt <= plane_bounds[k]``.  Raw rates are then
    ratio-clamped (adjacent planes differ by at most 2x), merged into runs,
    and runs thinner than ``min_planes`` are *extended into their
    higher-rate neighbour* (demoting that neighbour's planes — rates only
    ever decrease, so this terminates and stability is preserved).
    """
    bounds = np.asarray(plane_bounds, dtype=np.float64)
    if bounds.ndim != 1 or bounds.size == 0:
        raise ValueError("plane_bounds must be a non-empty 1-D array")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if np.any(bounds < dt):
        raise ValueError(
            f"dt = {dt:.4g} exceeds the local CFL bound "
            f"{bounds.min():.4g} — unstable even without LTS")
    nz = bounds.size
    rates = np.ones(nz, dtype=np.int64)
    for r in RATES[1:]:
        rates[bounds >= r * dt] = r

    def clamp(rr) -> None:
        # Adjacent planes may differ by at most one rate level, so every
        # interface is a single ×2 transition with a well-posed correction.
        for k in range(1, nz):
            rr[k] = min(rr[k], 2 * rr[k - 1])
        for k in range(nz - 2, -1, -1):
            rr[k] = min(rr[k], 2 * rr[k + 1])

    clamp(rates)

    def runs_of(rr) -> list[list[int]]:
        out: list[list[int]] = []
        for k, r in enumerate(rr):
            if out and out[-1][2] == r:
                out[-1][1] = k + 1
            else:
                out.append([k, k + 1, int(r)])
        return out

    if nz < 2 * min_planes:
        # Too thin to hold an interface at all: one group at the safe rate.
        return ((0, nz, int(rates.min())),)
    runs = runs_of(rates)
    while True:
        thin = next((i for i, (lo, hi, _) in enumerate(runs)
                     if hi - lo < min_planes), None)
        if thin is None:
            break
        lo, hi, r = runs[thin]
        left = runs[thin - 1] if thin > 0 else None
        right = runs[thin + 1] if thin + 1 < len(runs) else None
        # Prefer growing into the faster neighbour: demoting its planes to
        # this run's (lower) rate never violates a CFL bound.
        donors = [n for n in (left, right) if n is not None and n[2] > r]
        if donors:
            donor = max(donors, key=lambda n: n[2])
            need = min(min_planes - (hi - lo), donor[1] - donor[0])
            if donor is left:
                rates[lo - need:lo] = r
            else:
                rates[hi:hi + need] = r
        else:
            # Local rate maximum (every neighbour slower): demote the run
            # to the fastest adjacent rate so it merges away.
            adj = max(n[2] for n in (left, right) if n is not None)
            rates[lo:hi] = adj
        # Demotions can re-break the ratio invariant (e.g. a fully consumed
        # donor exposing a faster run); rates only ever decrease, so the
        # loop terminates.
        clamp(rates)
        runs = runs_of(rates)
    return tuple((lo, hi, r) for lo, hi, r in runs)


def normalize_rate_map(spec, nz: int) -> tuple[tuple[int, int, int], ...]:
    """Validate an explicit ``((k_lo, k_hi, rate), ...)`` rate map.

    Groups must tile ``[0, nz)`` contiguously in ascending order, use rates
    from :data:`RATES`, keep adjacent rate ratios <= 2 and be at least
    :data:`MIN_GROUP_PLANES` planes thick (two correction bands).
    """
    try:
        groups = tuple((int(lo), int(hi), int(r)) for lo, hi, r in spec)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"rate map must be an iterable of (k_lo, k_hi, rate) "
            f"triples (got {spec!r})") from exc
    if not groups:
        raise ValueError("rate map must contain at least one group")
    expect = 0
    for lo, hi, r in groups:
        if lo != expect:
            raise ValueError(
                f"rate-map groups must tile [0, {nz}) contiguously "
                f"(gap/overlap at k={lo}, expected {expect})")
        if r not in RATES:
            raise ValueError(f"rate {r} not in {RATES}")
        if hi - lo < MIN_GROUP_PLANES and len(groups) > 1:
            raise ValueError(
                f"group [{lo}, {hi}) is thinner than {MIN_GROUP_PLANES} "
                "planes (two correction bands)")
        expect = hi
    if expect != nz:
        raise ValueError(f"rate map covers [0, {expect}), grid has nz={nz}")
    for (_, _, ra), (_, _, rb) in zip(groups, groups[1:]):
        if max(ra, rb) > 2 * min(ra, rb):
            raise ValueError(
                f"adjacent rate ratio {ra}:{rb} exceeds 2 — insert a "
                "transition group")
    return groups


def theoretical_speedup(groups) -> float:
    """Cell-update ratio vs global dt: ``N_total / sum_g(N_g / rate_g)``."""
    widths = [(hi - lo) for lo, hi, _ in groups]
    return float(sum(widths) / sum(w / r for w, (_, _, r) in
                                   zip(widths, groups)))


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------

class _Band:
    """One owner-side two-plane correction band at a group interface.

    Holds the owner's *previous* time level of the band fields (captured at
    the start of each owner update): ``prev[c]`` are views of six
    consecutive slots of the scheduler's stacked history array, which is
    what the compiled sweep reads and writes in its row visit.  The numpy
    bodies below are the reference the pooled variant runs: they
    blend the band in place around a reader's update, with save/restore
    scratch so the owner's state is undisturbed.  Only interior x/y rows
    are kept — no update reads a band through a ghost row.
    """

    def __init__(self, wf, owner: "RateGroup", k_slice: slice,
                 history: np.ndarray, slot: int):
        self.owner = owner
        self.wf = wf
        self.sl = (slice(NGHOST, -NGHOST), slice(NGHOST, -NGHOST), k_slice)
        #: band trio -> first of its three slots in ``history``
        self.slots = {_VEL_BAND_FIELDS: slot,
                      _STRESS_BAND_FIELDS: slot + len(_VEL_BAND_FIELDS)}
        self.prev = {c: history[:, :, first + n]
                     for trio, first in self.slots.items()
                     for n, c in enumerate(trio)}
        for c, arr in self.prev.items():
            arr[...] = getattr(wf, c)[self.sl]
        self._scratch = None    # numpy blend only: allocated on first apply

    def save_prev(self, fields) -> None:
        for c in fields:
            np.copyto(self.prev[c], getattr(self.wf, c)[self.sl])

    def apply(self, fields, w: float) -> None:
        """Overwrite the band with ``(1-w)*prev + w*current`` (w may exceed
        1: a half-interval extrapolation, still 2nd-order accurate)."""
        if self._scratch is None:
            shape = self.wf.vx[self.sl].shape
            self._scratch = ({c: np.empty(shape, self.wf.dtype)
                              for c in self.prev},
                             np.empty(shape, self.wf.dtype))
        saved, tmp = self._scratch
        for c in fields:
            band = getattr(self.wf, c)[self.sl]
            np.copyto(saved[c], band)
            np.multiply(self.prev[c], 1.0 - w, out=tmp)
            np.multiply(saved[c], w, out=band)
            band += tmp

    def restore(self, fields) -> None:
        for c in fields:
            np.copyto(getattr(self.wf, c)[self.sl], self._scratch[0][c])


class RateGroup:
    """One contiguous k-slab integrating at ``rate * dt``."""

    def __init__(self, index: int, k_lo: int, k_hi: int, rate: int,
                 grid, first: bool, last: bool):
        self.index = index
        self.k_lo = k_lo
        self.k_hi = k_hi
        self.rate = rate
        #: padded-coordinate update region (interior x/y, this k-slab)
        self.region = (slice(NGHOST, NGHOST + grid.nx),
                       slice(NGHOST, NGHOST + grid.ny),
                       slice(NGHOST + k_lo, NGHOST + k_hi))
        nzp = grid.nz + 2 * NGHOST
        #: padded-coordinate forcing box: full x/y (including ghosts) and
        #: this k-slab, extended into the z ghost planes at the domain ends
        #: so padded-domain MMS forcings keep the whole slab in lockstep.
        self.forcing_region = (
            slice(None), slice(None),
            slice(0 if first else NGHOST + k_lo,
                  nzp if last else NGHOST + k_hi))
        self.updater = None          # numpy variants: set by the scheduler
        self.owned_bands: list[_Band] = []
        #: (band, neighbour_group) pairs this group reads through
        self.neighbor_bands: list[tuple[_Band, "RateGroup"]] = []

    @property
    def nplanes(self) -> int:
        return self.k_hi - self.k_lo

    def __repr__(self) -> str:
        return (f"RateGroup(k=[{self.k_lo}, {self.k_hi}), "
                f"rate=x{self.rate})")


class LTSScheduler(StepSchedule):
    """The rate-group implementation of a solver's step schedule.

    The solver's :meth:`step` advances ONE fine substep of ``dt``: the
    groups with ``nstep % rate == 0`` update (integrating ``rate * dt``)
    with interface corrections around each group update, and sources,
    forcings, free surface and sponge slabs follow their group's cadence.
    """

    def __init__(self, solver):
        super().__init__(solver)
        cfg = solver.config
        grid = solver.grid
        if cfg.lts == "auto":
            bounds = plane_cfl_bounds(grid.h, solver.medium, order=cfg.order)
            groups_spec = build_rate_groups(solver.dt, bounds)
        else:
            groups_spec = normalize_rate_map(cfg.lts, grid.nz)
        self.correction = bool(getattr(cfg, "lts_correction", True))
        self.groups = [
            RateGroup(i, lo, hi, r, grid,
                      first=(i == 0), last=(i == len(groups_spec) - 1))
            for i, (lo, hi, r) in enumerate(groups_spec)]
        self.max_rate = max(g.rate for g in self.groups)
        self._build_bands(solver)
        self._build_updaters(solver)
        #: active group indices -> [(k_lo, k_hi, taper)] per contiguous run
        self._tapers: dict[tuple[int, ...], list] = {}
        self._src_group: dict[int, RateGroup] = {}
        #: plane -> group lookup for source assignment
        self._plane_group = np.empty(grid.nz, dtype=np.int64)
        for g in self.groups:
            self._plane_group[g.k_lo:g.k_hi] = g.index

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_bands(self, solver) -> None:
        wf = solver.wf
        nslots = len(_VEL_BAND_FIELDS + _STRESS_BAND_FIELDS)
        interfaces = list(zip(self.groups, self.groups[1:]))
        #: previous band levels, stacked ``(nx, ny, slot, plane)`` so one
        #: row's history is one contiguous run (checkpointed per band)
        self.history = np.empty(
            (solver.grid.nx, solver.grid.ny, 2 * nslots * len(interfaces),
             BAND_PLANES), dtype=wf.dtype)
        for n, (below, above) in enumerate(interfaces):
            k_if = NGHOST + below.k_hi
            low = _Band(wf, below, slice(k_if - BAND_PLANES, k_if),
                        self.history, 2 * nslots * n)
            high = _Band(wf, above, slice(k_if, k_if + BAND_PLANES),
                         self.history, 2 * nslots * n + nslots)
            below.owned_bands.append(low)
            above.owned_bands.append(high)
            below.neighbor_bands.append((high, above))
            above.neighbor_bands.append((low, below))

    def _build_updaters(self, solver) -> None:
        #: compiled: (half, nstep % max_rate) -> the substep's one sweep
        #: (active set and weights are periodic in it, so a substep does no
        #: per-band python); None on the numpy variants
        self.plans = None
        if solver.fused is not None:
            self.plans = {(half, phase): self._bind_plan(half, phase)
                          for half in _BANDS for phase in range(self.max_rate)}
            return
        # the pooled variant runs the region driver
        for g in self.groups:
            g.updater = RegionUpdater(solver.kernel, g.region,
                                      dt=g.rate * solver.dt)

    def _corrections(self, half: str, i: int, g: RateGroup):
        """``(band, w)`` per neighbour band ``g``'s ``half`` update at fine
        substep ``i`` must read time-interpolated with weight ``w``."""
        for band, o in g.neighbor_bands if self.correction else ():
            j = (i // o.rate) * o.rate    # neighbour's last update
            if half == "velocity":
                if i == j:
                    continue    # active neighbour: exact in place
                # Held neighbour: its stress sits at a future level
                # j + r_o; pull it back to i by interpolation.
                yield band, (i - j) / o.rate
            elif o.rate != g.rate:
                # This group's stress interval is centred at (i + r/2);
                # the neighbour's velocity lives at j ± r_o/2.
                yield band, (i - j + 0.5 * (g.rate + o.rate)) / o.rate

    def _bind_plan(self, half: str, phase: int):
        """The compiled sweep of substeps ``i % max_rate == phase``: every
        active group's slab, the bands they own (saved) and read (blended)."""
        s = self.solver
        act = self.active(phase)
        own, read = _BANDS[half]
        grid = s.grid
        return s.fused.bind(
            half, (NGHOST, NGHOST + grid.nx, NGHOST, NGHOST + grid.ny),
            [(NGHOST + g.k_lo, NGHOST + g.k_hi, g.rate * s.dt) for g in act],
            self.history,
            save=[(band.slots[own], band.sl[2].start)
                  for g in act for band in g.owned_bands],
            blend=[(n, band.slots[read], band.sl[2].start, w)
                   for n, g in enumerate(act)
                   for band, w in self._corrections(half, phase, g)])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def rate_map(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((g.k_lo, g.k_hi, g.rate) for g in self.groups)

    def histogram(self) -> dict[int, int]:
        """Cell counts per rate (x/y extent folded in)."""
        grid = self.solver.grid
        planes = np.concatenate([np.full(g.nplanes, g.rate)
                                 for g in self.groups])
        return {r: n * grid.nx * grid.ny
                for r, n in rate_group_histogram(planes).items()}

    def speedup(self) -> float:
        return theoretical_speedup(self.rate_map())

    def group_courants(self) -> list[tuple[float, int]]:
        """``(courant, rate)`` per group at its own slab dt and vp max."""
        solver = self.solver
        vp = interior(solver.medium.vp)
        out = []
        for g in self.groups:
            vmax = float(vp[:, :, g.k_lo:g.k_hi].max())
            out.append((vmax * g.rate * solver.dt / solver.grid.h, g.rate))
        return out

    def span_attrs(self) -> dict:
        # surfaced by `repro diagnose` (TraceDiagnosis.lts_headline)
        return {"lts_map": str(self.rate_map()),
                "lts_speedup": round(self.speedup(), 4)}

    def active(self, i: int) -> list[RateGroup]:
        return [g for g in self.groups if i % g.rate == 0]

    def group_of(self, source) -> RateGroup:
        key = id(source)
        g = self._src_group.get(key)
        if g is None:
            kp = getattr(source, "_lts_kplane", None)
            if kp is not None:
                # Pre-pinned interior k-plane: the distributed solver splits
                # an extended source cloud across ranks, and the local plan's
                # first cell can land in a different group than the global
                # representative — the pin keeps the cadence rank-invariant.
                k = int(kp)
            elif hasattr(source, "_cell") and source._cell is not None:
                k = source._cell[2] - NGHOST
            else:
                cells = getattr(source, "_cells", None) or {}
                if not cells:
                    raise RuntimeError(f"source {source!r} is not bound")
                k = next(iter(cells.values()))[2] - NGHOST
            k = min(max(int(k), 0), self.solver.grid.nz - 1)
            g = self.groups[int(self._plane_group[k])]
            self._src_group[key] = g
        return g

    # ------------------------------------------------------------------
    # Per-group pieces of the schedule (one fine substep i = solver.nstep)
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.solver.nstep * self.solver.dt

    def update(self, half: str, act) -> None:
        """Update ``half`` on the active groups, each against neighbour
        band planes brought to the time level its stencil needs."""
        i = self.solver.nstep
        if self.plans is not None:
            self.plans[half, i % self.max_rate]()
            return
        own, read = _BANDS[half]
        # Capture the previous level of every band an updating group owns,
        # before any update overwrites it in place.
        for g in act:
            for band in g.owned_bands:
                band.save_prev(own)
        for g in act:
            applied = []
            for band, w in self._corrections(half, i, g):
                band.apply(read, w)
                applied.append(band)
            getattr(g.updater, "step_" + half)()
            for band in applied:
                band.restore(read)

    def damp(self, act) -> None:
        """One damping pass per contiguous run of active groups.

        Damping a held slab once with ``taper**rate`` equals damping it
        every fine substep (the multiplier commutes with holding), so a
        run's taper carries each group's own power on that group's planes.
        """
        sponge = self.solver.sponge
        key = tuple(g.index for g in act)
        tapers = self._tapers.get(key)
        if tapers is None:
            runs: list[list[RateGroup]] = []
            for g in act:
                if runs and runs[-1][-1].index + 1 == g.index:
                    runs[-1].append(g)
                else:
                    runs.append([g])
            tapers = self._tapers[key] = [
                (run[0].k_lo, run[-1].k_hi, sponge.slab_taper(
                    run[0].k_lo, run[-1].k_hi,
                    power=np.repeat([g.rate for g in run],
                                    [g.nplanes for g in run])))
                for run in runs]
        for k_lo, k_hi, taper in tapers:
            sponge.apply_slab(self.solver.wf, k_lo, k_hi, taper)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Band history levels (restarting mid macro-cycle needs them)."""
        out = {}
        for g in self.groups:
            for bi, band in enumerate(g.owned_bands):
                for c, arr in band.prev.items():
                    out[f"g{g.index}b{bi}_{c}"] = arr.copy()
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        for g in self.groups:
            for bi, band in enumerate(g.owned_bands):
                for c in band.prev:
                    band.prev[c][...] = arrays[f"g{g.index}b{bi}_{c}"]
