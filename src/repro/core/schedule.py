"""The leapfrog step, spelled out once (DESIGN.md §3, "Step schedule").

Three compute blocks around two halo points::

    A  velocity update, fault split nodes, force sources, velocity forcings
       -- halo v --
    B  free-surface velocity ghosts, fault snapshot, stress update
       (memory variables, PML), fault stress corrections, moment sources,
       free-surface imaging, stress forcings, sponge
       -- halo sigma --
    C  advance t/nstep, record, stability check, health

:class:`StepSchedule` owns *what* each block computes; the drivers (serial
``WaveSolver.step``, the SimMPI rank program, the procpool worker, the
resilience replay) only decide *when* blocks and halos run.  The blocks are
written over rate groups: global dt is the one-group case, and
:class:`repro.core.lts.LTSScheduler` subclasses this with the per-slab
groups and their interface corrections.  :func:`resolve` is the one place
feature compositions are refused or degraded.

Operators are looked up on the live solver at call time (``solver.fused``,
``solver.kernel``, ``solver.sponge`` ...), never cached, so instrumentation
that shadows a bound method on those objects sees every call.  A compiled
stress sweep does block B's free-surface and stress-damping work for the
rows it visits (:mod:`repro.core.compiled`); the calls below stay where
they are and cover the rest (:meth:`StepSchedule.tables`).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .fd import NGHOST
from .pml import SHEAR_TERM_AXES
from .source import SourceTable

__all__ = ["SimulationDiverged", "StepPlan", "StepSchedule", "resolve"]


class SimulationDiverged(RuntimeError):
    """Raised when the wavefield exceeds the configured stability limit."""


@dataclass(frozen=True)
class StepPlan:
    """Which operator runs each half-step, and whether it is splittable."""

    velocity: str   #: 'pooled' | 'compiled'
    stress: str
    split: bool     #: halves may be cut into (core, shells) region pairs


def resolve(cfg, *, fault: bool = False, dims=(1, 1, 1),
            backend: str = "sim", sync_comm: bool = False) -> StepPlan:
    """The composition table: refuse what cannot run, degrade what can.

    ``cfg`` is a :class:`~repro.core.solver.SolverConfig`; ``fault`` says a
    split-node fault is attached; ``dims``, ``backend`` and ``sync_comm``
    describe the distributed run (defaults = serial).  Every driver
    inherits the same per-half operator choice.
    """
    lts = cfg.lts != "off"
    pml = cfg.absorbing == "pml"
    anelastic = cfg.attenuation_band is not None
    refusals = (
        (cfg.kernel_variant == "compiled" and cfg.order != 4,
         "kernel_variant='compiled' implements the 4th-order stencil only "
         f"(got order={cfg.order})"),
        (pml and cfg.free_surface and cfg.pml.damp_top,
         "PML damp_top conflicts with a free surface (both own the top "
         "planes)"),
        (lts and pml,
         "lts supports absorbing='none' or 'sponge' only (PML split parts "
         "have no per-group cadence)"),
        (lts and anelastic,
         "lts does not support attenuation (the memory-variable "
         "coefficients are built for one global dt)"),
        (lts and dims[2] != 1,
         "lts requires a pz=1 decomposition (rate groups are global "
         f"k-slabs; got dims={tuple(dims)})"),
        (fault and lts,
         "a split-node fault runs at one global dt (lts must be 'off')"),
        (fault and pml,
         "a split-node fault needs absorbing='sponge' or 'none' (its "
         "corrections rewrite stresses the PML split parts do not see)"),
        (fault and anelastic,
         "a split-node fault is elastic: attenuation is not supported "
         "(its stress corrections bypass the memory variables)"),
        (fault and np.dtype(cfg.dtype) != np.float64,
         "a split-node fault runs in float64"),
        (sync_comm and backend == "procpool",
         "sync_comm is a SimMPI modelling mode; the procpool backend always "
         "uses the ring exchange"),
    )
    for hit, reason in refusals:
        if hit:
            raise ValueError(reason)
    variant = cfg.kernel_variant
    # PML consumes the per-axis terms; only the pooled kernel produces
    # them, so under PML both halves degrade to pooled.
    velocity = stress = "pooled" if pml else variant
    # PML parts are whole-interior state and LTS group activity varies per
    # substep: neither admits a static core/shell cut; nor does a fault,
    # whose snapshot must precede the whole stress half.
    split = not (lts or pml or fault)
    return StepPlan(velocity, stress, split)


def _split_core_shells(grid, excl):
    """Split the interior into a core box and disjoint face shells.

    ``excl[axis] = [lo_planes, hi_planes]`` gives the shell thickness to
    peel off each face.  Returns ``(core_region, [shell_regions])`` in
    padded coordinates, or ``None`` when the exclusions leave no core (the
    subdomain is too thin to split).
    """
    lo = [NGHOST] * 3
    hi = [NGHOST + n for n in grid.shape]
    clo = [lo[a] + excl[a][0] for a in range(3)]
    chi = [hi[a] - excl[a][1] for a in range(3)]
    if any(chi[a] <= clo[a] for a in range(3)):
        return None
    shells: list[tuple[slice, slice, slice]] = []

    def box(x0, x1, y0, y1, z0, z1):
        if x1 > x0 and y1 > y0 and z1 > z0:
            shells.append((slice(x0, x1), slice(y0, y1), slice(z0, z1)))

    # disjoint cover: x slabs take full y/z extent, y slabs take core x,
    # z slabs take core x and core y
    box(lo[0], clo[0], lo[1], hi[1], lo[2], hi[2])
    box(chi[0], hi[0], lo[1], hi[1], lo[2], hi[2])
    box(clo[0], chi[0], lo[1], clo[1], lo[2], hi[2])
    box(clo[0], chi[0], chi[1], hi[1], lo[2], hi[2])
    box(clo[0], chi[0], clo[1], chi[1], lo[2], clo[2])
    box(clo[0], chi[0], clo[1], chi[1], chi[2], hi[2])
    core = (slice(clo[0], chi[0]), slice(clo[1], chi[1]),
            slice(clo[2], chi[2]))
    return core, shells


class StepSchedule:
    """One solver's step, as blocks A/B/C over its rate groups."""

    def __init__(self, solver):
        # a proxy, not a reference: the solver owns its schedule, and a
        # cycle would keep a dropped solver's arrays alive until the
        # cyclic collector runs
        self.solver = weakref.proxy(solver)
        self.plan = solver.plan
        # global dt is the one-group case: every plane, every step
        self.groups = [SimpleNamespace(index=0, rate=1, forcing_region=None)]
        #: half -> (core operator, [shell operators]) once :meth:`split`;
        #: (None, None) runs the whole-interior operator
        self._ops = dict.fromkeys(("velocity", "stress"), (None, None))
        #: halves whose core already ran ahead of their block
        self._ahead: set[str] = set()
        #: the forcings and moment sources the tables (and
        #: ``solver.held_rows``) were built for
        self._key = None
        self._tables: list = []

    # ------------------------------------------------------------------
    # Per-group implementation (what LTSScheduler overrides)
    # ------------------------------------------------------------------
    def active(self, i: int) -> list:
        """Groups updating at fine substep ``i``."""
        return self.groups

    def now(self) -> float:
        """Start time of the current step."""
        return self.solver.t

    def group_of(self, source):
        """The group whose cadence a force source injects at."""
        return self.groups[0]

    def update(self, half: str, act) -> None:
        """Run the ``half`` ('velocity' | 'stress') update of ``act``."""
        core, shells = self._ops[half]
        if shells is None:
            (self._velocity if half == "velocity" else self._stress)()
            return
        if half not in self._ahead:
            core()
        self._ahead.discard(half)
        for op in shells:
            op()

    def damp(self, act) -> None:
        """Sponge-damp the planes of the active groups."""
        self.solver.sponge.apply(self.solver.wf)

    def span_attrs(self) -> dict:
        """Attributes a driver puts on its run span."""
        return {}

    def group_sources(self, sources) -> list:
        """``sources`` cut into one list per group."""
        return [sources]

    def tables(self) -> list:
        """The moment sources each group injects, one
        :class:`~repro.core.source.SourceTable` per group, with
        ``solver.held_rows`` kept current for a compiled stress half.

        A row the stress sweep visits gets its FS2 imaging and stress
        damping inside the visit, right after its update; moment sources
        inject after the whole half, a fault rewrites its rows' shear
        stresses after the whole half and a forcing applies after the
        imaging, so the rows they write (every row, for a forcing) are held
        out of the fold and done by the operators in their own slots.
        Rebuilt only when the sources or forcings change.
        """
        s = self.solver
        key = (len(s.forcings), *map(id, s.moment_sources))
        if key == self._key:
            return self._tables
        self._tables = [
            SourceTable(sources, s.grid, s.wf.dtype, s.index_origin)
            for sources in self.group_sources(s.moment_sources)]
        held = s.held_rows
        if held is not None and self.plan.stress == "compiled":
            held[...] = bool(s.forcings)
            for table in self._tables:
                for _, flat, *_ in table.components:
                    i, j, _ = np.unravel_index(flat, s.grid.padded_shape)
                    held[i - NGHOST, j - NGHOST] = 1
            if s.fault is not None:
                held[:, s.fault.rows] = 1
        self._key = key
        return self._tables

    # ------------------------------------------------------------------
    # Whole-interior operators (global dt, unsplit)
    # ------------------------------------------------------------------
    def _velocity(self) -> None:
        s = self.solver
        if self.plan.velocity == "compiled":
            s.fused.step_velocity()
        else:
            for comp in ("vx", "vy", "vz"):
                terms = s.kernel.update_velocity(comp)
                if s.pml is not None:
                    s.pml.update(s.wf, comp, terms, s.dt)

    def _stress(self) -> None:
        s = self.solver
        if self.plan.stress == "compiled":
            s.fused.step_stress()
        else:
            for comp in ("sxx", "syy", "szz", "sxy", "sxz", "syz"):
                terms = s.kernel.update_stress(comp)
                if s.pml is not None:
                    s.pml.update(s.wf, comp, terms, s.dt,
                                 term_axes=SHEAR_TERM_AXES.get(comp))

    # ------------------------------------------------------------------
    # Core/shell split (paper Section IV.C overlap)
    # ------------------------------------------------------------------
    def split(self, faces) -> bool:
        """Cut both halves into a core and face shells so a driver can run
        the cores while halos are in flight; ``faces[axis] = (lo, hi)``
        flags the exchanged faces.  Returns False, leaving the halves
        whole, when the plan forbids it or the grid is too thin.

        The region operators bind the same update statement list as the
        whole-interior ones, so a split step stays bitwise identical.  Only
        exchanged faces are cut: a free-surface core reaches the surface.
        """
        if not self.plan.split:
            return False
        s = self.solver
        excl = [[NGHOST * bool(lo), NGHOST * bool(hi)] for lo, hi in faces]
        sexcl = [list(e) for e in excl]
        if s.free_surface is not None and faces[2][1]:
            # an exchanged top face's shell also keeps the plane the
            # imaging reads, which a compiled core would find damped
            sexcl[2][1] = NGHOST + 1
        cuts = {"velocity": _split_core_shells(s.grid, excl),
                "stress": _split_core_shells(s.grid, sexcl)}
        if None in cuts.values():
            return False
        if self.plan.velocity == "compiled":
            from .compiled import FusedRegionStepper
            mk = partial(FusedRegionStepper, s.fused)
        else:
            mk = s.kernel.region
        for half, (core, shells) in cuts.items():
            self._ops[half] = (
                getattr(mk(core), "step_" + half),
                [getattr(mk(r), "step_" + half) for r in shells])
        return True

    def core_ahead(self, half: str) -> None:
        """Run ``half``'s core now; its block then only finishes the shells.

        The stress core (>= 2 planes from any exchanged face) reads no
        velocity halo, and the next step's velocity core reads no stress
        halo, so each may run while the other family's halo is in flight.
        The core rows' free-surface ghosts need only interior velocities,
        so they are filled first; block B's fill redoes the rim from halo.
        """
        if half == "stress":
            self.tables()
            if self.solver.free_surface is not None:
                self.solver.free_surface.apply_velocity(self.solver.wf)
        self._ops[half][0]()
        self._ahead.add(half)

    # ------------------------------------------------------------------
    # The sequence
    # ------------------------------------------------------------------
    def block_a(self) -> None:
        """Velocity update, fault split nodes, force sources, velocity
        forcings."""
        s = self.solver
        wf, t = s.wf, self.now()
        act = self.active(s.nstep)
        self.update("velocity", act)
        if s.fault is not None:
            s.fault.update_velocity(t, s.nstep)
        for g in act:
            dt = g.rate * s.dt
            for src in s.force_sources:
                if self.group_of(src) is g:
                    src.inject(wf, t, dt)
            for f in s.forcings:
                f.apply_velocity(wf, t, dt, region=g.forcing_region)

    def block_b(self) -> None:
        """Free-surface ghosts, fault snapshot, stress update, fault
        corrections, moment sources, imaging, stress forcings, sponge.

        A compiled stress update fills, images and damps the stresses of
        every row not held (:meth:`tables`) inside its row visit — the same
        per-row order as the sequence here — so the free-surface and sponge
        calls then cover the ghost rim, the held rows and the velocities.
        """
        s = self.solver
        wf, t = s.wf, self.now()
        act = self.active(s.nstep)
        tables = self.tables()
        # the free surface follows the top group's cadence
        fs = s.free_surface if self.groups[-1] in act else None
        if fs is not None:
            # after halo v: the ghosts take x/y differences of velocities
            fs.apply_velocity(wf)
        if s.fault is not None:
            s.fault.snapshot()
        self.update("stress", act)
        if s.fault is not None:
            s.fault.update_stress()
        for g in act:
            tables[g.index].inject(wf, t, g.rate * s.dt)
        # image from undamped values, damp the interior, and only then let
        # the driver publish stresses to neighbours
        if fs is not None:
            fs.apply_stress(wf)
        for g in act:
            for f in s.forcings:
                f.apply_stress(wf, t, g.rate * s.dt, region=g.forcing_region)
        if s.sponge is not None:
            self.damp(act)

    def substep(self) -> None:
        """A; B with no halo between them (the serial driver)."""
        self.block_a()
        self.block_b()

    def block_c(self, record_span) -> None:
        """Advance t/nstep, record, stability check, health.

        ``record_span()`` returns the context manager the driver wants
        around the recording (each driver names its own span).
        """
        s = self.solver
        cfg = s.config
        s.t += s.dt
        s.nstep += 1
        if s.receivers or s.surface_recorder is not None:
            with record_span():
                for r in s.receivers:
                    r.record(s.wf)
                if s.surface_recorder is not None:
                    s.surface_recorder.maybe_record(s.wf, s.t)
        if (cfg.stability_check_interval
                and s.nstep % cfg.stability_check_interval == 0):
            vmax = s.wf.max_velocity()
            if not np.isfinite(vmax) or vmax > cfg.stability_limit:
                raise SimulationDiverged(
                    f"|v|max = {vmax:.3g} at step {s.nstep} "
                    f"(t = {s.t:.3f} s)")
        if s.health is not None:
            s.health.on_step(s)
