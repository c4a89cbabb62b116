"""The leapfrog step, spelled out once (DESIGN.md §3, "Step schedule").

Three compute blocks around two halo points::

    A  velocity update, force sources, velocity forcings
       -- halo v --
    B  free-surface velocity ghosts, stress update (+attenuation, PML),
       moment sources, free-surface imaging, stress forcings, sponge
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
that shadows a bound method on those objects sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from .fd import NGHOST
from .kernels import RegionUpdater
from .pml import SHEAR_TERM_AXES

__all__ = ["SimulationDiverged", "StepPlan", "StepSchedule", "resolve"]


class SimulationDiverged(RuntimeError):
    """Raised when the wavefield exceeds the configured stability limit."""


@dataclass(frozen=True)
class StepPlan:
    """Which operator runs each half-step, and whether it is splittable."""

    velocity: str   #: 'pooled' | 'compiled'
    stress: str
    split: bool     #: halves may be cut into (core, shells) region pairs


def resolve(cfg, *, dims=(1, 1, 1), backend: str = "sim",
            sync_comm: bool = False) -> StepPlan:
    """The composition table: refuse what cannot run, degrade what can.

    ``cfg`` is a :class:`~repro.core.solver.SolverConfig`; ``dims``,
    ``backend`` and ``sync_comm`` describe the distributed run (defaults =
    serial).  Every driver inherits the same per-half operator choice.
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
         "lts does not support attenuation (the memory-variable hook "
         "assumes one global dt)"),
        (lts and dims[2] != 1,
         "lts requires a pz=1 decomposition (rate groups are global "
         f"k-slabs; got dims={tuple(dims)})"),
        (sync_comm and backend == "procpool",
         "sync_comm is a SimMPI modelling mode; the procpool backend always "
         "uses the ring exchange"),
    )
    for hit, reason in refusals:
        if hit:
            raise ValueError(reason)
    variant = cfg.kernel_variant
    # PML consumes the per-axis terms and attenuation the rate hook; only
    # the pooled kernel produces them, so that half degrades to pooled.
    velocity = "pooled" if pml else variant
    stress = "pooled" if pml or anelastic else variant
    # PML parts and memory variables are whole-interior state and LTS
    # group activity varies per substep: none of them admits a static
    # core/shell cut.
    split = not (lts or pml or anelastic)
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
        self.solver = solver
        self.plan = resolve(replace(solver.config,
                                    kernel_variant=solver.kernel_variant))
        # global dt is the one-group case: every plane, every step
        self.groups = [SimpleNamespace(rate=1, forcing_region=None)]
        #: half -> (core operator or None, [operators finishing the half])
        self._ops = {"velocity": (None, [self._velocity]),
                     "stress": (None, [self._stress])}
        #: halves whose core already ran ahead of their block
        self._ahead: set[str] = set()

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
        """The group whose cadence ``source`` injects at."""
        return self.groups[0]

    def update(self, half: str, act) -> None:
        """Run the ``half`` ('velocity' | 'stress') update of ``act``."""
        core, rest = self._ops[half]
        if core is not None and half not in self._ahead:
            core()
        self._ahead.discard(half)
        for op in rest:
            op()

    def damp(self, act) -> None:
        """Sponge-damp the planes of the active groups."""
        self.solver.sponge.apply(self.solver.wf)

    def span_attrs(self) -> dict:
        """Attributes a driver puts on its run span."""
        return {}

    def close(self) -> None:
        """Cut the reference cycles between a finished solver and its
        schedule (``solver.schedule`` <-> ``self.solver``, and this
        object's own bound-method table), so the wavefield is freed by
        reference count the moment the driver drops the solver instead of
        at some later generation-2 collection.  The solver cannot step
        afterwards."""
        self._ops.clear()
        self.solver.schedule = self.solver.lts = None
        self.solver = None

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
            hook = s._rate_hook
            for comp in ("sxx", "syy", "szz", "sxy", "sxz", "syz"):
                terms = s.kernel.update_stress(comp, rate_hook=hook)
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

        The region operators replay the whole-interior per-cell ufunc
        sequence, so a split step stays bitwise identical.
        """
        if not self.plan.split:
            return False
        s = self.solver
        excl = [[NGHOST * bool(lo), NGHOST * bool(hi)] for lo, hi in faces]
        sexcl = [list(e) for e in excl]
        if s.free_surface is not None:
            # the top two stress planes read the free-surface velocity
            # ghosts, written only after the velocity halo completes
            sexcl[2][1] = NGHOST
        cuts = {"velocity": _split_core_shells(s.grid, excl),
                "stress": _split_core_shells(s.grid, sexcl)}
        if None in cuts.values():
            return False
        if self.plan.velocity == "compiled":
            from .compiled import FusedRegionStepper
            mk = partial(FusedRegionStepper, s.fused)
        else:
            mk = partial(RegionUpdater, s.kernel)
        for half, (core, shells) in cuts.items():
            self._ops[half] = (
                getattr(mk(core), "step_" + half),
                [getattr(mk(r), "step_" + half) for r in shells])
        return True

    def core_ahead(self, half: str) -> None:
        """Run ``half``'s core now; its block then only finishes the shells.

        The stress core (>= 2 planes from any exchanged face and below the
        free-surface-coupled planes) reads no velocity ghosts, and the next
        step's velocity core reads no stress ghosts, so each may run while
        the other family's halo is in flight.
        """
        self._ops[half][0]()
        self._ahead.add(half)

    # ------------------------------------------------------------------
    # The sequence
    # ------------------------------------------------------------------
    def block_a(self) -> None:
        """Velocity update, force sources, velocity forcings."""
        s = self.solver
        wf, t = s.wf, self.now()
        act = self.active(s.nstep)
        self.update("velocity", act)
        for g in act:
            dt = g.rate * s.dt
            for src in s.force_sources:
                if self.group_of(src) is g:
                    src.inject(wf, t, dt)
            for f in s.forcings:
                f.apply_velocity(wf, t, dt, region=g.forcing_region)

    def block_b(self) -> None:
        """Free-surface ghosts, stress update, moment sources, imaging,
        stress forcings, sponge."""
        s = self.solver
        wf, t = s.wf, self.now()
        act = self.active(s.nstep)
        # the free surface follows the top group's cadence
        fs = s.free_surface if self.groups[-1] in act else None
        if fs is not None:
            # after halo v: the ghosts take x/y differences of velocities
            fs.apply_velocity(wf)
        self.update("stress", act)
        for g in act:
            for src in s.moment_sources:
                if self.group_of(src) is g:
                    src.inject(wf, t, g.rate * s.dt)
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
