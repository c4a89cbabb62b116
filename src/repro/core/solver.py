"""AWM — the anelastic wave propagation solver ("wave mode", Fig. 6).

:class:`WaveSolver` assembles the pieces of Section II (kernels, free
surface, absorbing boundary, attenuation, sources, receivers) and advances
them with the explicit leapfrog step of :mod:`repro.core.schedule` — the
sequence and its composition rules live there and in DESIGN.md §3 ("Step
schedule"), not here.

The solver is deliberately single-domain: the distributed version
(:class:`repro.parallel.distributed.DistributedWaveSolver`) runs the same
schedule on each subgrid with halo exchanges between its blocks, and is
tested to reproduce this solver bitwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ..obs.tracer import get_tracer
from .attenuation import CoarseGrainedAttenuation
from .boundary import FreeSurfaceFS2, SpongeLayer
from .fd import NGHOST
from .grid import FIELD_OFFSETS, Grid3D, WaveField
from .kernels import VelocityStressKernel
from .lts import LTSScheduler
from .medium import Medium
from .pml import PML, PMLConfig
from .schedule import SimulationDiverged, StepSchedule, resolve
from .stability import cfl_dt

__all__ = ["KERNEL_VARIANTS", "STATE_SCHEMA", "SolverConfig", "Receiver",
           "StateSchemaError", "SurfaceRecorder", "WaveSolver"]

#: The stencil backends: the numpy reference and the fused compiled sweeps
#: (bitwise equal to it).
KERNEL_VARIANTS = ("pooled", "compiled")

#: The layout of the dict :meth:`WaveSolver.state` writes, stamped into it.
STATE_SCHEMA = "repro-state/1"


class StateSchemaError(ValueError):
    """A state dict :meth:`WaveSolver.load_state` cannot read: unstamped,
    stamped with another schema than :data:`STATE_SCHEMA`, or saved with a
    fault by a solver without one (or the reverse)."""


@dataclass
class SolverConfig:
    """Run-time solver configuration (the Section III.G adaptation knobs)."""

    dt: float | None = None              #: time step; None = CFL-derived
    order: int = 4                       #: FD order (4 = production, 2 = verification)
    free_surface: bool = True            #: FS2 at the top of the grid
    absorbing: str = "pml"               #: 'pml' | 'sponge' | 'none'
    pml: PMLConfig = field(default_factory=PMLConfig)
    sponge_width: int = 20
    sponge_amp: float = 0.92
    attenuation_band: tuple[float, float] | None = None  #: (f_min, f_max) or None
    n_mechanisms: int = 8
    kernel_variant: str = "pooled"       #: one of KERNEL_VARIANTS
    compiled_parallel: bool = False      #: thread the compiled sweeps (OpenMP)
    dtype: type = np.float64
    stability_check_interval: int = 50   #: steps between blow-up checks
    stability_limit: float = 1e9         #: max |v| before declaring divergence
    #: local time stepping: 'off' | 'auto' | explicit ((k_lo, k_hi, rate), ...)
    lts: object = "off"
    lts_correction: bool = True          #: time-interpolated interface bands

    def __post_init__(self) -> None:
        if self.kernel_variant not in KERNEL_VARIANTS:
            raise ValueError(
                f"unknown kernel_variant {self.kernel_variant!r} "
                f"(expected one of {', '.join(KERNEL_VARIANTS)})")
        if isinstance(self.lts, str):
            if self.lts not in ("off", "auto"):
                raise ValueError(
                    f"lts must be 'off', 'auto' or an explicit rate map "
                    f"(got {self.lts!r})")
        else:
            try:
                self.lts = tuple((int(lo), int(hi), int(r))
                                 for lo, hi, r in self.lts)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"lts rate map must be (k_lo, k_hi, rate) triples "
                    f"(got {self.lts!r})") from exc
        resolve(self)   # composition rules: one table, core/schedule.py


@dataclass
class Receiver:
    """Velocity time-series recorder at a physical position."""

    position: tuple[float, float, float]
    name: str = ""
    _cells: dict[str, tuple[int, int, int]] = field(default_factory=dict, repr=False)
    data: dict[str, list[float]] = field(default_factory=lambda: {
        "vx": [], "vy": [], "vz": []}, repr=False)

    def bind(self, grid: Grid3D) -> None:
        for comp in ("vx", "vy", "vz"):
            offs = FIELD_OFFSETS[comp]
            idx = []
            for axis in range(3):
                pos = (self.position[axis] - grid.origin[axis]) / grid.h - offs[axis]
                i = int(round(np.clip(pos, 0, grid.shape[axis] - 1)))
                idx.append(i + NGHOST)
            self._cells[comp] = tuple(idx)

    def record(self, wf: WaveField) -> None:
        for comp, cell in self._cells.items():
            self.data[comp].append(float(getattr(wf, comp)[cell]))

    def series(self, comp: str) -> np.ndarray:
        return np.asarray(self.data[comp])


class SurfaceRecorder:
    """Decimated free-surface velocity output (Section VII.B: M8 saved the
    surface velocity vector every 20th step on an 80 m grid, i.e. every 2nd
    point of the 40 m mesh)."""

    def __init__(self, dec_space: int = 1, dec_time: int = 1,
                 offset: tuple[int, int] = (0, 0)):
        self.dec_space = dec_space
        self.dec_time = dec_time
        #: first sampled interior (x, y) row: non-zero on a subdomain whose
        #: origin is off the global sampling lattice
        self.offset = offset
        self.frames: list[tuple[float, np.ndarray, np.ndarray, np.ndarray]] = []
        self._step = 0

    def maybe_record(self, wf: WaveField, t: float) -> None:
        if self._step % self.dec_time == 0:
            kt = NGHOST + wf.grid.nz - 1
            g = NGHOST
            d = self.dec_space
            ox, oy = self.offset
            vx = wf.vx[g + ox:-g:d, g + oy:-g:d, kt].copy()
            vy = wf.vy[g + ox:-g:d, g + oy:-g:d, kt].copy()
            vz = wf.vz[g + ox:-g:d, g + oy:-g:d, kt].copy()
            self.frames.append((t, vx, vy, vz))
        self._step += 1

    def peak_horizontal(self) -> np.ndarray:
        """Running peak of sqrt(vx^2 + vy^2) over all recorded frames."""
        if not self.frames:
            raise RuntimeError("no frames recorded")
        peak = np.zeros_like(self.frames[0][1])
        for _, vx, vy, _ in self.frames:
            np.maximum(peak, np.sqrt(vx ** 2 + vy ** 2), out=peak)
        return peak

    def output_bytes(self) -> int:
        return sum(vx.nbytes + vy.nbytes + vz.nbytes
                   for _, vx, vy, vz in self.frames)


class WaveSolver:
    """Single-domain anelastic wave propagation solver (AWM)."""

    def __init__(self, grid: Grid3D, medium: Medium,
                 config: SolverConfig | None = None,
                 index_origin: tuple[int, int, int] = (0, 0, 0),
                 global_shape: tuple[int, int, int] | None = None,
                 global_vp_max: float | None = None, fault=None):
        """``index_origin``/``global_shape``/``global_vp_max`` place this
        solver as a subdomain of a larger grid (used by the distributed
        solver); defaults treat the grid as the whole domain.  ``fault`` is
        a split-node fault (:class:`repro.rupture.SplitNodeFault`, or any
        object with its ``bind``/``rows``/step-hook/state methods) that the
        step schedule runs next to the bulk update."""
        self.grid = grid
        self.config = cfg = config or SolverConfig()
        # Coerce the material model to the configured precision so every
        # kernel operand (fields, moduli, buoyancies) shares one dtype and no
        # NEP-50 strong-scalar promotion sneaks float64 into an f32 step.
        if medium.dtype != np.dtype(cfg.dtype):
            medium = medium.astype(cfg.dtype)
        self.medium = medium
        vp_ref = global_vp_max if global_vp_max is not None else medium.vp_max
        # Keep dt a python float (weak NEP-50 scalar): an np.float64 dt would
        # promote every f32 array it multiplies back to double precision.
        self.dt = float(cfg.dt) if cfg.dt is not None else cfl_dt(
            grid.h, vp_ref, order=cfg.order)
        self.wf = WaveField(grid, dtype=np.dtype(cfg.dtype))
        self.attenuation = None if cfg.attenuation_band is None else \
            CoarseGrainedAttenuation(
                grid, medium, *cfg.attenuation_band, self.dt,
                n_mech=cfg.n_mechanisms, index_origin=index_origin,
                dtype=cfg.dtype)
        self.kernel = VelocityStressKernel(self.wf, medium, self.dt,
                                           order=cfg.order,
                                           attenuation=self.attenuation)
        #: effective kernel variant (== cfg.kernel_variant unless the
        #: compiled backend was unavailable and we fell back to pooled)
        self.kernel_variant = cfg.kernel_variant
        #: compiled.FusedStepper when the compiled variant is active
        self.fused = None
        if cfg.kernel_variant == "compiled":
            from .compiled import CompiledUnavailable, FusedStepper
            try:
                self.fused = FusedStepper.for_kernel(
                    self.kernel, parallel=cfg.compiled_parallel)
            except CompiledUnavailable as exc:
                # Mirror the procpool->SimMPI fallback: warn exactly once and
                # keep running; the equivalence matrix runs with
                # warnings-as-errors, so this can never pass a cell silently.
                warnings.warn(
                    f"compiled kernel backend unavailable ({exc}); "
                    "falling back to kernel_variant='pooled'",
                    RuntimeWarning, stacklevel=2)
                self.kernel_variant = "pooled"
        #: the operator per half-step for the effective variant
        #: (core/schedule.py's composition table)
        self.plan = resolve(replace(cfg, kernel_variant=self.kernel_variant),
                            fault=fault is not None)
        #: the compiled operators the sponge and free surface run next to
        #: the fused sweeps (None: their numpy bodies)
        kernels = self.fused.kernels if self.fused is not None else None
        #: compiled only: the interior rows (uint8 (nx, ny)) whose
        #: stress-side boundary work runs in the schedule's own slots
        #: instead of the stress sweep's row visit — rows a moment source
        #: injects into, or every row when forcings apply or the stress half
        #: is pooled; the schedule keeps it current (StepSchedule.hold)
        self.held_rows = None
        if kernels is not None:
            self.held_rows = np.full((grid.nx, grid.ny),
                                     self.plan.stress != "compiled", np.uint8)
        self.free_surface = (FreeSurfaceFS2(medium, kernels=kernels,
                                            held=self.held_rows)
                             if cfg.free_surface else None)
        self.pml: PML | None = None
        self.sponge: SpongeLayer | None = None
        if cfg.absorbing == "pml":
            self.pml = PML(grid, medium, cfg.pml, dtype=cfg.dtype,
                           global_shape=global_shape,
                           index_origin=index_origin,
                           cmax=global_vp_max)
        elif cfg.absorbing == "sponge":
            self.sponge = SpongeLayer(grid, cfg.sponge_width, cfg.sponge_amp,
                                      damp_top=False,
                                      global_shape=global_shape,
                                      index_origin=index_origin,
                                      dtype=cfg.dtype, kernels=kernels,
                                      held=self.held_rows)
        elif cfg.absorbing != "none":
            raise ValueError(f"unknown absorbing boundary: {cfg.absorbing!r}")
        if self.fused is not None:
            self.fused.fold(self.held_rows, self.free_surface, self.sponge)
        #: the split-node fault the schedule runs, or None
        self.fault = fault
        if fault is not None:
            fault.bind(self)
        #: repro.core.lts.LTSScheduler when local time stepping is active
        self.lts = LTSScheduler(self) if cfg.lts != "off" else None
        #: the step this solver executes (the LTS scheduler *is* one)
        self.schedule = self.lts or StepSchedule(self)
        self.moment_sources: list = []
        self.force_sources: list = []
        #: whole-domain analytic forcings (ManufacturedForcing; repro.verify)
        self.forcings: list = []
        self.receivers: list[Receiver] = []
        self.surface_recorder: SurfaceRecorder | None = None
        self.t = 0.0
        self.nstep = 0
        #: tracer override; None = whatever repro.obs.get_tracer() returns
        #: at step time (the null tracer unless one is installed)
        self.tracer = None
        #: optional repro.obs.health.HealthMonitor; called after each step
        self.health = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_source(self, source) -> None:
        """Add a moment-tensor or body-force source (bound immediately)."""
        from .source import BodyForceSource, FiniteFaultSource, MomentTensorSource
        if isinstance(source, FiniteFaultSource):
            for ps in source.point_sources():
                self.add_source(ps)
            return
        if isinstance(source, MomentTensorSource):
            source.bind(self.grid)
            self.moment_sources.append(source)
        elif isinstance(source, BodyForceSource):
            source.bind(self.grid, self.medium.rho)
            self.force_sources.append(source)
        else:
            raise TypeError(f"unsupported source type: {type(source).__name__}")

    def add_forcing(self, forcing) -> None:
        """Attach a whole-domain analytic forcing (the MMS hook).

        ``forcing`` must expose ``bind(grid)``, ``apply_velocity(wf, t, dt)``
        and ``apply_stress(wf, t, dt)`` — see
        :class:`repro.core.source.ManufacturedForcing`.
        """
        forcing.bind(self.grid)
        self.forcings.append(forcing)

    def add_receiver(self, receiver: Receiver) -> Receiver:
        receiver.bind(self.grid)
        self.receivers.append(receiver)
        return receiver

    def record_surface(self, dec_space: int = 1, dec_time: int = 1) -> SurfaceRecorder:
        self.surface_recorder = SurfaceRecorder(dec_space, dec_time)
        return self.surface_recorder

    # ------------------------------------------------------------------
    # Time stepping
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the wavefield by one time step (A; B; C, no halos)."""
        tracer = self.tracer if self.tracer is not None else get_tracer()
        with tracer.span("solver.step", category="compute"):
            self.schedule.substep()
        self.schedule.block_c(
            lambda: tracer.span("solver.record", category="io"))

    def run(self, nsteps: int, progress=None) -> None:
        """Advance ``nsteps`` steps; ``progress(step, solver)`` if given."""
        tracer = self.tracer if self.tracer is not None else get_tracer()
        with tracer.span("solver.run", category="other",
                         **self.schedule.span_attrs()):
            for i in range(nsteps):
                self.step()
                if progress is not None:
                    progress(i, self)

    # ------------------------------------------------------------------
    # State (checkpointing support)
    # ------------------------------------------------------------------
    def state(self, copy: bool = True) -> dict:
        """Complete restartable state (Section III.F).

        Fields are saved with their ghost rims: the free-surface images live
        in the top ghost planes and must survive a restart for the resumed
        run to be bitwise identical.  A fault's split-node state goes under
        ``"fault"``.  The dict is stamped with :data:`STATE_SCHEMA`.
        ``copy=False`` returns the contiguous arrays themselves rather than
        copies, for a caller that serialises the dict before the next step.
        """
        keep = np.ndarray.copy if copy else np.ascontiguousarray
        st = {"schema": STATE_SCHEMA, "t": self.t, "nstep": self.nstep,
              "fields": {name: keep(arr)
                         for name, arr in self.wf.fields().items()}}
        if self.attenuation is not None:
            st["attenuation"] = {k: keep(v) for k, v in
                                 self.attenuation.state_arrays().items()}
        if self.pml is not None:
            st["pml"] = {key: [keep(p) for p in parts]
                         for key, parts in self.pml.parts.items()}
        if self.lts is not None:
            st["lts"] = self.lts.state_arrays()
        if self.fault is not None:
            st["fault"] = self.fault.state_arrays()
        return st

    def load_state(self, st: dict) -> None:
        """Restore a :meth:`state` dict; :class:`StateSchemaError` unless it
        carries this solver's :data:`STATE_SCHEMA` stamp and has fault
        state exactly when this solver has a fault."""
        schema = st.get("schema")
        if schema != STATE_SCHEMA:
            raise StateSchemaError(
                f"state schema {schema!r} cannot be loaded: this solver "
                f"reads {STATE_SCHEMA!r}")
        saved = "fault" in st
        if saved != (self.fault is not None):
            raise StateSchemaError(
                f"state {'has' if saved else 'lacks'} fault arrays but this "
                f"solver has {'no' if saved else 'a'} fault")
        self.t = st["t"]
        self.nstep = st["nstep"]
        for name, arr in st["fields"].items():
            getattr(self.wf, name)[...] = arr
        if self.attenuation is not None:
            self.attenuation.load_state(st["attenuation"])
        if self.pml is not None:
            for key, parts in st["pml"].items():
                for dst, src in zip(self.pml.parts[key], parts):
                    dst[...] = src
        if self.lts is not None:
            self.lts.load_state(st["lts"])
        if self.fault is not None:
            self.fault.load_state(st["fault"])
