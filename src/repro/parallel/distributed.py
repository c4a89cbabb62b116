"""Distributed AWM solver over SimMPI or real processes (III.A, IV.A, IV.C).

:class:`DistributedWaveSolver` runs the step schedule of
:mod:`repro.core.schedule` on each subdomain of a 3-D domain decomposition
and exchanges two-cell halos between its blocks.  Because halo exchange is
a pure copy and every boundary module (free surface, sponge, PML,
attenuation) evaluates its coefficients at *global* positions, the
decomposed run is **bitwise identical** to the serial run for any processor
grid — the strongest possible form of the paper's aVal acceptance test, and
the property the whole performance-optimization story (asynchronous
messaging, reduced communication, overlap) relies on: optimizations may
move *when* work happens, never *what* is computed.

Two drivers execute the same blocks:

* ``backend="sim"`` — SimMPI's cooperative generator scheduler with virtual
  ``alpha + k*beta`` clocks (the performance-*model* substrate);
* ``backend="procpool"`` — real forked worker processes with shared-memory
  halo rings (:mod:`repro.parallel.procpool`), the performance-*measurement*
  substrate, which also hides the halos behind the schedule's core regions
  (the paper's Section IV.C overlap).

The sequence, which driver hides what behind which halo, and the table of
refused or degraded compositions are in DESIGN.md §3 ("Step schedule").
"""

from __future__ import annotations

import copy
import time
import warnings
from contextlib import nullcontext
from dataclasses import replace
from functools import partial

import numpy as np

from ..core.fd import NGHOST
from ..core.grid import Grid3D
from ..core.medium import Medium
from ..core.schedule import resolve
from ..core.solver import Receiver, SolverConfig, SurfaceRecorder, WaveSolver
from ..core.source import BodyForceSource, FiniteFaultSource, MomentTensorSource
from ..obs.health import HealthConfig, HealthMonitor
from ..obs.metrics import default_registry
from ..obs.tracer import get_tracer
from . import procpool
from .decomp import Decomposition3D
from .halo import HaloExchange, exchange_halos_sync
from .procpool import ProcPoolUnavailable
from .simmpi import CommStats, SPMDResult, run_spmd

__all__ = ["DistributedWaveSolver"]

_AXIS_LO = ("x_lo", "y_lo", "z_lo")
_AXIS_HI = ("x_hi", "y_hi", "z_hi")


def _result_nbytes(sol: WaveSolver, nsteps: int) -> int:
    """Result-arena bytes for one procpool rank: room for its state arrays
    (fields, memory variables, PML parts, LTS history) and the surface
    frames ``nsteps`` steps record, each padded to the arena alignment.
    Arena pages are only touched when written, so an overshoot is free."""
    arrays = [*sol.wf.fields().values()]
    for part in (sol.attenuation, sol.lts):
        if part is not None:
            arrays += part.state_arrays().values()
    if sol.pml is not None:
        arrays += [p for parts in sol.pml.parts.values() for p in parts]
    nbytes = sum(a.nbytes + procpool.ARENA_ALIGN for a in arrays)
    srec = sol.surface_recorder
    if srec is not None:
        plane = sol.wf.vx[:, :, 0].nbytes + procpool.ARENA_ALIGN
        nbytes += 3 * plane * (nsteps // srec.dec_time + 1)
    return nbytes


class DistributedWaveSolver:
    """AWM wave solver decomposed over a virtual rank grid.

    Parameters
    ----------
    grid, medium:
        The *global* grid and material model.
    decomp:
        A :class:`Decomposition3D`, or pass ``nranks`` to factor one
        automatically.
    config:
        Shared solver configuration (dt is derived from the global CFL).
    halo_mode:
        'reduced' (Section IV.A directional exchange, default) or 'full'.
    sync_comm:
        Use the legacy synchronous rendezvous exchange (for the performance
        studies; results are identical, virtual time is not).  SimMPI
        backend only.
    machine:
        Optional machine model for virtual-time accounting (SimMPI backend;
        the procpool backend measures wall clocks instead).
    backend:
        'sim' (default) — SimMPI cooperative scheduler; 'procpool' — real
        OS processes with shared-memory halo rings.  If procpool cannot run
        (no fork / no POSIX shared memory / spawn failure) the solver warns
        once and falls back to 'sim'.
    kernel_variant:
        None (default) — inherit ``config.kernel_variant``; or 'pooled' —
        plain interior updates; 'compiled' — the fused JIT sweeps
        (:mod:`repro.core.compiled`).  Bitwise identical.  If the
        compiled provider is unavailable the solver warns once
        (``RuntimeWarning``) and every rank runs 'pooled'.
    overlap:
        Overlap interior computation with halo transfers on the procpool
        backend (Section IV.C) wherever the schedule can split a step into
        core and shells.  Results are bitwise identical either way.
    health:
        Optional :class:`~repro.obs.health.HealthConfig`: every rank runs
        its own :class:`~repro.obs.health.HealthMonitor` (sim backend: in
        the scheduler process; procpool: inside the forked worker, whose
        trip propagates to the parent as a worker failure).  The monitors
        only read wavefields, so results stay bitwise identical to an
        unmonitored run.
    stall_timeout:
        Seconds a procpool halo-ring semaphore wait may block before the
        worker raises :class:`~repro.parallel.procpool.HaloStallError`
        (None = wait forever).
    """

    def __init__(self, grid: Grid3D, medium: Medium,
                 decomp: Decomposition3D | None = None,
                 nranks: int | None = None,
                 config: SolverConfig | None = None,
                 halo_mode: str = "reduced",
                 sync_comm: bool = False,
                 machine=None,
                 backend: str = "sim",
                 kernel_variant: str | None = None,
                 overlap: bool = True,
                 health: HealthConfig | None = None,
                 stall_timeout: float | None = None):
        if decomp is None:
            if nranks is None:
                raise ValueError("pass decomp= or nranks=")
            decomp = Decomposition3D.auto(grid, nranks)
        if backend not in ("sim", "procpool"):
            raise ValueError(f"unknown backend {backend!r} "
                             "(expected 'sim' or 'procpool')")
        self.grid = grid
        self.decomp = decomp
        cfg = config or SolverConfig()
        if kernel_variant is not None:
            cfg = replace(cfg, kernel_variant=kernel_variant)
        resolve(cfg, dims=decomp.dims, backend=backend, sync_comm=sync_comm)
        # Convert the *global* medium once, then cut subgrids from it: the
        # serial WaveSolver coerces the same global arrays, and elementwise
        # conversion commutes with the window cut, so serial and distributed
        # runs see bitwise-identical material (and the same vp_max -> dt) at
        # any precision.
        if medium.dtype != np.dtype(cfg.dtype):
            medium = medium.astype(cfg.dtype)
        self.medium = medium
        if cfg.lts == "auto":
            # Resolve the partition from the GLOBAL medium once and pass
            # it down as an explicit map: per-rank 'auto' partitions would
            # be cut from each rank's local vp distribution and diverge
            # from the serial schedule.
            from ..core.lts import build_rate_groups, plane_cfl_bounds
            from ..core.stability import cfl_dt
            dt0 = (float(cfg.dt) if cfg.dt is not None
                   else cfl_dt(grid.h, medium.vp_max, order=cfg.order))
            cfg = replace(cfg, lts=build_rate_groups(
                dt0, plane_cfl_bounds(grid.h, medium, order=cfg.order)))
        if cfg.kernel_variant == "compiled":
            # Resolve availability ONCE here (get_kernels is memoized), so
            # the fallback warns a single time instead of once per rank
            # sub-solver, mirroring the procpool->SimMPI contract.
            from ..core import compiled as _compiled
            try:
                _compiled.get_kernels(np.dtype(cfg.dtype),
                                      parallel=cfg.compiled_parallel)
            except _compiled.CompiledUnavailable as exc:
                warnings.warn(
                    f"compiled kernel backend unavailable ({exc}); "
                    "falling back to kernel_variant='pooled'",
                    RuntimeWarning, stacklevel=2)
                # sub-solvers inherit the *resolved* variant through their
                # config, so they never re-warn
                cfg = replace(cfg, kernel_variant="pooled")
        self.config = cfg
        self.halo_mode = halo_mode
        self.sync_comm = sync_comm
        self.machine = machine
        self.backend = backend
        self.kernel_variant = cfg.kernel_variant
        self.overlap = overlap
        self.stall_timeout = stall_timeout
        self.topology = machine.topology(decomp.nranks) if machine else None
        global_vp = medium.vp_max
        pz = decomp.dims[2]
        self.solvers: list[WaveSolver] = []
        for sub in decomp.subdomains():
            local_med = medium.subgrid(sub.grid, sub.slices)
            is_top = sub.coords[2] == pz - 1
            local_cfg = replace(cfg, free_surface=cfg.free_surface and is_top,
                                stability_check_interval=0)
            sol = WaveSolver(sub.grid, local_med, local_cfg,
                             index_origin=sub.origin_index,
                             global_shape=grid.shape,
                             global_vp_max=global_vp)
            if health is not None:
                # one watchdog per rank (sim backend runs them in-process;
                # procpool workers inherit them through fork and trip
                # inside the worker)
                sol.health = HealthMonitor(health, rank=len(self.solvers))
            self.solvers.append(sol)
        self.dt = self.solvers[0].dt
        self._receiver_map: list[tuple[Receiver, str, int, Receiver]] = []
        self.receivers: list[Receiver] = []
        # Persistent per-rank halo-exchange plans: pack buffers are pooled
        # across steps *and* across run() calls (allocation-free hot path).
        self._halo_exchanges: list[HaloExchange] = [
            HaloExchange(decomp, rank, sol.wf, mode=halo_mode)
            for rank, sol in enumerate(self.solvers)]
        self.last_result: SPMDResult | None = None
        #: aggregate timing of the last procpool run (bench/obs consumers);
        #: keys: workers, overlap, pack_s, wait_s, unpack_s, hidden_s,
        #: compute_s, wall_s, overlap_efficiency
        self.last_procpool: dict | None = None
        #: tracer override; None = whatever repro.obs.get_tracer() returns
        #: at run time (the null tracer unless one is installed)
        self.tracer = None
        self.surface_recorder: SurfaceRecorder | None = None
        #: per rank: did the schedule split into core + shells (None until
        #: the first procpool run asks)
        self._split: list[bool] | None = None
        self._fallback_warned = False

    @property
    def overlap_eligible(self) -> bool:
        """Whether the schedule may split a step into core and shells."""
        return self.solvers[0].schedule.plan.split

    @property
    def lts(self):
        """Rank 0's :class:`~repro.core.lts.LTSScheduler` (None when off).

        Under the pz=1 constraint every rank holds the identical global
        k-slab partition, so one scheduler answers rate-map questions for
        the whole run."""
        return self.solvers[0].lts

    # ------------------------------------------------------------------
    # Sources and receivers
    # ------------------------------------------------------------------
    def add_source(self, source) -> None:
        if isinstance(source, FiniteFaultSource):
            for ps in source.point_sources():
                self.add_source(ps)
            return
        if isinstance(source, MomentTensorSource):
            source.bind(self.grid)
            # LTS group assignment keys off one representative cell; pin the
            # *global* one so every rank's fragment of the source cloud lands
            # in the same rate group as the serial run (k is global == local
            # because LTS enforces pz=1).
            rep_k = next(iter(source._cells.values()))[2] - NGHOST
            for rank, sub in enumerate(self.decomp.subdomains()):
                local_plan = {}
                local_cells = {}
                for name, (idx, w) in source._plan.items():
                    gidx = idx - NGHOST  # global interior coordinates
                    mask = np.ones(len(gidx), dtype=bool)
                    for axis in range(3):
                        a, b = sub.ranges[axis]
                        mask &= (gidx[:, axis] >= a) & (gidx[:, axis] < b)
                    if not mask.any():
                        continue
                    lidx = gidx[mask] - np.array(sub.origin_index) + NGHOST
                    local_plan[name] = (lidx, w[mask])
                    local_cells[name] = tuple(lidx[0])
                if local_plan:
                    local = copy.copy(source)
                    local._plan = local_plan
                    local._cells = local_cells
                    local._lts_kplane = rep_k
                    self.solvers[rank].moment_sources.append(local)
        elif isinstance(source, BodyForceSource):
            rank = self.decomp.owner_of_cell(
                *self.grid.index_of(*source.position))
            sub = self.decomp.subdomain(rank)
            local = copy.copy(source)
            local._cell = None
            # bind against the local grid (positions are physical, so the
            # subdomain origin handles the rebasing)
            local.bind(sub.grid, self.solvers[rank].medium.rho)
            self.solvers[rank].force_sources.append(local)
        else:
            raise TypeError(f"unsupported source type: {type(source).__name__}")

    def add_receiver(self, receiver: Receiver) -> Receiver:
        """Register a receiver; data is merged back after :meth:`run`."""
        receiver.bind(self.grid)
        self.receivers.append(receiver)
        for comp, cell in receiver._cells.items():
            gi = tuple(c - NGHOST for c in cell)
            rank = self.decomp.owner_of_cell(*gi)
            sub = self.decomp.subdomain(rank)
            local = Receiver(position=receiver.position, name=receiver.name)
            local._cells = {comp: tuple(g - o + NGHOST for g, o
                                        in zip(gi, sub.origin_index))}
            local.data = {comp: []}
            self.solvers[rank].receivers.append(local)
            self._receiver_map.append((receiver, comp, rank, local))
        return receiver

    def record_surface(self, dec_space: int = 1,
                       dec_time: int = 1) -> SurfaceRecorder:
        """Record the decimated free-surface velocity (merged globally).

        Each top-layer rank samples the *global* lattice (every
        ``dec_space``-th point counted from the global origin, whatever its
        own origin) on its local top plane; frames are stitched into global
        arrays after every :meth:`run`, bitwise equal to the serial
        :class:`SurfaceRecorder` output for even and uneven splits.
        """
        pz = self.decomp.dims[2]
        for rank, sub in enumerate(self.decomp.subdomains()):
            if sub.coords[2] == pz - 1:
                self.solvers[rank].surface_recorder = SurfaceRecorder(
                    dec_space, dec_time,
                    offset=tuple(-o % dec_space
                                 for o in sub.origin_index[:2]))
        self.surface_recorder = SurfaceRecorder(dec_space, dec_time)
        return self.surface_recorder

    def _merge_surface(self) -> None:
        local = {rank: sol.surface_recorder
                 for rank, sol in enumerate(self.solvers)
                 if sol.surface_recorder is not None}
        if not local:
            return
        nframes = min(len(r.frames) for r in local.values())
        d = self.surface_recorder.dec_space
        shape = tuple(len(range(0, n, d)) for n in self.grid.shape[:2])
        dtype = self.solvers[0].wf.dtype
        for fi in range(nframes):
            t = 0.0
            planes = [np.zeros(shape, dtype=dtype) for _ in range(3)]
            for rank, rec in local.items():
                (a, _), (c, _), _ = self.decomp.subdomain(rank).ranges
                # lattice index of this rank's first sample: ceil(origin / d)
                ia, ic = -(-a // d), -(-c // d)
                t, *lplanes = rec.frames[fi]
                for dst, src in zip(planes, lplanes):
                    dst[ia:ia + src.shape[0], ic:ic + src.shape[1]] = src
            self.surface_recorder.frames.append((t, *planes))
        for rec in local.values():
            rec.frames.clear()

    # ------------------------------------------------------------------
    # Execution: SimMPI backend
    # ------------------------------------------------------------------
    def rank_steps(self, rank: int, nsteps: int, halo, tracer):
        """One rank's time loop as a generator: A; halo v; B; halo sigma; C.

        ``halo(group)`` returns the SimMPI requests to yield for that
        exchange — or nothing when the halo arrives some other way (the
        resilience replay applies a logged rim instead).
        """
        sched = self.solvers[rank].schedule

        def span(name, category="compute"):
            # compute spans are wall-clock (wall=True): SimMPI virtual
            # clocks only advance on communication, so measured numpy time
            # is the honest compute cost — the paper's Eq. 7 hybrid of
            # measured kernel time plus modelled alpha + k*beta
            # communication.
            return tracer.span(name, category=category, wall=True)

        for _ in range(nsteps):
            with span("step.velocity"):
                sched.block_a()
            yield from halo("velocity")
            with span("step.stress"):
                sched.block_b()
            yield from halo("stress")
            sched.block_c(lambda: span("step.record", "io"))

    def _rank_program(self, comm, nsteps: int):
        rank = comm.rank
        if self.sync_comm:
            exchange = partial(exchange_halos_sync, comm, self.decomp, rank,
                               self.solvers[rank].wf, mode=self.halo_mode)
        else:
            exchange = partial(self._halo_exchanges[rank].exchange, comm)
        yield from self.rank_steps(rank, nsteps, exchange, comm.tracer)

    def _span_attrs(self) -> dict:
        # every rank holds the same schedule-level attributes (an LTS rate
        # map is global under pz = 1), so rank 0 speaks for the run
        return self.solvers[0].schedule.span_attrs()

    def _run_sim(self, nsteps: int, tracer) -> SPMDResult:
        with tracer.span("distributed.run", category="other",
                         backend="sim", nranks=self.decomp.nranks,
                         nsteps=nsteps, **self._span_attrs()):
            return run_spmd(self.decomp.nranks, self._rank_program,
                            machine=self.machine, topology=self.topology,
                            args=(nsteps,), tracer=tracer)

    # ------------------------------------------------------------------
    # Execution: procpool backend (real processes, IV.C overlap)
    # ------------------------------------------------------------------
    def _procpool_worker(self, rank: int, endpoint, nsteps: int,
                         collect_spans: bool) -> dict:
        """One rank's run loop (executes inside a forked worker process).

        The SimMPI sequence with each halo opened into post/complete, and
        the schedule's core regions run inside the open windows: the stress
        core while the velocity faces fly, the *next* step's velocity core
        while the stress faces fly (this step's outputs are already
        recorded).  An unsplit rank has no cores and degenerates to the
        blocking schedule.
        """
        sol = self.solvers[rank]
        wf = sol.wf
        sched = sol.schedule
        split = self._split[rank]
        locals_ = [(i, comp, loc) for i, (_, comp, r, loc)
                   in enumerate(self._receiver_map) if r == rank]
        spans: list | None = [] if collect_spans else None
        acc = dict.fromkeys(("pack_s", "wait_s", "unpack_s", "hidden_s",
                             "compute_s"), 0.0)
        t_start = time.perf_counter()

        def compute(name, op, *args, hidden=False):
            t0 = time.perf_counter()
            op(*args)
            t1 = time.perf_counter()
            acc["compute_s"] += t1 - t0
            if hidden:
                acc["hidden_s"] += t1 - t0
            if spans is not None:
                spans.append((name, t0, t1, "compute",
                              {"hidden": True} if hidden else {}))

        def halo(phase, group):
            t0 = time.perf_counter()
            if phase == "post":
                p, w = endpoint.post(group, wf)
                acc["pack_s"] += p
            else:
                w, u = endpoint.complete(group, wf)
                acc["unpack_s"] += u
            acc["wait_s"] += w
            if spans is not None:
                spans.append((f"halo.{phase}.{group}", t0,
                              time.perf_counter(), "halo", {"wait_s": w}))

        ahead = False    # did the velocity core already run, hidden?
        for istep in range(nsteps):
            compute("step.velocity.shell" if ahead else "step.velocity",
                    sched.block_a)
            halo("post", "velocity")
            if split:
                compute("step.stress.core", sched.core_ahead, "stress",
                        hidden=True)
            halo("complete", "velocity")
            compute("step.stress.shell" if split else "step.stress",
                    sched.block_b)
            halo("post", "stress")
            sched.block_c(nullcontext)
            ahead = split and istep < nsteps - 1
            if ahead:
                compute("step.velocity.core", sched.core_ahead, "velocity",
                        hidden=True)
            halo("complete", "stress")

        wall = time.perf_counter() - t_start
        srec = sol.surface_recorder
        pool = endpoint.pool
        msgs = nbytes = 0
        for group in ("velocity", "stress"):
            m, b = pool.messages_per_round(rank, group)
            msgs += m
            nbytes += b
        stats = CommStats(messages_sent=msgs * nsteps,
                          bytes_sent=nbytes * nsteps,
                          messages_received=msgs * nsteps,
                          bytes_received=nbytes * nsteps,
                          compute_time=acc["compute_s"],
                          comm_time=(acc["wait_s"] + acc["pack_s"]
                                     + acc["unpack_s"]))
        return {
            "state": sol.state(copy=False),
            "receivers": [(i, comp, loc.data[comp])
                          for i, comp, loc in locals_],
            "surface": (None if srec is None
                        else {"frames": srec.frames, "step": srec._step}),
            "stats": stats,
            "wall": wall,
            **acc,
            "spans": spans,
        }

    def _merge_rank(self, rank: int, pl: dict) -> dict:
        """Copy one worker's state, receiver samples and surface frames into
        this process's rank solver (the arrays are result-arena views, see
        :func:`~repro.parallel.procpool.run_workers`); return the timings."""
        sol = self.solvers[rank]
        sol.load_state(pl.pop("state"))
        for idx, comp, data in pl.pop("receivers"):
            _, _, _, local = self._receiver_map[idx]
            local.data[comp].extend(data)
        surface = pl.pop("surface")
        if surface is not None:
            srec = sol.surface_recorder
            srec.frames.extend((t, *(a.copy() for a in planes))
                               for t, *planes in surface["frames"])
            srec._step = surface["step"]
        return pl

    def _run_procpool(self, nsteps: int, tracer) -> SPMDResult:
        procpool.ensure_available()
        if self._split is None:
            # split once, in the parent: region scratch buffers persist
            # across run() calls and reach the workers through fork
            self._split = []
            for rank, sol in enumerate(self.solvers):
                nb = self.decomp.neighbors(rank)
                self._split.append(
                    self.overlap and sol.schedule.split(
                        [(nb[lo] is not None, nb[hi] is not None)
                         for lo, hi in zip(_AXIS_LO, _AXIS_HI)]))
        collect_spans = bool(tracer.enabled)
        pool = procpool.FaceRingPool(self.decomp, mode=self.halo_mode,
                                     dtype=self.config.dtype,
                                     stall_timeout=self.stall_timeout)
        try:
            endpoints = [pool.endpoint(r)
                         for r in range(self.decomp.nranks)]

            def target(rank: int) -> dict:
                return self._procpool_worker(rank, endpoints[rank], nsteps,
                                             collect_spans)

            with tracer.span("distributed.run", category="other",
                             backend="procpool", nranks=self.decomp.nranks,
                             nsteps=nsteps, **self._span_attrs()):
                payloads = procpool.run_workers(
                    self.decomp.nranks, target,
                    arena_nbytes=[_result_nbytes(sol, nsteps)
                                  for sol in self.solvers],
                    merge=self._merge_rank)
        finally:
            pool.close()

        reg = default_registry()
        agg = {k: 0.0 for k in ("pack_s", "wait_s", "unpack_s", "hidden_s",
                                "compute_s", "wall_s")}
        clocks, stats = [], []
        for rank, pl in enumerate(payloads):
            clocks.append(pl["wall"])
            stats.append(pl["stats"])
            for key, hist in (("pack_s", "procpool.pack_s"),
                              ("wait_s", "procpool.wait_s"),
                              ("unpack_s", "procpool.unpack_s")):
                reg.histogram(hist).observe(pl[key])
                agg[key] += pl[key]
            agg["hidden_s"] += pl["hidden_s"]
            agg["compute_s"] += pl["compute_s"]
            agg["wall_s"] += pl["wall"]
            if pl["spans"]:
                for name, t0, t1, category, attrs in pl["spans"]:
                    tracer.record(name, t0, t1, category=category,
                                  rank=rank, domain="wall", **attrs)
        overlap_on = any(self._split)
        window = agg["hidden_s"] + agg["wait_s"]
        eff = (agg["hidden_s"] / window) if (overlap_on and window > 0) \
            else None
        if eff is not None:
            reg.gauge("procpool.overlap_efficiency").set(eff)
        self.last_procpool = {"workers": self.decomp.nranks,
                              "overlap": overlap_on,
                              "overlap_efficiency": eff, **agg}
        return SPMDResult(results=[None] * self.decomp.nranks,
                          clocks=clocks, stats=stats)

    # ------------------------------------------------------------------
    # Run entry point
    # ------------------------------------------------------------------
    def run(self, nsteps: int) -> SPMDResult:
        """Advance all subdomains ``nsteps`` steps; merge receiver data."""
        tracer = self.tracer if self.tracer is not None else get_tracer()
        if self.backend == "procpool":
            try:
                result = self._run_procpool(nsteps, tracer)
            except ProcPoolUnavailable as exc:
                if not self._fallback_warned:
                    warnings.warn(
                        f"procpool backend unavailable ({exc}); falling "
                        "back to the SimMPI backend", RuntimeWarning,
                        stacklevel=2)
                    self._fallback_warned = True
                self.backend = "sim"
                result = self._run_sim(nsteps, tracer)
        else:
            result = self._run_sim(nsteps, tracer)
        self.last_result = result
        for recv, comp, _rank, local in self._receiver_map:
            recv.data[comp].extend(local.data[comp])
            local.data[comp] = []
        self._merge_surface()
        return result

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def gather_field(self, name: str) -> np.ndarray:
        """Assemble a global interior field array from all subdomains."""
        out = np.zeros(self.grid.shape, dtype=self.solvers[0].wf.dtype)
        for rank, sub in enumerate(self.decomp.subdomains()):
            out[sub.slices] = self.solvers[rank].wf.interior(name)
        return out

    @property
    def t(self) -> float:
        return self.solvers[0].t
