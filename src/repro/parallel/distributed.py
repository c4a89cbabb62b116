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

One rank loop (:meth:`DistributedWaveSolver.rank_steps`) runs the blocks
on two backends, which supply only its halo and timing callbacks:

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
from contextlib import contextmanager
from dataclasses import replace

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
from .halo import HaloExchange, exchange_halos_sync, face_plan
from .procpool import ProcPoolUnavailable
from .simmpi import CommStats, SPMDResult, run_spmd

__all__ = ["DistributedWaveSolver"]


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
        If ``config.kernel_variant`` is 'compiled' and no compiled
        provider is available, the solver warns once (``RuntimeWarning``)
        and every rank runs 'pooled'; ``kernel_variant`` reads the result.
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
        #: rank -> persistent SimMPI halo exchange, built on first use
        #: (:meth:`sim_halo`): pack buffers are pooled across steps *and*
        #: across run() calls (allocation-free hot path)
        self._halo_exchanges: dict[int, HaloExchange] = {}
        #: rank-local records a :meth:`merge_records` kept, by receiver
        #: map index ("surface": frames): how many are already merged
        self._merged: dict = {}
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
            # bound once, on the global grid: each rank's source table
            # keeps the entries inside its own box
            source.bind(self.grid)
            for sol in self.solvers:
                sol.moment_sources.append(source)
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

    def merge_records(self, keep: bool = False) -> None:
        """Move what the rank-local receivers and surface recorders hold
        into the user's receivers and surface recorder (every driver calls
        this after its steps).

        ``keep=True`` copies only what is new since the last merge and
        leaves the rank-local records in place, for a driver that may still
        replay steps behind them (:mod:`repro.parallel.resilience`).
        """
        merged = self._merged
        for i, (recv, comp, _rank, local) in enumerate(self._receiver_map):
            data = local.data[comp]
            recv.data[comp].extend(data[merged.get(i, 0):])
            merged[i] = len(data)
            if not keep:
                data.clear()
        local = {rank: sol.surface_recorder
                 for rank, sol in enumerate(self.solvers)
                 if sol.surface_recorder is not None}
        if local:
            nframes = min(len(r.frames) for r in local.values())
            d = self.surface_recorder.dec_space
            shape = tuple(len(range(0, n, d)) for n in self.grid.shape[:2])
            dtype = self.solvers[0].wf.dtype
            for fi in range(merged.get("surface", 0), nframes):
                t = 0.0
                planes = [np.zeros(shape, dtype=dtype) for _ in range(3)]
                for rank, rec in local.items():
                    (a, _), (c, _), _ = self.decomp.subdomain(rank).ranges
                    # lattice index of this rank's first sample:
                    # ceil(origin / d)
                    ia, ic = -(-a // d), -(-c // d)
                    t, *lplanes = rec.frames[fi]
                    for dst, src in zip(planes, lplanes):
                        dst[ia:ia + src.shape[0], ic:ic + src.shape[1]] = src
                self.surface_recorder.frames.append((t, *planes))
            merged["surface"] = nframes
            if not keep:
                for rec in local.values():
                    rec.frames.clear()
        if not keep:
            merged.clear()

    # ------------------------------------------------------------------
    # The rank loop (every driver)
    # ------------------------------------------------------------------
    def rank_steps(self, rank: int, nsteps: int, halo, timed,
                   split: bool = False):
        """One rank's time loop as a generator::

            A; post v; [B-core]; complete v; B; post σ; C; [next A-core];
            complete σ

        ``halo(phase, group)`` runs one half ('post' | 'complete') of a
        field group's exchange and returns the SimMPI ops to yield — or
        nothing when the halo moves some other way (procpool's rings, the
        resilience replay's logged rim).  ``timed(name, category, hidden)``
        returns the context manager a block runs in (a span, a stopwatch).
        A ``split`` rank runs the bracketed cores while the other family's
        faces fly: the stress core during the velocity exchange, the next
        step's velocity core during the stress one (this step is already
        recorded).  An unsplit rank runs each half whole, so its post and
        complete are back to back but for C, which reads no ghost.
        """
        sched = self.solvers[rank].schedule
        ahead = False    # did the velocity core already run, hidden?
        for istep in range(nsteps):
            with timed("step.velocity.shell" if ahead else "step.velocity"):
                sched.block_a()
            yield from halo("post", "velocity")
            if split:
                with timed("step.stress.core", hidden=True):
                    sched.core_ahead("stress")
            yield from halo("complete", "velocity")
            with timed("step.stress.shell" if split else "step.stress"):
                sched.block_b()
            yield from halo("post", "stress")
            sched.block_c(lambda: timed("step.record", "io"))
            ahead = split and istep < nsteps - 1
            if ahead:
                with timed("step.velocity.core", hidden=True):
                    sched.core_ahead("velocity")
            yield from halo("complete", "stress")

    @staticmethod
    def traced(tracer):
        """``timed`` for the SimMPI and resilience loops: wall-clock spans.

        SimMPI virtual clocks only advance on communication, so measured
        numpy time is the honest compute cost — the paper's Eq. 7 hybrid
        of measured kernel time plus modelled alpha + k*beta communication.
        """
        def timed(name, category="compute", hidden=False):
            return tracer.span(name, category=category, wall=True)
        return timed

    def sim_halo(self, comm):
        """``halo`` for a SimMPI rank: the persistent tagged exchange
        opened into post/complete; under ``sync_comm`` the whole rendezvous
        exchange runs at complete."""
        rank = comm.rank
        wf = self.solvers[rank].wf
        hx = self._halo_exchanges.get(rank)
        if hx is None:
            hx = self._halo_exchanges[rank] = HaloExchange(
                self.decomp, rank, wf, mode=self.halo_mode)

        def halo(phase, group):
            if not self.sync_comm:
                return getattr(hx, phase)(comm, group)
            if phase == "complete":
                return exchange_halos_sync(comm, self.decomp, rank, wf,
                                           group, self.halo_mode)
            return ()
        return halo

    # ------------------------------------------------------------------
    # Execution: SimMPI backend
    # ------------------------------------------------------------------
    def _rank_program(self, comm, nsteps: int):
        yield from self.rank_steps(comm.rank, nsteps, self.sim_halo(comm),
                                   self.traced(comm.tracer))

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
        """One rank's run (executes inside a forked worker process): the
        rank loop over the shared-memory rings, stopwatched."""
        sol = self.solvers[rank]
        wf = sol.wf
        locals_ = [(i, comp, loc) for i, (_, comp, r, loc)
                   in enumerate(self._receiver_map) if r == rank]
        spans: list | None = [] if collect_spans else None
        acc = dict.fromkeys(("pack_s", "wait_s", "unpack_s", "hidden_s",
                             "compute_s"), 0.0)
        t_start = time.perf_counter()

        @contextmanager
        def timed(name, category="compute", hidden=False):
            if category != "compute":   # recording is not stopwatched
                yield
                return
            t0 = time.perf_counter()
            yield
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
            return ()

        for _ in self.rank_steps(rank, nsteps, halo, timed,
                                 split=self._split[rank]):
            pass
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
                faces = {(f.axis, f.side) for f in
                         face_plan(self.decomp, rank, self.halo_mode)}
                self._split.append(
                    self.overlap and sol.schedule.split(
                        [((a, -1) in faces, (a, +1) in faces)
                         for a in range(3)]))
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
        self.merge_records()
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
