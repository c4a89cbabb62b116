"""Fixed-workload benchmark suite behind ``repro bench`` (Section IV/V.B).

The paper's optimization story is only auditable because every change was
measured against a fixed workload (the 1024^3 single-node benchmark, the
4,096-core Kraken strong-scaling runs).  This module is the repo's analogue:
a small, pinned set of kernel / solver / halo workloads whose results are
written to a schema'd ``BENCH_<rev>.json`` so numbers can be compared across
revisions — "benchmarking over time" (see EXPERIMENTS.md and PERFORMANCE.md).

Workloads (sizes fixed per mode, see :data:`FULL` / :data:`SMOKE`):

``kernel_step``
    The production :class:`~repro.core.kernels.VelocityStressKernel`
    interior update (the allocation-free hot loop).
``kernel_step_compiled``
    The fused JIT sweeps (:mod:`repro.core.compiled`) on the identical
    fixture; ``extra.speedup_vs_pooled`` against ``kernel_step`` is the
    headline compiled-backend number, with the one-time JIT cost reported
    separately as ``extra.jit_compile_s`` (never inside the timed reps).
``kernel_blocked``
    The same arithmetic through the cache-blocked k/j-panel driver.
``baseline_kernel``
    The pre-IV.B formulation (in-loop divisions, per-step harmonic moduli)
    — the measurable "before" case.
``solver_step``
    A full :class:`~repro.core.solver.WaveSolver` step with sponge and
    coarse-grained attenuation (boundary + memory-variable cost included).
``solver_step_compiled``
    A full solver step through the compiled kernels.  Attenuation is
    incompatible with the fused variant, so this uses a sponge-only
    configuration and times an identically-configured pooled twin inside
    the workload for a like-for-like ``extra.speedup_vs_pooled``.
``halo_exchange``
    Pure :class:`~repro.parallel.halo.HaloExchange` rounds over SimMPI
    ranks (no compute), reduced mode.
``tracer_overhead``
    The same short solver run under the null tracer and a recording
    :class:`~repro.obs.Tracer`; reports the wall-time ratio.
``farm_mini``
    A fixed 4-job ensemble through :mod:`repro.farm` (2 worker
    processes, fresh store per repetition); reports jobs/hour and the
    rerun cache-hit rate — the throughput axis tracked by
    EXPERIMENTS.md's scenarios-per-hour protocol.

Every workload reports per-repetition wall times, derived Gflop/s and
Mcell-updates/s where a flop model applies, and the tracemalloc **peak
temporary bytes** allocated during one repetition — the number the
allocation-free refactor drives toward zero for ``kernel_step``.  Results
are also fed through :mod:`repro.obs.metrics` gauges/histograms
(``bench.<workload>.*``) so they compose with the rest of the
observability stack.
"""

from __future__ import annotations

import json
import os
import platform
import time
import tracemalloc
import zlib
from dataclasses import dataclass

import numpy as np

from .core import compiled as compiled_mod
from .core.fd import interior
from .core.grid import Grid3D, WaveField
from .core.kernels import (VelocityStressKernel, baseline_stress_update,
                           baseline_velocity_update)
from .core.medium import Medium
from .core.profiling import stencil_flops_per_point
from .core.solver import SolverConfig, WaveSolver
from .core.source import MomentTensorSource, gaussian_pulse
from .obs.metrics import MetricsRegistry, default_registry
from .obs.provenance import RunManifest, git_revision
from .obs.tracer import NULL_TRACER, Tracer, use_tracer
from .parallel.decomp import Decomposition3D
from .parallel.distributed import DistributedWaveSolver
from .parallel.halo import HaloExchange, halo_bytes_per_step
from .parallel.simmpi import run_spmd

__all__ = ["BENCH_SCHEMA", "LEGACY_SCHEMAS", "BenchConfig", "FULL", "SMOKE",
           "WORKLOADS", "F32_PAIRS", "COMPILED_PAIRS", "COMPILED_WORKLOADS",
           "WORKLOAD_VARIANTS", "compare_reports", "git_revision",
           "run_suite", "seed_solver_fields", "write_report",
           "validate_report"]

#: Schema identifier written into every report.
BENCH_SCHEMA = "repro-bench/3"

#: Older schemas still accepted by :func:`validate_report` so committed
#: baselines (e.g. ``BENCH_seed.json``) keep comparing against new runs.
#: Legacy reports are exempt from newer-schema requirements (v2 added
#: per-workload ``dtype`` and ``host.cpu_count``; v3 added the provenance
#: ``manifest``).
LEGACY_SCHEMAS = ("repro-bench/1", "repro-bench/2")


@dataclass(frozen=True)
class BenchConfig:
    """Pinned workload sizes for one suite mode.

    Changing these invalidates cross-revision comparison; bump the mode
    name (or add a new one) instead of editing in place.
    """

    name: str    #: mode tag recorded in the report
    n: int       #: cubic interior grid edge (n^3 cells)
    steps: int   #: solver/kernel steps per timed repetition
    reps: int    #: timed repetitions per workload
    ranks: int   #: virtual ranks for the halo workload
    rounds: int  #: velocity+stress exchange rounds per halo repetition
    dist_n: int = 16      #: cubic grid edge for the distributed workloads
    dist_steps: int = 2   #: solver steps per distributed repetition
    dist_reps: int = 2    #: timed repetitions for the distributed workloads
    dist_ranks: int = 4   #: worker count for the distributed workloads


#: The default suite — sized so the whole run stays under ~a minute.
FULL = BenchConfig(name="full", n=40, steps=2, reps=5, ranks=4, rounds=16,
                   dist_n=40, dist_steps=6, dist_reps=3, dist_ranks=4)

#: CI quick mode (``repro bench --smoke``).
SMOKE = BenchConfig(name="smoke", n=16, steps=1, reps=2, ranks=2, rounds=4,
                    dist_n=16, dist_steps=2, dist_reps=2, dist_ranks=2)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def _measure(step_fn, reps: int) -> tuple[list[float], int]:
    """Time ``step_fn`` ``reps`` times; return (walls, peak_tmp_bytes).

    One untimed warm-up call absorbs lazy initialisation.  The tracemalloc
    peak is taken from a *separate* final call so its bookkeeping overhead
    never pollutes the timings.
    """
    step_fn()  # warm-up
    walls: list[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        step_fn()
        walls.append(time.perf_counter() - t0)
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    step_fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return walls, max(0, peak - base)


def _wall_stats(walls: list[float]) -> dict:
    return {"reps": len(walls), "mean": float(np.mean(walls)),
            "min": float(np.min(walls)), "max": float(np.max(walls)),
            "total": float(np.sum(walls)),
            "samples": [float(w) for w in walls]}


def _result(walls: list[float], peak_tmp: int, *, steps: int, points: int,
            flops_per_point: float | None, extra: dict | None = None,
            dtype=np.float64) -> dict:
    """Assemble one workload's report entry from raw measurements."""
    best = min(walls)
    out = {
        "wall_s": _wall_stats(walls),
        "steps_per_rep": steps,
        "points": points,
        "dtype": np.dtype(dtype).name,
        "peak_tmp_bytes": int(peak_tmp),
        "gflops": None,
        "mcells_per_s": None,
    }
    if flops_per_point is not None and best > 0:
        out["gflops"] = flops_per_point * points * steps / best / 1e9
        out["mcells_per_s"] = points * steps / best / 1e6
    if extra:
        out["extra"] = extra
    return out


def _seeded_wavefield(grid: Grid3D, dtype=np.float64) -> WaveField:
    """A wavefield with deterministic non-zero interiors (no denormals)."""
    wf = WaveField(grid, dtype=np.dtype(dtype))
    rng = np.random.default_rng(20100913)  # the paper's SC'10 submission era
    for arr in wf.fields().values():
        interior(arr)[...] = rng.standard_normal(grid.shape) * 1e-3
    return wf


def seed_solver_fields(wf: WaveField) -> None:
    """Deterministic per-field initial state for the solver workloads.

    Seeds come from ``zlib.crc32`` of the field name, *not* ``hash()``:
    Python string hashing is randomised per process (PYTHONHASHSEED), which
    silently made every bench run time a different workload.
    """
    for name, arr in wf.fields().items():
        rng = np.random.default_rng(zlib.crc32(name.encode()) & 0xFFFF)
        interior(arr)[...] = rng.standard_normal(
            interior(arr).shape) * 1e-3


def _kernel_fixture(cfg: BenchConfig, dtype=np.float64):
    g = Grid3D(cfg.n, cfg.n, cfg.n, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0, dtype=dtype)
    wf = _seeded_wavefield(g, dtype)
    dt = 1e-3
    return g, med, wf, dt


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def bench_kernel_step(cfg: BenchConfig, dtype=np.float64) -> dict:
    g, med, wf, dt = _kernel_fixture(cfg, dtype)
    kern = VelocityStressKernel(wf, med, dt)

    def step():
        for _ in range(cfg.steps):
            kern.step_velocity()
            kern.step_stress()

    walls, peak = _measure(step, cfg.reps)
    return _result(walls, peak, steps=cfg.steps, points=g.ncells,
                   flops_per_point=stencil_flops_per_point(order=4),
                   extra={"scratch_pool_bytes": kern.scratch_nbytes(),
                          "kernel_variant": "pooled"},
                   dtype=dtype)


def bench_kernel_step_f32(cfg: BenchConfig) -> dict:
    """The interior update at single precision — half the bytes per cell."""
    return bench_kernel_step(cfg, dtype=np.float32)


def bench_kernel_step_compiled(cfg: BenchConfig, dtype=np.float64) -> dict:
    """The fused compiled sweeps on the ``kernel_step`` fixture.

    :func:`run_suite` fills ``extra.speedup_vs_pooled`` (wall-min ratio
    against ``kernel_step``) when both ran.  The one-time JIT cost is
    reported as ``extra.jit_compile_s``; the untimed warm-up inside
    :func:`_measure` guarantees it can never leak into a timed repetition.
    """
    g, med, wf, dt = _kernel_fixture(cfg, dtype)
    stepper = compiled_mod.FusedStepper(wf, med, dt)

    def step():
        for _ in range(cfg.steps):
            stepper.step_velocity()
            stepper.step_stress()

    walls, peak = _measure(step, cfg.reps)
    return _result(walls, peak, steps=cfg.steps, points=g.ncells,
                   flops_per_point=stencil_flops_per_point(order=4),
                   extra={"kernel_variant": "compiled",
                          "provider": stepper.provider,
                          "parallel": stepper.parallel,
                          "jit_compile_s": stepper.compile_seconds,
                          "jit_cache_hit": stepper.cache_hit},
                   dtype=dtype)


def bench_kernel_step_compiled_f32(cfg: BenchConfig) -> dict:
    """The fused compiled sweeps at single precision."""
    return bench_kernel_step_compiled(cfg, dtype=np.float32)


def bench_kernel_blocked(cfg: BenchConfig) -> dict:
    g, med, wf, dt = _kernel_fixture(cfg)
    kern = VelocityStressKernel(wf, med, dt)
    scfg = SolverConfig()   # panel sizes come from the config, not literals

    def step():
        for _ in range(cfg.steps):
            kern.step_blocked(scfg.kblock, scfg.jblock)

    walls, peak = _measure(step, cfg.reps)
    return _result(walls, peak, steps=cfg.steps, points=g.ncells,
                   flops_per_point=stencil_flops_per_point(order=4),
                   extra={"scratch_pool_bytes": kern.scratch_nbytes(),
                          "kernel_variant": "blocked",
                          "kblock": scfg.kblock, "jblock": scfg.jblock})


def bench_baseline_kernel(cfg: BenchConfig) -> dict:
    g, med, wf, dt = _kernel_fixture(cfg)

    def step():
        for _ in range(cfg.steps):
            baseline_velocity_update(wf, med, dt)
            baseline_stress_update(wf, med, dt)

    walls, peak = _measure(step, cfg.reps)
    return _result(walls, peak, steps=cfg.steps, points=g.ncells,
                   flops_per_point=stencil_flops_per_point(order=4),
                   extra={"kernel_variant": "baseline"})


def bench_solver_step(cfg: BenchConfig, dtype=np.float64) -> dict:
    g = Grid3D(cfg.n, cfg.n, cfg.n, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0,
                             qs=50.0, qp=100.0)
    sol = WaveSolver(g, med, SolverConfig(
        absorbing="sponge", sponge_width=max(3, cfg.n // 8),
        attenuation_band=(0.2, 2.0), stability_check_interval=0,
        dtype=dtype))
    seed_solver_fields(sol.wf)

    def step():
        sol.run(cfg.steps)

    walls, peak = _measure(step, cfg.reps)
    return _result(walls, peak, steps=cfg.steps, points=g.ncells,
                   flops_per_point=stencil_flops_per_point(
                       order=4, attenuation=True),
                   extra={"dt": sol.dt, "kernel_variant": "pooled"},
                   dtype=dtype)


def bench_solver_step_f32(cfg: BenchConfig) -> dict:
    """Full solver step (sponge + attenuation) at single precision."""
    return bench_solver_step(cfg, dtype=np.float32)


def bench_solver_step_compiled(cfg: BenchConfig, dtype=np.float64) -> dict:
    """Full solver step through the fused compiled kernels.

    The compiled stress half degrades to pooled under attenuation, so this
    workload is a sponge-only configuration — a *different shape* from ``solver_step``.
    For an honest ``extra.speedup_vs_pooled`` it times an
    identically-configured pooled twin inside the workload (same grid,
    sponge, free surface, initial state) rather than comparing against
    ``solver_step``'s attenuation-bearing wall times.
    """
    def build(variant: str) -> WaveSolver:
        g = Grid3D(cfg.n, cfg.n, cfg.n, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
        sol = WaveSolver(g, med, SolverConfig(
            absorbing="sponge", sponge_width=max(3, cfg.n // 8),
            stability_check_interval=0, kernel_variant=variant,
            dtype=dtype))
        seed_solver_fields(sol.wf)
        return sol

    sol = build("compiled")
    walls, peak = _measure(lambda: sol.run(cfg.steps), cfg.reps)
    twin = build("pooled")
    pooled_walls, _ = _measure(lambda: twin.run(cfg.steps), cfg.reps)
    best, pooled_best = min(walls), min(pooled_walls)
    fused = sol.fused
    extra = {
        "dt": sol.dt,
        "kernel_variant": sol.kernel_variant,
        "provider": fused.provider if fused is not None else None,
        "jit_compile_s": fused.compile_seconds if fused is not None else None,
        "jit_cache_hit": fused.cache_hit if fused is not None else None,
        "pooled_wall_min_s": pooled_best,
        "speedup_vs_pooled": pooled_best / best if best > 0 else None,
    }
    points = Grid3D(cfg.n, cfg.n, cfg.n, h=100.0).ncells
    return _result(walls, peak, steps=cfg.steps, points=points,
                   flops_per_point=stencil_flops_per_point(order=4),
                   extra=extra, dtype=dtype)


def _lts_steps(cfg: BenchConfig) -> int:
    """Fine substeps per timed LTS repetition: two full x4 macro cycles so
    every rate group's cadence (and its correction-band traffic) is timed."""
    return 8 if cfg.name == "full" else 4


def bench_solver_step_lts(cfg: BenchConfig) -> dict:
    """Clustered local time stepping vs global dt on the two-layer basin.

    Twin solvers share the grid, the :func:`~repro.scenarios.catalog.
    basin_two_layer` medium, dt and the seeded initial state; only the
    scheduler differs (``lts='auto'`` vs ``'off'``).  The headline
    ``extra.speedup_vs_global_dt`` is *algorithmic* — the x2/x4 groups
    simply update fewer cells per fine substep — so it holds on a single
    core, unlike the process-parallel speedups.
    ``extra.theoretical_speedup`` is the cell-update-count ceiling.
    """
    from .scenarios.catalog import basin_two_layer
    n = cfg.n
    steps = _lts_steps(cfg)

    def build(lts) -> WaveSolver:
        g = Grid3D(n, n, n, h=100.0)
        sol = WaveSolver(g, basin_two_layer(g), SolverConfig(
            absorbing="sponge", sponge_width=max(3, n // 8),
            stability_check_interval=0, lts=lts))
        seed_solver_fields(sol.wf)
        return sol

    sol = build("auto")
    walls, peak = _measure(lambda: sol.run(steps), cfg.reps)
    twin = build("off")
    off_walls, _ = _measure(lambda: twin.run(steps), cfg.reps)
    best, off_best = min(walls), min(off_walls)
    extra = {
        "dt": sol.dt,
        "kernel_variant": "pooled",
        "rate_map": [list(gr) for gr in sol.lts.rate_map()],
        "theoretical_speedup": sol.lts.speedup(),
        "global_dt_wall_min_s": off_best,
        "speedup_vs_global_dt": off_best / best if best > 0 else None,
    }
    return _result(walls, peak, steps=steps, points=n ** 3,
                   flops_per_point=None, extra=extra)


def bench_distributed_procpool_lts(cfg: BenchConfig) -> dict:
    """LTS through the procpool backend (pz=1 decomposition) vs the same
    distributed run at global dt.

    Overlap is forced off for *both* twins — LTS always runs the blocking
    schedule, so disabling it on the global-dt twin isolates the scheduler
    difference from the IV.C overlap machinery.
    """
    from .scenarios.catalog import basin_two_layer
    n = cfg.dist_n
    steps = _lts_steps(cfg)
    dims = (2, 2, 1) if cfg.dist_ranks >= 4 else (2, 1, 1)

    def build(lts) -> DistributedWaveSolver:
        g = Grid3D(n, n, n, h=100.0)
        sol = DistributedWaveSolver(
            g, basin_two_layer(g), decomp=Decomposition3D(g, *dims),
            config=SolverConfig(absorbing="sponge",
                                sponge_width=max(3, n // 8),
                                stability_check_interval=0, lts=lts),
            backend="procpool", overlap=False)
        sol.add_source(MomentTensorSource(
            position=(n * 50.0, n * 50.0, n * 50.0),
            moment=np.eye(3) * 1e13,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0],
            spatial_width=1.5 * 100.0))
        return sol

    sol = build("auto")
    walls, peak = _measure(lambda: sol.run(steps), cfg.dist_reps)
    twin = build("off")
    off_walls, _ = _measure(lambda: twin.run(steps), cfg.dist_reps)
    best, off_best = min(walls), min(off_walls)
    extra = {
        "ranks": int(np.prod(dims)), "dims": list(dims),
        "backend": "procpool", "backend_used": sol.backend,
        "kernel_variant": "pooled",
        "rate_map": [list(gr) for gr in sol.lts.rate_map()],
        "theoretical_speedup": sol.lts.speedup(),
        "global_dt_wall_min_s": off_best,
        "speedup_vs_global_dt": off_best / best if best > 0 else None,
    }
    if sol.last_procpool is not None:
        lp = sol.last_procpool
        extra["pack_s"] = lp["pack_s"]
        extra["wait_s"] = lp["wait_s"]
        extra["unpack_s"] = lp["unpack_s"]
    return _result(walls, peak, steps=steps, points=n ** 3,
                   flops_per_point=None, extra=extra)


def bench_halo_exchange(cfg: BenchConfig, dtype=np.float64) -> dict:
    g = Grid3D(cfg.n, cfg.n, cfg.n, h=100.0)
    decomp = Decomposition3D.auto(g, cfg.ranks)
    wfs = [_seeded_wavefield(sub.grid, dtype) for sub in decomp.subdomains()]
    hxs = [HaloExchange(decomp, r, wfs[r], mode="reduced")
           for r in range(decomp.nranks)]

    def program(comm, rounds):
        hx = hxs[comm.rank]
        for _ in range(rounds):
            yield from hx.exchange(comm, "velocity")
            yield from hx.exchange(comm, "stress")

    def step():
        run_spmd(decomp.nranks, program, args=(cfg.rounds,))

    walls, peak = _measure(step, cfg.reps)
    itemsize = np.dtype(dtype).itemsize
    bytes_per_round = sum(
        halo_bytes_per_step(decomp, r, "reduced", itemsize=itemsize)
        for r in range(decomp.nranks))
    return _result(walls, peak, steps=cfg.rounds, points=0,
                   flops_per_point=None,
                   extra={"ranks": decomp.nranks,
                          "dims": list(decomp.dims),
                          "bytes_per_round": bytes_per_round,
                          "pool_bytes": sum(hx.pool_nbytes() for hx in hxs)},
                   dtype=dtype)


def bench_halo_exchange_f32(cfg: BenchConfig) -> dict:
    """Halo rounds over f32 fields — pack buffers and bytes-on-the-wire
    follow the field dtype, so this moves half the data of the f64 case."""
    return bench_halo_exchange(cfg, dtype=np.float32)


def _overhead_workloads(cfg: BenchConfig) -> dict:
    """name -> zero-arg step fn; the shapes the tracer-overhead gate covers.

    Each builder returns a fresh fixture so the null and traced runs see
    identical starting state.
    """
    def solver_run():
        g = Grid3D(cfg.n, cfg.n, cfg.n, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
        sol = WaveSolver(g, med, SolverConfig(
            absorbing="none", free_surface=False,
            stability_check_interval=0))
        return lambda: sol.run(cfg.steps)

    def kernel_step():
        g, med, wf, dt = _kernel_fixture(cfg)
        kern = VelocityStressKernel(wf, med, dt)

        def step():
            for _ in range(cfg.steps):
                kern.step_velocity()
                kern.step_stress()
        return step

    def halo_exchange():
        g = Grid3D(cfg.n, cfg.n, cfg.n, h=100.0)
        decomp = Decomposition3D.auto(g, cfg.ranks)
        wfs = [_seeded_wavefield(sub.grid) for sub in decomp.subdomains()]
        hxs = [HaloExchange(decomp, r, wfs[r], mode="reduced")
               for r in range(decomp.nranks)]

        def program(comm, rounds):
            hx = hxs[comm.rank]
            for _ in range(rounds):
                yield from hx.exchange(comm, "velocity")
                yield from hx.exchange(comm, "stress")
        return lambda: run_spmd(decomp.nranks, program, args=(cfg.rounds,))

    return {"solver_run": solver_run, "kernel_step": kernel_step,
            "halo_exchange": halo_exchange}


def bench_tracer_overhead(cfg: BenchConfig) -> dict:
    """Null-tracer vs recording-tracer wall time, per workload shape.

    ``extra.overhead_ratio`` is the headline solver-run ratio (what the
    ``bench.null_tracer_overhead`` gauge and the ``--overhead-budget``
    compare gate consume); ``extra.per_workload`` breaks the same
    measurement out per workload shape so a tracing hot spot is
    attributable to the code path that grew it.
    """
    def run_with(builder, tracer) -> list[float]:
        step = builder()
        # pin the tracer explicitly: under `repro bench --trace` an ambient
        # recording tracer is installed, which must not leak into the
        # "null" side of the comparison
        with use_tracer(tracer if tracer is not None else NULL_TRACER):
            walls, _ = _measure(step, cfg.reps)
        return walls

    builders = _overhead_workloads(cfg)
    per_workload: dict[str, dict] = {}
    for name, builder in builders.items():
        null_walls = run_with(builder, None)
        traced_walls = run_with(builder, Tracer())
        ratio = (min(traced_walls) / min(null_walls)
                 if min(null_walls) > 0 else 1.0)
        per_workload[name] = {
            "overhead_ratio": ratio,
            "null_wall_min_s": float(min(null_walls)),
            "traced_wall_min_s": float(min(traced_walls)),
        }
        if name == "solver_run":
            headline_null, headline_traced = null_walls, traced_walls
    ratio = per_workload["solver_run"]["overhead_ratio"]
    out = _result(headline_null, 0, steps=cfg.steps,
                  points=Grid3D(cfg.n, cfg.n, cfg.n, h=100.0).ncells,
                  flops_per_point=None)
    out["extra"] = {"traced_wall_s": _wall_stats(headline_traced),
                    "overhead_ratio": ratio,
                    "per_workload": per_workload}
    return out


def _farm_mini_spec(cfg: BenchConfig):
    """The pinned 4-job mini ensemble (2 magnitudes x 2 slip seeds)."""
    from .farm import FarmSpec
    smoke = cfg.name == "smoke"
    return FarmSpec(scenario="ShakeOut-K",
                    nx=16 if smoke else 20,
                    nsteps=8 if smoke else 16,
                    axes={"magnitude": [6.5, 7.0], "rupture_seed": [1, 2]})


def bench_farm_mini(cfg: BenchConfig) -> dict:
    """Fixed mini scenario farm: 4 jobs over 2 worker processes.

    Each timed repetition runs the whole ensemble into a fresh store
    (no cache hits), so the wall time measures true scenario throughput;
    ``extra`` carries jobs/hour plus the hit rate of a same-store rerun
    (which must be 1.0 — the resume path's cheap self-check).
    """
    import tempfile
    from .farm import run_farm
    spec = _farm_mini_spec(cfg)
    reg = MetricsRegistry()     # keep bench reps out of the global gauges
    workers = 2

    def step():
        with tempfile.TemporaryDirectory() as tmp:
            run_farm(spec, tmp, workers=workers, registry=reg)

    walls, peak = _measure(step, cfg.dist_reps)
    with tempfile.TemporaryDirectory() as tmp:
        first = run_farm(spec, tmp, workers=workers, registry=reg)
        rerun = run_farm(spec, tmp, workers=workers, registry=reg)
    njobs = first.njobs
    best = min(walls)
    return _result(walls, peak, steps=1, points=0, flops_per_point=None,
                   extra={"jobs": njobs, "workers": workers,
                          "jobs_per_hour": njobs / best * 3600.0
                          if best > 0 else None,
                          "job_wall_p50_s": first.job_wall_percentile(50),
                          "job_wall_p95_s": first.job_wall_percentile(95),
                          "rerun_hit_rate": rerun.hit_rate})


def _service_query_set(cfg: BenchConfig):
    """The pinned 6-query batch over 4 unique configs (docs/service.md).

    Four distinct scenario configurations (2 magnitudes x 2 slip seeds,
    mirroring :func:`_farm_mini_spec`) plus two repeat queries that only
    differ in serving shape — a site extraction and a different product
    of an already-listed config — so the cold pass itself exercises the
    coalescing path (cold hit rate 2/6).
    """
    from .service import Query
    smoke = cfg.name == "smoke"
    base = dict(scenario="ShakeOut-K",
                nx=16 if smoke else 20,
                nsteps=8 if smoke else 16)
    queries = [Query(magnitude=m, rupture_seed=s, **base)
               for m in (6.5, 7.0) for s in (1, 2)]
    queries.append(Query(magnitude=6.5, rupture_seed=1, site=(0.5, 0.6),
                         **base))
    queries.append(Query(magnitude=7.0, rupture_seed=2, product="pgv_gm",
                         **base))
    return queries


def bench_service_query(cfg: BenchConfig) -> dict:
    """Hazard-service query serving: cold fill, then warm cache-first reps.

    One untimed cold batch lands the 4 unique products in a store
    (``extra.cold_hit_rate``, ``cold_jobs_scheduled``); each timed rep
    then serves the same 6-query batch against that warm store through a
    fresh service.  ``extra.hit_rate`` (which must be 1.0 — every query
    answered without scheduling a job) and the p50/p95/p99 query-latency
    columns are the regression surface ``--compare`` gates on.
    """
    import tempfile
    from .farm import ProductStore
    from .service import HazardService, ServiceConfig
    queries = _service_query_set(cfg)
    scfg = ServiceConfig(workers=2, backoff_s=0.0)
    warm_stats = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = ProductStore(tmp)
        t0 = time.perf_counter()
        with HazardService(store, scfg,
                           registry=MetricsRegistry()) as svc:
            for t in [svc.submit(q) for q in queries]:
                svc.fetch(t)
            cold = svc.stats()
        cold_wall = time.perf_counter() - t0

        def step():
            # fresh service + registry per rep: the percentiles describe
            # one warm batch, not an accumulation across reps
            with HazardService(store, scfg,
                               registry=MetricsRegistry()) as warm_svc:
                for t in [warm_svc.submit(q) for q in queries]:
                    warm_svc.fetch(t)
                warm_stats["last"] = warm_svc.stats()

        walls, peak = _measure(step, cfg.dist_reps)
    warm = warm_stats["last"]
    best = min(walls)
    return _result(walls, peak, steps=1, points=0, flops_per_point=None,
                   extra={"queries": len(queries),
                          "unique_jobs": len({q.key() for q in queries}),
                          "cold_hit_rate": cold.hit_rate,
                          "cold_jobs_scheduled": cold.jobs_scheduled,
                          "cold_wall_s": cold_wall,
                          "hit_rate": warm.hit_rate,
                          "latency_p50_s": warm.latency_p50_s,
                          "latency_p95_s": warm.latency_p95_s,
                          "latency_p99_s": warm.latency_p99_s,
                          "queries_per_s": len(queries) / best
                          if best > 0 else None})


def _distributed_solver(cfg: BenchConfig, backend: str,
                        kernel_variant: str = "pooled",
                        dtype=np.float64) -> DistributedWaveSolver:
    """One distributed fixture shape shared by all three backends so their
    wall times are directly comparable (sponge + free surface, no PML or
    attenuation, so the procpool run is overlap-eligible)."""
    n = cfg.dist_n
    g = Grid3D(n, n, n, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
    sol = DistributedWaveSolver(
        g, med, nranks=cfg.dist_ranks,
        config=SolverConfig(absorbing="sponge",
                            sponge_width=max(3, n // 8),
                            stability_check_interval=0,
                            dtype=dtype),
        backend=backend, kernel_variant=kernel_variant)
    sol.add_source(MomentTensorSource(
        position=(n * 50.0, n * 50.0, n * 50.0), moment=np.eye(3) * 1e13,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0],
        spatial_width=1.5 * 100.0))
    return sol


def _bench_distributed(cfg: BenchConfig, backend: str,
                       kernel_variant: str = "pooled",
                       dtype=np.float64) -> dict:
    sol = _distributed_solver(cfg, backend, kernel_variant, dtype)

    def step():
        sol.run(cfg.dist_steps)

    walls, peak = _measure(step, cfg.dist_reps)
    points = cfg.dist_n ** 3
    extra = {"ranks": cfg.dist_ranks, "dims": list(sol.decomp.dims),
             "backend": backend, "backend_used": sol.backend,
             "kernel_variant": kernel_variant}
    if sol.last_procpool is not None:
        lp = sol.last_procpool
        extra["overlap"] = lp["overlap"]
        extra["overlap_efficiency"] = lp["overlap_efficiency"]
        extra["pack_s"] = lp["pack_s"]
        extra["wait_s"] = lp["wait_s"]
        extra["unpack_s"] = lp["unpack_s"]
        extra["hidden_s"] = lp["hidden_s"]
    return _result(walls, peak, steps=cfg.dist_steps, points=points,
                   flops_per_point=stencil_flops_per_point(order=4),
                   extra=extra, dtype=dtype)


def bench_distributed_sim(cfg: BenchConfig) -> dict:
    """Sequential SimMPI backend — the speedup baseline for procpool."""
    return _bench_distributed(cfg, "sim")


def bench_distributed_sim_blocked(cfg: BenchConfig) -> dict:
    """SimMPI backend through the cache-blocked k/j panel kernels."""
    return _bench_distributed(cfg, "sim", kernel_variant="blocked")


def bench_distributed_procpool(cfg: BenchConfig) -> dict:
    """Real multicore backend with shm rings and IV.C overlap.

    ``extra.speedup_vs_sim`` (wall-min ratio against ``distributed_sim``)
    is filled in by :func:`run_suite` when both workloads ran; interpret it
    against ``host.cpu_count`` — on a single-core host the theoretical
    ceiling is 1.0x plus whatever SimMPI scheduler overhead procpool dodges.
    """
    return _bench_distributed(cfg, "procpool")


def bench_distributed_sim_f32(cfg: BenchConfig) -> dict:
    """SimMPI backend at single precision (f32 halos + f32 subdomains)."""
    return _bench_distributed(cfg, "sim", dtype=np.float32)


def bench_distributed_procpool_compiled(cfg: BenchConfig) -> dict:
    """Procpool backend through the fused compiled kernels (IV.C overlap
    runs with :class:`~repro.core.compiled.FusedRegionStepper` regions).
    ``extra.speedup_vs_pooled`` against ``distributed_procpool`` is filled
    by :func:`run_suite` when both ran."""
    return _bench_distributed(cfg, "procpool", kernel_variant="compiled")


#: name -> workload function; iteration order is report order.
WORKLOADS = {
    "kernel_step": bench_kernel_step,
    "kernel_step_f32": bench_kernel_step_f32,
    "kernel_step_compiled": bench_kernel_step_compiled,
    "kernel_step_compiled_f32": bench_kernel_step_compiled_f32,
    "kernel_blocked": bench_kernel_blocked,
    "baseline_kernel": bench_baseline_kernel,
    "solver_step": bench_solver_step,
    "solver_step_f32": bench_solver_step_f32,
    "solver_step_compiled": bench_solver_step_compiled,
    "solver_step_lts": bench_solver_step_lts,
    "halo_exchange": bench_halo_exchange,
    "halo_exchange_f32": bench_halo_exchange_f32,
    "distributed_sim": bench_distributed_sim,
    "distributed_sim_f32": bench_distributed_sim_f32,
    "distributed_sim_blocked": bench_distributed_sim_blocked,
    "distributed_procpool": bench_distributed_procpool,
    "distributed_procpool_compiled": bench_distributed_procpool_compiled,
    "distributed_procpool_lts": bench_distributed_procpool_lts,
    "tracer_overhead": bench_tracer_overhead,
    "farm_mini": bench_farm_mini,
    "service_query": bench_service_query,
}

#: f32 workload -> its float64 counterpart; :func:`run_suite` fills
#: ``extra.speedup_vs_f64`` (wall-min ratio) when both ran.
F32_PAIRS = {
    "kernel_step_f32": "kernel_step",
    "solver_step_f32": "solver_step",
    "halo_exchange_f32": "halo_exchange",
    "distributed_sim_f32": "distributed_sim",
}

#: compiled workload -> its like-for-like pooled counterpart;
#: :func:`run_suite` fills ``extra.speedup_vs_pooled`` when both ran.
#: ``solver_step_compiled`` is absent by design — its pooled counterpart
#: is the attenuation-free twin timed *inside* the workload.
COMPILED_PAIRS = {
    "kernel_step_compiled": "kernel_step",
    "kernel_step_compiled_f32": "kernel_step_f32",
    "distributed_procpool_compiled": "distributed_procpool",
}

#: Workloads requiring a JIT provider; :func:`run_suite` drops them (and
#: records why) on hosts with neither numba nor a C compiler, but raises
#: when they were requested by name.
COMPILED_WORKLOADS = frozenset(
    ("kernel_step_compiled", "kernel_step_compiled_f32",
     "solver_step_compiled", "distributed_procpool_compiled"))

#: workload -> the kernel variant its hot loop runs (None: no stencil
#: kernel in the loop).  Drives ``repro bench --kernel-variant``.
WORKLOAD_VARIANTS = {
    "kernel_step": "pooled",
    "kernel_step_f32": "pooled",
    "kernel_step_compiled": "compiled",
    "kernel_step_compiled_f32": "compiled",
    "kernel_blocked": "blocked",
    "baseline_kernel": "baseline",
    "solver_step": "pooled",
    "solver_step_f32": "pooled",
    "solver_step_compiled": "compiled",
    "solver_step_lts": "pooled",
    "halo_exchange": None,
    "halo_exchange_f32": None,
    "distributed_sim": "pooled",
    "distributed_sim_f32": "pooled",
    "distributed_sim_blocked": "blocked",
    "distributed_procpool": "pooled",
    "distributed_procpool_compiled": "compiled",
    "distributed_procpool_lts": "pooled",
    "tracer_overhead": None,
    "farm_mini": None,
    "service_query": None,
}


# ----------------------------------------------------------------------
# Suite driver, report I/O, validation
# ----------------------------------------------------------------------
# git_revision moved to repro.obs.provenance; re-exported here because the
# bench report format grew up around it.

def run_suite(smoke: bool = False, registry: MetricsRegistry | None = None,
              workloads: list[str] | None = None) -> dict:
    """Run the suite and return the report dict (see :func:`validate_report`).

    Results are mirrored into ``registry`` (the process default if None):
    a ``bench.<name>.wall_s`` histogram, ``bench.<name>.gflops`` /
    ``bench.<name>.peak_tmp_bytes`` gauges, and the
    ``bench.null_tracer_overhead`` gauge.
    """
    cfg = SMOKE if smoke else FULL
    reg = registry if registry is not None else default_registry()
    selected = workloads or list(WORKLOADS)
    unknown = sorted(set(selected) - set(WORKLOADS))
    if unknown:
        raise ValueError(f"unknown workloads: {', '.join(unknown)} "
                         f"(available: {', '.join(WORKLOADS)})")
    compiled_info = compiled_mod.provider_info()
    skipped: dict[str, str] = {}
    if not compiled_info["available"]:
        wanted = sorted(set(selected) & COMPILED_WORKLOADS)
        if workloads is not None and wanted:
            # Explicitly requested: refuse loudly rather than skip quietly.
            raise ValueError(
                f"workload(s) {', '.join(wanted)} need a compiled provider: "
                f"{compiled_info['detail']}")
        for name in wanted:
            skipped[name] = (f"no compiled provider: "
                             f"{compiled_info['detail']}")
        selected = [w for w in selected if w not in COMPILED_WORKLOADS]
    results: dict[str, dict] = {}
    for name in selected:
        results[name] = res = WORKLOADS[name](cfg)
        hist = reg.histogram(f"bench.{name}.wall_s")
        for w in res["wall_s"]["samples"]:
            hist.observe(w)
        reg.gauge(f"bench.{name}.peak_tmp_bytes").set(res["peak_tmp_bytes"])
        if res["gflops"] is not None:
            reg.gauge(f"bench.{name}.gflops").set(res["gflops"])
    if "tracer_overhead" in results:
        reg.gauge("bench.null_tracer_overhead").set(
            results["tracer_overhead"]["extra"]["overhead_ratio"])
    if "distributed_sim" in results and "distributed_procpool" in results:
        sim_min = results["distributed_sim"]["wall_s"]["min"]
        pp_min = results["distributed_procpool"]["wall_s"]["min"]
        speedup = sim_min / pp_min if pp_min > 0 else None
        results["distributed_procpool"]["extra"]["speedup_vs_sim"] = speedup
        if speedup is not None:
            reg.gauge("bench.distributed_procpool.speedup_vs_sim").set(speedup)
    for f32_name, f64_name in F32_PAIRS.items():
        if f32_name not in results or f64_name not in results:
            continue
        base_min = results[f64_name]["wall_s"]["min"]
        fast_min = results[f32_name]["wall_s"]["min"]
        speedup = base_min / fast_min if fast_min > 0 else None
        results[f32_name].setdefault("extra", {})["speedup_vs_f64"] = speedup
        if speedup is not None:
            reg.gauge(f"bench.{f32_name}.speedup_vs_f64").set(speedup)
    for comp_name, pooled_name in COMPILED_PAIRS.items():
        if comp_name not in results or pooled_name not in results:
            continue
        base_min = results[pooled_name]["wall_s"]["min"]
        fast_min = results[comp_name]["wall_s"]["min"]
        speedup = base_min / fast_min if fast_min > 0 else None
        extra = results[comp_name].setdefault("extra", {})
        extra["speedup_vs_pooled"] = speedup
        if speedup is not None:
            reg.gauge(f"bench.{comp_name}.speedup_vs_pooled").set(speedup)
    for name in ("solver_step_lts", "distributed_procpool_lts"):
        ex = (results.get(name) or {}).get("extra") or {}
        sp = ex.get("speedup_vs_global_dt")
        if sp is not None:
            reg.gauge(f"bench.{name}.speedup_vs_global_dt").set(sp)
        ts = ex.get("theoretical_speedup")
        if ts is not None:
            reg.gauge(f"bench.{name}.lts.theoretical_speedup").set(ts)
    sq = (results.get("service_query") or {}).get("extra") or {}
    if isinstance(sq.get("hit_rate"), (int, float)):
        reg.gauge("bench.service_query.hit_rate").set(sq["hit_rate"])
        for col in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
            if isinstance(sq.get(col), (int, float)):
                reg.gauge(f"bench.service_query.{col}").set(sq[col])
    for name in results:
        jit = (results[name].get("extra") or {}).get("jit_compile_s")
        if isinstance(jit, (int, float)):
            reg.gauge(f"bench.{name}.jit_compile_s").set(jit)
    return {
        "schema": BENCH_SCHEMA,
        "revision": git_revision(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "manifest": RunManifest.collect(config=cfg).to_dict(),
        "mode": cfg.name,
        "config": {"n": cfg.n, "steps": cfg.steps, "reps": cfg.reps,
                   "ranks": cfg.ranks, "rounds": cfg.rounds,
                   "dist_n": cfg.dist_n, "dist_steps": cfg.dist_steps,
                   "dist_reps": cfg.dist_reps, "dist_ranks": cfg.dist_ranks},
        "host": {"python": platform.python_version(),
                 "numpy": np.__version__,
                 "machine": platform.machine(),
                 "cpu_count": os.cpu_count(),
                 "compiled": compiled_info},
        "skipped_workloads": skipped,
        "workloads": results,
    }


def write_report(report: dict, path: str | None = None) -> str:
    """Write ``report`` as JSON; default filename ``BENCH_<rev>.json``."""
    if path is None:
        path = f"BENCH_{report.get('revision', 'unknown')}.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless ``report`` matches the bench schema.

    The current ``repro-bench/3`` schema requires a ``dtype`` string per
    workload and an integer ``host.cpu_count`` (v2 additions, needed to
    interpret f32-vs-f64 speedups) plus a provenance ``manifest`` with a
    canonical ``config_hash`` (the v3 addition).  Reports carrying a
    :data:`LEGACY_SCHEMAS` identifier are accepted without the newer
    fields so committed baselines remain comparable.
    """
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"invalid bench report: {msg}")

    need(isinstance(report, dict), "not a mapping")
    schema = report.get("schema")
    need(schema == BENCH_SCHEMA or schema in LEGACY_SCHEMAS,
         f"schema != {BENCH_SCHEMA!r} (or legacy {LEGACY_SCHEMAS})")
    v2 = schema == BENCH_SCHEMA
    for key in ("revision", "created", "mode"):
        need(isinstance(report.get(key), str) and report[key],
             f"missing/empty {key!r}")
    need(isinstance(report.get("config"), dict), "missing config")
    if v2:
        host = report.get("host")
        need(isinstance(host, dict), "missing host")
        need(isinstance(host.get("cpu_count"), int) and host["cpu_count"] > 0,
             "missing host.cpu_count")
        manifest = report.get("manifest")
        need(isinstance(manifest, dict), "missing manifest")
        need(isinstance(manifest.get("config_hash"), str)
             and manifest["config_hash"],
             "missing manifest.config_hash")
    wl = report.get("workloads")
    need(isinstance(wl, dict) and wl, "missing/empty workloads")
    for name, res in wl.items():
        need(isinstance(res, dict), f"workload {name!r} not a mapping")
        ws = res.get("wall_s")
        need(isinstance(ws, dict), f"{name}: missing wall_s")
        for stat in ("reps", "mean", "min", "max", "total"):
            need(isinstance(ws.get(stat), (int, float)),
                 f"{name}: wall_s.{stat} not numeric")
        need(ws["min"] >= 0 and ws["max"] >= ws["min"],
             f"{name}: inconsistent wall_s bounds")
        need(isinstance(res.get("peak_tmp_bytes"), int)
             and res["peak_tmp_bytes"] >= 0,
             f"{name}: bad peak_tmp_bytes")
        if v2:
            need(isinstance(res.get("dtype"), str) and res["dtype"],
                 f"{name}: missing dtype")
        for opt in ("gflops", "mcells_per_s"):
            need(res.get(opt) is None or isinstance(res[opt], (int, float)),
                 f"{name}: {opt} neither null nor numeric")
    if "tracer_overhead" in wl:
        ratio = wl["tracer_overhead"].get("extra", {}).get("overhead_ratio")
        need(isinstance(ratio, (int, float)) and ratio > 0,
             "tracer_overhead: missing overhead_ratio")


def format_report(report: dict) -> str:
    """Human-readable one-line-per-workload summary."""
    lines = [f"bench {report['revision']} ({report['mode']} mode, "
             f"numpy {report['host']['numpy']})"]
    for name, res in report["workloads"].items():
        ws = res["wall_s"]
        gf = (f"{res['gflops']:8.2f} Gflop/s" if res["gflops"] is not None
              else " " * 8 + "   --   ")
        lines.append(
            f"  {name:<18} {ws['mean'] * 1e3:9.2f} ms/rep "
            f"(min {ws['min'] * 1e3:8.2f})  {gf}  "
            f"peak tmp {res['peak_tmp_bytes'] / 1024:10.1f} KiB")
    ratio = (report["workloads"].get("tracer_overhead", {})
             .get("extra", {}).get("overhead_ratio"))
    if ratio is not None:
        lines.append(f"  null-tracer overhead ratio: {ratio:.3f}x "
                     "(recording tracer / null tracer)")
    for f32_name in F32_PAIRS:
        sp = (report["workloads"].get(f32_name, {})
              .get("extra", {}).get("speedup_vs_f64"))
        if sp is not None:
            lines.append(f"  {f32_name} speedup vs float64: {sp:.2f}x")
    for name, res in report["workloads"].items():
        extra = res.get("extra") or {}
        sp = extra.get("speedup_vs_pooled")
        if sp is not None:
            jit = extra.get("jit_compile_s")
            prov = extra.get("provider")
            jit_s = (f", jit {jit:.2f} s"
                     f"{' (cache hit)' if extra.get('jit_cache_hit') else ''}"
                     if isinstance(jit, (int, float)) else "")
            prov_s = f" [{prov}]" if prov else ""
            lines.append(f"  {name} speedup vs pooled: "
                         f"{sp:.2f}x{prov_s}{jit_s}")
    skipped = report.get("skipped_workloads") or {}
    for name, why in skipped.items():
        lines.append(f"  {name}: SKIPPED ({why})")
    sq = report["workloads"].get("service_query", {}).get("extra", {})
    if sq.get("hit_rate") is not None:
        lines.append(
            f"  service_query: hit rate {sq['hit_rate']:.0%} warm "
            f"({sq.get('cold_hit_rate', 0):.0%} cold), latency "
            f"p50 {sq.get('latency_p50_s', 0) * 1e3:.2f} ms, "
            f"p99 {sq.get('latency_p99_s', 0) * 1e3:.2f} ms")
    pp = report["workloads"].get("distributed_procpool", {}).get("extra", {})
    if pp.get("speedup_vs_sim") is not None:
        eff = pp.get("overlap_efficiency")
        eff_s = f", overlap efficiency {eff:.2f}" if eff is not None else ""
        lines.append(
            f"  procpool speedup vs SimMPI: {pp['speedup_vs_sim']:.2f}x on "
            f"{pp.get('ranks', '?')} workers "
            f"(host cpu_count {report['host'].get('cpu_count', '?')}{eff_s})")
    return "\n".join(lines)


def compare_reports(old: dict, new: dict, rel_tol: float = 0.10,
                    overhead_budget: float = 0.02) -> tuple[str, list[str]]:
    """Diff two bench reports; return ``(text, regressions)``.

    A workload regresses when its best-of-reps wall time grew by more than
    ``rel_tol`` (relative).  Gflop/s deltas are reported alongside but only
    wall time gates — the flop model is derived from the same wall numbers.
    Workloads carrying a numeric ``extra.hit_rate`` in *both* reports
    (``service_query``) additionally gate on any hit-rate drop, with no
    tolerance: the warm batch is deterministic, so a lower rate means the
    cache-first path broke, not that the host was noisy.
    Rows whose ``extra.kernel_variant`` differs between the reports (e.g. a
    pooled baseline against a compiled run) are flagged and excluded from
    gating — the delta would compare different kernels.
    Tracer overhead ratios additionally gate against ``overhead_budget``
    (2% by default): a ratio above ``1 + budget`` is a regression *unless
    the baseline already exceeded the budget too* — the gate catches newly
    grown overhead without failing a noisy-host self-comparison.
    ``regressions`` is empty when nothing got slower; callers turn it into
    an exit code (``repro bench --compare``).
    """
    validate_report(old)
    validate_report(new)
    lines = [f"bench compare: {old['revision']} ({old['mode']}) -> "
             f"{new['revision']} ({new['mode']})"]
    regressions: list[str] = []
    if old["mode"] != new["mode"] or old.get("config") != new.get("config"):
        lines.append("  WARNING: modes/configs differ — deltas are not "
                     "like-for-like")
    old_wl, new_wl = old["workloads"], new["workloads"]
    for name in new_wl:
        if name not in old_wl:
            lines.append(f"  {name:<24} (new workload, no baseline)")
            continue
        o, n = old_wl[name], new_wl[name]
        o_var = (o.get("extra") or {}).get("kernel_variant")
        n_var = (n.get("extra") or {}).get("kernel_variant")
        if o_var is not None and n_var is not None and o_var != n_var:
            # e.g. a pooled baseline against a compiled run under the same
            # workload name — a delta would be meaningless, so don't gate.
            lines.append(f"  {name:<24} kernel_variant {o_var} -> {n_var}: "
                         "not like-for-like, skipped")
            continue
        o_min, n_min = o["wall_s"]["min"], n["wall_s"]["min"]
        delta = (n_min - o_min) / o_min if o_min > 0 else 0.0
        gf = ""
        if o.get("gflops") and n.get("gflops"):
            gdelta = (n["gflops"] - o["gflops"]) / o["gflops"]
            gf = (f"  {o['gflops']:7.2f} -> {n['gflops']:7.2f} Gflop/s "
                  f"({gdelta:+.1%})")
        flag = ""
        if o_min > 0 and delta > rel_tol:
            flag = "  REGRESSION"
            regressions.append(f"{name}: wall min {o_min * 1e3:.2f} ms -> "
                               f"{n_min * 1e3:.2f} ms ({delta:+.1%})")
        lines.append(f"  {name:<24} {o_min * 1e3:9.2f} -> {n_min * 1e3:9.2f} "
                     f"ms ({delta:+.1%}){gf}{flag}")
        o_hr = (o.get("extra") or {}).get("hit_rate")
        n_hr = (n.get("extra") or {}).get("hit_rate")
        if isinstance(o_hr, (int, float)) and isinstance(n_hr, (int, float)):
            # cache hit-rate gates absolutely: any drop is a caching bug
            # (the warm batch is deterministic), not wall-clock noise.
            hr_flag = ""
            if n_hr < o_hr - 1e-9:
                hr_flag = "  REGRESSION"
                regressions.append(f"{name}: hit_rate {o_hr:.3f} -> "
                                   f"{n_hr:.3f}")
            lines.append(f"  {name:<24} hit_rate {o_hr:.3f} -> "
                         f"{n_hr:.3f}{hr_flag}")
    for name in old_wl:
        if name not in new_wl:
            lines.append(f"  {name:<24} (dropped — present only in baseline)")

    def overhead_ratios(wl: dict) -> dict[str, float]:
        extra = wl.get("tracer_overhead", {}).get("extra", {})
        out: dict[str, float] = {}
        if isinstance(extra.get("overhead_ratio"), (int, float)):
            out["overall"] = float(extra["overhead_ratio"])
        for wname, entry in (extra.get("per_workload") or {}).items():
            r = (entry or {}).get("overhead_ratio")
            if isinstance(r, (int, float)):
                out[wname] = float(r)
        return out

    new_ratios = overhead_ratios(new_wl)
    if new_ratios:
        old_ratios = overhead_ratios(old_wl)
        limit = 1.0 + overhead_budget
        lines.append(f"  tracer overhead (budget {overhead_budget:.0%}, "
                     f"gate ratio {limit:.3f}):")
        for wname, ratio in new_ratios.items():
            old_r = old_ratios.get(wname)
            flag = ""
            if ratio > limit and (old_r is None or old_r <= limit):
                flag = "  REGRESSION"
                regressions.append(
                    f"tracer_overhead/{wname}: ratio {ratio:.3f} exceeds "
                    f"budget {limit:.3f}")
            base = f"{old_r:.3f} -> " if old_r is not None else "(new) "
            lines.append(f"    {wname:<22} {base}{ratio:.3f}x{flag}")

    if not regressions:
        lines.append(f"  no regressions (wall-min tolerance {rel_tol:.0%})")
    return "\n".join(lines), regressions
