"""Command-line tools mirroring the AWP-ODC component executables (Fig. 4).

The paper's package ships pre-processing tools (CVM2MESH, PetaMeshP,
dSrcG/PetaSrcP), solvers (DFR, AWM), and post-processing (aVal, dPDA).
This module exposes the same operations as subcommands::

    python -m repro mesh-extract --nx 32 --ny 16 --nz 12 --h 1000 --out mesh.npy
    python -m repro partition    --nx 32 --ny 16 --nz 12 --ranks 8
    python -m repro run-quake    --n 40 --steps 200 --out pgv.npy
    python -m repro rupture      --strike 40 --depth 16 --steps 200
    python -m repro perf-report  --machine jaguar --cores 223074
    python -m repro aval         [--update-reference ref.npz]
    python -m repro m8           --extent 48 --duration 12
    python -m repro farm         spec.json [--workers N] [--json report.json]
    python -m repro query        requests.json --store products
    python -m repro serve        spool/ --store products [--watch]

Each subcommand prints a short human-readable report and (where an ``--out``
is given) writes NumPy artifacts.

Every subcommand also accepts ``--trace out.jsonl`` (and/or ``--trace-chrome
out.json``) to record a span trace of the run through :mod:`repro.obs`;
``repro trace-report out.jsonl`` renders a saved trace into the Fig.-12-style
per-rank compute/halo/io breakdown, and ``repro diagnose out.jsonl`` runs the
critical-path analyzer (imbalance, overlap efficiency, per-rank utilization)
over the same trace.  ``run-quake --health abort`` arms the physics watchdog
(NaN/Inf sentinel + amplitude/energy-growth checks); a tripped watchdog exits
with code 4 after dumping a diagnosis bundle.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core.solver import KERNEL_VARIANTS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser with all subcommands."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="AWP-ODC reproduction tools (SC'10 petascale "
                    "earthquake simulation)")
    sub = p.add_subparsers(dest="command", required=True)

    # --trace lives on each subcommand (argparse subparser defaults would
    # clobber a main-parser value), shared via a parent parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trace", type=str, default=None, metavar="PATH",
                        help="write a JSONL span trace of this run")
    common.add_argument("--trace-chrome", type=str, default=None,
                        metavar="PATH",
                        help="write a Chrome-trace (Perfetto) JSON of this run")

    m = sub.add_parser("mesh-extract", parents=[common],
                       help="CVM2MESH: extract a mesh from "
                            "the synthetic CVM")
    m.add_argument("--nx", type=int, default=32)
    m.add_argument("--ny", type=int, default=16)
    m.add_argument("--nz", type=int, default=12)
    m.add_argument("--h", type=float, default=1000.0)
    m.add_argument("--ranks", type=int, default=4)
    m.add_argument("--out", type=str, default=None)

    pa = sub.add_parser("partition", parents=[common],
                        help="PetaMeshP: partition a mesh over "
                             "a rank grid (both I/O models)")
    pa.add_argument("--nx", type=int, default=32)
    pa.add_argument("--ny", type=int, default=16)
    pa.add_argument("--nz", type=int, default=12)
    pa.add_argument("--h", type=float, default=1000.0)
    pa.add_argument("--ranks", type=int, default=8)
    pa.add_argument("--readers", type=int, default=2)

    r = sub.add_parser("run-quake", parents=[common],
                       help="AWM: point-source wave propagation")
    r.add_argument("--n", type=int, default=40)
    r.add_argument("--h", type=float, default=100.0)
    r.add_argument("--steps", type=int, default=200)
    r.add_argument("--f0", type=float, default=2.0)
    r.add_argument("--ranks", type=int, default=1,
                   help="decompose over this many ranks (default: serial)")
    r.add_argument("--backend", choices=("sim", "procpool"), default="sim",
                   help="distributed execution backend (with --ranks > 1): "
                        "'sim' = cooperative SimMPI scheduler, 'procpool' = "
                        "real worker processes with shared-memory halos")
    r.add_argument("--dtype", choices=("float32", "float64"),
                   default="float64",
                   help="wavefield/material precision; float32 is the "
                        "production AWP-ODC fast path (half the bytes moved)")
    r.add_argument("--kernel-variant", choices=KERNEL_VARIANTS,
                   default="pooled",
                   help="stencil backend: 'pooled' numpy ufuncs (default), "
                        "'compiled' fused kernels (generated C; falls back "
                        "to pooled with a warning when no C compiler is "
                        "present, and swaps the PML boundary for a sponge "
                        "taper)")
    r.add_argument("--lts", choices=("off", "auto"), default="off",
                   help="clustered local time stepping: partition the mesh "
                        "into x1/x2/x4 rate groups from the per-plane CFL "
                        "bound and advance each at its own dt; switches the "
                        "medium to the two-layer basin (a homogeneous medium "
                        "has nothing to cluster) and the boundary to the "
                        "sponge taper (LTS forbids PML)")
    r.add_argument("--out", type=str, default=None)
    r.add_argument("--health", choices=("off", "warn", "abort"),
                   default="off",
                   help="run-health watchdog: strided NaN/Inf sentinel plus "
                        "amplitude/energy-growth checks every "
                        "--health-interval steps ('warn' logs, 'abort' dumps "
                        "a diagnosis bundle and exits 4)")
    r.add_argument("--health-interval", type=int, default=25, metavar="STEPS",
                   help="steps between watchdog checks (default 25)")
    r.add_argument("--diagnosis-dir", type=str, default=None, metavar="DIR",
                   help="where a tripped watchdog writes its diagnosis "
                        "bundle (default: diagnosis/ in cwd)")
    r.add_argument("--inject-nan", type=int, default=None, metavar="STEP",
                   help="failure-injection teeth test: poison one wavefield "
                        "cell at this step; the watchdog must trip "
                        "(implies --health abort unless --health given)")
    r.add_argument("--stall-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="procpool halo watchdog: abort if any rank waits "
                        "longer than this on a halo ring semaphore")

    d = sub.add_parser("rupture", parents=[common],
                       help="DFR: spontaneous dynamic rupture")
    d.add_argument("--strike", type=int, default=40, help="fault cells")
    d.add_argument("--depth", type=int, default=16)
    d.add_argument("--h", type=float, default=200.0)
    d.add_argument("--steps", type=int, default=200)
    d.add_argument("--tau", type=float, default=70e6)

    pf = sub.add_parser("perf-report", parents=[common],
                        help="Eq. 7/8 performance report")
    pf.add_argument("--machine", type=str, default="jaguar")
    pf.add_argument("--cores", type=int, default=223_074)
    pf.add_argument("--nx", type=int, default=20250)
    pf.add_argument("--ny", type=int, default=10125)
    pf.add_argument("--nz", type=int, default=2125)

    a = sub.add_parser("aval", parents=[common],
                       help="acceptance test against a reference")
    a.add_argument("--update-reference", type=str, default=None)
    a.add_argument("--reference", type=str, default=None)
    a.add_argument("--precision", action="store_true",
                   help="gate the float32 fast path against a matched "
                        "float64 run (waveform L2 + surface PGV error)")
    a.add_argument("--misfit-tol", type=float, default=None,
                   help="with --precision: L2 misfit tolerance per waveform")
    a.add_argument("--pgv-tol", type=float, default=None,
                   help="with --precision: relative PGV error tolerance")

    m8 = sub.add_parser("m8", parents=[common],
                        help="the scaled M8 two-step pipeline")
    m8.add_argument("--extent", type=float, default=48.0, help="domain km")
    m8.add_argument("--duration", type=float, default=12.0)

    fm = sub.add_parser("farm", parents=[common],
                        help="ensemble engine: expand a FarmSpec into "
                             "jobs, schedule them over worker processes, "
                             "land products in a content-addressed store")
    fm.add_argument("spec", type=str,
                    help="FarmSpec JSON (schema repro-farm-spec/1; "
                         "see docs/farm.md)")
    fm.add_argument("--workers", type=int, default=2, metavar="N",
                    help="worker processes (1 = in-process; default 2)")
    fm.add_argument("--store", type=str, default="products", metavar="DIR",
                    help="product store root (default: products/)")
    fm.add_argument("--resume", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="treat jobs already in the store as cache hits "
                         "(default on; --no-resume recomputes everything)")
    fm.add_argument("--max-retries", type=int, default=2, metavar="K",
                    help="retries per failing job before giving up "
                         "(default 2)")
    fm.add_argument("--json", type=str, default=None, metavar="PATH",
                    help="also write the repro-farm/1 JSON report")
    fm.add_argument("--kernel-variant", choices=KERNEL_VARIANTS,
                    default=None,
                    help="override the spec's stencil backend for every "
                         "job (spec default: compiled where the host can "
                         "build it, else pooled); backends are "
                         "bitwise-equal so cached products from other "
                         "variants still count as hits")
    fm.add_argument("--metrics", action="store_true",
                    help="also print the repro.obs metrics registry report")

    qy = sub.add_parser("query", parents=[common],
                        help="hazard service, batch mode: serve a "
                             "request file cache-first over the farm "
                             "(schema repro-service-requests/1)")
    qy.add_argument("requests", type=str,
                    help="request JSON (schema repro-service-requests/1; "
                         "see docs/service.md)")
    qy.add_argument("--store", type=str, default="products", metavar="DIR",
                    help="product store root (default: products/)")
    qy.add_argument("--workers", type=int, default=2, metavar="N",
                    help="service worker processes running the store "
                         "misses (default 2)")
    qy.add_argument("--max-retries", type=int, default=2, metavar="K",
                    help="retries per failing job before the query is "
                         "reported failed (default 2)")
    qy.add_argument("--backoff", type=float, default=0.05, metavar="SECONDS",
                    help="base of the exponential retry backoff "
                         "(default 0.05)")
    qy.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                    help="per-query fetch timeout (default 600)")
    qy.add_argument("--json", type=str, default=None, metavar="PATH",
                    help="also write the repro-service/1 JSON report")
    qy.add_argument("--metrics", action="store_true",
                    help="also print the repro.obs metrics registry report")

    sv = sub.add_parser("serve", parents=[common],
                        help="hazard service, spool mode: answer every "
                             "pending request file in a directory "
                             "(writes <stem>.response.json next to each)")
    sv.add_argument("spool", type=str,
                    help="directory of request JSON files to answer")
    sv.add_argument("--store", type=str, default="products", metavar="DIR",
                    help="product store root (default: products/)")
    sv.add_argument("--workers", type=int, default=2, metavar="N",
                    help="service worker processes running the store "
                         "misses (default 2)")
    sv.add_argument("--max-retries", type=int, default=2, metavar="K",
                    help="retries per failing job before a query is "
                         "reported failed (default 2)")
    sv.add_argument("--backoff", type=float, default=0.05, metavar="SECONDS",
                    help="base of the exponential retry backoff "
                         "(default 0.05)")
    sv.add_argument("--watch", action="store_true",
                    help="keep polling the spool instead of exiting after "
                         "one sweep (Ctrl-C to stop)")
    sv.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                    help="with --watch: seconds between sweeps (default 1)")

    v = sub.add_parser("verify", parents=[common],
                       help="correctness verification: MMS convergence "
                            "ladders, cross-configuration equivalence "
                            "matrix, golden regression snapshots")
    prof = v.add_mutually_exclusive_group()
    prof.add_argument("--quick", action="store_true",
                      help="quick profile (default): short ladders, "
                           "sim-backend matrix + procpool smoke cell")
    prof.add_argument("--full", action="store_true",
                      help="full profile: extended ladders and the complete "
                           "backend x dtype x variant x decomp matrix")
    v.add_argument("--only", action="append", default=None,
                   choices=("mms", "matrix", "golden", "lts"),
                   metavar="PILLAR",
                   help="run only this pillar (repeatable; "
                        "mms | matrix | golden | lts)")
    v.add_argument("--no-lts-correction", action="store_true",
                   help="teeth test: run the LTS ladder with the interface "
                        "time-interpolation disabled; the ladder must FAIL "
                        "its temporal-order gate")
    v.add_argument("--update-goldens", action="store_true",
                   help="regenerate the committed golden snapshots in "
                        "place (then review `git diff` and commit)")
    v.add_argument("--json", type=str, default=None, metavar="PATH",
                   help="also write the full report as schema'd JSON")
    v.add_argument("--fd-order", type=int, default=4, choices=(2, 4),
                   help="stencil order under test (2 = the degraded "
                        "verification stencil, which must FAIL the "
                        "spatial gate)")
    v.add_argument("--metrics", action="store_true",
                   help="also print the repro.obs metrics registry report")

    tr = sub.add_parser("trace-report", help="render a saved span trace as a "
                                             "per-rank phase breakdown")
    tr.add_argument("path", type=str, help="JSONL trace from --trace")
    tr.add_argument("--top", type=int, default=10,
                    help="also list the N longest spans")
    tr.add_argument("--chrome", type=str, default=None, metavar="PATH",
                    help="convert the trace to Chrome-trace JSON")

    dg = sub.add_parser("diagnose",
                        help="critical-path analysis of a saved span trace: "
                             "per-rank compute/comm/IO breakdown, load "
                             "imbalance, overlap efficiency, critical-path "
                             "estimate")
    dg.add_argument("path", type=str, help="JSONL trace from --trace")
    dg.add_argument("--json", action="store_true",
                    help="emit the machine-readable diagnosis document")

    return p


# ----------------------------------------------------------------------
def _cmd_mesh_extract(args) -> int:
    from .core.grid import Grid3D
    from .mesh import extract_mesh_parallel, southern_california_like
    cvm = southern_california_like(x_extent=args.nx * args.h,
                                   y_extent=args.ny * args.h)
    grid = Grid3D(args.nx, args.ny, args.nz, h=args.h)
    mesh, elapsed = extract_mesh_parallel(cvm, grid, nranks=args.ranks)
    vol = mesh.as_volume()
    print(f"extracted {grid.ncells} cells on {args.ranks} ranks "
          f"(virtual {elapsed * 1e3:.2f} ms)")
    print(f"vs range: {vol[..., 1].min():.0f} - {vol[..., 1].max():.0f} m/s")
    if args.out:
        np.save(args.out, vol)
        print(f"wrote {args.out}")
    return 0


def _cmd_partition(args) -> int:
    from .core.grid import Grid3D
    from .mesh import (extract_mesh_serial, on_demand_partition, prepartition,
                       southern_california_like)
    from .parallel import Decomposition3D
    cvm = southern_california_like(x_extent=args.nx * args.h,
                                   y_extent=args.ny * args.h)
    grid = Grid3D(args.nx, args.ny, args.nz, h=args.h)
    mesh = extract_mesh_serial(cvm, grid)
    decomp = Decomposition3D.auto(grid, args.ranks)
    pre = prepartition(mesh, decomp)
    ond = on_demand_partition(mesh, decomp, n_readers=args.readers)
    same = all(np.array_equal(pre.blocks[r], ond.blocks[r])
               for r in range(decomp.nranks))
    print(f"decomposition {decomp.dims} over {decomp.nranks} ranks")
    print(f"pre-partitioned model:   {pre.elapsed * 1e3:.2f} virtual ms")
    print(f"on-demand MPI-IO model:  {ond.elapsed * 1e3:.2f} virtual ms "
          f"({args.readers} readers)")
    print(f"blocks identical: {same}")
    return 0 if same else 1


def _cmd_run_quake(args) -> int:
    from .core import (Grid3D, Medium, MomentTensorSource, SolverConfig,
                       WaveSolver)
    from .core.pml import PMLConfig
    from .core.source import double_couple_strike_slip, gaussian_pulse
    from .analysis.pgv import pgvh_from_frames
    grid = Grid3D(args.n, args.n, max(12, args.n // 2), h=args.h)
    lts_on = args.lts != "off"
    if lts_on:
        from .scenarios import basin_two_layer
        med = basin_two_layer(grid)
    else:
        med = Medium.homogeneous(grid, vp=4000.0, vs=2300.0, rho=2500.0)
    pml_width = int(np.clip(args.n // 6, 3, 10))
    if args.kernel_variant == "pooled" and not lts_on:
        cfg = SolverConfig(absorbing="pml", pml=PMLConfig(width=pml_width),
                           dtype=np.dtype(args.dtype).type)
    else:
        # compiled sweeps degrade to pooled under PML and LTS refuses
        # it (core/schedule.py); use the sponge taper instead and say so.
        why = (f"lts={args.lts}" if lts_on
               else f"kernel_variant={args.kernel_variant}")
        print(f"{why}: using sponge absorbing boundary "
              f"(PML needs the pooled whole-domain sweep)")
        cfg = SolverConfig(absorbing="sponge",
                           sponge_width=max(3, pml_width),
                           kernel_variant=args.kernel_variant,
                           dtype=np.dtype(args.dtype).type,
                           lts=args.lts)
    args._solver_config = cfg     # picked up by main() for the trace manifest

    health_mode = args.health
    if health_mode == "off" and args.inject_nan is not None:
        health_mode = "abort"
    hcfg = None
    if health_mode != "off":
        from .obs.health import HealthConfig
        hcfg = HealthConfig(check_interval=args.health_interval,
                            policy=health_mode,
                            diagnosis_dir=args.diagnosis_dir or "diagnosis",
                            inject_nan_step=args.inject_nan)

    if args.ranks > 1:
        from .parallel.distributed import DistributedWaveSolver
        decomp = None
        if lts_on:
            # rate groups are global k-slabs, so LTS needs pz = 1; factor
            # the rank count over x/y only (auto could pick pz > 1).
            from .parallel.decomp import Decomposition3D
            py = max(d for d in range(1, int(args.ranks ** 0.5) + 1)
                     if args.ranks % d == 0)
            decomp = Decomposition3D(grid, args.ranks // py, py, 1)
        solver = DistributedWaveSolver(grid, med, decomp=decomp,
                                       nranks=args.ranks,
                                       config=cfg, backend=args.backend,
                                       health=hcfg,
                                       stall_timeout=args.stall_timeout)
    else:
        solver = WaveSolver(grid, med, cfg)
        if hcfg is not None:
            from .obs.health import HealthMonitor
            from .obs.provenance import RunManifest
            solver.health = HealthMonitor(
                hcfg, rank=0,
                manifest=RunManifest.collect(
                    config=cfg, dtype=cfg.dtype, backend="serial").to_dict())
    if lts_on and solver.lts is not None:
        # pz = 1 when distributed, so the local rate map IS the global one;
        # the cell counts use the *global* x/y extent (a distributed rank's
        # own histogram() would only count its subgrid).
        hist: dict[int, int] = {}
        for lo, hi, rate in solver.lts.rate_map():
            hist[rate] = hist.get(rate, 0) + (hi - lo) * grid.nx * grid.ny
        cells = "  ".join(f"x{r}: {hist[r]:,}" for r in sorted(hist))
        print(f"local time stepping: {cells} cells; "
              f"theoretical speedup {solver.lts.speedup():.2f}x")
    c = args.n * args.h / 2
    solver.add_source(MomentTensorSource(
        position=(c, c, grid.extent[2] / 2),
        moment=double_couple_strike_slip(1e15),
        stf=lambda t: gaussian_pulse(np.array([t]), f0=args.f0)[0]))
    rec = solver.record_surface(dec_time=5)
    if hcfg is not None:
        from .obs.health import HealthError
        try:
            solver.run(args.steps)
        except HealthError as exc:
            print(f"HEALTH ABORT: {exc}", file=sys.stderr)
            return 4
        except RuntimeError as exc:
            # procpool wraps the worker-side HealthError/HaloStallError
            if "Health" in str(exc) or "stalled" in str(exc):
                print(f"HEALTH ABORT: {exc}", file=sys.stderr)
                return 4
            raise
    else:
        solver.run(args.steps)
    pgv = pgvh_from_frames(rec.frames)
    where = (f" on {args.ranks} ranks ({solver.backend} backend)"
             if args.ranks > 1 else "")
    print(f"ran {args.steps} steps (dt = {solver.dt * 1e3:.2f} ms), "
          f"t = {solver.t:.2f} s{where}")
    if args.kernel_variant != "pooled":
        if solver.kernel_variant == "compiled":
            from .core.compiled import get_kernels   # memoized: no rebuild
            note = f", target {get_kernels(cfg.dtype).target}"
        else:
            note = f" (requested {args.kernel_variant})"
        print(f"kernel variant: {solver.kernel_variant}{note}")
    print(f"surface PGVH: max {pgv.max():.3e} m/s")
    if args.out:
        np.save(args.out, pgv)
        print(f"wrote {args.out}")
    return 0


def _cmd_rupture(args) -> int:
    from .core import Grid3D, Medium, SolverConfig, WaveSolver
    from .rupture import (FaultModel, InitialStress, SlipWeakeningFriction,
                          SplitNodeFault)
    ns, nd, h = args.strike, args.depth, args.h
    grid = Grid3D(ns + 30, 40, nd + 10, h=h)
    med = Medium.homogeneous(grid, vp=6000.0, vs=3464.0, rho=2670.0)
    fr = SlipWeakeningFriction.uniform((ns, nd), mu_s=0.677, mu_d=0.525,
                                       dc=max(0.4, 0.4 * h / 200.0),
                                       cohesion=0.0)
    tau0 = np.full((ns, nd), args.tau)
    xs = (np.arange(ns) + 0.5) * h
    zs = (np.arange(nd) + 0.5) * h
    patch = ((xs[:, None] - ns // 2 * h) ** 2
             + (zs[None, :] - nd // 2 * h) ** 2 <= (7 * h) ** 2)
    tau0 = np.where(patch, 0.677 * 120e6 * 1.01, tau0)
    fm = FaultModel(j0=20, i0=15, i1=15 + ns, n_depth=nd, friction=fr,
                    initial=InitialStress(tau0_x=tau0,
                                          tau0_z=np.zeros_like(tau0),
                                          sigma_n=np.full((ns, nd), 120e6)))
    rs = SplitNodeFault(fm)
    solver = WaveSolver(grid, med, SolverConfig(absorbing="sponge",
                                                sponge_width=8), fault=rs)
    solver.run(args.steps)
    ruptured = np.isfinite(rs.rupture_time_region()).mean()
    print(f"ruptured {ruptured * 100:.0f}% of the fault in "
          f"{solver.t:.2f} s simulated")
    print(f"Mw {rs.magnitude():.2f}, peak slip "
          f"{rs.final_slip().max():.2f} m, peak rate "
          f"{rs.peak_slip_rate_region().max():.1f} m/s, super-shear "
          f"{rs.supershear_fraction() * 100:.0f}%")
    return 0


def _cmd_perf_report(args) -> int:
    from .parallel import AWPRunModel, machine_by_name
    from .parallel.autotune import tune
    from .parallel.perfmodel import eq8_efficiency
    from .parallel.topology import balanced_dims
    m = machine_by_name(args.machine)
    shape = (args.nx, args.ny, args.nz)
    mod = AWPRunModel(m, shape, args.cores)
    bd = mod.breakdown()
    cfg = tune(m, shape, args.cores)
    print(f"{m.name} ({m.site}): {args.cores} cores over "
          f"{shape[0]}x{shape[1]}x{shape[2]} points")
    print(f"  time/step:       {bd.total:.3f} s "
          f"(comp {bd.comp:.3f}, comm {bd.comm:.4f}, sync {bd.sync:.3f})")
    print(f"  sustained:       {mod.sustained_tflops():.1f} Tflop/s "
          f"({mod.sustained_tflops() / m.peak_tflops_total * 100:.1f}% of peak)")
    print(f"  Eq. 8 efficiency: "
          f"{eq8_efficiency(m, shape, balanced_dims(args.cores, 3)) * 100:.1f}%")
    print(f"  tuned config:    {cfg.communication}, overlap={cfg.overlap}, "
          f"blocks={cfg.cache_blocking}, io={cfg.io_model}")
    return 0


def _cmd_aval(args) -> int:
    from .workflow.aval import (AcceptanceTest, PrecisionGate,
                                ReferenceProblem)
    problem = ReferenceProblem()
    if args.precision:
        kw = {}
        if args.misfit_tol is not None:
            kw["misfit_tol"] = args.misfit_tol
        if args.pgv_tol is not None:
            kw["pgv_tol"] = args.pgv_tol
        report = PrecisionGate(problem=problem, **kw).evaluate()
        print(report.summary())
        return 0 if report.passed else 1
    if args.update_reference:
        ref = problem.run()
        np.savez(args.update_reference, **ref)
        print(f"reference written to {args.update_reference}")
        return 0
    if args.reference:
        data = np.load(args.reference)
        test = AcceptanceTest(reference={k: data[k] for k in data.files})
    else:
        test = AcceptanceTest.bootstrap(problem)
    report = test.evaluate(problem.run())
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_m8(args) -> int:
    from .scenarios.m8 import M8Config, run_m8_scaled
    cfg = M8Config(x_extent=args.extent * 1e3,
                   h_wave=max(400.0, args.extent * 1e3 / 60),
                   h_rupture=max(350.0, args.extent * 1e3 / 80),
                   duration=args.duration,
                   rupture_duration=args.duration)
    res = run_m8_scaled(cfg)
    rup = res.rupture
    print(f"M8 (scaled to {args.extent:.0f} km): Mw {rup.magnitude():.2f}, "
          f"super-shear {rup.supershear_fraction() * 100:.0f}%")
    for name, v in sorted(res.site_pgvh().items(), key=lambda kv: -kv[1]):
        print(f"  {name:18s} {v * 100:8.2f} cm/s")
    return 0


def _cmd_farm(args) -> int:
    from .farm import FarmSpec, FarmSpecError, ProductStore, run_farm
    from .obs import default_registry
    try:
        spec = FarmSpec.load(args.spec)
    except FarmSpecError as exc:
        print(f"error: invalid farm spec: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2
    if args.kernel_variant is not None:
        from dataclasses import replace
        spec = replace(spec, kernel_variant=args.kernel_variant)
    store = ProductStore(args.store)

    def progress(res):
        tag = {"done": "done  ", "cached": "cached",
               "failed": "FAILED"}[res.status]
        extra = f" ({res.error})" if res.status == "failed" else ""
        print(f"  [{res.index}] {tag} {res.label}{extra}")

    report = run_farm(spec, store, workers=args.workers,
                      resume=args.resume, max_retries=args.max_retries,
                      progress=progress)
    print(report.summary())
    print(f"store: {store.root} ({store.count()} products)")
    if args.json:
        try:
            path = report.write_json(args.json)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
    if args.metrics:
        print(default_registry().report())
    return 0 if report.passed else 1


def _cmd_query(args) -> int:
    from .farm import ProductStore
    from .obs import default_registry
    from .service import (RequestError, ServiceConfig, load_requests,
                          run_batch)
    try:
        requests = load_requests(args.requests)
    except RequestError as exc:
        print(f"error: invalid request file: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read requests: {exc}", file=sys.stderr)
        return 2
    cfg = ServiceConfig(workers=args.workers, max_retries=args.max_retries,
                        backoff_s=args.backoff,
                        fetch_timeout_s=args.timeout)
    report = run_batch(requests, ProductStore(args.store), config=cfg,
                       registry=default_registry())
    print(report.summary())
    if args.json:
        try:
            path = report.write_json(args.json)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
    if args.metrics:
        print(default_registry().report())
    return 0 if report.passed else 1


def _cmd_serve(args) -> int:
    import time as _time
    from pathlib import Path
    from .farm import ProductStore
    from .service import ServiceConfig, response_path, serve_spool
    spool = Path(args.spool)
    if not spool.is_dir():
        print(f"error: spool {spool} is not a directory", file=sys.stderr)
        return 2
    cfg = ServiceConfig(workers=args.workers, max_retries=args.max_retries,
                        backoff_s=args.backoff)
    store = ProductStore(args.store)
    failed = 0
    answered = 0
    try:
        while True:
            for path, report, error in serve_spool(spool, store, config=cfg):
                answered += 1
                if error is not None:
                    failed += 1
                    print(f"  {path.name}: INVALID ({error})")
                else:
                    failed += 0 if report.passed else 1
                    tag = "ok" if report.passed else "FAILED"
                    s = report.stats
                    print(f"  {path.name}: {tag} — {len(report.results)} "
                          f"queries, hit rate {s.hit_rate:.1%} -> "
                          f"{response_path(path).name}")
            if not args.watch:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    print(f"served {answered} request file(s) from {spool} "
          f"({failed} failed)")
    return 0 if failed == 0 else 1


def _cmd_verify(args) -> int:
    from .obs import default_registry
    from .verify import (QUICK_DECOMPS, VerifyReport, build_cells,
                         check_goldens, lts_temporal_ladder,
                         plane_wave_check, run_matrix, spatial_ladder,
                         temporal_ladder, update_goldens)

    if args.update_goldens:
        for path in update_goldens():
            print(f"wrote {path}")
        print("review `git diff src/repro/verify/goldens` and commit.")
        return 0

    profile = "full" if args.full else "quick"
    all_pillars = {"mms", "matrix", "golden", "lts"}
    pillars = set(args.only) if args.only else set(all_pillars)
    report = VerifyReport(profile=profile)
    report.skipped = sorted(all_pillars - pillars)

    if "mms" in pillars:
        spatial_res = ((8, 12, 16, 24, 32) if profile == "full"
                       else (8, 12, 16, 24))
        temporal_steps = ((8, 16, 32, 64) if profile == "full"
                          else (8, 16, 32))
        report.mms = [
            spatial_ladder(resolutions=spatial_res, fd_order=args.fd_order),
            temporal_ladder(step_counts=temporal_steps,
                            fd_order=args.fd_order),
        ]
        report.plane_wave = plane_wave_check(fd_order=args.fd_order)

    if "lts" in pillars:
        lts_steps = ((8, 16, 32, 64) if profile == "full"
                     else (8, 16, 32))
        report.mms.append(lts_temporal_ladder(
            step_counts=lts_steps,
            correction=not args.no_lts_correction))

    if "matrix" in pillars:
        if profile == "full":
            # LTS cells hold the distributed scheduler to the serial-LTS
            # reference bitwise (pz must stay 1 under LTS); attenuation
            # cells the memory variables on both variants.
            cells = (build_cells()
                     + build_cells(decomps=((2, 1, 1), (4, 1, 1)),
                                   attenuation=True)
                     + build_cells(backends=("sim",),
                                   decomps=((2, 1, 1), (2, 2, 1)),
                                   lts="forced")
                     + build_cells(backends=("procpool",),
                                   dtypes=("float64",),
                                   variants=("pooled",),
                                   decomps=((2, 2, 1),), lts="forced"))
        else:
            # sim backend across the whole dtype/variant grid, plus one
            # procpool smoke cell per overlap-capable variant so the fork
            # path (and the compiled core/shell split) is exercised too,
            # plus one LTS cell pinning the rate-group scheduler and one
            # attenuation cell per variant.
            cells = (build_cells(backends=("sim",), decomps=QUICK_DECOMPS)
                     + build_cells(backends=("sim",), dtypes=("float64",),
                                   decomps=((2, 1, 1),), attenuation=True)
                     + build_cells(backends=("procpool",),
                                   dtypes=("float64",),
                                   decomps=((2, 1, 1),))
                     + build_cells(backends=("sim",), dtypes=("float64",),
                                   variants=("pooled",),
                                   decomps=((2, 1, 1),), lts="forced"))
        report.matrix = run_matrix(
            cells=cells,
            progress=lambda c: print(f"  cell {c.cell.label}: {c.status}"))

    if "golden" in pillars:
        report.goldens = check_goldens()

    from .obs.provenance import RunManifest
    report.manifest = RunManifest.collect(
        config={"profile": profile, "pillars": sorted(pillars),
                "fd_order": args.fd_order,
                "lts_correction": not args.no_lts_correction}).to_dict()
    report.publish_metrics()
    print(report.summary())
    if args.json:
        path = report.write_json(args.json)
        print(f"wrote {path}")
    if args.metrics:
        print(default_registry().report())
    return 0 if report.passed else 1


def _cmd_trace_report(args) -> int:
    from .obs import (PhaseTimeline, read_jsonl, write_chrome_trace)
    spans = read_jsonl(args.path)
    if not spans:
        print(f"{args.path}: no spans")
        return 1
    tl = PhaseTimeline(spans)
    print(f"{args.path}: {len(spans)} spans")
    print(tl.breakdown_table())
    if args.top > 0:
        print()
        print(tl.top_spans_table(args.top))
    if args.chrome:
        n = write_chrome_trace(spans, args.chrome)
        print(f"wrote {n} trace events to {args.chrome}")
    return 0


def _cmd_diagnose(args) -> int:
    from .obs import TraceDiagnosis, read_jsonl, read_manifest
    spans = read_jsonl(args.path)
    if not spans:
        print(f"{args.path}: no spans", file=sys.stderr)
        return 1
    diag = TraceDiagnosis(spans, manifest=read_manifest(args.path))
    if args.json:
        print(diag.to_json())
    else:
        print(diag.report())
    return 0


_COMMANDS = {
    "mesh-extract": _cmd_mesh_extract,
    "partition": _cmd_partition,
    "run-quake": _cmd_run_quake,
    "rupture": _cmd_rupture,
    "perf-report": _cmd_perf_report,
    "aval": _cmd_aval,
    "m8": _cmd_m8,
    "farm": _cmd_farm,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "verify": _cmd_verify,
    "trace-report": _cmd_trace_report,
    "diagnose": _cmd_diagnose,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` / the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    trace_path = getattr(args, "trace", None)
    chrome_path = getattr(args, "trace_chrome", None)
    if not (trace_path or chrome_path):
        return cmd(args)

    from .obs import Tracer, set_tracer, write_chrome_trace, write_jsonl
    from .obs.events import get_event_log
    from .obs.provenance import RunManifest
    tracer = Tracer()
    old = set_tracer(tracer)
    try:
        rc = cmd(args)
    finally:
        set_tracer(old)
    # every exported trace leads with a provenance manifest header;
    # run-quake stashes its SolverConfig for the canonical hash, other
    # commands are identified by their (plain-data) CLI namespace.
    cfg = getattr(args, "_solver_config", None)
    if cfg is None:
        cfg = {k: v for k, v in vars(args).items()
               if not k.startswith("_") and not callable(v)}
    manifest = RunManifest.collect(
        config=cfg, backend=getattr(args, "backend", None)).to_dict()
    if trace_path:
        n = write_jsonl(tracer.spans, trace_path, manifest=manifest)
        print(f"wrote {n} spans to {trace_path}")
    if chrome_path:
        n = write_chrome_trace(tracer.spans, chrome_path,
                               events=get_event_log().events,
                               manifest=manifest)
        print(f"wrote {n} trace events to {chrome_path}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
