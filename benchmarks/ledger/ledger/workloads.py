"""The six ledger workloads.

Each workload drives the public functions of the program the way its CLI
front end (``repro run-quake`` / ``farm`` / ``query``) does.  A workload has
three parts the driver in ``run.py`` calls in order:

``setup(inst)``
    build the inputs from the seed (timed as ``setup_s``, repeated);
``measure(state, inst, ops, seconds)``
    repeat one complete operation for ``seconds`` and return raw samples;
``end_to_end(m)`` / ``per_layer(plain, traced)``
    reduce samples to the declared metrics.

``inst`` is an ``Instrument`` or ``NullInstrument``: workload code is the
same traced and untraced.  Correctness checks are counted in ``ops``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.analysis.pgv import geometric_mean_pgv, pgvh_from_frames
from repro.core import (Grid3D, Medium, MomentTensorSource, Receiver,
                        SolverConfig, WaveSolver, cfl_dt, max_frequency)
from repro.core.pml import PMLConfig
from repro.core.profiling import stencil_flops_per_point
from repro.core.source import double_couple_strike_slip, gaussian_pulse
from repro.farm import (FarmSpec, ProductError, ProductStore, execute_job,
                        run_farm, run_job)
from repro.io.checkpoint import CheckpointManager
from repro.mesh import (extract_mesh_serial, mesh_to_medium,
                        southern_california_like)
from repro.parallel import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver
from repro.parallel.halo import halo_bytes_per_step
from repro.rupture.kinematic import KinematicRupture, denali_like_slip
from repro.scenarios import basin_two_layer
from repro.scenarios.catalog import scenario
from repro.service import (MAP_PRODUCTS, HazardService, Query,
                           ServiceConfig)

from .env import WORKERS, WORK, scratch_dir
from .instrument import NullInstrument, rollup
from .util import (Ops, column, digest, median, now, percentile, timed_reps)

NAMES = ("quake_serial", "quake_anelastic", "quake_lts", "quake_procpool",
         "farm_cold", "query_replay")

#: Problem sizes.  ``full`` is what BENCHMARK.json measures; ``tiny`` only
#: exercises the code paths for the self-tests and is never a baseline.
SIZES = {
    "full": {
        "quake_serial": dict(shape=(128, 64, 32), h=200.0, steps=(40, 40),
                             absorb=8),
        "quake_anelastic": dict(shape=(96, 48, 24), h=200.0, steps=(10, 10),
                                absorb=6),
        "quake_lts": dict(shape=(64, 64, 32), h=100.0, steps=(120,),
                          absorb=8),
        "quake_procpool": dict(shape=(128, 64, 32), h=200.0, steps=(40,),
                               absorb=8),
        "farm_cold": dict(nx=64, nsteps=100, seeds=8, magnitudes=2,
                          resume_reruns=5),
        "query_replay": dict(warm_nx=48, warm_nsteps=80, warm_seeds=4,
                             warm_magnitudes=2, cold_nx=24, cold_nsteps=32,
                             burst_keys=4, burst_dups=3, min_bursts=3,
                             min_queries=500, distinct=64),
    },
    "tiny": {
        "quake_serial": dict(shape=(24, 16, 12), h=200.0, steps=(10, 10),
                             absorb=3),
        "quake_anelastic": dict(shape=(24, 16, 12), h=200.0, steps=(10, 10),
                                absorb=3),
        "quake_lts": dict(shape=(16, 16, 16), h=100.0, steps=(24,), absorb=3),
        "quake_procpool": dict(shape=(24, 16, 12), h=200.0, steps=(20,),
                               absorb=3),
        "farm_cold": dict(nx=16, nsteps=8, seeds=2, magnitudes=2,
                          resume_reruns=2),
        "query_replay": dict(warm_nx=16, warm_nsteps=8, warm_seeds=2,
                             warm_magnitudes=1, cold_nx=16, cold_nsteps=8,
                             burst_keys=2, burst_dups=2, min_bursts=1,
                             min_queries=40, distinct=12),
    },
}

#: Surface output cadence; checkpoints land on a multiple of it so a
#: restored recorder (whose own step counter restarts) stays aligned.
DEC_TIME = 5

#: Computed memory traffic of one fused step, in arrays touched per cell:
#: the velocity sweep reads 6 stresses + 3 velocities + 3 buoyancies and
#: writes 3 velocities; the stress sweep reads 3 velocities + 6 stresses +
#: 5 moduli and writes 6 stresses.  Ignores cache reuse and write-allocate.
ARRAYS_PER_CELL = (6 + 3 + 3 + 3) + (3 + 6 + 5 + 6)

RECEIVER_FRACTIONS = ((0.5, 0.6), (0.3, 0.85), (0.9, 0.25), (0.15, 0.4))


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), NAMES.index(name)])


def _row_medians(reps: list[dict]) -> dict[str, tuple[float, float]]:
    """Per layer row: median over reps of (self seconds, calls)."""
    names = sorted({n for r in reps for n in r["rows"]})
    return {n: (median([r["rows"].get(n, (0.0, 0))[0] for r in reps]),
                median([r["rows"].get(n, (0.0, 0))[1] for r in reps]))
            for n in names}


def _durations(spans, name: str) -> list[float]:
    return [sp.duration for sp in spans if sp.name == name]


def _layer_sum_frac(reps: list[dict], residual=("rep", "core.run")) -> float:
    """Share of a rep's wall owned by a named layer row.

    The rows of one rep add up to its root span exactly, so this is one
    minus the share of the ``residual`` rows: the rep's own glue and the
    un-attributed rest of ``run()`` (dispatch, stability check, tracing).
    """
    fracs = []
    for r in reps:
        total = sum(s for s, _ in r["rows"].values())
        rest = sum(r["rows"].get(n, (0.0, 0))[0] for n in residual)
        fracs.append((total - rest) / total)
    return median(fracs)


class Workload:
    """Base: seeded inputs, a measuring loop, metric reduction."""

    name = ""

    def __init__(self, seed: int, sizing: str = "full"):
        self.seed = int(seed)
        self.size = SIZES[sizing][self.name]

    def setup(self, inst) -> dict:
        raise NotImplementedError

    def measure(self, st: dict, inst, ops: Ops, seconds: float) -> dict:
        raise NotImplementedError

    def extras(self, st: dict, inst, ops: Ops, plain: dict) -> dict:
        """Traced-run-only measurements beyond the rep loop."""
        return {}

    def teardown(self, st: dict) -> None:
        pass

    def end_to_end(self, m: dict) -> dict:
        raise NotImplementedError

    def samples(self, m: dict) -> dict:
        """Raw timing samples behind the end-to-end metrics (--out)."""
        raise NotImplementedError

    def walls(self, m: dict) -> list[float]:
        """The walls ``trace.overhead_frac`` compares traced to untraced."""
        return column(m["reps"], "wall")

    def per_layer(self, st: dict, plain: dict, traced: dict,
                  extras: dict) -> dict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# quake_*: mesh -> source -> solve -> checkpoint -> output -> PGV
# ----------------------------------------------------------------------
class _Quake(Workload):
    """One ``run-quake``-shaped pipeline; subclasses pick the physics."""

    checkpoint = True

    def config(self, medium: Medium) -> SolverConfig:
        raise NotImplementedError

    # -- inputs --------------------------------------------------------
    def medium(self, inst, grid: Grid3D) -> Medium:
        """CVM extraction -> solver medium, as ``mesh-extract`` feeds it.

        ``mesh_to_medium`` hands back transposed, non-C-contiguous arrays
        that ``kernel_variant="compiled"`` refuses; the contiguous rebuild
        is a workaround for that defect and is timed as its own row.
        """
        nx, ny, _ = grid.shape
        with inst.span("mesh.extract"):
            cvm = southern_california_like(x_extent=nx * grid.h,
                                           y_extent=ny * grid.h)
            mesh = extract_mesh_serial(cvm, grid)
        with inst.span("mesh.medium_build"):
            loose = mesh_to_medium(mesh)
        with inst.span("mesh.contiguous_copy"):
            c = np.ascontiguousarray
            return Medium(grid=grid, lam=c(loose.lam), mu=c(loose.mu),
                          rho=c(loose.rho), qs=c(loose.qs), qp=c(loose.qp),
                          dtype=loose.dtype)

    def source(self, inst, rng, grid: Grid3D, medium: Medium):
        """A seeded kinematic rupture expanded to a finite-fault source."""
        with inst.span("rupture.source_build"):
            x_ext, y_ext, _ = grid.extent
            dt = cfl_dt(grid.h, medium.vp_max)
            spacing = 3.0 * grid.h
            length = 0.5 * x_ext
            depth = 0.4 * grid.extent[2]
            n_strike = max(2, int(round(length / spacing)))
            n_depth = max(2, int(round(depth / spacing)))
            slip = denali_like_slip(n_strike, n_depth,
                                    seed=int(rng.integers(1, 2 ** 31)))
            hypo = (float(rng.uniform(0.2, 0.8)) * length,
                    float(rng.uniform(0.3, 0.7)) * depth)
            rupture = KinematicRupture(
                length=length, depth=depth, spacing=spacing, magnitude=6.5,
                hypocenter=hypo, rupture_velocity=2500.0, rise_time=6.0 * dt,
                slip=slip)
            surface_z = (grid.nz - 1) * grid.h
            # Known defect worked around: a subfault whose staggered cells
            # straddle a rank boundary makes the distributed solver raise
            # KeyError on the rank owning only some of its stress
            # components.  Two ranks split x at nx/2: keep every subfault
            # centre at least a cell away from that plane.
            x0 = (x_ext - length) / 2.0
            centres = x0 + (np.arange(n_strike) + 0.5) * spacing
            while np.any(np.abs(centres - x_ext / 2.0) < grid.h):
                x0 += grid.h
                centres += grid.h
            return rupture.to_finite_fault(
                origin=(x0, 0.0, 0.0),
                y_plane=y_ext / 2.0, surface_z=surface_z - 2 * grid.h,
                dt=dt)

    def setup(self, inst) -> dict:
        rng = _rng(self.seed, self.name)
        grid = Grid3D(*self.size["shape"], h=self.size["h"])
        medium = self.medium(inst, grid)
        source = self.source(inst, rng, grid, medium)
        x_ext, y_ext, _ = grid.extent
        z_rec = (grid.nz - 2) * grid.h
        return {"grid": grid, "medium": medium, "source": source,
                "nsources": (len(source.subfaults)
                             if hasattr(source, "subfaults") else 1),
                "config": self.config(medium),
                "receivers": [(fx * x_ext, fy * y_ext, z_rec)
                              for fx, fy in RECEIVER_FRACTIONS]}

    # -- one rep -------------------------------------------------------
    def build(self, st: dict, inst, config=None):
        with inst.span("core.solver_build"):
            solver = WaveSolver(st["grid"], st["medium"],
                                config or st["config"])
        with inst.span("core.source_bind"):
            solver.add_source(st["source"])
            for pos in st["receivers"]:
                solver.add_receiver(Receiver(position=pos))
            rec = solver.record_surface(dec_time=DEC_TIME)
        inst.solver(solver)
        return solver, rec

    def rep(self, st: dict, inst, ops: Ops, keep: bool = False) -> dict:
        """Solver build -> PGV file written.  ``keep`` adds the restart
        check: restore the checkpoint into a fresh solver and require the
        remaining frames bitwise."""
        steps = self.size["steps"]
        out = {"ckpt_s": 0.0, "ckpt_bytes": 0}
        mark = inst.mark() if inst.enabled else 0
        with scratch_dir(self.name) as tmp, inst.span("rep"):
            t0 = now()
            solver, rec = self.build(st, inst)
            t = now()
            with inst.span("core.run"):
                solver.run(steps[0])
            run_wall = now() - t
            if self.checkpoint:
                t = now()
                with inst.span("io.checkpoint_write"):
                    CheckpointManager(tmp / "ckpt").write_epoch(
                        0, {0: solver.state()})
                out["ckpt_s"] = now() - t
                out["ckpt_bytes"] = sum(
                    p.stat().st_size for p in (tmp / "ckpt").iterdir())
                frames_at_ckpt = len(rec.frames)
                t = now()
                with inst.span("core.run"):
                    solver.run(steps[1])
                run_wall += now() - t
            with inst.span("analysis.pgv"):
                pgv = pgvh_from_frames(rec.frames)
                geometric_mean_pgv(rec.frames)
            with inst.span("io.output_write"):
                np.save(tmp / "pgvh.npy", pgv)
            out["wall"] = now() - t0
            out["out_bytes"] = (tmp / "pgvh.npy").stat().st_size
            inst.unwrap()
            if keep and self.checkpoint:
                out["restore_s"] = self.restart_check(
                    st, ops, tmp / "ckpt", rec.frames[frames_at_ckpt:])
        out.update(run_wall=run_wall, nsteps=sum(steps), pgv=digest(pgv),
                   pgv_max=float(pgv.max()))
        if inst.enabled:
            out["rows"] = rollup(inst.since(mark))
        ops.check(np.isfinite(out["pgv_max"]) and out["pgv_max"] > 0.0,
                  f"{self.name}: rep produced no ground motion")
        return out

    def restart_check(self, st, ops: Ops, ckpt_dir, frames_after) -> float:
        """Restore the epoch into a fresh solver, rerun the second leg and
        compare its frames bitwise with the uninterrupted run's."""
        solver, rec = self.build(st, NullInstrument())
        t = now()
        state = CheckpointManager(ckpt_dir).read_epoch(0, [0])[0]
        solver.load_state(state)
        restore_s = now() - t
        solver.run(self.size["steps"][1])
        same = len(rec.frames) == len(frames_after) and all(
            a[0] == b[0] and all(np.array_equal(x, y)
                                 for x, y in zip(a[1:], b[1:]))
            for a, b in zip(rec.frames, frames_after))
        ops.check(same, f"{self.name}: restart from checkpoint is not "
                        "bitwise equal to the uninterrupted run")
        return restore_s

    def measure(self, st, inst, ops, seconds) -> dict:
        # warm-up rep; the untraced one also carries the restart check
        first = self.rep(st, inst, ops, keep=not inst.enabled)
        reps = timed_reps(lambda: self.rep(st, inst, ops), seconds, 3)
        ops.check(len({r["pgv"] for r in [first, *reps]}) == 1,
                  f"{self.name}: reps disagree bitwise on PGV")
        return {"reps": reps, "restore_s": first.get("restore_s", 0.0)}

    # -- reduction -----------------------------------------------------
    def cells(self) -> int:
        return int(np.prod(self.size["shape"]))

    def end_to_end(self, m: dict) -> dict:
        reps = m["reps"]
        run = median(column(reps, "run_wall"))
        nsteps = reps[0]["nsteps"]
        return {"time_to_solution_s": median(column(reps, "wall")),
                "mcells_per_s": self.cells() * nsteps / run / 1e6,
                "latency_p50_ms": run / nsteps * 1e3}

    def samples(self, m):
        return {"wall_s": column(m["reps"], "wall"),
                "run_wall_s": column(m["reps"], "run_wall")}

    def per_layer(self, st, plain, traced, extras) -> dict:
        reps = traced["reps"]
        rows = _row_medians(reps)

        def sec(name):
            return rows.get(name, (0.0, 0))[0]

        run = median(column(reps, "run_wall"))
        wall = median(column(reps, "wall"))
        nsteps = reps[0]["nsteps"]
        cfg = st["config"]
        itemsize = np.dtype(cfg.dtype).itemsize
        flops = stencil_flops_per_point(
            order=cfg.order, attenuation=cfg.attenuation_band is not None,
            n_mechanisms=cfg.n_mechanisms)
        kernel = sec("core.kernel")
        work = self.cells() * nsteps
        ckpt = median(column(reps, "ckpt_s"))
        ckpt_bytes = reps[0]["ckpt_bytes"]
        out = {
            "mesh.cells": self.cells(),
            "rupture.subfaults": st["nsources"],
            "core.solver_build_s": sec("core.solver_build"),
            "core.source_bind_s": sec("core.source_bind"),
            "core.run_s": run,
            "core.kernel_s": kernel,
            "core.kernel_calls": rows.get("core.kernel", (0, 0))[1],
            "core.kernel_share": kernel / run,
            "core.sponge_s": sec("core.sponge"),
            "core.free_surface_s": sec("core.free_surface"),
            "core.source_inject_s": sec("core.source_inject"),
            "core.record_s": sec("core.record"),
            "core.pml_s": sec("core.pml"),
            "core.lts_substep_s": sec("core.lts_substep"),
            "core.step_residual_s": sec("core.run"),
            "core.step_residual_frac": sec("core.run") / run,
            "core.flops_per_cell": flops,
            "core.bytes_per_cell_computed": ARRAYS_PER_CELL * itemsize,
            "io.checkpoint_write_s": ckpt,
            "io.checkpoint_bytes": ckpt_bytes,
            "io.checkpoint_MBps": ckpt_bytes / ckpt / 1e6 if ckpt else 0.0,
            "io.checkpoint_frac": ckpt / wall,
            "io.restore_s": plain["restore_s"],
            "io.output_write_s": sec("io.output_write"),
            "io.output_bytes": reps[0]["out_bytes"],
            "analysis.pgv_s": sec("analysis.pgv"),
            "trace.layer_sum_frac": _layer_sum_frac(reps),
        }
        if kernel and st["config"].lts == "off":
            out["core.kernel_gflops"] = flops * work / kernel / 1e9
            out["core.kernel_GBps_computed"] = (
                ARRAYS_PER_CELL * itemsize * work / kernel / 1e9)
        out.update(extras)
        return out


class QuakeSerial(_Quake):
    name = "quake_serial"

    def config(self, medium):
        return SolverConfig(absorbing="sponge",
                            sponge_width=self.size["absorb"],
                            free_surface=True, kernel_variant="compiled")


class QuakeAnelastic(_Quake):
    """The M8 production physics: numpy pooled kernels, split-field PML,
    coarse-grained memory variables; no sponge, no fused sweep."""

    name = "quake_anelastic"

    def config(self, medium):
        f_cut = max_frequency(self.size["h"], medium.vs_min)
        return SolverConfig(kernel_variant="pooled", absorbing="pml",
                            pml=PMLConfig(width=self.size["absorb"]),
                            free_surface=True,
                            attenuation_band=(f_cut / 10.0, f_cut))


class QuakeLTS(_Quake):
    """Clustered local time stepping on the two-layer basin."""

    name = "quake_lts"
    checkpoint = False

    def medium(self, inst, grid):
        with inst.span("mesh.medium_build"):
            return basin_two_layer(grid)

    def source(self, inst, rng, grid, medium):
        with inst.span("rupture.source_build"):
            x_ext, y_ext, z_ext = grid.extent
            f0 = float(rng.uniform(1.5, 2.5))
            pos = (float(rng.uniform(0.4, 0.6)) * x_ext,
                   float(rng.uniform(0.4, 0.6)) * y_ext, z_ext / 2.0)
            return MomentTensorSource(
                position=pos, moment=double_couple_strike_slip(1e15),
                stf=lambda t: gaussian_pulse(np.array([t]), f0=f0)[0])

    def config(self, medium):
        return SolverConfig(lts="auto", kernel_variant="compiled",
                            absorbing="sponge",
                            sponge_width=self.size["absorb"])

    def build(self, st, inst, config=None):
        with inst.span("core.solver_build"):
            solver = WaveSolver(st["grid"], st["medium"],
                                config or st["config"])
        with inst.span("core.source_bind"):
            # a point source is bound in place: give each solver its own
            solver.add_source(replace(st["source"], _cells={}, _plan={}))
            rec = solver.record_surface(dec_time=DEC_TIME)
        inst.solver(solver)
        return solver, rec

    def extras(self, st, inst, ops, plain):
        """The global-dt twin of the same problem, once."""
        null = NullInstrument()
        twin_cfg = replace(st["config"], lts="off")
        nsteps = self.size["steps"][0]

        def run_once(cfg):
            solver, rec = self.build(st, null, config=cfg)
            t = now()
            solver.run(nsteps)
            return now() - t, pgvh_from_frames(rec.frames), solver

        off_s, off_pgv, _ = run_once(twin_cfg)
        _, lts_pgv, lts_solver = run_once(st["config"])
        lts_s = median(column(plain["reps"], "run_wall"))
        return {"core.lts_theoretical_speedup": lts_solver.lts.speedup(),
                "core.lts_measured_speedup": off_s / lts_s,
                "core.lts_pgv_misfit": float(
                    np.abs(lts_pgv - off_pgv).max() / off_pgv.max())}


class QuakeProcpool(_Quake):
    """A paired rep: the single-threaded twin, then the same problem on two
    forked ranks with shared-memory halo rings."""

    name = "quake_procpool"
    checkpoint = False
    ranks = 2

    config = QuakeSerial.config

    def rep(self, st, inst, ops, keep=False):
        nsteps = self.size["steps"][0]
        mark = inst.mark() if inst.enabled else 0
        shm_before = _shm_listing()
        with scratch_dir(self.name) as tmp, inst.span("rep"):
            solver, rec = self.build(st, inst)
            t = now()
            with inst.span("core.run"):
                solver.run(nsteps)
            serial_run = now() - t
            serial_pgv = pgvh_from_frames(rec.frames)
            inst.unwrap()

            t0 = now()
            with inst.span("parallel.build"):
                dist = DistributedWaveSolver(
                    st["grid"], st["medium"], nranks=self.ranks,
                    config=st["config"], backend="procpool", overlap=True)
                dist.add_source(st["source"])
                for pos in st["receivers"]:
                    dist.add_receiver(Receiver(position=pos))
                # distributed surface recording supports dec_space=1 only
                drec = dist.record_surface(dec_space=1, dec_time=DEC_TIME)
            build_s = now() - t0
            t = now()
            with inst.span("parallel.run"):
                result = dist.run(nsteps)
            dist_run = now() - t
            with inst.span("analysis.pgv"):
                pgv = pgvh_from_frames(drec.frames)
                geometric_mean_pgv(drec.frames)
            with inst.span("io.output_write"):
                np.save(tmp / "pgvh.npy", pgv)
            wall = now() - t0
            out_bytes = (tmp / "pgvh.npy").stat().st_size
        ops.check(dist.backend == "procpool",
                  "quake_procpool: fell back to the sim backend")
        ops.check(np.array_equal(pgv, serial_pgv),
                  "quake_procpool: PGV differs from the serial twin")
        ops.check(_shm_listing() == shm_before,
                  "quake_procpool: /dev/shm segments left behind")
        lp = dist.last_procpool or {}
        clocks = list(result.clocks)

        def mean(key):
            return lp.get(key, 0.0) / self.ranks

        out = {
            "wall": wall, "run_wall": dist_run, "serial_run": serial_run,
            "nsteps": nsteps, "pgv": digest(pgv), "pgv_max": float(pgv.max()),
            "ckpt_s": 0.0, "ckpt_bytes": 0, "out_bytes": out_bytes,
            "parallel": {
                "parallel.build_s": build_s,
                "parallel.run_overhead_s": dist_run - max(clocks),
                "parallel.rank_wall_max_s": max(clocks),
                "parallel.compute_s_mean": mean("compute_s"),
                "parallel.pack_s_mean": mean("pack_s"),
                "parallel.wait_s_mean": mean("wait_s"),
                "parallel.unpack_s_mean": mean("unpack_s"),
                "parallel.hidden_s_mean": mean("hidden_s"),
                "parallel.overlap_efficiency":
                    lp.get("overlap_efficiency") or 0.0,
                "parallel.imbalance": max(clocks) / (sum(clocks)
                                                     / len(clocks)),
                "parallel.halo_msgs_per_step": sum(
                    s.messages_sent for s in result.stats) / nsteps,
                "parallel.scaling_efficiency":
                    serial_run / (self.ranks * dist_run),
            },
        }
        if inst.enabled:
            out["rows"] = rollup(inst.since(mark))
        return out

    def per_layer(self, st, plain, traced, extras):
        reps = traced["reps"]
        out = super().per_layer(st, plain, traced, extras)
        serial = median(column(reps, "serial_run"))
        # core.* rows describe the serial twin: rebase them on its run wall
        out["core.run_s"] = serial
        out["core.kernel_share"] = out["core.kernel_s"] / serial
        out["core.step_residual_frac"] = out["core.step_residual_s"] / serial
        for key in reps[0]["parallel"]:
            out[key] = median([r["parallel"][key] for r in reps])
        decomp = Decomposition3D.auto(st["grid"], self.ranks)
        out["parallel.halo_bytes_per_step"] = sum(
            halo_bytes_per_step(decomp, r, "reduced",
                                itemsize=np.dtype(st["config"].dtype).itemsize)
            for r in range(self.ranks))
        out["parallel.oversubscribed"] = int(
            self.ranks > (os.cpu_count() or 1))
        return out


def _shm_listing() -> tuple:
    try:
        return tuple(sorted(os.listdir("/dev/shm")))
    except OSError:
        return ()


# ----------------------------------------------------------------------
# farm_cold: the ensemble engine writing a fresh product store
# ----------------------------------------------------------------------
def _farm_spec(rng, nx, nsteps, seeds, magnitudes):
    picks = sorted(int(s) for s in rng.choice(100_000, size=seeds,
                                              replace=False))
    mags = [round(6.2 + 0.6 * i + float(rng.uniform(0.0, 0.4)), 2)
            for i in range(magnitudes)]
    return FarmSpec(scenario="TeraShake-K", nx=nx, nsteps=nsteps,
                    kernel_variant="compiled",
                    axes={"magnitude": mags, "rupture_seed": picks})


def _job_cells(nx: int) -> int:
    return int(np.prod(scenario("TeraShake-K").scaled_grid(nx=nx).shape))


class FarmCold(Workload):
    name = "farm_cold"

    def setup(self, inst):
        z = self.size
        with inst.span("farm.expand"):
            spec = _farm_spec(_rng(self.seed, self.name), z["nx"],
                              z["nsteps"], z["seeds"], z["magnitudes"])
            jobs = spec.expand()
        return {"spec": spec, "jobs": jobs,
                "keys": sorted(j.key() for j in jobs)}

    def rep(self, st, inst, ops):
        spec, njobs = st["spec"], len(st["jobs"])
        mark = inst.mark() if inst.enabled else 0
        with scratch_dir(self.name) as tmp, inst.span("rep"):
            store = ProductStore(tmp / "store")
            inst.wrap(store, "has", "farm.store_has")
            inst.wrap(store, "get", "farm.store_get")
            t0 = now()
            with inst.span("farm.run"):
                report = run_farm(spec, store, workers=WORKERS)
            wall = now() - t0
            for r in report.results:
                ops.check(r.status == "done",
                          f"farm_cold: job {r.index} {r.status}: {r.error}")
            ops.check(store.keys() == st["keys"],
                      f"farm_cold: store holds {store.count()} products, "
                      f"expected the {njobs} job keys")
            for key in st["keys"]:
                try:
                    store.get(key)
                    torn = None
                except ProductError as exc:
                    torn = exc
                ops.check(torn is None, f"farm_cold: get({key}): {torn}")
            resume = []
            hit_rate = 1.0
            for _ in range(self.size["resume_reruns"]):
                t = now()
                with inst.span("farm.resume"):
                    again = run_farm(spec, store, workers=WORKERS)
                resume.append(now() - t)
                hit_rate = min(hit_rate, again.hit_rate)
            ops.check(hit_rate == 1.0,
                      f"farm_cold: resume rerun hit rate {hit_rate:.2f}")
            put_bytes = median([store.path_for(k).stat().st_size
                                for k in st["keys"]])
            inst.unwrap()
        walls = [r.wall_s for r in report.results]
        out = {"wall": wall, "job_walls": walls, "resume": resume,
               "jobs_per_hour": report.jobs_per_hour,
               "farm_wall": report.wall_s, "retries": report.retries,
               "hit_rate": hit_rate, "put_bytes": put_bytes,
               "workers": report.workers}
        if inst.enabled:
            spans = inst.since(mark)
            out["rows"] = rollup(spans)
            out["get_s"] = _durations(spans, "farm.store_get")
            out["has_s"] = _durations(spans, "farm.store_has")
        return out

    def measure(self, st, inst, ops, seconds):
        self.rep(st, inst, ops)                           # warm-up
        return {"reps": timed_reps(lambda: self.rep(st, inst, ops),
                                   seconds, 3)}

    def extras(self, st, inst, ops, plain):
        """One job through the shared in-process path, so the job body and
        the store write can be timed from outside."""
        def timed_run_job(job, attempt=1):
            with inst.span("farm.run_job"):
                return run_job(job, attempt=attempt)

        mark = inst.mark()
        with scratch_dir("farm-inproc") as tmp:
            store = ProductStore(tmp / "store")
            inst.wrap(store, "put", "farm.store_put")
            for job in st["jobs"][:2]:
                res = execute_job(job, store, runner=timed_run_job)
                ops.check(res.status == "done",
                          f"farm_cold: in-process job {res.status}")
            inst.unwrap()
        spans = inst.since(mark)
        return {"farm.run_job_s": median(_durations(spans, "farm.run_job")),
                "farm.store_put_ms":
                    median(_durations(spans, "farm.store_put")) * 1e3}

    def end_to_end(self, m):
        reps = m["reps"]
        z = self.size
        job = median([w for r in reps for w in r["job_walls"]])
        return {"time_to_solution_s": median(column(reps, "wall")),
                "mcells_per_s": _job_cells(z["nx"]) * z["nsteps"] / job / 1e6,
                "latency_p50_ms": median(
                    [w for r in reps for w in r["resume"]]) * 1e3}

    def samples(self, m):
        return {"wall_s": column(m["reps"], "wall"),
                "job_wall_s": [w for r in m["reps"] for w in r["job_walls"]],
                "resume_s": [w for r in m["reps"] for w in r["resume"]]}

    def per_layer(self, st, plain, traced, extras):
        reps = traced["reps"]
        wall = median(column(reps, "farm_wall"))
        walls = [w for r in reps for w in r["job_walls"]]
        workers = reps[0]["workers"]
        busy = median([sum(r["job_walls"]) for r in reps])
        return {
            "mesh.cells": _job_cells(self.size["nx"]),
            "farm.jobs_per_hour": median(column(reps, "jobs_per_hour")),
            "farm.job_wall_p50_s": median(walls),
            "farm.job_wall_max_s": max(walls),
            "farm.worker_utilization": busy / (workers * wall),
            "farm.pool_overhead_s": wall - busy / workers,
            "farm.store_put_bytes": median(column(reps, "put_bytes")),
            "farm.resume_hit_rate": min(column(reps, "hit_rate")),
            "farm.retries": sum(column(reps, "retries")),
            "farm.store_get_ms": median(
                [s for r in reps for s in r["get_s"]]) * 1e3,
            "farm.store_has_us": median(
                [s for r in reps for s in r["has_s"]]) * 1e6,
            "trace.layer_sum_frac": _layer_sum_frac(reps, ("rep",)),
            **extras,
        }


# ----------------------------------------------------------------------
# query_replay: the hazard service reading the store the farm writes
# ----------------------------------------------------------------------
class QueryReplay(Workload):
    """Closed loop, one client: cold bursts, then warm round trips."""

    name = "query_replay"

    def setup(self, inst):
        z = self.size
        rng = _rng(self.seed, self.name)
        spec = _farm_spec(rng, z["warm_nx"], z["warm_nsteps"],
                          z["warm_seeds"], z["warm_magnitudes"])
        store_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=WORK))
        # compiled and pooled products are bitwise equal and share a key, so
        # the warm store is filled through the farm's fast path
        with inst.span("farm.populate"):
            report = run_farm(spec, ProductStore(store_dir), workers=WORKERS)
        jobs = spec.expand()
        physics = [dict(scenario=j.scenario, nx=j.nx, nsteps=j.nsteps,
                        magnitude=j.magnitude, hypocenter=j.hypocenter,
                        rupture_seed=j.rupture_seed) for j in jobs]
        with inst.span("service.stream_build"):
            warm = [self._pick(rng, physics[int(rng.integers(len(physics)))])
                    for _ in range(z["distinct"])]
            order = rng.permutation(len(warm))
        return {"store_dir": store_dir, "warm": warm, "order": order,
                "populate_failed": report.failed,
                "cold_seed": int(rng.integers(1, 1 << 30)), "cold_used": 0,
                "sample": rng.choice(len(warm), size=min(20, len(warm)),
                                     replace=False)}

    @staticmethod
    def _pick(rng, physics: dict) -> Query:
        """One query of the seeded mix: site value, full map, seismogram or
        rupture-time field."""
        kind = rng.choice(4, p=(0.4, 0.3, 0.2, 0.1))
        if kind <= 1:
            product = MAP_PRODUCTS[int(rng.integers(len(MAP_PRODUCTS)))]
            site = ((round(float(rng.uniform(0, 1)), 2),
                     round(float(rng.uniform(0, 1)), 2))
                    if kind == 0 else None)
            return Query(product=product, site=site, **physics)
        if kind == 2:
            rec = ("near", "off_axis", "far")[int(rng.integers(3))]
            comp = ("vx", "vy", "vz")[int(rng.integers(3))]
            return Query(product=f"seis.{rec}.{comp}", **physics)
        return Query(product="rupture_times", **physics)

    def teardown(self, st):
        shutil.rmtree(st["store_dir"], ignore_errors=True)

    def _burst(self, st, svc, inst, ops) -> dict:
        """``burst_keys`` unseen scenarios, each asked ``burst_dups`` times
        for different products, all fetched."""
        z = self.size
        queries = []
        for _ in range(z["burst_keys"]):
            st["cold_used"] += 1
            physics = dict(scenario="TeraShake-K", nx=z["cold_nx"],
                           nsteps=z["cold_nsteps"],
                           rupture_seed=st["cold_seed"] + st["cold_used"])
            queries += [Query(product=MAP_PRODUCTS[d % len(MAP_PRODUCTS)],
                              **physics) for d in range(z["burst_dups"])]
        before = svc.stats().jobs_scheduled
        t0 = now()
        with inst.span("service.cold_burst"):
            tickets = [svc.submit(q) for q in queries]
            results = [svc.fetch(t) for t in tickets]
        wall = now() - t0
        for r in results:
            ops.check(r.ok, f"query_replay: cold query failed: {r.error}")
        scheduled = svc.stats().jobs_scheduled - before
        ops.check(scheduled == z["burst_keys"],
                  f"query_replay: burst scheduled {scheduled} jobs, "
                  f"expected {z['burst_keys']}")
        job_walls = [svc.store.get(k)[1]["wall_s"]
                     for k in sorted({t.key for t in tickets})]
        return {"wall": wall, "job_walls": job_walls}

    def measure(self, st, inst, ops, seconds):
        z = self.size
        ops.check(st["populate_failed"] == 0,
                  "query_replay: warm store population had failed jobs")
        store = ProductStore(st["store_dir"])
        warm, order = st["warm"], st["order"]
        n = len(warm)
        lat, answers, misses = [], {}, 0
        with HazardService(store, ServiceConfig(workers=WORKERS)) as svc:
            inst.wrap(svc, "submit", "service.submit")
            inst.wrap(svc, "fetch", "service.fetch")
            inst.wrap(svc.store, "get", "farm.store_get")
            inst.wrap(svc.store, "has", "farm.store_has")
            self._burst(st, svc, inst, ops)               # warm-up
            for i in range(50):
                svc.fetch(svc.submit(warm[order[i % n]]))
            bursts = timed_reps(lambda: self._burst(st, svc, inst, ops),
                                0.5 * seconds, z["min_bursts"])
            mark = inst.mark() if inst.enabled else 0
            i = 0
            t_begin = now()
            t_end = t_begin + 0.5 * seconds
            while i < z["min_queries"] or now() < t_end:
                q = warm[order[i % n]]
                t = now()
                res = svc.fetch(svc.submit(q))
                lat.append(now() - t)
                misses += not (res.ok and res.source == "hit")
                answers[int(order[i % n])] = res.data
                i += 1
            phase_b = now() - t_begin
            stats = svc.stats()
            inst.unwrap()
        ops.attempted += len(lat)
        ops.failed += misses
        if misses:
            ops.failures.append(f"query_replay: {misses} warm queries were "
                                "not served as hits")
        extract_s, key_s = [], []
        for idx in st["sample"]:
            q = warm[int(idx)]
            t = now()
            key = q.key()
            key_s.append(now() - t)
            arrays = store.get(key)[0]
            t = now()
            want = q.extract(arrays)
            extract_s.append(now() - t)
            got = answers.get(int(idx))
            same = (np.array_equal(got, want) if isinstance(want, np.ndarray)
                    else got == want)
            ops.check(int(idx) not in answers or same,
                      f"query_replay: answer to {q.label()} differs from "
                      "the stored product")
        out = {"bursts": bursts, "lat": lat, "phase_b": phase_b,
               "key_s": key_s, "extract_s": extract_s,
               "stats": stats.to_dict(),
               "put_bytes": median([p.stat().st_size for p in
                                    store.root.glob("??/*.npz")])}
        if inst.enabled:
            spans = inst.since(mark)
            for short, name in (("submit_s", "service.submit"),
                                ("fetch_s", "service.fetch"),
                                ("get_s", "farm.store_get"),
                                ("has_s", "farm.store_has")):
                out[short] = _durations(spans, name)
            out["rows"] = rollup(spans)
        return out

    def end_to_end(self, m):
        z = self.size
        job = median([w for b in m["bursts"] for w in b["job_walls"]])
        return {"time_to_solution_s": median(column(m["bursts"], "wall")),
                "mcells_per_s": (_job_cells(z["cold_nx"]) * z["cold_nsteps"]
                                 / job / 1e6),
                "latency_p50_ms": percentile(m["lat"], 50) * 1e3}

    def walls(self, m):
        return m["lat"]

    def samples(self, m):
        return {"burst_wall_s": column(m["bursts"], "wall"),
                "job_wall_s": [w for b in m["bursts"] for w in b["job_walls"]],
                "latency_s": m["lat"]}

    def per_layer(self, st, plain, traced, extras):
        m = traced
        s = m["stats"]
        submit = m["submit_s"]
        named = sum(sec for n, (sec, _) in m["rows"].items())
        return {
            "mesh.cells": _job_cells(self.size["cold_nx"]),
            "farm.store_get_ms": median(m["get_s"]) * 1e3,
            "farm.store_has_us": median(m["has_s"]) * 1e6,
            "farm.store_put_bytes": m["put_bytes"],
            "service.key_resolve_us": median(m["key_s"]) * 1e6,
            "service.submit_ms_p50": median(submit) * 1e3,
            "service.submit_growth":
                median(submit[-200:]) / median(submit[:200]),
            "service.fetch_ms_p50": median(m["fetch_s"]) * 1e3,
            "service.extract_us": median(m["extract_s"]) * 1e6,
            "service.cold_job_s": median(
                [w for b in m["bursts"] for w in b["job_walls"]]),
            "service.cold_burst_s": median(column(m["bursts"], "wall")),
            "service.latency_p99_ms": percentile(m["lat"], 99) * 1e3,
            "service.queries_per_s": len(m["lat"]) / m["phase_b"],
            "service.hits": s["store_hits"],
            "service.coalesced": s["coalesced"],
            "service.jobs_scheduled": s["jobs_scheduled"],
            "service.hit_rate": s["hit_rate"],
            "trace.layer_sum_frac": named / m["phase_b"],
        }


WORKLOADS = {cls.name: cls for cls in (QuakeSerial, QuakeAnelastic, QuakeLTS,
                                       QuakeProcpool, FarmCold, QueryReplay)}
