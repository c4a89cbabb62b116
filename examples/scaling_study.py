#!/usr/bin/env python3
"""Parallel scaling study: the distributed solver + the Eq. 7/8 model.

Part 1 runs the *actual* distributed solver over the virtual SPMD runtime
and verifies bitwise equality against the serial solver for several
processor grids (the repo's strongest correctness property).

Part 2 evaluates the calibrated performance model at petascale: the Fig. 14
strong-scaling curves, the Fig. 12 time breakdown, and the Table 2 version
history.

To profile a run like Part 1's yourself, use the `repro.obs` span tracer
(`Tracer` + `use_tracer`, or `--trace run.jsonl` on any CLI subcommand,
then `repro trace-report run.jsonl`) and the `FlopCounter` PAPI stand-in;
for machine-local throughput use the ledger (`benchmarks/ledger/run.py`,
see benchmarks/ledger/README.md).  See PERFORMANCE.md for the full
profiling guide.

Run:  python examples/scaling_study.py
"""

import numpy as np

from repro.core import (Grid3D, Medium, MomentTensorSource, SolverConfig,
                        WaveSolver)
from repro.core.source import gaussian_pulse
from repro.parallel import (AWPRunModel, Decomposition3D,
                            DistributedWaveSolver, OptimizationSet, VERSIONS,
                            eq8_efficiency, jaguar, machine_by_name)
from repro.parallel.topology import balanced_dims

M8_POINTS = (20250, 10125, 2125)


def part1_distributed_correctness() -> None:
    print("=== Part 1: distributed == serial (bitwise) ===")
    grid = Grid3D(24, 20, 16, h=100.0)
    rng = np.random.default_rng(1)
    vs = rng.uniform(1500, 2500, grid.shape)
    medium = Medium.from_velocity_model(grid, 2 * vs, vs,
                                        np.full(grid.shape, 2500.0))
    cfg = SolverConfig(absorbing="sponge", sponge_width=4)

    def src():
        return MomentTensorSource(
            position=(1200.0, 1000.0, 800.0), moment=np.eye(3) * 1e13,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0])

    serial = WaveSolver(grid, medium, cfg)
    serial.add_source(src())
    serial.run(25)

    for dims in ((2, 2, 2), (4, 1, 2), (1, 5, 2)):
        dist = DistributedWaveSolver(grid, medium,
                                     decomp=Decomposition3D(grid, *dims),
                                     config=cfg, machine=jaguar())
        dist.add_source(src())
        result = dist.run(25)
        equal = all(np.array_equal(serial.wf.interior(n),
                                   dist.gather_field(n))
                    for n in ("vx", "vy", "vz", "sxx", "sxy"))
        print(f"  {dims}: bitwise equal = {equal}, "
              f"virtual time = {result.elapsed * 1e3:.2f} ms, "
              f"halo bytes/rank ~ {result.stats[0].bytes_sent // 25} per step")


def part2_petascale_model() -> None:
    print("\n=== Part 2: Fig. 14 strong scaling (M8 on Jaguar) ===")
    print(f"  {'cores':>8} {'s/step':>8} {'speedup':>8} {'ideal':>7} "
          f"{'eff(Eq.8)':>9} {'Tflop/s':>8}")
    base_cores = 2048
    base = AWPRunModel(jaguar(), M8_POINTS, base_cores)
    for cores in (2048, 8192, 32768, 65610, 131072, 223074):
        mod = AWPRunModel(jaguar(), M8_POINTS, cores)
        speedup = base.time_per_step() / mod.time_per_step() * 1.0
        eff = eq8_efficiency(jaguar(), M8_POINTS, balanced_dims(cores, 3))
        print(f"  {cores:>8} {mod.time_per_step():8.3f} "
              f"{speedup:8.1f} {cores / base_cores:7.1f} {eff:9.3f} "
              f"{mod.sustained_tflops():8.1f}")
    print("  (note the super-linear region at full scale: the per-core "
          "working set drops into cache, as in Fig. 14)")

    print("\n=== Fig. 12: execution-time breakdown, v6.0 vs v7.2 ===")
    for label, opts in (("v6.0", OptimizationSet.v6_0()),
                        ("v7.2", OptimizationSet.v7_2())):
        for cores in (65610, 223074):
            bd = AWPRunModel(jaguar(), M8_POINTS, cores, opts=opts).breakdown()
            f = bd.fractions()
            print(f"  {label} @ {cores:>6}: total {bd.total:6.3f} s/step | "
                  f"comp {f['comp'] * 100:4.1f}% comm {f['comm'] * 100:4.1f}% "
                  f"sync {f['sync'] * 100:4.1f}% io {f['output'] * 100:4.2f}%")

    print("\n=== Table 2: the version history ===")
    print(f"  {'ver':>4} {'year':>5} {'simulation':>14} {'paper Tflop/s':>13} "
          f"{'model Tflop/s':>13}")
    for v in VERSIONS:
        mod = AWPRunModel(machine_by_name(v.machine), v.n_points, v.cores,
                          opts=v.opts)
        print(f"  {v.version:>4} {v.year:>5} {v.simulation:>14} "
              f"{v.sustained_tflops:13.2f} {mod.sustained_tflops():13.2f}")


def main() -> None:
    part1_distributed_correctness()
    part2_petascale_model()


if __name__ == "__main__":
    main()
