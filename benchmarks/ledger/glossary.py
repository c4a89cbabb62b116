#!/usr/bin/env python3
"""Render the metric glossary of README.md from BENCHMARK.json.

    python3 benchmarks/ledger/glossary.py            # print the tables
    python3 benchmarks/ledger/glossary.py --write    # refresh README.md
    python3 benchmarks/ledger/glossary.py --check    # exit 1 if stale

Names, units, directions, bounds and each workload's "why" come from
BENCHMARK.json; this file adds only what that format has no room for: one
definition per metric.  ``--check`` also fails when the two disagree on
which metrics exist, so a metric cannot be added without being defined.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
README = HERE / "README.md"
BEGIN, END = "<!-- glossary:begin -->", "<!-- glossary:end -->"

END_TO_END = {
    "setup_s": "process start -> inputs ready for the first rep: the import "
               "of numpy and the program (once per process) plus the median "
               "of at least 3 in-process set-ups (mesh extraction, medium, "
               "source; farm spec expansion; warm-store population and "
               "query stream). Excludes the JIT (`core.jit_compile_s`) and "
               "the host calibration",
    "time_to_solution_s": "median wall of one complete cold operation. "
                          "`quake_*`: solver build -> PGV file written "
                          "(`quake_procpool`: the procpool half of the "
                          "pair); `farm_cold`: `run_farm` on a fresh store; "
                          "`query_replay`: one cold burst, first `submit` -> "
                          "last `fetch` return",
    "mcells_per_s": "10^6 cell updates per second of one solve: cells x fine "
                    "steps / median `run()` wall (`quake_*`; LTS counts "
                    "fine-dt-equivalent updates so its gain shows), or / the "
                    "median job wall as the engine recorded it (`farm_cold`: "
                    "`JobResult.wall_s`; `query_replay`: the cold jobs' "
                    "product meta)",
    "latency_p50_ms": "median latency of the shortest complete request the "
                      "front end answers. `quake_*`: one time step (`run()` "
                      "wall / steps); `farm_cold`: a resume rerun that is "
                      "100 % store hits; `query_replay`: warm `submit()` "
                      "call -> `fetch()` return",
    "peak_rss_mb": "`ru_maxrss` of the harness plus that of its largest "
                   "child (rank, farm worker)",
}

PER_LAYER = {
    "host.cpu_count": "cores the harness may use",
    "host.llc_bytes": "last-level cache size from sysfs",
    "host.triad_array_bytes": "size of each of the three triad arrays "
                              "(>= 4 x LLC unless capped)",
    "host.triad_GBps": "numpy triad bandwidth, 5 arrays' bytes per pass pair",
    "host.triad_capped": "1 when 1/8 of available memory is below 4 x LLC: "
                         "the triad is then no memory ceiling and "
                         "`core.kernel_bw_frac` is left 0 (unresolved)",
    "host.fork_import_s": "fresh `python -c 'import repro.farm, "
                          "repro.service'`",
    "host.npz_write_MBps": "`savez_compressed` of a product-sized bundle",
    "host.npz_read_MBps": "`np.load` + read of the same bundle",
    "host.file_write_MBps": "plain write of a checkpoint-sized blob",
    "mesh.extract_s": "`southern_california_like` + `extract_mesh_serial`",
    "mesh.medium_build_s": "`mesh_to_medium` (`quake_lts`: "
                           "`basin_two_layer`)",
    "mesh.contiguous_copy_s": "C-contiguous rebuild of the medium "
                              "(work-around, see Known defects)",
    "mesh.cells": "cells of one solve",
    "rupture.source_build_s": "slip realisation + `KinematicRupture` + "
                              "`to_finite_fault`",
    "rupture.subfaults": "point sources injected per step",
    "core.source_bind_s": "`add_source` + receivers + `record_surface`",
    "core.solver_build_s": "`WaveSolver(...)`",
    "core.run_s": "`run()` wall per rep (`quake_procpool`: serial twin)",
    "core.kernel_s": "self time of `fused.step_*` / `kernel.update_*`",
    "core.kernel_calls": "kernel calls per rep",
    "core.kernel_share": "`core.kernel_s` / `core.run_s`",
    "core.sponge_s": "self time of `sponge.apply`",
    "core.free_surface_s": "self time of `free_surface.apply_*`",
    "core.source_inject_s": "self time of every source's `inject`",
    "core.record_s": "receivers' `record` + `surface_recorder.maybe_record`",
    "core.pml_s": "self time of `pml.update`",
    "core.lts_substep_s": "self time of `lts.substep` (free surface and "
                          "injection inside it keep their own rows)",
    "core.step_residual_s": "`run()` wall minus the rows above: dispatch, "
                            "stability check, tracing itself",
    "core.step_residual_frac": "`core.step_residual_s` / `core.run_s`",
    "core.flops_per_cell": "`stencil_flops_per_point` of the configuration",
    "core.bytes_per_cell_computed": "35 arrays x itemsize, computed from "
                                    "array sizes (no cache reuse, no "
                                    "write-allocate)",
    "core.kernel_gflops": "flops_per_cell x cell updates / `core.kernel_s`",
    "core.kernel_GBps_computed": "computed bytes / `core.kernel_s`",
    "core.kernel_bw_frac": "`core.kernel_GBps_computed` / `host.triad_GBps`",
    "core.jit_compile_s": "compile time of the fused kernels in this process "
                          "(0 on a cache hit)",
    "core.jit_cache_hit": "1 when the shared library came from the cache",
    "core.provider": "compiled provider: 1 numba, 2 cbuild",
    "core.lts_theoretical_speedup": "`lts.speedup()` of the rate map",
    "core.lts_measured_speedup": "global-dt twin `run()` wall / LTS `run()` "
                                 "wall",
    "core.lts_pgv_misfit": "max |PGV_lts - PGV_global| / max PGV_global",
    "parallel.build_s": "`DistributedWaveSolver(...)` + sources + recorder",
    "parallel.run_overhead_s": "`run()` wall - slowest rank: fork, state "
                               "return, merge",
    "parallel.rank_wall_max_s": "slowest rank's own wall",
    "parallel.compute_s_mean": "rank mean of compute seconds",
    "parallel.pack_s_mean": "rank mean of halo pack seconds",
    "parallel.wait_s_mean": "rank mean of halo wait seconds",
    "parallel.unpack_s_mean": "rank mean of halo unpack seconds",
    "parallel.hidden_s_mean": "rank mean of compute overlapped with halos",
    "parallel.overlap_efficiency": "hidden / (hidden + wait)",
    "parallel.imbalance": "max / mean of the rank walls",
    "parallel.halo_bytes_per_step": "`halo_bytes_per_step` summed over "
                                    "ranks (repeats exactly)",
    "parallel.halo_msgs_per_step": "messages sent per step, all ranks "
                                   "(repeats exactly)",
    "parallel.oversubscribed": "1 when ranks > cores: read counts only",
    "parallel.scaling_efficiency": "serial twin `run()` / (ranks x procpool "
                                   "`run()`), median over pairs",
    "io.checkpoint_write_s": "`CheckpointManager.write_epoch`",
    "io.checkpoint_bytes": "bytes of one epoch on disk",
    "io.checkpoint_MBps": "bytes / seconds (vs `host.file_write_MBps`)",
    "io.checkpoint_frac": "`io.checkpoint_write_s` / rep wall",
    "io.restore_s": "`read_epoch` + `load_state` into a fresh solver",
    "io.output_write_s": "`np.save` of the PGV map",
    "io.output_bytes": "bytes of the PGV file",
    "analysis.pgv_s": "`pgvh_from_frames` + `geometric_mean_pgv`",
    "farm.expand_s": "spec construction + `expand()`",
    "farm.run_job_s": "`run_job` inside in-process `execute_job`",
    "farm.jobs_per_hour": "`FarmReport.jobs_per_hour`, fresh-store runs",
    "farm.job_wall_p50_s": "median job wall as the engine recorded it",
    "farm.job_wall_max_s": "slowest job",
    "farm.worker_utilization": "sum of job walls / (workers x farm wall)",
    "farm.pool_overhead_s": "farm wall - sum of job walls / workers",
    "farm.store_put_ms": "`ProductStore.put` in the in-process path",
    "farm.store_put_bytes": "median product file size",
    "farm.resume_hit_rate": "hit rate of the resume reruns (must be 1)",
    "farm.retries": "retried attempts (must be 0)",
    "farm.store_get_ms": "`ProductStore.get`",
    "farm.store_has_us": "`ProductStore.has`",
    "service.key_resolve_us": "`Query.key()`",
    "service.submit_ms_p50": "`submit()` alone, warm phase",
    "service.submit_growth": "p50 of the last 200 submits / first 200",
    "service.fetch_ms_p50": "`fetch()` alone, store read included",
    "service.extract_us": "`Query.extract`",
    "service.cold_job_s": "median cold job wall from the product meta",
    "service.cold_burst_s": "median cold burst wall",
    "service.latency_p99_ms": "p99 of all warm round trips",
    "service.queries_per_s": "warm queries / warm-phase wall",
    "service.hits": "`ServiceStats.store_hits` (repeats exactly per query "
                    "count)",
    "service.coalesced": "`ServiceStats.coalesced`",
    "service.jobs_scheduled": "`ServiceStats.jobs_scheduled`",
    "service.hit_rate": "`ServiceStats.hit_rate`",
    "trace.overhead_frac": "traced / untraced median rep wall - 1",
    "trace.spans": "spans recorded in the run",
    "trace.layer_sum_frac": "share of the rep wall owned by a named layer "
                            "row (the rest is `core.step_residual_s` and "
                            "harness glue)",
}


def render(spec: dict) -> str:
    out = ["### Workloads", "", "| name | why it exists |", "|---|---|"]
    out += [f"| `{w['name']}` | {w['why']} |" for w in spec["workloads"]]
    out += ["", "### End-to-end metrics (untraced run, `--trace 0`)", "",
            "| name | unit | better | bound | definition |",
            "|---|---|---|---|---|"]
    out += [f"| `{m['name']}` | {m['unit']} | {m['better']} | {m['bound']} "
            f"| {END_TO_END[m['name']]} |" for m in spec["end_to_end"]]
    out += ["", "### Per-layer metrics (traced run, `--trace 1`)", "",
            "Times are medians over traced reps of the span's *self* time. "
            "A 0 means the workload does not exercise that layer.", "",
            "| name | unit | better | definition |", "|---|---|---|---|"]
    out += [f"| `{m['name']}` | {m['unit']} | {m['better']} "
            f"| {PER_LAYER[m['name']]} |" for m in spec["per_layer"]]
    return "\n".join(out)


def problems(spec: dict) -> list[str]:
    found = []
    for kind, defs in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        names = {m["name"] for m in spec[kind]}
        found += [f"{kind} metric {n} has no definition"
                  for n in sorted(names - set(defs))]
        found += [f"definition of {n} names no {kind} metric"
                  for n in sorted(set(defs) - names)]
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = problems(spec)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    block = f"{BEGIN}\n{render(spec)}\n{END}"
    if not (args.write or args.check):
        print(block)
        return 0
    text = README.read_text()
    head, _, rest = text.partition(BEGIN)
    _, _, tail = rest.partition(END)
    fresh = head + block + tail
    if args.check:
        if fresh != text:
            print("README.md glossary is stale: run glossary.py --write",
                  file=sys.stderr)
            return 1
        return 0
    README.write_text(fresh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
