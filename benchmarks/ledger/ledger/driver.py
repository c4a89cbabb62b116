"""Run one workload and reduce it to the metrics BENCHMARK.json declares.

An untraced run yields the end-to-end metrics.  A traced run spends half of
its time budget on untraced reps (the baseline of ``trace.overhead_frac``)
and half on traced reps of the same inputs, adds the host calibration and
the workload's traced-only extras, and yields the per-layer metrics; its
spans are written as JSONL that ``repro trace-report`` reads.
"""

from __future__ import annotations

import json
import warnings

from repro.obs import write_jsonl

from . import host
from .env import ROOT, WORK
from .instrument import Instrument, NullInstrument, rollup
from .util import Ops, median, now, peak_rss_mb, summary
from .workloads import WORKLOADS

#: ``setup_s`` is the median over at least this many set-ups; cheap
#: set-ups are repeated for SETUP_SECONDS so that the median is steady
SETUP_REPEATS = 3
SETUP_SECONDS = 0.5
SETUP_MAX = 200

_PROVIDER_CODE = {"numba": 1, "cbuild": 2}


def declared() -> dict:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def warm_jit() -> dict:
    """Build a throw-away compiled solver so the one-off JIT compile (or the
    cache load) happens before any clock starts; users pay it once per
    machine, not per run."""
    from repro.core import Grid3D, Medium, SolverConfig, WaveSolver
    grid = Grid3D(16, 16, 16, h=100.0)
    solver = WaveSolver(grid, Medium.homogeneous(grid),
                        SolverConfig(kernel_variant="compiled",
                                     absorbing="none"))
    solver.run(2)
    fused = solver.fused
    return {"core.jit_compile_s": fused.compile_seconds,
            "core.jit_cache_hit": int(fused.cache_hit),
            "core.provider": _PROVIDER_CODE[fused.provider]}


def _setup_layers(rollups: list[dict]) -> dict:
    """Per-layer rows of the set-up: medians of the spans ``setup()``
    records, over the repeated set-ups."""
    def sec(name):
        return median([r.get(name, (0.0, 0))[0] for r in rollups])
    return {"mesh.extract_s": sec("mesh.extract"),
            "mesh.medium_build_s": sec("mesh.medium_build"),
            "mesh.contiguous_copy_s": sec("mesh.contiguous_copy"),
            "rupture.source_build_s": sec("rupture.source_build"),
            "farm.expand_s": sec("farm.expand")}


def run_workload(name: str, seed: int = 0, seconds: float = 12.0,
                 trace: bool = False, sizing: str = "full",
                 import_s: float = 0.0) -> dict:
    """Returns the result document; ``result["line"]`` is the contract's
    last-line object.  ``import_s`` is what the caller measured for loading
    numpy and the program; it is paid once per process and counts as
    set-up."""
    # a compiled->pooled or procpool->sim fallback must fail the run, not
    # be timed as something else
    warnings.simplefilter("error", RuntimeWarning)
    wl = WORKLOADS[name](seed, sizing)
    ops = Ops()
    null = NullInstrument()
    inst = Instrument() if trace else null
    values = dict(warm_jit())
    if trace:
        values.update(host.calibrate(tiny=sizing == "tiny"))

    setup_walls, setup_rows, st = [], [], None
    t_setup = now()
    while len(setup_walls) < SETUP_REPEATS or (
            now() - t_setup < SETUP_SECONDS and len(setup_walls) < SETUP_MAX):
        if st is not None:
            wl.teardown(st)
        mark = inst.mark() if trace else 0
        t = now()
        st = wl.setup(inst)
        setup_walls.append(now() - t)
        if trace:
            setup_rows.append(rollup(inst.since(mark)))
    try:
        budget = seconds / 2 if trace else seconds
        plain = wl.measure(st, null, ops, budget)
        detail = {"import_s": import_s, "inputs_s": summary(setup_walls),
                  "rep_wall_s": summary(wl.walls(plain)),
                  "samples": wl.samples(plain)}
        if trace:
            traced = wl.measure(st, inst, ops, budget)
            extras = wl.extras(st, inst, ops, plain)
            values.update(wl.per_layer(st, plain, traced, extras))
            values.update(_setup_layers(setup_rows))
            values["trace.overhead_frac"] = (
                median(wl.walls(traced)) / median(wl.walls(plain)) - 1.0)
            values["trace.spans"] = len(inst.tracer)
            if values.get("core.kernel_GBps_computed") \
                    and not values["host.triad_capped"]:
                values["core.kernel_bw_frac"] = (
                    values["core.kernel_GBps_computed"]
                    / values["host.triad_GBps"])
            path = WORK / f"trace-{name}.jsonl"
            write_jsonl(inst.tracer.spans, path,
                        manifest={"workload": name, "seed": seed,
                                  "sizing": sizing})
            detail["trace_file"] = str(path)
        else:
            values = {"setup_s": import_s + median(setup_walls),
                      **wl.end_to_end(plain), "peak_rss_mb": peak_rss_mb()}
    finally:
        wl.teardown(st)
        inst.unwrap()

    spec = declared()
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json "
                           f"{kind}: {unknown}")
    missing = [] if trace else sorted(set(names) - set(values))
    if missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec[kind]}
    line = {"correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}
    return {"line": line, "workload": name, "seed": seed, "sizing": sizing,
            "seconds": seconds, "trace": bool(trace),
            # a tiny run only exercises code paths: never compare against it
            "baseline_ok": sizing == "full",
            "failures": ops.failures, "detail": detail}
