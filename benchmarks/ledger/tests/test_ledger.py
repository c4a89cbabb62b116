"""Self-tests of the ledger harness, on the ``tiny`` sizing.

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q

They check the harness, not the program: declared names, additive layer
rows, seeded inputs, tracing that changes no result and leaves no wrapper
behind, and no files, shared-memory segments or processes left on the host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]
sys.path.insert(0, str(LEDGER))

from ledger.env import WORK, bootstrap, stop_children  # noqa: E402

bootstrap()

import glossary  # noqa: E402
from ledger.driver import declared, run_workload  # noqa: E402
from ledger.instrument import (Instrument, NullInstrument,  # noqa: E402
                               rollup)
from ledger.util import Ops  # noqa: E402
from ledger.workloads import NAMES, SIZES, WORKLOADS  # noqa: E402

SPEC = declared()


def _listing(path) -> set:
    return set(os.listdir(path)) if os.path.isdir(path) else set()


@pytest.fixture(scope="module", autouse=True)
def _no_helper_outlives_the_tests():
    """The in-process procpool runs start multiprocessing's resource
    tracker in the pytest process; stop it as ``run.py`` does."""
    yield
    stop_children()


@pytest.fixture(scope="module")
def runs():
    """One tiny untraced and one tiny traced run per workload, with the
    host's /dev/shm and the work directory snapshotted around them."""
    before = {"shm": _listing("/dev/shm"),
              "work": {p for p in _listing(WORK)
                       if not p.startswith("trace-")}}
    out = {(name, trace): run_workload(name, seed=0, seconds=0.2,
                                       trace=trace, sizing="tiny")
           for name in NAMES for trace in (False, True)}
    out["before"] = before
    return out


# -- the declaration ---------------------------------------------------
def test_benchmark_json_has_the_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])
    assert len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert set(SIZES["full"]) == set(SIZES["tiny"]) == set(NAMES)


def test_glossary_defines_every_metric_and_readme_is_current():
    assert glossary.problems(SPEC) == []
    assert glossary.main(["--check"]) == 0


@pytest.mark.parametrize("name", NAMES)
def test_output_names_are_the_declared_names(runs, name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = runs[name, trace]["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in SPEC[kind]]
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(v["unit"] == units[k] for k, v in line["metrics"].items())
        assert line["correct"] and line["failed"] == 0, \
            runs[name, trace]["failures"]
        assert line["attempted"] >= 1
    e2e = runs[name, False]["line"]["metrics"]
    assert all(v["value"] > 0 for v in e2e.values())


def test_tiny_runs_are_labelled_and_refused_as_baseline(runs):
    doc = runs["quake_serial", False]
    assert doc["sizing"] == "tiny" and doc["baseline_ok"] is False


# -- additive attribution ----------------------------------------------
def test_rollup_rows_add_up_to_the_root_span():
    inst = Instrument()
    with inst.span("rep"):
        with inst.span("core.run"):
            for _ in range(3):
                with inst.span("core.kernel"):
                    pass
        with inst.span("io.output_write"):
            pass
    spans = inst.since(0)
    rows = rollup(spans)
    root = next(s for s in spans if s.name == "rep")
    assert rows["core.kernel"][1] == 3
    assert sum(s for s, _ in rows.values()) == pytest.approx(root.duration)
    assert all(s >= 0 for s, _ in rows.values())


@pytest.mark.parametrize("name", ["quake_serial", "quake_anelastic",
                                  "quake_lts"])
def test_layer_rows_sum_to_the_wall_within_the_residual(runs, name):
    m = {k: v["value"] for k, v in runs[name, True]["line"]["metrics"].items()}
    rows = sum(m[k] for k in (
        "core.kernel_s", "core.sponge_s", "core.free_surface_s",
        "core.source_inject_s", "core.record_s", "core.pml_s",
        "core.lts_substep_s"))
    assert rows + m["core.step_residual_s"] == pytest.approx(
        m["core.run_s"], rel=0.15)      # medians of separate rows
    assert 0.5 < m["trace.layer_sum_frac"] <= 1.0
    assert m["trace.spans"] > 0 and m["core.kernel_calls"] >= 0


# -- seeded inputs -----------------------------------------------------
def _fingerprint(name: str, seed: int):
    wl = WORKLOADS[name](seed, "tiny")
    st = wl.setup(NullInstrument())
    try:
        if name == "farm_cold":
            return st["keys"]
        if name == "query_replay":
            return ([q.to_dict() for q in st["warm"]], list(st["order"]),
                    st["cold_seed"])
        src = st["source"]
        if hasattr(src, "subfaults"):
            return [(s.position, s.t_start, s.moment.tobytes())
                    for s in src.subfaults]
        return src.position
    finally:
        wl.teardown(st)


@pytest.mark.parametrize("name", ["quake_serial", "quake_lts", "farm_cold",
                                  "query_replay"])
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert _fingerprint(name, 3) == _fingerprint(name, 3)
    assert _fingerprint(name, 3) != _fingerprint(name, 4)


# -- tracing changes nothing and cleans up -----------------------------
@pytest.mark.parametrize("name", ["quake_serial", "quake_anelastic",
                                  "quake_lts", "quake_procpool"])
def test_traced_and_untraced_products_are_bitwise_equal(name):
    wl = WORKLOADS[name](0, "tiny")
    st = wl.setup(NullInstrument())
    inst, ops = Instrument(), Ops()
    plain = wl.rep(st, NullInstrument(), ops)
    traced = wl.rep(st, inst, ops)
    assert plain["pgv"] == traced["pgv"]
    assert ops.failed == 0, ops.failures
    assert inst._shadows == [] and len(inst.tracer) > 0


def test_wrappers_are_instance_level_and_removed():
    wl = WORKLOADS["quake_serial"](0, "tiny")
    st = wl.setup(NullInstrument())
    inst = Instrument()
    solver, _ = wl.build(st, inst)
    assert "apply" in vars(solver.sponge)
    assert "step_velocity" in vars(solver.fused)
    cls_apply = type(solver.sponge).apply
    inst.unwrap()
    assert "apply" not in vars(solver.sponge)
    assert "step_velocity" not in vars(solver.fused)
    assert type(solver.sponge).apply is cls_apply
    assert all("inject" not in vars(s) for s in solver.moment_sources)


def test_nothing_is_left_behind(runs):
    """Temp stores, checkpoints and outputs are deleted; /dev/shm is as it
    was before quake_procpool ran."""
    assert _listing("/dev/shm") == runs["before"]["shm"]
    now = {p for p in _listing(WORK) if not p.startswith("trace-")}
    assert now == runs["before"]["work"]


def test_run_leaves_no_process_behind():
    """``run.py`` in a session of its own: the moment it has exited no
    process of that session exists, not even the multiprocessing resource
    tracker that the procpool backend's shared-memory arena starts and that
    by default outlives its parent."""
    proc = subprocess.Popen(
        [sys.executable, str(LEDGER / "run.py"), "--workload",
         "quake_procpool", "--seed", "0", "--seconds", "0.2", "--trace", "0",
         "--sizing", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    out, err = proc.communicate(timeout=180)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    left = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            # after "(comm) ": state ppid pgrp session
            if int(stat.rpartition(") ")[2].split()[3]) == proc.pid:
                left.append(stat)
    assert left == []


def test_trace_file_is_readable_by_the_program(runs):
    from repro.obs import read_jsonl
    path = runs["quake_serial", True]["detail"]["trace_file"]
    names = {s.name for s in read_jsonl(path)}
    assert {"rep", "core.run", "core.kernel", "io.checkpoint_write"} <= names


# -- the contract's edge: no program, no result ------------------------
def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "quake_serial", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert json.loads((tmp_path / "BENCHMARK.json").read_text()) == SPEC
