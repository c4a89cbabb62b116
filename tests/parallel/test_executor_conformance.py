"""Every driver executes the one step schedule (DESIGN.md §3).

The operators a step goes through are tapped on the live objects — never
the drivers — and each executor's first step must read the canonical
sequence: the same list up to halo markers (not recorded) and core/shell
splitting (core calls dropped, repeats collapsed).  The fields after the
full run must equal the serial (or serial-LTS) pooled run at atol=0.

The compiled executors tap the fused sweeps (``solver.fused.step_*``, the
region steppers, ``solver.lts.plans``): their stress sweep images the free
surface and damps the stresses inside its row visit, so the canonical
block-B order is pinned where those operators are folded too — the free
surface and sponge calls still come after the sweep and the moment
sources, covering what the sweep leaves to them.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Receiver, WaveSolver, compiled
from repro.core.compiled import FusedRegionStepper
from repro.core.kernels import UpdateExecutor
from repro.core.source import BodyForceSource, SourceTable
from repro.parallel import procpool
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver
from repro.parallel.resilience import ResilientDistributedSolver
from repro.verify.matrix import FIELDS, MatrixProblem

CANONICAL = ["velocity", "force", "fs_velocity", "stress", "moment",
             "fs_stress", "sponge", "record"]

#: name -> (DistributedWaveSolver kwargs or None for serial, lts, replay,
#: kernel variant)
EXECUTORS = {
    "serial": (None, "off", False, "pooled"),
    "sim": ({"backend": "sim"}, "off", False, "pooled"),
    "procpool-blocking": ({"backend": "procpool", "overlap": False},
                          "off", False, "pooled"),
    "procpool-overlap": ({"backend": "procpool", "overlap": True},
                         "off", False, "pooled"),
    "serial-lts": (None, "on", False, "pooled"),
    "sim-lts": ({"backend": "sim"}, "on", False, "pooled"),
    "replay": ({"backend": "sim"}, "off", True, "pooled"),
    "compiled-serial": (None, "off", False, "compiled"),
    "compiled-procpool-overlap": ({"backend": "procpool", "overlap": True},
                                  "off", False, "compiled"),
    "compiled-serial-lts": (None, "on", False, "compiled"),
}

PROBLEM = MatrixProblem()


def _top_plane_force():
    # in the top plane: the one place the order of force injection and
    # free-surface ghost filling is observable
    g = PROBLEM.grid()
    return BodyForceSource(position=(900.0, 1100.0, (g.nz - 0.5) * g.h),
                           component="vz", stf=lambda t: 1.0, amplitude=1e9)


def _populate(solver):
    solver.add_source(PROBLEM.source())
    solver.add_source(_top_plane_force())
    solver.add_receiver(Receiver(position=PROBLEM.receiver().position))


def _tap(solver, path):
    """Log the operator names ``solver`` executes to ``path`` (a file, so
    forked procpool workers report back too)."""
    def log(name):
        with open(path, "a") as f:
            f.write(name + "\n")

    def shadow(obj, attr, name):
        fn = getattr(obj, attr)

        def tapped(*args, **kwargs):
            log(name)
            return fn(*args, **kwargs)
        setattr(obj, attr, tapped)

    shadow(solver.kernel, "update_velocity", "velocity")
    shadow(solver.kernel, "update_stress", "stress")
    if solver.fused is not None:
        for half in ("velocity", "stress"):
            step = getattr(solver.fused, "step_" + half)

            def whole(region=None, half=half, step=step):
                if region is None:  # region calls: FusedRegionStepper
                    log(half)
                return step(region)
            setattr(solver.fused, "step_" + half, whole)
    if solver.lts is not None and solver.lts.plans is not None:
        plans = solver.lts.plans
        for (half, phase), sweep in list(plans.items()):
            def plan(half=half, sweep=sweep):
                log(half)
                return sweep()
            plans[half, phase] = plan
    shadow(solver.free_surface, "apply_velocity", "fs_velocity")
    shadow(solver.free_surface, "apply_stress", "fs_stress")
    shadow(solver.sponge, "apply", "sponge")
    shadow(solver.sponge, "apply_slab", "sponge")
    for src in solver.force_sources:
        shadow(src, "inject", "force")
    for rec in solver.receivers:
        shadow(rec, "record", "record")
    return log


def _tap_regions(taps, monkeypatch):
    """Region operators (overlap shells/cores, LTS slabs) and the moment
    source tables are created after the solver: tap them on the class,
    routed by the kernel (or fused stepper) they bind, or the wavefield a
    table injects into."""
    inject = SourceTable.inject

    def moment(self, wf, *args):
        taps[id(wf)][1]("moment")
        return inject(self, wf, *args)
    monkeypatch.setattr(SourceTable, "inject", moment)
    for cls, owner in ((UpdateExecutor, "kernel"),
                       (FusedRegionStepper, "stepper")):
        for half in ("velocity", "stress"):
            orig = getattr(cls, "step_" + half)

            def tapped(self, half=half, orig=orig, owner=owner):
                solver, log = taps[id(getattr(self, owner))]
                core = solver.schedule._ops[half][0]
                is_core = core is not None and core.__self__ is self
                log(half + (".core" if is_core else ""))
                return orig(self)
            monkeypatch.setattr(cls, "step_" + half, tapped)


def _canonical(log):
    """Drop core-region calls, collapse repeats (per-component, per-shell,
    per-slab calls of one operator)."""
    ops = [op for op in log if not op.endswith(".core")]
    return [op for i, op in enumerate(ops) if i == 0 or op != ops[i - 1]]


def _expected(solver):
    have = {"force": solver.force_sources, "moment": solver.moment_sources,
            "record": solver.receivers}
    return [op for op in CANONICAL if have.get(op, True)]


def _reference(lts):
    # the pooled serial run: every executor, compiled included, equals it
    g = PROBLEM.grid()
    ser = WaveSolver(g, PROBLEM.medium(g), PROBLEM.config("float64", lts=lts))
    _populate(ser)
    ser.run(PROBLEM.nsteps)
    return ser


@pytest.fixture(scope="module")
def references():
    return {lts: _reference(lts) for lts in ("off", "on")}


@pytest.mark.parametrize("name", list(EXECUTORS))
def test_executor_runs_the_canonical_sequence(name, references, tmp_path,
                                              monkeypatch):
    dist_kw, lts, replay, variant = EXECUTORS[name]
    if dist_kw and dist_kw["backend"] == "procpool" \
            and not procpool.procpool_available():
        pytest.skip("fork/shared_memory unavailable")
    if variant == "compiled" and not compiled.compiled_available():
        pytest.skip("no compiled provider (no C compiler)")
    g = PROBLEM.grid()
    cfg = replace(PROBLEM.config("float64", lts=lts), kernel_variant=variant)
    if dist_kw is None:
        top = WaveSolver(g, PROBLEM.medium(g), cfg)
        ranks = [top]
    else:
        top = DistributedWaveSolver(g, PROBLEM.medium(g),
                                    decomp=Decomposition3D(g, 2, 1, 1),
                                    config=cfg, **dist_kw)
        ranks = top.solvers
    _populate(top)
    paths = [tmp_path / f"rank{r}.log" for r in range(len(ranks))]
    taps = {}
    for sol, path in zip(ranks, paths):
        assert sol.kernel_variant == variant
        taps[id(sol.kernel)] = taps[id(sol.wf)] = (sol, _tap(sol, path))
        if sol.fused is not None:
            taps[id(sol.fused)] = taps[id(sol.kernel)]
    _tap_regions(taps, monkeypatch)

    if replay:
        top = ResilientDistributedSolver(top, checkpoint_interval=100)
        top.run(1)
        for path in paths:
            path.write_text("")     # keep only what the replay executes
        top._wipe_rank(0)
        assert top._replay_rank(0) == 1
        ranks, paths = ranks[:1], paths[:1]
    else:
        top.run(1)
    logs = [path.read_text().split() for path in paths]
    for sol, log in zip(ranks, logs):
        assert _canonical(log) == _expected(sol), name
    assert any(".core" in " ".join(log) for log in logs) \
        == name.endswith("procpool-overlap")

    top.run(PROBLEM.nsteps - 1)
    ref = references[lts]
    for field in FIELDS:
        got = (top.wf.interior(field) if dist_kw is None
               else top.gather_field(field))
        assert np.array_equal(got, ref.wf.interior(field)), (name, field)
