"""Every driver executes the one step schedule (DESIGN.md §3).

The operators a step goes through are tapped on the live objects — never
the drivers — and each executor's first step must read the canonical
sequence: the same list up to halo markers (not recorded) and core/shell
splitting (core calls dropped, repeats collapsed).  The fields after the
full run must equal the serial (or serial-LTS) run at atol=0.
"""

import numpy as np
import pytest

from repro.core import Receiver, WaveSolver
from repro.core.kernels import RegionUpdater
from repro.core.source import BodyForceSource
from repro.parallel import procpool
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver
from repro.parallel.resilience import ResilientDistributedSolver
from repro.verify.matrix import FIELDS, MatrixProblem

CANONICAL = ["velocity", "force", "fs_velocity", "stress", "moment",
             "fs_stress", "sponge", "record"]

#: name -> (DistributedWaveSolver kwargs or None for serial, lts, replay)
EXECUTORS = {
    "serial": (None, "off", False),
    "sim": ({"backend": "sim"}, "off", False),
    "procpool-blocking": ({"backend": "procpool", "overlap": False},
                          "off", False),
    "procpool-overlap": ({"backend": "procpool", "overlap": True},
                         "off", False),
    "serial-lts": (None, "on", False),
    "sim-lts": ({"backend": "sim"}, "on", False),
    "replay": ({"backend": "sim"}, "off", True),
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
    shadow(solver.free_surface, "apply_velocity", "fs_velocity")
    shadow(solver.free_surface, "apply_stress", "fs_stress")
    shadow(solver.sponge, "apply", "sponge")
    shadow(solver.sponge, "apply_slab", "sponge")
    for src in solver.force_sources:
        shadow(src, "inject", "force")
    for src in solver.moment_sources:
        shadow(src, "inject", "moment")
    for rec in solver.receivers:
        shadow(rec, "record", "record")
    return log


def _tap_regions(taps, monkeypatch):
    """Region operators (overlap shells/cores, LTS slabs) are created after
    the solver: tap them on the class, routed by the kernel they bind."""
    for half in ("velocity", "stress"):
        orig = getattr(RegionUpdater, "step_" + half)

        def tapped(self, half=half, orig=orig):
            solver, log = taps[id(self.kernel)]
            core = solver.schedule._ops[half][0]
            is_core = core is not None and core.__self__ is self
            log(half + (".core" if is_core else ""))
            return orig(self)
        monkeypatch.setattr(RegionUpdater, "step_" + half, tapped)


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
    dist_kw, lts, replay = EXECUTORS[name]
    if dist_kw and dist_kw["backend"] == "procpool" \
            and not procpool.procpool_available():
        pytest.skip("fork/shared_memory unavailable")
    g = PROBLEM.grid()
    cfg = PROBLEM.config("float64", lts=lts)
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
    taps = {id(sol.kernel): (sol, _tap(sol, path))
            for sol, path in zip(ranks, paths)}
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
        == (name == "procpool-overlap")

    top.run(PROBLEM.nsteps - 1)
    ref = references[lts]
    for field in FIELDS:
        got = (top.wf.interior(field) if dist_kw is None
               else top.gather_field(field))
        assert np.array_equal(got, ref.wf.interior(field)), (name, field)
