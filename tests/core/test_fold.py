"""The stress-side boundary work folded into the compiled stress sweep.

A compiled stress half images the free surface and damps the six stresses
inside each row's visit, right after the row's update; rows a moment
source injects into (every row, under a forcing) are held out and done by
the operators in the schedule's own slots, after injection.  Every case
here must equal the pooled solver — the numpy reference of the unfolded
block-B order — at atol=0: all nine padded fields (ghost planes included)
and any LTS band history, in both precisions, serial and threaded.
"""

import numpy as np
import pytest

from repro.core import compiled
from repro.core.fd import NGHOST
from repro.core.grid import Grid3D
from repro.core.medium import Medium
from repro.core.pml import PMLConfig
from repro.core.solver import SolverConfig, WaveSolver
from repro.core.source import (BodyForceSource, ManufacturedForcing,
                               MomentTensorSource, gaussian_pulse)
from repro.core.stability import cfl_dt
from repro.parallel import procpool
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver

from ..fields import seed_solver_fields

pytestmark = pytest.mark.skipif(not compiled.compiled_available(),
                                reason="no compiled provider (no C compiler)")

SHAPE = (20, 18, 14)
H = 100.0
WIDTH = 4   # sponge frame: x/y rows [0, 4) and [n-4, n), planes [0, 4)
KT = SHAPE[2] - 1    # the surface plane (interior index)


def _medium(grid):
    rng = np.random.default_rng(7)
    vs = rng.uniform(1500.0, 2500.0, grid.shape)
    return Medium.from_velocity_model(grid, 2.0 * vs, vs,
                                      rng.uniform(2200.0, 2800.0, grid.shape))


def _stf(t):
    return gaussian_pulse(np.array([t]), f0=4.0, t0=0.05)[0]


def _moment(x, y, z, width=0.0):
    return MomentTensorSource(position=(x * H, y * H, z * H),
                              moment=np.array([[1.0, 0.5, 0.3],
                                               [0.5, -0.7, 0.2],
                                               [0.3, 0.2, 0.4]]) * 1e13,
                              stf=_stf, spatial_width=width)


def _config(variant, dtype, parallel=False, **kw):
    return SolverConfig(**{"absorbing": "sponge", "sponge_width": WIDTH,
                           "free_surface": True, **kw},
                        stability_check_interval=0, kernel_variant=variant,
                        dtype=dtype, compiled_parallel=parallel)


def _solver(variant, dtype, parallel=False, add=(), seed=True, **kw):
    grid = Grid3D(*SHAPE, h=H)
    s = WaveSolver(grid, _medium(grid), _config(variant, dtype, parallel,
                                                **kw))
    if seed:
        seed_solver_fields(s.wf)
    for item in add:
        (s.add_forcing if isinstance(item, ManufacturedForcing)
         else s.add_source)(item)
    return s


def _assert_same(ref, got, label=""):
    for name, arr in ref.wf.fields().items():
        np.testing.assert_array_equal(getattr(got.wf, name), arr,
                                      err_msg=f"{label} {name}")
    if ref.lts is not None:
        np.testing.assert_array_equal(got.lts.history, ref.lts.history,
                                      err_msg=f"{label} band history")


def _held_rows(s):
    return {tuple(int(v) for v in rc) for rc in np.argwhere(s.held_rows)}


def _rows_of(*sources):
    return {(int(i) - NGHOST, int(j) - NGHOST) for src in sources
            for idx, _ in src._plan.values() for i, j, _ in idx}


def _forcing():
    k = 2 * np.pi / (SHAPE[0] * H)

    def wave(x, y, z, t):
        return 1e3 * np.sin(k * x + 0.5 * k * z) * np.cos(k * y) * np.sin(9 * t)

    return ManufacturedForcing(
        velocity_forcing={"vz": lambda x, y, z, t: 1e-3 * wave(x, y, z, t)},
        stress_forcing={"sxz": wave, "szz": wave, "sxx": wave})


#: name -> (sources/forcings to add, extra SolverConfig fields)
CASES = {
    # in a frame row (x < WIDTH) within two planes of the surface: its
    # injection lands after the update and before imaging reads kt-1, kt-2
    "moment-in-frame-near-surface": (lambda: [_moment(1.5, 9.0, KT - 1.5)],
                                     {}),
    # a 5-cell-radius cloud from x = 1 to x = 11, across the frame edge at
    # x = WIDTH, and up to the surface plane
    "smeared-across-frame-edge": (lambda: [_moment(6.0, 9.0, KT - 5.0,
                                                   width=150.0)], {}),
    # velocities of the surface plane written before the ghost fill reads
    "body-force-in-top-plane": (lambda: [BodyForceSource(
        position=(9.0 * H, 11.0 * H, (KT + 0.5) * H), component="vz",
        stf=lambda t: 1.0, amplitude=1e9)], {}),
    # every row held: imaging before the stress forcing, damping after
    "forcing": (lambda: [_forcing(), _moment(10.0, 9.0, 6.0)], {}),
    # the free surface follows the top group's (rate-2) cadence, and each
    # slab is damped with its own taper**rate
    "lts-top-rate-2": (lambda: [_moment(1.5, 9.0, KT - 1.5)],
                       {"lts": ((0, 6, 1), (6, SHAPE[2], 2))}),
    # each half of the fold on its own
    "free-surface-only": (lambda: [_moment(1.5, 9.0, KT - 1.5)],
                          {"absorbing": "none"}),
    "sponge-only": (lambda: [_moment(1.5, 9.0, KT - 1.5)],
                    {"free_surface": False}),
}


def _case(name):
    make, kw = CASES[name]
    if "lts" in kw:
        g = Grid3D(*SHAPE, h=H)
        kw = {**kw, "dt": 0.5 * cfl_dt(H, float(_medium(g).vp_max))}
    return make, kw


@pytest.mark.parametrize("parallel", [False, True],
                         ids=["serial", "threaded"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", list(CASES))
def test_folded_step_equals_pooled(name, dtype, parallel):
    make, kw = _case(name)
    ref = _solver("pooled", dtype, add=make(), **kw)
    got = _solver("compiled", dtype, parallel, add=make(), **kw)
    assert got.fused.kernels.parallel == parallel
    ref.run(7)
    got.run(7)
    _assert_same(ref, got, name)


def test_held_rows_are_the_injected_ones():
    src = _moment(1.5, 9.0, KT - 1.5)
    s = _solver("compiled", np.float64, add=[src])
    assert not s.held_rows.any()    # set by the schedule, before block B
    s.run(1)
    assert _held_rows(s) == _rows_of(src) and len(_rows_of(src)) <= 4
    # a source added later is picked up at the next step
    late = _moment(10.0, 9.0, 6.0, width=150.0)
    s.add_source(late)
    s.run(1)
    assert _held_rows(s) == _rows_of(src, late)
    assert len(_rows_of(late)) >= 11 * 11
    s.add_forcing(_forcing())
    s.run(1)
    assert s.held_rows.all()


def test_pooled_stress_half_holds_every_row():
    """PML keeps the stress half pooled: the compiled operators then cover
    every row, as before the fold."""
    s = _solver("compiled", np.float64, absorbing="pml",
                pml=PMLConfig(width=3))
    assert s.schedule.plan.stress == "pooled" and s.held_rows.all()
    s.run(2)
    assert s.held_rows.all()


@pytest.mark.parametrize("parallel", [False, True],
                         ids=["serial", "threaded"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_core_shell_cover_with_the_new_top_shell(dtype, parallel):
    """Core ahead of the fill, then the shells, in the procpool order: the
    top stress shell is NGHOST + 1 planes thick, so the core never damps
    the plane ``kt - 2`` that imaging reads."""
    srcs = lambda: [_moment(6.0, 9.0, KT - 5.0, width=150.0)]
    ref = _solver("pooled", dtype, add=srcs())
    got = _solver("compiled", dtype, parallel, add=srcs())
    sched = got.schedule
    assert sched.split([(True, True)] * 3)
    core, shells = sched._ops["stress"]
    top = [sh.__self__.region for sh in shells
           if sh.__self__.region[2].start > NGHOST]
    assert [r[2].stop - r[2].start for r in top] == [NGHOST + 1]
    assert core.__self__.region[2].stop == NGHOST + SHAPE[2] - (NGHOST + 1)
    ref.run(6)
    for _ in range(6):
        sched.block_a()
        sched.core_ahead("stress")
        sched.block_b()
        sched.block_c(lambda: None)
    _assert_same(ref, got, "core/shell")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_procpool_overlap_equals_serial_pooled(dtype):
    """Forked ranks run the stress core while the velocity faces fly, then
    the shells with their folded fill, imaging and damping.  (Serial C
    build only: an OpenMP pool does not survive fork.)"""
    if not procpool.procpool_available():
        pytest.skip("fork/shared_memory unavailable")
    srcs = lambda: [_moment(9.5, 1.5, KT - 1.5),
                    _moment(6.0, 9.0, KT - 5.0, width=150.0),
                    BodyForceSource(position=(9.0 * H, 11.0 * H,
                                              (KT + 0.5) * H),
                                    component="vz", stf=lambda t: 1.0,
                                    amplitude=1e9)]
    ref = _solver("pooled", dtype, add=srcs(), seed=False)
    grid = Grid3D(*SHAPE, h=H)
    dist = DistributedWaveSolver(grid, _medium(grid),
                                 decomp=Decomposition3D(grid, 2, 1, 1),
                                 config=_config("compiled", dtype),
                                 backend="procpool", overlap=True)
    for src in srcs():
        dist.add_source(src)
    ref.run(6)
    dist.run(6)
    assert dist._split == [True, True]
    g = NGHOST
    for name, arr in ref.wf.fields().items():
        np.testing.assert_array_equal(dist.gather_field(name),
                                      ref.wf.interior(name), err_msg=name)
        # the top ghost planes too (imaging writes them from kt-1, kt-2)
        for rank, sol in enumerate(dist.solvers):
            local = getattr(sol.wf, name)[g:-g, g:-g, :]
            x0 = g + dist.decomp.subdomain(rank).origin_index[0]
            np.testing.assert_array_equal(
                local, arr[x0:x0 + local.shape[0], g:-g, :], err_msg=name)
