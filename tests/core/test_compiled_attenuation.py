"""Attenuation on the compiled kernel.

The memory-variable statements are part of the anelastic stress list, so
the fused stress sweep runs them itself — with the free-surface fill and
imaging and the sponge damping folded into the same row visit — and the
step equals the pooled solver at atol=0: all nine padded fields and the
six padded memory variables, in both precisions, serial and threaded.
Each cell's memory variable is touched by exactly one box, so the IV.C
core/shell split stays bitwise too.
"""

import numpy as np
import pytest

from repro.core import compiled
from repro.core.attenuation import CoarseGrainedAttenuation
from repro.core.fd import NGHOST
from repro.core.grid import Grid3D
from repro.core.medium import Medium
from repro.core.schedule import StepPlan
from repro.core.solver import SolverConfig, WaveSolver
from repro.core.source import MomentTensorSource, gaussian_pulse

pytestmark = pytest.mark.skipif(not compiled.compiled_available(),
                                reason="no compiled provider (no C compiler)")

SHAPE = (22, 18, 14)
H = 100.0
BAND = (0.3, 3.0)
NSTEPS = 24


def _medium(grid):
    rng = np.random.default_rng(3)
    vs = rng.uniform(1500.0, 2500.0, grid.shape)
    return Medium.from_velocity_model(grid, 2.0 * vs, vs,
                                      rng.uniform(2200.0, 2800.0, grid.shape))


def _solver(variant, dtype, parallel=False, band=BAND):
    grid = Grid3D(*SHAPE, h=H)
    s = WaveSolver(grid, _medium(grid), SolverConfig(
        absorbing="sponge", sponge_width=4, free_surface=True,
        attenuation_band=band, kernel_variant=variant,
        compiled_parallel=parallel, dtype=dtype,
        stability_check_interval=0))
    # in a sponge-frame row, two planes below the surface: its rows are
    # held, the others folded
    s.add_source(MomentTensorSource(
        position=(1.5 * H, 9.0 * H, (SHAPE[2] - 2.5) * H),
        moment=np.array([[1.0, 0.5, 0.3], [0.5, -0.7, 0.2],
                         [0.3, 0.2, 0.4]]) * 1e13,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=4.0, t0=0.05)[0]))
    return s


def _assert_same(ref, got, label):
    for name, arr in ref.wf.fields().items():
        assert getattr(got.wf, name).tobytes() == arr.tobytes(), \
            f"{label} {name}"
    for comp, zeta in ref.attenuation.zeta.items():
        assert got.attenuation.zeta[comp].tobytes() == zeta.tobytes(), \
            f"{label} zeta {comp}"


def test_compiled_stress_half_equals_pooled():
    for dtype in (np.float64, np.float32):
        ref = _solver("pooled", dtype)
        ref.run(NSTEPS)
        assert all(np.abs(z).max() > 0 for z in ref.attenuation.zeta.values())
        for parallel in (False, True):
            got = _solver("compiled", dtype, parallel)
            assert got.plan == StepPlan("compiled", "compiled", True)
            assert got.fused.kernels.parallel == parallel
            got.run(NSTEPS)
            # only the source's rows are left to the operators' own slots
            assert got.held_rows.any() and not got.held_rows.all()
            _assert_same(ref, got, f"{np.dtype(dtype).name} "
                                   f"parallel={parallel}")


def test_memory_variables_act_in_the_compiled_sweep():
    """Tooth: the compiled anelastic run is not the elastic one."""
    q = _solver("compiled", np.float64)
    el = _solver("compiled", np.float64, band=None)
    q.run(NSTEPS)
    el.run(NSTEPS)
    for name in ("vx", "sxx", "sxz"):
        assert not np.array_equal(q.wf.interior(name), el.wf.interior(name))


def test_core_shell_cover_with_memory_variables():
    """Core ahead, then the shells, in the procpool order: equal to the
    pooled whole-interior run, fields and memory variables."""
    for dtype in (np.float64, np.float32):
        ref = _solver("pooled", dtype)
        got = _solver("compiled", dtype)
        sched = got.schedule
        assert sched.split([(True, True)] * 3)
        ref.run(8)
        for _ in range(8):
            sched.block_a()
            sched.core_ahead("stress")
            sched.block_b()
            sched.block_c(lambda: None)
        _assert_same(ref, got, f"core/shell {np.dtype(dtype).name}")


def test_coefficients_are_bound_for_one_dt():
    """The trapezoidal coefficients are built for the solver's dt: a
    stepper at another dt, a region at another dt and LTS are refused."""
    s = _solver("compiled", np.float64)
    att = CoarseGrainedAttenuation(s.grid, s.medium, *BAND, 2 * s.dt)
    with pytest.raises(ValueError, match="built for dt"):
        compiled.FusedStepper(s.wf, s.medium, s.dt, attenuation=att)
    box = tuple(slice(NGHOST, NGHOST + 2) for _ in range(3))
    with pytest.raises(ValueError, match="built for dt"):
        s.kernel.region(box, dt=2 * s.dt)
    with pytest.raises(ValueError, match="one global dt"):
        SolverConfig(attenuation_band=BAND, absorbing="sponge", lts="auto")
