"""The split-node fault on the one step schedule: the compiled bulk sweep
equals pooled at atol=0 with the fault rows held (and differs without the
hold), a restart mid-rupture is bitwise, and the compositions the fault
cannot run are refused."""

import numpy as np
import pytest

from repro.core import Grid3D, Medium, SolverConfig, WaveSolver, compiled
from repro.core.solver import StateSchemaError
from repro.rupture.friction import SlipWeakeningFriction
from repro.rupture.solver import STATE_ARRAYS, FaultModel, SplitNodeFault
from repro.rupture.stress import InitialStress

needs_cc = pytest.mark.skipif(not compiled.compiled_available(),
                              reason="no compiled provider (no C compiler)")

NS, ND, H = 24, 10, 200.0


def _model():
    """A TPV3-style fault: uniform prestress, overstressed patch."""
    fr = SlipWeakeningFriction.uniform((NS, ND), mu_s=0.677, mu_d=0.525,
                                       dc=0.4, cohesion=0.0)
    xs = (np.arange(NS) + 0.5) * H
    zs = (np.arange(ND) + 0.5) * H
    patch = ((xs[:, None] - 6 * H) ** 2 + (zs[None, :] - 5 * H) ** 2
             <= 900.0 ** 2)
    tau0 = np.where(patch, 0.677 * 120e6 * 1.005, 70e6)
    init = InitialStress(tau0_x=tau0, tau0_z=np.zeros_like(tau0),
                         sigma_n=np.full((NS, ND), 120e6))
    return FaultModel(j0=10, i0=8, i1=8 + NS, n_depth=ND, friction=fr,
                      initial=init)


def _solver(variant="pooled", parallel=False, **cfg):
    grid = Grid3D(NS + 16, 20, ND + 6, h=H)
    med = Medium.homogeneous(grid, vp=6000.0, vs=3464.0, rho=2670.0)
    fault = SplitNodeFault(_model())
    fault.record_slip_rate()
    config = SolverConfig(**{"absorbing": "sponge", "sponge_width": 4,
                             "kernel_variant": variant,
                             "compiled_parallel": parallel, **cfg})
    return WaveSolver(grid, med, config, fault=fault)


def _differing(ref, got, since=0):
    """Names of the wavefield and fault arrays that are not bitwise equal;
    ``got``'s slip-rate history is compared from ``ref``'s step ``since``."""
    bad = [n for n, a in ref.wf.fields().items()
           if not np.array_equal(getattr(got.wf, n), a)]
    bad += [n for n in STATE_ARRAYS
            if not np.array_equal(getattr(got.fault, n), getattr(ref.fault, n))]
    want = ref.fault.slip_rate_history()[since:]
    have = got.fault.slip_rate_history()
    if len(want) != len(have) or not all(
            a[0] == b[0] and np.array_equal(a[1], b[1])
            and np.array_equal(a[2], b[2]) for a, b in zip(want, have)):
        bad.append("slip_rate_history")
    return bad


@pytest.fixture(scope="module")
def pooled():
    s = _solver()
    s.run(120)
    return s


def test_rupture_spreads(pooled):
    assert (np.isfinite(pooled.fault.rupture_time_region()).mean() > 0.5)


@needs_cc
@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "omp"])
def test_compiled_equals_pooled(pooled, parallel):
    s = _solver("compiled", parallel)
    assert s.schedule.plan.stress == "compiled"
    s.run(120)
    assert _differing(pooled, s) == []
    # the fault rows were held out of the folded imaging and damping
    assert s.held_rows[:, s.fault.rows].all()
    assert not s.held_rows[:, :s.fault.rows.start].any()


@needs_cc
def test_unheld_fault_rows_differ(pooled):
    """The tooth: fold the fault rows' imaging and damping into the sweep
    (before the corrections rewrite them) and the run moves."""
    s = _solver("compiled")
    s.fault.rows = slice(0, 0)
    s.run(120)
    assert not s.held_rows.any()
    assert {"sxy", "syz"} <= set(_differing(pooled, s))


def test_restart_mid_rupture_is_bitwise(pooled):
    first = _solver()
    first.run(60)
    assert np.isfinite(first.fault.rupture_time).any()
    st = first.state()
    assert set(st["fault"]) == set(STATE_ARRAYS)
    resumed = _solver()
    resumed.load_state(st)
    resumed.run(60)
    assert resumed.nstep == pooled.nstep and resumed.t == pooled.t
    assert _differing(pooled, resumed, since=60) == []


def test_state_without_fault_refused():
    grid = Grid3D(NS + 16, 20, ND + 6, h=H)
    plain = WaveSolver(grid, Medium.homogeneous(grid),
                       SolverConfig(absorbing="sponge", sponge_width=4))
    with pytest.raises(StateSchemaError, match="lacks fault"):
        _solver().load_state(plain.state())
    with pytest.raises(StateSchemaError, match="has fault"):
        plain.load_state(_solver().state())


@pytest.mark.parametrize("cfg, reason", [
    ({"lts": "auto"}, "global dt"),
    ({"absorbing": "pml"}, "absorbing='sponge' or 'none'"),
    ({"attenuation_band": (0.1, 1.0)}, "attenuation"),
    ({"dtype": np.float32}, "runs in float64"),
], ids=["lts", "pml", "attenuation", "float32"])
def test_refused_compositions(cfg, reason):
    with pytest.raises(ValueError, match=reason):
        _solver(**cfg)
