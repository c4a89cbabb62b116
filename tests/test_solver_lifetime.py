"""A dropped solver is freed by reference count alone.

The step schedule reaches its solver through a weak proxy and holds no
bound method of itself, so no solver (serial, compiled, LTS, with a fault,
or a distributed one with its rank solvers) sits in a reference cycle
waiting for the cyclic collector: with ``gc`` disabled, a weak reference
to it dies at ``del``.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import (Grid3D, Medium, MomentTensorSource, Receiver,
                        SolverConfig, WaveSolver, compiled)
from repro.core.source import gaussian_pulse
from repro.parallel import procpool
from repro.parallel.distributed import DistributedWaveSolver
from tests.rupture.test_fault_schedule import _solver as fault_solver


def _source():
    return MomentTensorSource(
        position=(1000.0, 900.0, 700.0), moment=np.eye(3) * 1e13,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0],
        spatial_width=150.0)


def _serial(**cfg):
    g = Grid3D(20, 18, 14, h=100.0)
    s = WaveSolver(g, Medium.homogeneous(g), SolverConfig(
        absorbing="sponge", sponge_width=3, free_surface=True, **cfg))
    s.add_source(_source())
    s.add_receiver(Receiver(position=(900.0, 700.0, 600.0)))
    return s


def _distributed(backend):
    g = Grid3D(20, 18, 14, h=100.0)
    d = DistributedWaveSolver(g, Medium.homogeneous(g), nranks=2,
                              backend=backend, config=SolverConfig(
                                  absorbing="sponge", sponge_width=3,
                                  free_surface=True))
    d.add_source(_source())
    d.add_receiver(Receiver(position=(900.0, 700.0, 600.0)))
    d.record_surface()
    return d


CASES = {
    "pooled": lambda: _serial(),
    "compiled": lambda: _serial(kernel_variant="compiled"),
    "lts": lambda: _serial(lts=((0, 7, 2), (7, 14, 1)), dt=0.008),
    "fault": lambda: fault_solver(),
    "sim": lambda: _distributed("sim"),
    "procpool": lambda: _distributed("procpool"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_dropped_solver_dies_at_del(name):
    if name == "compiled" and not compiled.compiled_available():
        pytest.skip("no compiled provider (no C compiler)")
    if name == "procpool" and not procpool.procpool_available():
        pytest.skip("fork/shared_memory unavailable")
    gc.collect()
    gc.disable()
    try:
        solver = CASES[name]()
        solver.run(3)
        refs = [weakref.ref(s) for s in (solver, *getattr(solver, "solvers",
                                                          ()))]
        del solver
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
