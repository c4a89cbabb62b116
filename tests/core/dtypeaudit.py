"""Dtype audit: prove a solver runs natively at its configured precision.

The paper's production AWP-ODC computes in float32 end to end — that is how a
memory-bandwidth-bound stencil code doubles its effective cache and halves
its bytes moved.  A Python/NumPy reproduction can silently lose that win:
one float64 coefficient array (or a NEP-50 "strong" ``np.float64`` scalar)
promotes every downstream temporary back to double precision without any
error.  This module walks every persistent array a solver step touches —
wavefield components, kernel scratch pools, medium base and derived arrays,
PML split parts and cached coefficients, sponge taper, attenuation memory
variables and pooled temporaries, halo pack buffers — and reports any buffer
whose dtype differs from the requested one.

:func:`audit_solver` / :func:`audit_distributed_solver` return a list of
``(name, dtype)`` violations; an empty list is the pass condition asserted by
``tests/core/test_dtype_audit.py``.  Temporaries are covered separately by
that test's tracemalloc checks (an allocation-free f32 step that allocates
nothing cannot be hiding f64 temporaries).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator

import numpy as np

__all__ = ["iter_solver_arrays", "iter_distributed_arrays",
           "audit_solver", "audit_distributed_solver"]

_MEDIUM_ARRAYS = ("lam", "mu", "rho", "qs", "qp", "lam2mu",
                  "mu_xy", "mu_xz", "mu_yz", "bx", "by", "bz")


def iter_solver_arrays(solver) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(name, array)`` for every persistent array of one WaveSolver.

    Covers the wavefield, kernel scratch pool, medium (base and derived),
    and whichever boundary/attenuation modules the configuration enabled.
    Lazy caches (PML coefficients) are forced so a pre-step audit still sees
    everything the step will read; the kernel's span buffers exist only once
    the pooled kernel has run, and are covered from then on.
    """
    for name, arr in solver.wf.fields().items():
        yield f"wf.{name}", arr
    for name, buf in solver.kernel.buffers().items():
        yield f"kernel.{name}", buf
    for name in _MEDIUM_ARRAYS:
        yield f"medium.{name}", getattr(solver.medium, name)
    if solver.sponge is not None:
        yield "sponge._g3", solver.sponge._g3
        for ax, prof in zip("xyz", (solver.sponge.gx, solver.sponge.gy,
                                    solver.sponge.gz)):
            yield f"sponge.g{ax}", prof
    if solver.pml is not None:
        pml = solver.pml
        for (bi, comp), parts in pml.parts.items():
            for axis, part in enumerate(parts):
                yield f"pml.parts[{bi},{comp}][{axis}]", part
        for bi, tmp in enumerate(pml._tmp):
            yield f"pml.tmp[{bi}]", tmp
        for bi in range(len(pml.boxes)):
            for comp in ("vx", "sxx", "sxy"):
                for axis, (decay, gain) in enumerate(
                        pml._coefficients(bi, comp, solver.dt)):
                    yield f"pml.coeff[{bi},{comp},{axis}].decay", decay
                    yield f"pml.coeff[{bi},{comp},{axis}].gain", gain
    if solver.attenuation is not None:
        for name, arr in solver.attenuation.arrays(solver.dt).items():
            yield f"attenuation.{name}", arr


def iter_distributed_arrays(solver) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(name, array)`` for a DistributedWaveSolver: every subdomain
    solver's arrays plus the persistent SimMPI halo pack buffers (forced,
    like the PML coefficients: they are built on a rank's first exchange)."""
    for rank, sub in enumerate(solver.solvers):
        for name, arr in iter_solver_arrays(sub):
            yield f"rank{rank}.{name}", arr
        solver.sim_halo(SimpleNamespace(rank=rank))
    assert len(solver._halo_exchanges) == solver.decomp.nranks
    for rank, hx in sorted(solver._halo_exchanges.items()):
        for group, sends in hx._sends.items():
            for field, tag, _, _, pair in sends:
                for i, buf in enumerate(pair):
                    yield f"rank{rank}.halo.{group}.{field}.t{tag}[{i}]", buf


def _violations(pairs: Iterator[tuple[str, np.ndarray]],
                dtype) -> list[tuple[str, np.dtype]]:
    want = np.dtype(dtype)
    return [(name, arr.dtype) for name, arr in pairs if arr.dtype != want]


def audit_solver(solver, dtype=None) -> list[tuple[str, np.dtype]]:
    """Arrays of ``solver`` whose dtype differs from the requested one.

    ``dtype`` defaults to the solver's configured dtype; an empty list means
    the whole step state is native-precision.
    """
    want = solver.config.dtype if dtype is None else dtype
    return _violations(iter_solver_arrays(solver), want)


def audit_distributed_solver(solver, dtype=None) -> list[tuple[str, np.dtype]]:
    """Distributed analogue of :func:`audit_solver` (includes halo pools)."""
    want = solver.config.dtype if dtype is None else dtype
    return _violations(iter_distributed_arrays(solver), want)
