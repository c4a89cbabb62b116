"""The float32 fast path is *native*: no array, scratch buffer, or cached
coefficient anywhere in a solver step carries float64 when the configuration
asks for float32 (and vice versa — the default f64 path must stay clean too).

Backed by :mod:`repro.core.dtypeaudit`, plus tracemalloc checks: an f32 step
in the allocation-free configuration allocates ~nothing (so it cannot hide
f64 temporaries), and in the allocating baseline formulation the f32 peak is
about half the f64 peak — the direct bytes-moved win of single precision.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.fd import interior
from repro.core.grid import Grid3D, WaveField
from repro.core.medium import Medium
from repro.core.pml import PMLConfig
from repro.core.solver import SolverConfig, WaveSolver
from repro.core.source import MomentTensorSource, gaussian_pulse
from repro.parallel.distributed import DistributedWaveSolver

from .baseline_kernels import baseline_stress_update, baseline_velocity_update
from .dtypeaudit import (audit_distributed_solver, audit_solver,
                         iter_solver_arrays)


def _source():
    return MomentTensorSource(
        position=(1200.0, 1000.0, 800.0), moment=np.eye(3) * 1e13,
        stf=lambda t: gaussian_pulse(np.array([t]), f0=3.0)[0])


def _solver(dtype, absorbing="sponge", attenuation=True):
    g = Grid3D(24, 20, 16, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2310.0, rho=2500.0,
                             qs=60.0, qp=120.0)
    kw = dict(dtype=dtype, stability_check_interval=0)
    if attenuation:
        kw["attenuation_band"] = (0.2, 2.0)
    if absorbing == "sponge":
        kw.update(absorbing="sponge", sponge_width=4, free_surface=True)
    else:
        kw.update(absorbing="pml", pml=PMLConfig(width=3),
                  free_surface=False)
    sol = WaveSolver(g, med, SolverConfig(**kw))
    sol.add_source(_source())
    return sol


def _peak_transient(fn) -> int:
    fn()  # warm up lazy caches so only steady-state allocations are seen
    tracemalloc.start()
    base, _ = tracemalloc.get_traced_memory()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - base


class TestAuditClean:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("absorbing", ["sponge", "pml"])
    def test_solver_step_state_is_native(self, dtype, absorbing):
        """After real steps, every persistent array matches the config dtype."""
        sol = _solver(dtype, absorbing)
        sol.run(8)
        assert audit_solver(sol) == []

    def test_audit_covers_every_subsystem(self):
        """The walker must see wavefield, kernel, medium, boundary, and
        attenuation arrays — an audit that skips a subsystem proves nothing."""
        sol = _solver(np.float32, "sponge")
        names = {name.split(".")[0].split("[")[0]
                 for name, _ in iter_solver_arrays(sol)}
        assert {"wf", "kernel", "medium", "sponge", "attenuation"} <= names
        pml_names = {name.split(".")[0]
                     for name, _ in iter_solver_arrays(_solver(np.float32,
                                                               "pml"))}
        assert "pml" in pml_names

    def test_audit_covers_kernel_span_buffers(self):
        """The lazily created span buffers and the pooled PML temporaries
        are walked once a pooled step has made them."""
        sol = _solver(np.float32, "pml")
        sol.run(2)
        names = {name for name, _ in iter_solver_arrays(sol)}
        assert {"kernel.dv[0]", "kernel.dv[1]", "kernel.dv[2]",
                "kernel.rate", "kernel.incr", "kernel.work",
                "pml.tmp[0]"} <= names
        assert audit_solver(sol) == []

    def test_audit_detects_contamination(self):
        """A single f64 array planted in the state must be reported."""
        sol = _solver(np.float32)
        sol.wf.vx = sol.wf.vx.astype(np.float64)
        violations = audit_solver(sol)
        assert ("wf.vx", np.dtype(np.float64)) in violations

    def test_distributed_state_is_native(self):
        g = Grid3D(24, 20, 16, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2310.0, rho=2500.0)
        sol = DistributedWaveSolver(
            g, med, nranks=4,
            config=SolverConfig(absorbing="sponge", sponge_width=4,
                                free_surface=True, dtype=np.float32,
                                stability_check_interval=0))
        sol.add_source(_source())
        sol.run(4)
        assert audit_distributed_solver(sol) == []
        assert sol.gather_field("vx").dtype == np.dtype(np.float32)


class TestNoFloat64Temporaries:
    def test_f32_step_allocates_nothing_big(self):
        """One pooled f32 step's transient stays far below a single float64
        field array — there is no room for a hidden f64 temporary.  (The
        residual constant is NumPy's bounded buffered-iteration scratch,
        ~64 KiB regardless of grid size; see tests/core/test_alloc_free.py.)"""
        g = Grid3D(48, 48, 48, h=100.0)
        med = Medium.homogeneous(g, vp=4000.0, vs=2310.0, rho=2500.0,
                                 qs=60.0, qp=120.0)
        sol = WaveSolver(g, med, SolverConfig(
            absorbing="sponge", sponge_width=4, free_surface=True,
            dtype=np.float32, attenuation_band=(0.2, 2.0),
            stability_check_interval=0))
        sol.add_source(_source())
        field_bytes_f64 = sol.wf.vx.size * 8
        peak = _peak_transient(lambda: sol.step())
        assert peak < 0.25 * field_bytes_f64

    def test_baseline_f32_peak_is_half_of_f64(self):
        """In the allocating baseline formulation the peak transient scales
        with itemsize: float32 sits at ~half the float64 footprint."""
        peaks = {}
        for dtype in (np.float32, np.float64):
            g = Grid3D(24, 24, 24, h=100.0)
            med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0,
                                     dtype=dtype)
            wf = WaveField(g, dtype=np.dtype(dtype))
            rng = np.random.default_rng(11)
            for arr in wf.fields().values():
                interior(arr)[...] = rng.standard_normal(g.shape) * 1e-3

            def step(wf=wf, med=med):
                baseline_velocity_update(wf, med, 1e-3)
                baseline_stress_update(wf, med, 1e-3)

            peaks[np.dtype(dtype).name] = _peak_transient(step)
        ratio = peaks["float32"] / peaks["float64"]
        assert 0.35 < ratio < 0.65, peaks

    def test_wavefield_memory_is_half(self):
        g = Grid3D(24, 20, 16, h=100.0)
        f32 = sum(a.nbytes for a in WaveField(g, dtype=np.dtype(np.float32))
                  .fields().values())
        f64 = sum(a.nbytes for a in WaveField(g).fields().values())
        assert f32 * 2 == f64
