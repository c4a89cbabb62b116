"""The moment-source table equals the per-source injection, bitwise.

:class:`repro.core.source.SourceTable` injects every moment source of a
solver with one ``np.subtract.at`` per stress component; the reference is
the per-source loop it replaced (``baseline_source``).  Each cell must see
the same subtractions in the same order, so every case is compared at
``atol=0`` in float32 and float64: the table alone over a cloud of
overlapping smeared sources, and whole runs — an ``add_source`` between two
``run()`` calls, a two-group LTS run, a 2x2x1 SimMPI run and a procpool run
— whose sources straddle the group interface and the rank boundaries.  The
tooth: the same table built in reverse source order must differ.
"""

import numpy as np
import pytest

from repro.core import Grid3D, SolverConfig, WaveSolver
from repro.core.fd import NGHOST
from repro.core.grid import WaveField
from repro.core.source import (MomentTensorSource, SourceTable, cosine_stf,
                               gaussian_pulse, triangle_stf)
from repro.parallel import procpool
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver
from repro.scenarios import basin_two_layer

from . import baseline_source

DTYPES = [np.float64, np.float32]
FIELDS = ("vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz")
#: rate groups of the LTS runs: the interface is plane 9
LTS_MAP = ((0, 9, 1), (9, 18, 2))


def _grid():
    return Grid3D(24, 20, 18, h=100.0)


def _tensor(seed):
    m = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3))
    return (m + m.T) * 1e13


def _sources():
    """Four overlapping smeared sources (all six components each) around
    the LTS interface and the rank boundaries: sampled histories of
    different lengths and dts (zero outside their samples, zero at their
    first sample) and a callable one."""
    pulse = triangle_stf(np.arange(0.0, 0.3, 0.011), rise_time=0.2)
    late = np.concatenate([np.zeros(9),
                           cosine_stf(np.arange(0.0, 0.26, 0.007), 0.25)])
    return [
        MomentTensorSource(position=(1200.0, 1000.0, 900.0),
                           moment=_tensor(0), stf=pulse, dt_stf=0.011,
                           spatial_width=150.0),
        MomentTensorSource(position=(1150.0, 950.0, 1000.0),
                           moment=_tensor(1), stf=late, dt_stf=0.007,
                           spatial_width=150.0),
        MomentTensorSource(position=(1250.0, 1050.0, 850.0),
                           moment=_tensor(2),
                           stf=lambda t: gaussian_pulse(np.array([t]),
                                                        f0=6.0)[0],
                           spatial_width=120.0),
        MomentTensorSource(position=(1200.0, 1000.0, 950.0),
                           moment=_tensor(3), stf=pulse[:7], dt_stf=0.02,
                           spatial_width=150.0),
    ]


def _seeded(grid, dtype):
    wf = WaveField(grid, dtype=np.dtype(dtype))
    rng = np.random.default_rng(11)
    for name in FIELDS:
        getattr(wf, name)[...] = rng.standard_normal(grid.padded_shape)
    return wf


def _inject_steps(grid, dtype, sources, inject, nsteps=50, dt=0.006):
    wf = _seeded(grid, dtype)
    for n in range(nsteps):
        inject(wf, n * dt, dt)
    return wf


def _equal(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in FIELDS)


@pytest.mark.parametrize("dtype", DTYPES)
class TestTable:
    @pytest.mark.parametrize("which", [[0, 1, 2, 3], [0, 1, 3], [3]])
    def test_equals_the_per_source_loop(self, dtype, which):
        """With a callable source every step evaluates the rates; with
        sampled ones only, steps where every history reads 0 are
        skipped."""
        g = _grid()
        sources = [_sources()[n] for n in which]
        for src in sources:
            src.bind(g)
        table = SourceTable(sources, g, dtype)
        assert {c[0] for c in table.components} == \
            {"sxx", "syy", "szz", "sxy", "sxz", "syz"}
        rates = np.array([[baseline_source.rate_at(s, n * 0.006)
                           for s in sources] for n in range(50)])
        # every source injects on some step, and every sampled history
        # reads 0 on some step
        assert (rates != 0.0).any(axis=0).all()
        assert (rates[:, [s.dt_stf is not None for s in sources]]
                == 0.0).any(axis=0).all()
        ref = _inject_steps(g, dtype, sources,
                            lambda wf, t, dt: [baseline_source.inject(
                                s, wf, t, dt) for s in sources])
        got = _inject_steps(g, dtype, sources, table.inject)
        assert _equal(got, ref)

    def test_reversed_source_order_differs(self, dtype):
        """Tooth: the overlapping cloud's cells see the subtractions in
        another order, and the bits move."""
        g = _grid()
        sources = _sources()
        for src in sources:
            src.bind(g)
        ref = _inject_steps(g, dtype, sources,
                            lambda wf, t, dt: [baseline_source.inject(
                                s, wf, t, dt) for s in sources])
        got = _inject_steps(g, dtype, sources,
                            SourceTable(sources[::-1], g, dtype).inject)
        assert not _equal(got, ref)

    def test_one_source_inject_is_a_table(self, dtype):
        g = _grid()
        src = _sources()[2]
        src.bind(g)
        ref = _inject_steps(g, dtype, [src], lambda wf, t, dt:
                            baseline_source.inject(src, wf, t, dt))
        assert _equal(_inject_steps(g, dtype, [src], src.inject), ref)

    def test_rates_equal_the_scalar_ones(self, dtype):
        g = _grid()
        sources = _sources()
        for src in sources:
            src.bind(g)
        table = SourceTable(sources, g, dtype)
        for t in np.arange(-0.05, 0.4, 0.0037):
            assert np.array_equal(
                table.rates(t),
                [baseline_source.rate_at(s, t) for s in sources])


# ----------------------------------------------------------------------
# Whole runs: the table against the per-source loop in the step
# ----------------------------------------------------------------------

def _config(dtype, lts="off"):
    return SolverConfig(absorbing="sponge", sponge_width=3,
                        free_surface=True, stability_check_interval=0,
                        dtype=dtype, lts=LTS_MAP if lts == "on" else "off")


def _serial(dtype, monkeypatch, oracle, lts="off", nsteps=10, late=()):
    """A serial run with every source of :func:`_sources` (``late`` ones
    added after the first half of the steps)."""
    g = _grid()
    sol = WaveSolver(g, basin_two_layer(g), _config(dtype, lts))
    with monkeypatch.context() as m:
        if oracle:
            m.setattr(SourceTable, "inject",
                      baseline_source.per_source(sol.moment_sources))
        sources = _sources()
        for n, src in enumerate(sources):
            if n not in late:
                sol.add_source(src)
        sol.run(nsteps // 2)
        for n in late:
            sol.add_source(sources[n])
        sol.run(nsteps - nsteps // 2)
    return sol


def _assert_fields(got, ref):
    for name in FIELDS:
        assert np.array_equal(got(name), ref.wf.interior(name)), name


@pytest.mark.parametrize("dtype", DTYPES)
class TestRuns:
    def test_add_source_between_runs(self, dtype, monkeypatch):
        ref = _serial(dtype, monkeypatch, True, late=(1, 3))
        got = _serial(dtype, monkeypatch, False, late=(1, 3))
        _assert_fields(got.wf.interior, ref)

    def test_lts_cloud_straddling_the_interface(self, dtype, monkeypatch):
        ref = _serial(dtype, monkeypatch, True, lts="on")
        got = _serial(dtype, monkeypatch, False, lts="on")
        _assert_fields(got.wf.interior, ref)
        # each source injects at the cadence of the group holding its
        # first staggered cell, and both groups inject
        tables = got.lts.tables()
        for src in got.moment_sources:
            k = src._cells["sxx"][2] - NGHOST
            want = next(g.index for g in got.lts.groups
                        if g.k_lo <= k < g.k_hi)
            assert [any(s is src for s in t.sources) for t in tables] == \
                [g.index == want for g in got.lts.groups]
        assert all(t.sources for t in tables)

    @pytest.mark.parametrize("backend,dims", [("sim", (2, 2, 1)),
                                              ("procpool", (2, 1, 1))])
    @pytest.mark.parametrize("lts", ["off", "on"])
    def test_distributed(self, dtype, monkeypatch, backend, dims, lts):
        if backend == "procpool" and not procpool.procpool_available():
            pytest.skip("fork/shared_memory unavailable")
        ref = _serial(dtype, monkeypatch, True, lts=lts)
        g = _grid()
        dist = DistributedWaveSolver(g, basin_two_layer(g),
                                     decomp=Decomposition3D(g, *dims),
                                     config=_config(dtype, lts),
                                     backend=backend)
        for src in _sources():
            dist.add_source(src)
        dist.run(10)
        assert dist.backend == backend
        # every rank holds part of the cloud
        assert all(any(t.sources for t in sol.schedule.tables())
                   for sol in dist.solvers)
        _assert_fields(dist.gather_field, ref)
