"""Procpool results come back through per-rank result arenas.

Each forked rank writes the out-of-band buffers of its result (state arrays,
surface frames) into an anonymous shared mapping made before the fork; only
a small pickle stream crosses the queue.  These tests pin what that path
must keep: every state kind merges back bit for bit, the arena size changes
speed and never the result, a worker that dies or posts an unpicklable
result fails the run promptly, and no arena, segment or child outlives it.
"""

import multiprocessing as mp
import os
import re
import signal
import time

import numpy as np
import pytest

from repro.core import SolverConfig
from repro.parallel import distributed, procpool
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver

from .test_procpool import (FIELDS, NSTEPS, PML_CFG, SPONGE_CFG, _grid,
                            _medium, _source, needs_fork)

pytestmark = needs_fork


def _shm():
    if not os.path.isdir("/dev/shm"):
        return set()
    return set(os.listdir("/dev/shm"))


@pytest.fixture
def arenas(monkeypatch):
    """Every result arena a run maps, to check that all were closed."""
    made = []
    real = procpool._new_arena

    def spy(nbytes):
        arena = real(nbytes)
        if arena is not None:
            made.append(arena)
        return arena

    monkeypatch.setattr(procpool, "_new_arena", spy)
    return made


def _solver(cfg_kw, **kw):
    g = _grid()
    d = DistributedWaveSolver(g, _medium(g),
                              decomp=Decomposition3D(g, 2, 1, 1),
                              config=SolverConfig(**cfg_kw),
                              backend="procpool", **kw)
    d.add_source(_source())
    rec = d.record_surface(dec_time=2)
    return d, rec


def _leaves(tree):
    """The arrays of a state dict, in a fixed order."""
    if isinstance(tree, dict):
        return [a for k in sorted(tree) for a in _leaves(tree[k])]
    if isinstance(tree, (list, tuple)):
        return [a for v in tree for a in _leaves(v)]
    return [tree] if isinstance(tree, np.ndarray) else []


def _assert_same_run(a, rec_a, b, rec_b):
    for rank, (sa, sb) in enumerate(zip(a.solvers, b.solvers)):
        la, lb = _leaves(sa.state()), _leaves(sb.state())
        assert len(la) == len(lb)
        for x, y in zip(la, lb):
            assert np.array_equal(x, y), f"rank {rank}"
    assert len(rec_a.frames) == len(rec_b.frames) > 0
    for (ta, *pa), (tb, *pb) in zip(rec_a.frames, rec_b.frames):
        assert ta == tb
        for x, y in zip(pa, pb):
            assert np.array_equal(x, y)


class TestEveryStateKindSurvives:
    """PML parts and memory variables (ζ) merge back exactly."""

    def test_two_runs_equal_one_long_run(self, arenas):
        one, rec_one = _solver(PML_CFG)
        one.run(NSTEPS)
        two, rec_two = _solver(PML_CFG)
        two.run(NSTEPS // 2)
        two.run(NSTEPS - NSTEPS // 2)
        sol = one.solvers[0]
        assert sol.pml is not None and sol.attenuation is not None
        _assert_same_run(two, rec_two, one, rec_one)
        assert len(arenas) == 3 * 2 and all(a.closed for a in arenas)

    def test_in_band_results_are_bitwise_equal(self, arenas, monkeypatch):
        """With no arena room every buffer travels in the pickle stream."""
        via_arena, rec_arena = _solver(PML_CFG)
        via_arena.run(NSTEPS)
        assert len(arenas) == 2
        monkeypatch.setattr(distributed, "_result_nbytes",
                            lambda sol, nsteps: 0)
        in_band, rec_band = _solver(PML_CFG)
        in_band.run(NSTEPS)
        assert len(arenas) == 2         # no arena mapped for this run
        _assert_same_run(in_band, rec_band, via_arena, rec_arena)

    def test_nothing_kept_aliases_an_arena(self, arenas):
        d, rec = _solver(SPONGE_CFG)
        d.run(NSTEPS)
        assert arenas and all(a.closed for a in arenas)
        # closed mappings are gone: reading what the parent kept must work
        for name in FIELDS:
            assert np.isfinite(d.gather_field(name)).all()
        assert all(np.isfinite(p).all() for _, *ps in rec.frames
                   for p in ps)


class TestWorkerFailures:
    def test_unpicklable_payload_fails_fast(self):
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="(?i)pickl"):
            procpool.run_workers(1, lambda rank: (lambda: 0), timeout=5.0)
        assert time.monotonic() - t0 < 5.0

    def test_clean_exit_without_a_result_is_a_failure(self):
        def vanish(rank):
            os._exit(0)

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="exited without a result"):
            procpool.run_workers(2, vanish, timeout=30.0)
        assert time.monotonic() - t0 < 10.0

    def test_sigkilled_rank_fails_the_run(self, arenas, monkeypatch):
        """Rank 1 SIGKILLs itself mid-run: the run fails loudly and soon,
        leaving no child, no /dev/shm segment and no mapped arena."""
        shm_before = _shm()
        d, _ = _solver(SPONGE_CFG, stall_timeout=2.0)
        sched = d.solvers[1].schedule
        step = sched.block_a
        parent = os.getpid()
        calls = []

        def block_a(*args):
            calls.append(None)
            if len(calls) == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return step(*args)

        monkeypatch.setattr(sched, "block_a", block_a)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError) as info:
            d.run(NSTEPS)
        assert time.monotonic() - t0 < 15.0
        assert re.search("exit code -9|HaloStallError", str(info.value))
        assert mp.active_children() == []
        assert _shm() == shm_before
        assert len(arenas) == 2 and all(a.closed for a in arenas)
