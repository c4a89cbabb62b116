"""Algorithm-assisted fault tolerance (Sections III.F and VIII).

The paper's roadmap item: "Our fault tolerance framework is different in
the sense that the surviving application processes will not be
automatically aborted if only a small number of application processes fail.
Instead, all non-failing processes will continue to run and the program
environment adapts to the previous failures" (after Chen & Dongarra [11]).

This module implements that behaviour for the distributed AWM solver with
the classic *message-logging + local rollback* recipe:

* every rank checkpoints its full state every ``checkpoint_interval`` steps
  (in memory here; the disk path is :mod:`repro.io.checkpoint`);
* every rank logs the ghost rims it *received* each step since its last
  checkpoint;
* when a rank fails, the survivors keep their state; the failed rank's
  replacement restores the last checkpoint and **replays** its lost steps
  locally, consuming the logged ghost data instead of live exchanges —
  no global rollback, no aborted survivors;
* recovery is exact: the run's final state is bitwise identical to a
  failure-free run (asserted by tests).

Live steps and replay both run :meth:`DistributedWaveSolver.rank_steps` —
the one step sequence of DESIGN.md §3 ("Step schedule") — and differ only
in what "halo" means: exchange-then-log, or apply the logged rim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.fd import NGHOST
from ..core.grid import ALL_FIELDS, WaveField
from ..obs.tracer import get_tracer
from .distributed import DistributedWaveSolver
from .halo import exchange_halos
from .simmpi import run_spmd

__all__ = ["GhostRim", "extract_ghost_rim", "apply_ghost_rim",
           "RankFailure", "ResilientDistributedSolver"]


class RankFailure(RuntimeError):
    """Injected process failure (the fail-stop model of [11])."""


GhostRim = dict  # field name -> list of (slice-tuple, array) pairs


def _rim_slices(shape: tuple[int, int, int]):
    """The six ghost-rim boxes of a padded array (overlaps are fine:
    extraction/application are idempotent copies)."""
    out = []
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, NGHOST)
        hi[axis] = slice(shape[axis] - NGHOST, shape[axis])
        out.append(tuple(lo))
        out.append(tuple(hi))
    return out


def extract_ghost_rim(wf: WaveField) -> GhostRim:
    """Copy the ghost rims of all nine fields."""
    shape = wf.grid.padded_shape
    slices = _rim_slices(shape)
    return {name: [(sl, getattr(wf, name)[sl].copy()) for sl in slices]
            for name in ALL_FIELDS}


def apply_ghost_rim(wf: WaveField, rim: GhostRim) -> None:
    """Write logged ghost rims back into a wavefield (replay path)."""
    for name, entries in rim.items():
        arr = getattr(wf, name)
        for sl, data in entries:
            arr[sl] = data


@dataclass
class _RankLog:
    """Per-rank recovery data since the last checkpoint."""

    checkpoint: dict | None = None
    checkpoint_step: int = 0
    #: per replayed step: (velocity-phase rim, stress-phase rim)
    rims: list[tuple[GhostRim, GhostRim]] = field(default_factory=list)


class ResilientDistributedSolver:
    """A fault-tolerant driver around :class:`DistributedWaveSolver`.

    Parameters
    ----------
    solver:
        The distributed solver to protect (construct and add sources first).
    checkpoint_interval:
        Steps between in-memory checkpoints (bounds replay length).
    failures:
        Injected fail-stop events: ``{step: rank}`` — the rank 'dies' after
        completing that step and is recovered before the next one.
    """

    def __init__(self, solver: DistributedWaveSolver,
                 checkpoint_interval: int = 10,
                 failures: dict[int, int] | None = None):
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.solver = solver
        self.interval = checkpoint_interval
        self.failures = dict(failures or {})
        self.logs = [_RankLog() for _ in range(solver.decomp.nranks)]
        self.step_count = 0
        self.recoveries: list[tuple[int, int, int]] = []  # (step, rank, replayed)
        self._checkpoint_all()

    # ------------------------------------------------------------------
    def _checkpoint_all(self) -> None:
        for rank, sol in enumerate(self.solver.solvers):
            log = self.logs[rank]
            # solver.state() saves the *padded* arrays, so the exchanged
            # ghost rims at checkpoint time are already included
            log.checkpoint = sol.state()
            log.checkpoint_step = self.step_count
            log.rims.clear()

    def _step_once(self) -> None:
        """Advance every rank one step, logging received ghost rims."""
        sol = self.solver

        def program(comm, _nsteps):
            rank = comm.rank
            wf = sol.solvers[rank].wf
            rims = []

            def halo(group):
                yield from exchange_halos(comm, sol.decomp, rank, wf, group,
                                          mode=sol.halo_mode)
                rims.append(extract_ghost_rim(wf))

            yield from sol.rank_steps(rank, 1, halo, comm.tracer)
            self.logs[rank].rims.append(tuple(rims))

        run_spmd(sol.decomp.nranks, program, args=(1,))

    def _replay_rank(self, rank: int) -> int:
        """Restore ``rank`` from its checkpoint and replay lost steps from
        the logged ghost rims; survivors are untouched."""
        log = self.logs[rank]
        if log.checkpoint is None:
            raise RuntimeError("no checkpoint available for recovery")
        s = self.solver.solvers[rank]
        s.load_state(log.checkpoint)
        rims = (rim for step in log.rims for rim in step)

        def halo(_group):
            apply_ghost_rim(s.wf, next(rims))
            return ()

        for _ in self.solver.rank_steps(rank, len(log.rims), halo,
                                        get_tracer()):
            pass
        return len(log.rims)

    def _wipe_rank(self, rank: int) -> None:
        """Simulate the fail-stop loss of a rank's in-memory state."""
        s = self.solver.solvers[rank]
        for name in ALL_FIELDS:
            getattr(s.wf, name).fill(np.nan)
        s.t = np.nan
        s.nstep = -1

    # ------------------------------------------------------------------
    def run(self, nsteps: int) -> None:
        for _ in range(nsteps):
            self._step_once()
            self.step_count += 1
            failed = self.failures.pop(self.step_count, None)
            if failed is not None:
                self._wipe_rank(failed)
                replayed = self._replay_rank(failed)
                self.recoveries.append((self.step_count, failed, replayed))
            if self.step_count % self.interval == 0:
                self._checkpoint_all()

    def gather_field(self, name: str) -> np.ndarray:
        return self.solver.gather_field(name)
