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
* recovery is exact: the run's final state, receiver series and surface
  frames are bitwise identical to a failure-free run (asserted by tests);
  the replay cuts the rank's recorders back to their checkpoint lengths
  first, so the replayed steps are recorded once.

Live steps and replay both run :meth:`DistributedWaveSolver.rank_steps` —
the one rank loop of DESIGN.md §3 ("Step schedule") — and differ only in
what completing a halo means: the solver's own SimMPI exchange then a
logged rim, or applying the logged rim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from ..core.fd import NGHOST
from ..core.grid import ALL_FIELDS, WaveField
from ..obs.tracer import get_tracer
from .distributed import DistributedWaveSolver
from .simmpi import run_spmd

__all__ = ["GhostRim", "extract_ghost_rim", "apply_ghost_rim",
           "ResilientDistributedSolver"]


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


def _record_lengths(sol) -> tuple:
    """How far a rank's recorders got: the samples of each receiver
    component, and the surface recorder's frames and decimation counter."""
    srec = sol.surface_recorder
    return ([len(data) for rec in sol.receivers for data in rec.data.values()],
            (0, 0) if srec is None else (len(srec.frames), srec._step))


def _truncate_records(sol, lengths: tuple) -> None:
    """Cut a rank's recorders back to :func:`_record_lengths`, so a replay
    records its steps once (a recorder attached since then started at 0)."""
    samples, (nframes, step) = lengths
    for data, n in zip_longest((data for rec in sol.receivers
                                for data in rec.data.values()), samples,
                               fillvalue=0):
        del data[n:]
    if sol.surface_recorder is not None:
        del sol.surface_recorder.frames[nframes:]
        sol.surface_recorder._step = step


@dataclass
class _RankLog:
    """Per-rank recovery data since the last checkpoint."""

    checkpoint: dict | None = None
    checkpoint_step: int = 0
    #: the rank's recorder lengths at the checkpoint (_record_lengths)
    records: tuple = ((), (0, 0))
    #: per replayed step: (velocity-phase rim, stress-phase rim)
    rims: list[tuple[GhostRim, GhostRim]] = field(default_factory=list)


class ResilientDistributedSolver:
    """A fault-tolerant driver around :class:`DistributedWaveSolver`.

    Parameters
    ----------
    solver:
        The distributed solver to protect (sources, forcings, receivers
        and surface recording attached between runs are checkpointed in
        at the next :meth:`run`).
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
        # no replay goes behind a checkpoint: what is recorded is final
        self.solver.merge_records()
        for rank, sol in enumerate(self.solver.solvers):
            log = self.logs[rank]
            # solver.state() saves the *padded* arrays, so the exchanged
            # ghost rims at checkpoint time are already included
            log.checkpoint = sol.state()
            log.checkpoint_step = self.step_count
            log.records = _record_lengths(sol)
            log.rims.clear()
        self._recorders = self._recorder_set()

    def _recorder_set(self) -> tuple:
        """The recorders plus every rank's sources and forcings: what a
        replay must find as its checkpoint found them."""
        return (len(self.solver.receivers), id(self.solver.surface_recorder),
                [(list(map(id, s.moment_sources)),
                  list(map(id, s.force_sources)), list(map(id, s.forcings)))
                 for s in self.solver.solvers])

    def _step_once(self) -> None:
        """Advance every rank one step, logging received ghost rims."""
        sol = self.solver

        def program(comm, _nsteps):
            rank = comm.rank
            wf = sol.solvers[rank].wf
            halo = sol.sim_halo(comm)
            rims = []

            def logged(phase, group):
                yield from halo(phase, group)
                if phase == "complete":
                    rims.append(extract_ghost_rim(wf))

            yield from sol.rank_steps(rank, 1, logged,
                                      sol.traced(comm.tracer))
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
        _truncate_records(s, log.records)
        rims = (rim for step in log.rims for rim in step)

        def halo(phase, _group):
            if phase == "complete":
                apply_ghost_rim(s.wf, next(rims))
            return ()

        for _ in self.solver.rank_steps(rank, len(log.rims), halo,
                                        self.solver.traced(get_tracer())):
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
        if self._recorder_set() != self._recorders:
            # a replay must not record steps a new recorder never saw, nor
            # inject a source into steps from before it was added
            self._checkpoint_all()
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
        # steps since the last checkpoint may still be replayed: merge a
        # copy and keep the rank-local records
        self.solver.merge_records(keep=True)

    def gather_field(self, name: str) -> np.ndarray:
        return self.solver.gather_field(name)
