"""MPI/OpenMP hybrid execution model (Section IV.D).

"By analyzing AWP-ODC with performance tools, we were able to reduce the
load imbalance by more than 35% at full machine scale ... by incorporating
an MPI/OpenMP hybrid approach. ...  While the hybrid approach reduces the
load imbalance, it introduced significant idle thread overhead.  When the
processor count approaches the arithmetic limits of the subdomain
decomposition, this overhead may offset the entire performance gain.
Especially for the large-scale runs where communication and synchronization
overhead dominate the simulation time, the pure MPI code still performs
better than the MPI/OpenMP hybrid code."

:class:`HybridRunModel` extends the Eq. 7 model with a threads-per-rank
dimension: fewer MPI ranks (larger subdomains, less halo traffic, 35% less
skew from intra-node sharing) traded against per-thread fork/join idle
overhead that grows as the per-thread slab thins.  The model reproduces the
paper's conclusion: hybrid wins at moderate scale, pure MPI wins at the
extreme scale where AWP-ODC production ran.

Reality check against the measured multicore backend
(the ledger's ``quake_procpool`` workload, see ``benchmarks/ledger``):
the model's qualitative structure holds up.  The procpool backend is the
"one rank per core, shared-memory transport" corner of this trade space,
and its measured per-step overhead splits into exactly the terms modelled
here — a fixed per-step orchestration cost (fork + semaphore round-trips,
the analogue of fork/join idle) plus a surface-proportional copy cost
(pack/unpack, the analogue of halo traffic).  Two measured magnitudes are
worth noting against the model's assumptions: per-step team overhead on
commodity Linux (process semaphores, not OpenMP barriers) is of order
tens of microseconds rather than ``FORK_JOIN_SECONDS``-scale, and the
overlap schedule hides a large fraction of the wait term
(``parallel.overlap_efficiency`` in the ledger), which Eq. 7 models as
the IV.C overlap optimisation flag rather than a continuous efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .machine import Machine
from .perfmodel import AWPRunModel, OptimizationSet

__all__ = ["HybridRunModel", "hybrid_vs_pure_sweep"]

#: Section IV.D: hybrid reduced measured load imbalance by "more than 35%".
HYBRID_SKEW_REDUCTION = 0.35

#: Fork/join synchronisation cost per thread team per loop nest, seconds.
FORK_JOIN_SECONDS = 4e-6

#: Loop nests per time step that spawn a thread team (velocity + stress
#: sweeps over the nine components).
TEAMS_PER_STEP = 9.0


@dataclass
class HybridRunModel:
    """Eq. 7 with ``threads`` OpenMP threads under each MPI rank.

    ``cores`` stays the total core count; the MPI rank count becomes
    ``cores / threads``.  ``threads = 1`` reduces exactly to the pure-MPI
    :class:`AWPRunModel`.
    """

    machine: Machine
    n_points: tuple[int, int, int]
    cores: int
    threads: int = 1
    opts: OptimizationSet = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.threads > self.machine.cores_per_node:
            raise ValueError("threads cannot exceed cores per node")
        if self.cores % self.threads:
            raise ValueError("cores must divide evenly into thread teams")
        if self.opts is None:
            self.opts = OptimizationSet.v7_2()
        self._mpi = AWPRunModel(self.machine, self.n_points,
                                self.cores // self.threads, opts=self.opts)

    @property
    def ranks(self) -> int:
        return self.cores // self.threads

    # ------------------------------------------------------------------
    def comp_seconds(self) -> float:
        """Per-step compute: the rank's subdomain shared by the team."""
        return self._mpi.comp_seconds() / self.threads

    def comm_seconds(self) -> float:
        """Halo cost of the *coarser* rank decomposition (the hybrid win)."""
        return self._mpi.comm_seconds()

    def sync_seconds(self) -> float:
        """Barrier + skew, with the IV.D intra-node skew reduction.

        The barrier spans the (coarser) MPI rank grid; the skew applies to
        the team's wall-clock compute and is cut by the hybrid's intra-node
        memory-request synchronisation ('synchronize at memory requests
        instead of barriers')."""
        m = self.machine
        barrier = m.alpha * np.log2(max(2, self.ranks))
        skew_frac = (self._mpi.imbalance_base
                     * (1.0 + 0.15 * np.log2(max(1.0, self.ranks / 100.0)))
                     * (1.0 if self.opts.cache_blocking else 1.6))
        skew = skew_frac * self.comp_seconds()
        if self.threads > 1:
            skew *= 1.0 - HYBRID_SKEW_REDUCTION
        return barrier + skew

    def idle_thread_seconds(self) -> float:
        """Fork/join and tail-iteration idle time (the hybrid loss).

        Grows when the per-thread slab is thin: near 'the arithmetic limits
        of the subdomain decomposition' every join waits on stragglers."""
        if self.threads == 1:
            return 0.0
        fork = TEAMS_PER_STEP * FORK_JOIN_SECONDS * np.log2(self.threads + 1)
        # tail effect: each team sweep splits nz planes over threads; the
        # remainder planes leave threads idle for part of the sweep
        points_per_rank = (self.n_points[0] * self.n_points[1]
                           * self.n_points[2]) / self.ranks
        planes = max(1.0, points_per_rank ** (1.0 / 3.0))
        tail_fraction = (self.threads - 1) / (2.0 * planes)
        return fork + tail_fraction * self.comp_seconds()

    def time_per_step(self) -> float:
        return (self.comp_seconds() + self.comm_seconds()
                + self.sync_seconds() + self.idle_thread_seconds()
                + self._mpi.output_seconds()
                + self._mpi.reinit_seconds_per_step())

    def parallel_efficiency(self) -> float:
        nx, ny, nz = self.n_points
        serial = (self._mpi.compute_coefficient() * self.machine.tau
                  * float(nx) * ny * nz)
        return serial / (self.time_per_step() * self.cores)


def hybrid_vs_pure_sweep(machine: Machine, n_points: tuple[int, int, int],
                         core_counts: list[int], threads: int | None = None
                         ) -> dict[int, dict[str, float]]:
    """Per-core-count step times for pure MPI vs hybrid (IV.D's comparison).

    ``threads`` defaults to the machine's cores per socket (thread teams
    within a NUMA domain, the natural hybrid configuration).
    """
    if threads is None:
        threads = max(2, machine.cores_per_node // machine.sockets_per_node)
    out: dict[int, dict[str, float]] = {}
    for cores in core_counts:
        pure = HybridRunModel(machine, n_points, cores, threads=1)
        hyb = HybridRunModel(machine, n_points,
                             cores - cores % threads, threads=threads)
        out[cores] = {"pure_mpi": pure.time_per_step(),
                      "hybrid": hyb.time_per_step(),
                      "threads": float(threads)}
    return out
