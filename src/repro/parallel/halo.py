"""Halo (ghost-cell) exchange plans over SimMPI (Sections III.A, IV.A).

Three exchange strategies from the paper are implemented:

* :func:`exchange_halos` with ``mode="full"`` — every field sends its 2-cell
  padding to all six neighbours (the pre-7.x behaviour);
* ``mode="reduced"`` — the Section IV.A algorithm-level reduction: each field
  is exchanged only along the axes whose derivative its consumers actually
  take, and with the exact plane counts its consumers read.  For the normal
  stress ``xx`` this is "two plane faces ... to the left neighbor and one
  plane to the right neighbor only in the x direction", a 75% message-volume
  reduction for that component;
* :func:`exchange_halos_sync` — the original synchronous model built from
  rendezvous sends whose latency cascades along the communication path; used
  by the performance studies, not the production solver.

All strategies are *pure copies* (no arithmetic), so the distributed solver
remains bitwise identical to the serial one regardless of strategy.

:func:`face_plan` is the one answer to "which planes of which field cross
which face": every exchange here, the byte accounting and the procpool
rings (:class:`~repro.parallel.procpool.FaceRingPool`) read it.
:class:`HaloExchange` is the persistent form of the asynchronous exchange:
it binds the plan to a wavefield once and packs outgoing slabs into a
pooled, double-buffered set of send buffers, so the steady-state exchange
allocates nothing per step.  The module-level :func:`exchange_halos`
remains as the one-shot convenience wrapper over a transient instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fd import NGHOST
from ..core.grid import ALL_FIELDS, STRESS_FIELDS, VELOCITY_FIELDS, WaveField
from ..obs.tracer import NULL_TRACER
from .decomp import Decomposition3D
from .simmpi import RankContext

__all__ = ["GHOST_NEEDS", "Face", "HaloExchange", "exchange_halos",
           "exchange_halos_sync", "face_plan", "halo_bytes_per_step"]

#: (field, axis) -> (planes needed in the low ghost, planes in the high ghost)
#: derived from the staggered stencil sense of each field's consumers:
#: a forward-differenced field needs (1, 2); a backward-differenced (2, 1).
GHOST_NEEDS: dict[str, dict[int, tuple[int, int]]] = {
    "vx": {0: (2, 1), 1: (1, 2), 2: (1, 2)},
    "vy": {0: (1, 2), 1: (2, 1), 2: (1, 2)},
    "vz": {0: (1, 2), 1: (1, 2), 2: (2, 1)},
    "sxx": {0: (1, 2)},
    "syy": {1: (1, 2)},
    "szz": {2: (1, 2)},
    "sxy": {0: (2, 1), 1: (2, 1)},
    "sxz": {0: (2, 1), 2: (2, 1)},
    "syz": {1: (2, 1), 2: (2, 1)},
}

_FULL_NEEDS: dict[str, dict[int, tuple[int, int]]] = {
    name: {axis: (NGHOST, NGHOST) for axis in range(3)} for name in ALL_FIELDS
}

_GROUPS = {"velocity": VELOCITY_FIELDS, "stress": STRESS_FIELDS,
           "all": ALL_FIELDS}

_AXIS_LO = ("x_lo", "y_lo", "z_lo")
_AXIS_HI = ("x_hi", "y_hi", "z_hi")


def _needs(mode: str) -> dict[str, dict[int, tuple[int, int]]]:
    if mode == "full":
        return _FULL_NEEDS
    if mode == "reduced":
        return GHOST_NEEDS
    raise ValueError(f"unknown halo mode {mode!r} (expected 'full' or 'reduced')")


def _tag(field: str, axis: int, direction: int) -> int:
    """Unique tag per (field, axis, direction) — the paper's IV.A tagging."""
    return (ALL_FIELDS.index(field) * 3 + axis) * 2 + (1 if direction > 0 else 0)


@dataclass(frozen=True)
class Face:
    """One field's planes across one face of a rank's subdomain.

    ``send`` is the slab of this rank's interior that ``peer`` copies into
    its ghost rim; ``ghost`` is the slab of this rank's ghost rim that
    ``peer`` fills.  Both span the full padded extent off ``axis``, so the
    peer's face on the opposite ``side`` has the same shapes crosswise.
    """

    field: str
    axis: int
    side: int                            #: -1 low face, +1 high face
    peer: int
    send: tuple[slice, slice, slice]
    ghost: tuple[slice, slice, slice]

    @property
    def send_tag(self) -> int:
        return _tag(self.field, self.axis, -self.side)

    @property
    def recv_tag(self) -> int:
        return _tag(self.field, self.axis, self.side)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of the ``send`` slab (planes along ``axis``)."""
        return tuple(s.stop - s.start for s in self.send)


def face_plan(decomp: Decomposition3D, rank: int, mode: str,
              group: str = "all") -> list[Face]:
    """Every face ``rank`` exchanges for ``group`` ('velocity', 'stress',
    'all') under ``mode`` ('full' | 'reduced').

    Faces are listed field-major, then by axis, low side first: the
    message order of every exchange.  Across its low face a rank sends the
    first ``n_high`` interior planes (the peer's high ghost) and receives
    ``n_low`` ghost planes; across its high face the converse.
    """
    needs = _needs(mode)
    nb = decomp.neighbors(rank)
    grid = decomp.subdomain(rank).grid
    n, padded = grid.shape, grid.padded_shape

    def slab(axis: int, start: int, count: int) -> tuple:
        return tuple(slice(start, start + count) if a == axis
                     else slice(0, padded[a]) for a in range(3))

    faces = []
    for field in _GROUPS[group]:
        for axis, (n_low, n_high) in needs.get(field, {}).items():
            lo, hi = nb[_AXIS_LO[axis]], nb[_AXIS_HI[axis]]
            if lo is not None:
                faces.append(Face(field, axis, -1, lo,
                                  slab(axis, NGHOST, n_high),
                                  slab(axis, NGHOST - n_low, n_low)))
            if hi is not None:
                faces.append(Face(field, axis, +1, hi,
                                  slab(axis, NGHOST + n[axis] - n_low, n_low),
                                  slab(axis, NGHOST + n[axis], n_high)))
    return faces


def halo_bytes_per_step(decomp: Decomposition3D, rank: int, mode: str,
                        itemsize: int = 8) -> int:
    """Bytes this rank sends per full (velocity + stress) exchange round."""
    return itemsize * sum(int(np.prod(f.shape))
                          for f in face_plan(decomp, rank, mode))


class HaloExchange:
    """Persistent asynchronous halo-exchange plan with pooled pack buffers.

    Binds a (decomposition, rank, wavefield) triple to the
    :func:`face_plan` of each field group once.  Outgoing slabs are packed
    with ``np.copyto`` into preallocated send buffers, so the steady-state
    exchange performs zero array allocations — the packing analogue of the
    kernel scratch pool.  An exchange round is :meth:`post` (pack and send
    eagerly) then :meth:`complete` (receive every ghost slab); a driver may
    compute in between.

    Send buffers are **double-buffered** (two per plan entry, alternating
    per exchange round).  SimMPI's eager ``isend`` stores the payload by
    reference until the matching ``recv`` drains it, so a buffer may only be
    rewritten once its previous message has been consumed.  Completing round
    ``r`` requires every neighbour to have *posted* its round-``r`` sends,
    which in turn requires the neighbour to have *completed* round ``r-1``
    (a rank posts a group's next round only after completing its last) —
    so by the time this rank starts round ``r+1``, messages from round
    ``r-1`` are guaranteed drained, and a two-deep pool is provably
    sufficient.  A single-buffer pool would not be: a neighbour can post
    its round-``r`` sends and be descheduled before draining its inbox.
    """

    def __init__(self, decomp: Decomposition3D, rank: int, wf: WaveField,
                 mode: str = "full"):
        self.decomp = decomp
        self.rank = rank
        self.wf = wf
        self.mode = mode
        #: group -> list of (field, tag, dest, send slab, buffer pair)
        self._sends: dict[str, list] = {}
        #: group -> list of (field, tag, src, ghost slab)
        self._recvs: dict[str, list] = {}
        self._rounds: dict[str, int] = {}
        for group in _GROUPS:
            plan = face_plan(decomp, rank, mode, group)
            self._sends[group] = [
                (f.field, f.send_tag, f.peer, f.send,
                 [np.empty(f.shape, dtype=wf.dtype) for _ in range(2)])
                for f in plan]
            self._recvs[group] = [(f.field, f.recv_tag, f.peer, f.ghost)
                                  for f in plan]
            self._rounds[group] = 0

    def pool_nbytes(self) -> int:
        """Total bytes held by the pooled send buffers (all groups).

        'all' aliases the velocity+stress plan entries but owns distinct
        buffers, so mixing grouped and 'all' exchanges stays safe.
        """
        return sum(b.nbytes for sends in self._sends.values()
                   for (_, _, _, _, pair) in sends for b in pair)

    def post(self, comm: RankContext, group: str = "all") -> tuple:
        """Pack ``group``'s faces and send them eagerly (unique tags allow
        out-of-order arrival, exactly the paper's asynchronous model).

        Returns no SimMPI ops (an eager send never blocks), so a driver
        may ``yield from`` it like :meth:`complete`.
        """
        parity = self._rounds[group] & 1
        self._rounds[group] += 1
        for field, tag, dest, slab, pair in self._sends[group]:
            buf = pair[parity]
            np.copyto(buf, getattr(self.wf, field)[slab])
            comm.isend(dest, tag, buf)
        return ()

    def complete(self, comm: RankContext, group: str = "all"):
        """Receive ``group``'s ghost slabs into the wavefield (generator;
        ``yield from`` it)."""
        tracer = getattr(comm, "tracer", NULL_TRACER)
        with tracer.span(f"halo.exchange.{group}", category="halo",
                         mode=self.mode):
            for field, tag, src, ghost in self._recvs[group]:
                data = yield comm.recv(src, tag)
                getattr(self.wf, field)[ghost] = data

    def exchange(self, comm: RankContext, group: str = "all"):
        """One whole round: :meth:`post` then :meth:`complete`."""
        self.post(comm, group)
        yield from self.complete(comm, group)


def exchange_halos(comm: RankContext, decomp: Decomposition3D, rank: int,
                   wf: WaveField, group: str = "all", mode: str = "full"):
    """Asynchronous tagged halo exchange (generator; ``yield from`` it).

    One-shot convenience wrapper over a transient :class:`HaloExchange`;
    long-lived callers (the distributed solver's step loop) should hold an
    instance instead so pack buffers are pooled across steps.  ``group``
    selects which fields move ('velocity', 'stress', 'all'); ``mode``
    selects 'full' or 'reduced' plane sets.
    """
    yield from HaloExchange(decomp, rank, wf, mode=mode).exchange(comm, group)


def exchange_halos_sync(comm: RankContext, decomp: Decomposition3D, rank: int,
                        wf: WaveField, group: str = "all", mode: str = "full"):
    """Synchronous (rendezvous) halo exchange — the pre-IV.A model.

    Per axis and field, ranks at even positions along the axis send
    (low face, then high) and then receive (low, high); odd positions
    receive (high, low) and then send.  Every transfer is a blocking
    rendezvous, so latency cascades across the processor grid — the
    pathology the asynchronous model removed.
    """
    tracer = getattr(comm, "tracer", NULL_TRACER)
    plan = face_plan(decomp, rank, mode, group)
    coords = decomp.coords(rank)
    with tracer.span(f"halo.exchange.{group}", category="halo", mode=mode,
                     sync=True):
        for axis in range(3):
            even = coords[axis] % 2 == 0
            for field in _GROUPS[group]:
                faces = [f for f in plan if (f.field, f.axis) == (field, axis)]
                if even:
                    for f in faces:
                        yield _ssend(comm, wf, f)
                for f in faces if even else faces[::-1]:
                    data = yield comm.recv(f.peer, f.recv_tag)
                    getattr(wf, f.field)[f.ghost] = data
                if not even:
                    for f in faces:
                        yield _ssend(comm, wf, f)


def _ssend(comm: RankContext, wf: WaveField, face: Face):
    data = getattr(wf, face.field)[face.send].copy()
    return comm.ssend(face.peer, face.send_tag, data)
