"""Process-parallel SPMD backend with shared-memory halo rings (IV.C).

SimMPI (:mod:`repro.parallel.simmpi`) runs every rank cooperatively on one
core inside a generator scheduler — ideal for modelling *which messages block
on what*, useless for actually using the hardware.  This module is the real
execution backend: rank programs run as forked OS processes, and halo faces
move through preallocated ``multiprocessing.shared_memory`` rings instead of
pickled queues, so the steady-state exchange is two ``memcpy``-equivalent
``np.copyto`` calls and two semaphore operations per face.

:class:`FaceRingPool` + :func:`run_workers` are what ``DistributedWaveSolver``
runs on: a single shared-memory arena holding one double-buffered ring per
directed neighbour channel per field group, synchronised by semaphore pairs
(classic bounded buffer: ``free`` starts at the ring depth, ``ready`` at
zero).  Depth 2 is sufficient by the same argument as
:class:`~repro.parallel.halo.HaloExchange`'s double-buffered pack pool:
completing round ``r`` requires every neighbour to have posted its
round-``r`` faces, which requires it to have consumed round ``r-1`` — so a
sender can never be two full rounds ahead of a consumer.

Workers are **forked**, not spawned: rank programs close over solver state
(source time functions are arbitrary callables) that cannot be pickled, and
fork inherits the parent's heap copy-on-write for free.  Results come back
through a queue; the parent merges them into its own solver state so
``gather_field``/``state()`` keep working after a run.

Lifecycle/cleanup contract: the parent creates the arena, forks, collects,
then ``close(unlink=True)``-s in a ``finally`` — no segment outlives the
run even on error paths (workers are terminated and the segment unlinked).
:exc:`ProcPoolUnavailable` signals environments without fork or POSIX shared
memory; callers degrade to the SimMPI backend.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as _queue
import time
import traceback
from typing import Any, Callable

import numpy as np

from ..core.fd import NGHOST
from .decomp import Decomposition3D
from .halo import _GROUPS, _needs

__all__ = [
    "ProcPoolUnavailable",
    "HaloStallError",
    "FaceRingPool",
    "RingEndpoint",
    "ensure_available",
    "procpool_available",
    "run_workers",
]

#: ring depth per directed channel (see module docstring for sufficiency)
RING_DEPTH = 2

#: face iteration order defining the channel layout; must be identical on
#: both ends, so it is fixed here rather than derived from a dict.
_FACE_ORDER: tuple[tuple[int, int], ...] = (
    (0, -1), (0, +1), (1, -1), (1, +1), (2, -1), (2, +1))


class ProcPoolUnavailable(RuntimeError):
    """The process-pool backend cannot run in this environment."""


class HaloStallError(RuntimeError):
    """A halo ring semaphore wait exceeded the configured stall timeout.

    Raised inside the stalled worker; :func:`run_workers` propagates it to
    the parent as a worker failure, so a deadlocked (or wildly imbalanced)
    exchange aborts the run with a pointer at the stuck channel instead of
    hanging until the global run timeout.
    """


def ensure_available() -> None:
    """Raise :exc:`ProcPoolUnavailable` unless fork + POSIX shm both work."""
    if "fork" not in mp.get_all_start_methods():
        raise ProcPoolUnavailable("fork start method not available")
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError as exc:
        raise ProcPoolUnavailable(
            f"multiprocessing.shared_memory unavailable: {exc}") from exc


def procpool_available() -> bool:
    """True when the procpool backend can run here."""
    try:
        ensure_available()
    except ProcPoolUnavailable:
        return False
    return True


def _slab3(axis: int, start: int, count: int) -> tuple[slice, ...]:
    sl: list[slice] = [slice(None)] * 3
    sl[axis] = slice(start, start + count)
    return tuple(sl)


class _Channel:
    """One directed (src -> dst, group) face stream through the arena."""

    __slots__ = ("src", "dst", "group", "entries", "block_nbytes", "offset",
                 "sem_free", "sem_ready", "slot_views", "seq")

    def __init__(self, src: int, dst: int, group: str, entries: list):
        self.src = src
        self.dst = dst
        self.group = group
        #: list of (field, send_slab, recv_slab, entry_offset, shape)
        self.entries = entries
        self.block_nbytes = 0
        self.offset = 0
        self.sem_free = None
        self.sem_ready = None
        #: slot -> list of per-entry ndarray views into the arena
        self.slot_views: list[list[np.ndarray]] = []
        self.seq = 0


class FaceRingPool:
    """Shared-memory halo rings for one decomposition (all ranks, all faces).

    The plan (which planes of which fields cross which face) is the exact
    plan :class:`~repro.parallel.halo.HaloExchange` builds — same
    ``GHOST_NEEDS`` plane counts, same send/ghost slab geometry — laid out
    in a single ``SharedMemory`` arena.  Built in the parent *before*
    forking so every worker inherits the mapping and the semaphores.
    """

    def __init__(self, decomp: Decomposition3D, mode: str = "reduced",
                 dtype=np.float64, stall_timeout: float | None = None):
        ensure_available()
        from multiprocessing import shared_memory
        self.decomp = decomp
        self.mode = mode
        self.dtype = np.dtype(dtype)
        #: seconds a ring semaphore wait may block before HaloStallError
        #: (None = wait forever, the pre-watchdog behaviour)
        self.stall_timeout = stall_timeout
        needs = _needs(mode)
        ctx = mp.get_context("fork")
        self._channels: list[_Channel] = []
        #: (rank, group) -> ordered channel lists
        self._send: dict[tuple[int, str], list[_Channel]] = {}
        self._recv: dict[tuple[int, str], list[_Channel]] = {}
        grids = [decomp.subdomain(r).grid for r in range(decomp.nranks)]
        offset = 0
        itemsize = self.dtype.itemsize
        for src in range(decomp.nranks):
            nb = decomp.neighbors(src)
            n_int_src = grids[src].shape
            padded_src = grids[src].padded_shape
            for axis, dirn in _FACE_ORDER:
                face = (("x_lo", "y_lo", "z_lo") if dirn < 0
                        else ("x_hi", "y_hi", "z_hi"))[axis]
                dst = nb[face]
                if dst is None:
                    continue
                n_int_dst = grids[dst].shape
                for group in ("velocity", "stress"):
                    entries = []
                    block = 0
                    for field in _GROUPS[group]:
                        axes = needs.get(field, {})
                        if axis not in axes:
                            continue
                        n_low, n_high = axes[axis]
                        if dirn < 0:
                            # dst is my low neighbour: its high ghost wants
                            # my first n_high interior planes
                            count = n_high
                            send = _slab3(axis, NGHOST, count)
                            recv = _slab3(axis, NGHOST + n_int_dst[axis],
                                          count)
                        else:
                            count = n_low
                            send = _slab3(
                                axis, NGHOST + n_int_src[axis] - count, count)
                            recv = _slab3(axis, NGHOST - count, count)
                        shape = tuple(count if a == axis else padded_src[a]
                                      for a in range(3))
                        entries.append((field, send, recv, block, shape))
                        block += int(np.prod(shape)) * itemsize
                    if not entries:
                        continue
                    ch = _Channel(src, dst, group, entries)
                    ch.block_nbytes = block
                    ch.offset = offset
                    ch.sem_free = ctx.Semaphore(RING_DEPTH)
                    ch.sem_ready = ctx.Semaphore(0)
                    offset += RING_DEPTH * block
                    self._channels.append(ch)
                    self._send.setdefault((src, group), []).append(ch)
                    self._recv.setdefault((dst, group), []).append(ch)
        self.arena_nbytes = max(offset, 1)
        try:
            self._shm = shared_memory.SharedMemory(create=True,
                                                   size=self.arena_nbytes)
        except OSError as exc:
            raise ProcPoolUnavailable(
                f"shared-memory arena creation failed: {exc}") from exc
        for ch in self._channels:
            for slot in range(RING_DEPTH):
                base = ch.offset + slot * ch.block_nbytes
                views = [np.ndarray(shape, dtype=self.dtype,
                                    buffer=self._shm.buf,
                                    offset=base + eoff)
                         for (_, _, _, eoff, shape) in ch.entries]
                ch.slot_views.append(views)

    @property
    def name(self) -> str:
        """The shared-memory segment name (for leak diagnostics)."""
        return self._shm.name

    def endpoint(self, rank: int) -> "RingEndpoint":
        return RingEndpoint(self, rank)

    def messages_per_round(self, rank: int, group: str) -> tuple[int, int]:
        """(messages, bytes) rank sends per exchange round of ``group``."""
        msgs = nbytes = 0
        for ch in self._send.get((rank, group), []):
            msgs += len(ch.entries)
            nbytes += ch.block_nbytes
        return msgs, nbytes

    def close(self, unlink: bool = True) -> None:
        """Release the arena (parent side).  Views are dropped first so the
        underlying ``memoryview`` has no exports when the segment closes."""
        for ch in self._channels:
            ch.slot_views = []
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class RingEndpoint:
    """One rank's handle on the ring pool: pack/post and wait/unpack.

    Timing is returned, not recorded: callers feed the numbers into their
    own span/histogram sinks (workers cannot touch the parent's registry).
    """

    def __init__(self, pool: FaceRingPool, rank: int):
        self.pool = pool
        self.rank = rank
        self._send = {g: list(pool._send.get((rank, g), []))
                      for g in ("velocity", "stress")}
        self._recv = {g: list(pool._recv.get((rank, g), []))
                      for g in ("velocity", "stress")}

    def _acquire(self, sem, ch: _Channel, which: str) -> None:
        """Semaphore wait bounded by the pool's stall timeout."""
        timeout = self.pool.stall_timeout
        if timeout is None:
            sem.acquire()
            return
        if not sem.acquire(timeout=timeout):
            raise HaloStallError(
                f"rank {self.rank} stalled > {timeout:.3g} s waiting for "
                f"'{which}' on channel {ch.src}->{ch.dst} "
                f"({ch.group}, round {ch.seq})")

    def post(self, group: str, wf) -> tuple[float, float]:
        """Pack this rank's ``group`` faces and publish them.

        Returns ``(pack_seconds, backpressure_wait_seconds)``.  The
        backpressure wait (acquiring a free ring slot) is ~zero in steady
        state by the depth-2 argument; nonzero values mean a neighbour is
        running behind.
        """
        pack = wait = 0.0
        for ch in self._send[group]:
            t0 = time.perf_counter()
            self._acquire(ch.sem_free, ch, "free slot")
            t1 = time.perf_counter()
            wait += t1 - t0
            views = ch.slot_views[ch.seq % RING_DEPTH]
            for (field, send, _, _, _), view in zip(ch.entries, views):
                np.copyto(view, getattr(wf, field)[send])
            ch.sem_ready.release()
            ch.seq += 1
            pack += time.perf_counter() - t1
        return pack, wait

    def complete(self, group: str, wf) -> tuple[float, float]:
        """Receive this rank's ``group`` faces into the ghost rims.

        Returns ``(wait_seconds, unpack_seconds)``; wait is the time blocked
        on neighbours' ``ready`` semaphores — the quantity overlap hides.
        """
        wait = unpack = 0.0
        for ch in self._recv[group]:
            t0 = time.perf_counter()
            self._acquire(ch.sem_ready, ch, "neighbour faces")
            t1 = time.perf_counter()
            wait += t1 - t0
            views = ch.slot_views[ch.seq % RING_DEPTH]
            for (field, _, recv, _, _), view in zip(ch.entries, views):
                getattr(wf, field)[recv] = view
            ch.sem_free.release()
            ch.seq += 1
            unpack += time.perf_counter() - t1
        return wait, unpack


# ---------------------------------------------------------------------------
# Worker pool driver
# ---------------------------------------------------------------------------

def _start_process(p) -> None:
    """Indirection for worker start (monkeypatch point in degradation tests)."""
    p.start()


def _worker_shim(target: Callable[[int], Any], rank: int, resq) -> None:
    try:
        resq.put((rank, "ok", target(rank)))
    except BaseException:  # noqa: BLE001 - full traceback to the parent
        resq.put((rank, "error", traceback.format_exc()))


def run_workers(nranks: int, target: Callable[[int], Any],
                timeout: float = 600.0) -> list[Any]:
    """Fork ``nranks`` workers running ``target(rank)``; gather payloads.

    Raises :exc:`ProcPoolUnavailable` if a worker fails to *start* (callers
    fall back to SimMPI with the parent state untouched) and
    :class:`RuntimeError` if a started worker dies or reports an exception.
    """
    ensure_available()
    ctx = mp.get_context("fork")
    resq = ctx.Queue()
    procs = []
    try:
        for rank in range(nranks):
            p = ctx.Process(target=_worker_shim, args=(target, rank, resq),
                            daemon=True)
            try:
                _start_process(p)
            except (OSError, ValueError, RuntimeError) as exc:
                raise ProcPoolUnavailable(
                    f"worker spawn failed: {exc}") from exc
            procs.append(p)
        payloads: list[Any] = [None] * nranks
        got = 0
        deadline = time.monotonic() + timeout
        while got < nranks:
            try:
                rank, status, payload = resq.get(timeout=1.0)
            except _queue.Empty:
                dead = [p.exitcode for p in procs
                        if not p.is_alive() and p.exitcode not in (0, None)]
                if dead:
                    raise RuntimeError(
                        f"procpool worker(s) died with exit codes {dead}")
                if time.monotonic() > deadline:
                    raise RuntimeError("procpool run timed out")
                continue
            if status == "error":
                raise RuntimeError(f"procpool rank {rank} failed:\n{payload}")
            payloads[rank] = payload
            got += 1
        for p in procs:
            p.join(timeout=30)
        return payloads
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=10)
