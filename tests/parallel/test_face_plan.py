"""One face plan, every consumer agrees.

:func:`repro.parallel.halo.face_plan` answers "which planes of which field
cross which face"; the byte accounting, the SimMPI exchange and the
procpool rings all read it, so their volumes must agree rank by rank, and
every slab a rank sends must fit the ghost slab its neighbour fills.
"""

import numpy as np
import pytest

from repro.core.grid import ALL_FIELDS, Grid3D, WaveField
from repro.parallel import procpool
from repro.parallel.decomp import Decomposition3D
from repro.parallel.halo import HaloExchange, face_plan, halo_bytes_per_step
from repro.parallel.simmpi import run_spmd

DIMS = [(2, 1, 1), (2, 2, 1), (3, 2, 2), (1, 1, 3)]
MODES = ["full", "reduced"]
DTYPES = [np.float32, np.float64]


def _decomp(dims):
    return Decomposition3D(Grid3D(12, 10, 12, h=1.0), *dims)


def _shape(slab):
    return tuple(s.stop - s.start for s in slab)


def _exchanged_bytes(decomp, mode, dtype):
    """Bytes each rank's HaloExchange packs and sends for one velocity
    and one stress round."""
    wfs = [WaveField(sub.grid, dtype=dtype) for sub in decomp.subdomains()]
    hxs = [HaloExchange(decomp, r, wf, mode=mode) for r, wf in enumerate(wfs)]

    def program(comm):
        for group in ("velocity", "stress"):
            yield from hxs[comm.rank].exchange(comm, group)

    return [st.bytes_sent for st in run_spmd(decomp.nranks, program).stats]


@pytest.mark.skipif(not procpool.procpool_available(),
                    reason="fork/shared_memory unavailable")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dims", DIMS)
def test_every_consumer_counts_the_same_bytes(dims, mode, dtype):
    decomp = _decomp(dims)
    itemsize = np.dtype(dtype).itemsize
    sent = _exchanged_bytes(decomp, mode, dtype)
    pool = procpool.FaceRingPool(decomp, mode=mode, dtype=dtype)
    try:
        rings = [sum(pool.messages_per_round(r, g)[1]
                     for g in ("velocity", "stress"))
                 for r in range(decomp.nranks)]
    finally:
        pool.close()
    accounted = [halo_bytes_per_step(decomp, r, mode, itemsize=itemsize)
                 for r in range(decomp.nranks)]
    assert accounted == rings == sent
    assert min(accounted) > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dims", DIMS)
def test_every_send_fits_the_peers_ghost(dims, mode):
    decomp = _decomp(dims)
    plans = [face_plan(decomp, r, mode) for r in range(decomp.nranks)]
    for rank, plan in enumerate(plans):
        for f in plan:
            opposite = [g for g in plans[f.peer]
                        if (g.field, g.axis, g.side, g.peer)
                        == (f.field, f.axis, -f.side, rank)]
            assert len(opposite) == 1, (rank, f)
            assert _shape(f.send) == _shape(opposite[0].ghost) == f.shape
            assert f.send_tag == opposite[0].recv_tag


@pytest.mark.parametrize("mode", MODES)
def test_faces_are_field_major_then_axis_low_side_first(mode):
    decomp = _decomp((3, 2, 2))
    for rank in range(decomp.nranks):
        plan = face_plan(decomp, rank, mode)
        keys = [(ALL_FIELDS.index(f.field), f.axis, f.side) for f in plan]
        assert keys == sorted(keys)
        groups = face_plan(decomp, rank, mode, "velocity") \
            + face_plan(decomp, rank, mode, "stress")
        assert groups == plan
