"""SimMPI's virtual time is pinned: clocks and per-rank CommStats.

The distributed step may move *when* blocks run, never the messages: a
rank's virtual clock only advances on communication, so any change to the
order, count or size of the halo messages (or to which rank waits on
which) changes these numbers.  They were captured from the rank loop
before it was shared with procpool and the resilience replay, and are
asserted exactly (floats as hex).
"""

import pytest

from repro.core import Grid3D, Medium, SolverConfig
from repro.parallel.decomp import Decomposition3D
from repro.parallel.distributed import DistributedWaveSolver
from repro.parallel.machine import jaguar

#: "<exchange>-<nranks>" -> (clocks, [(messages_sent, bytes_sent,
#: messages_received, bytes_received, comm_time)] per rank)
PINS = {
    "reduced-2": (
        ["0x1.c180e949852f2p-14", "0x1.c85b67c981ad8p-14"],
        [
            (18, 85536, 18, 85536, "0x1.1223c3ff73becp-17"),
            (18, 85536, 18, 85536, "0x1.48f7b7ff57b1ap-17"),
        ]),
    "full-2": (
        ["0x1.4bfcd01726849p-13", "0x1.4bfcd01726849p-13"],
        [
            (27, 171072, 27, 171072, "0x1.48f7b7ff57b1cp-17"),
            (27, 171072, 27, 171072, "0x1.48f7b7ff57b1cp-17"),
        ]),
    "sync-2": (
        ["0x1.fcb3b410d8037p-13", "0x1.fcb3b410d8037p-13"],
        [
            (18, 85536, 18, 85536, "0x1.fcb3b410d8037p-13"),
            (18, 85536, 18, 85536, "0x1.fcb3b410d8037p-13"),
        ]),
    "reduced-4": (
        ["0x1.aa547cd9f04bcp-13", "0x1.ac8c7f439bcfep-13",
         "0x1.aa547cd9f04bcp-13", "0x1.ac8c7f439bcfep-13"],
        [
            (36, 104976, 36, 104976, "0x1.6301820b328f0p-18"),
            (36, 104976, 36, 104976, "0x1.aa01cf40a3128p-18"),
            (36, 104976, 36, 104976, "0x1.6301820b328f0p-18"),
            (36, 104976, 36, 104976, "0x1.aa01cf40a3128p-18"),
        ]),
    "full-4": (
        ["0x1.3e155bd433961p-12", "0x1.3e155bd433961p-12",
         "0x1.3e155bd433961p-12", "0x1.3e155bd433961p-12"],
        [
            (54, 209952, 54, 209952, "0x1.aa01cf40a3120p-18"),
            (54, 209952, 54, 209952, "0x1.aa01cf40a3120p-18"),
            (54, 209952, 54, 209952, "0x1.aa01cf40a3120p-18"),
            (54, 209952, 54, 209952, "0x1.aa01cf40a3120p-18"),
        ]),
    "sync-4": (
        ["0x1.da0c72cc72ac1p-12", "0x1.da0c72cc72ac1p-12",
         "0x1.da0c72cc72ac1p-12", "0x1.da0c72cc72ac1p-12"],
        [
            (36, 104976, 36, 104976, "0x1.da0c72cc72ac1p-12"),
            (36, 104976, 36, 104976, "0x1.da0c72cc72ac1p-12"),
            (36, 104976, 36, 104976, "0x1.da0c72cc72ac1p-12"),
            (36, 104976, 36, 104976, "0x1.da0c72cc72ac1p-12"),
        ]),
}

EXCHANGES = {"reduced": {"halo_mode": "reduced"},
             "full": {"halo_mode": "full"},
             "sync": {"halo_mode": "reduced", "sync_comm": True}}
DIMS = {2: (2, 1, 1), 4: (2, 2, 1)}


@pytest.mark.parametrize("key", list(PINS))
def test_virtual_clocks_and_comm_stats_are_pinned(key):
    exchange, nranks = key.split("-")
    g = Grid3D(20, 18, 14, h=100.0)
    d = DistributedWaveSolver(
        g, Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0),
        decomp=Decomposition3D(g, *DIMS[int(nranks)]),
        config=SolverConfig(free_surface=True, absorbing="sponge",
                            sponge_width=3),
        machine=jaguar(), **EXCHANGES[exchange])
    d.run(3)
    clocks, stats = PINS[key]
    res = d.last_result
    assert [c.hex() for c in res.clocks] == clocks
    got = [(s.messages_sent, s.bytes_sent, s.messages_received,
            s.bytes_received, s.comm_time.hex()) for s in res.stats]
    assert got == stats
    assert all(s.compute_time == s.sync_time == 0.0 for s in res.stats)
