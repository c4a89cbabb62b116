"""The overlap cut follows the exchanged faces, and nothing else.

A free-surface rank's top face is never exchanged, so its stress core
reaches the surface plane ``kt``: the core then reads the free-surface
velocity ghosts, which ``StepSchedule.core_ahead`` fills before it runs.
A moment source whose rows lie in the core and reach ``kt`` holds those
rows out of the compiled sweep's own fill, so only the early fill gives
them their ghosts; a pooled core fills none at all.  Driven in the
procpool order, the split step must equal the unsplit pooled run at
atol=0, all nine padded fields, in both precisions.
"""

import numpy as np
import pytest

from repro.core import compiled
from repro.core.fd import NGHOST

from .test_fold import KT, SHAPE, _assert_same, _moment, _solver

pytestmark = pytest.mark.skipif(not compiled.compiled_available(),
                                reason="no compiled provider (no C compiler)")

#: x/y faces exchanged both sides, the top (and bottom) not
XY_FACES = [(True, True), (True, True), (False, False)]


def _sources():
    # a cloud around x = 10, y = 9 reaching the surface plane: rows
    # x 5..15, y 4..14, all inside the x/y core [2, 18) x [2, 16)
    return [_moment(10.0, 9.0, KT - 5.0, width=150.0),
            _moment(9.5, 8.5, KT - 0.5)]


def _regions(sched, half):
    core, shells = sched._ops[half]
    return core.__self__.region, [sh.__self__.region for sh in shells]


@pytest.mark.parametrize("faces", [XY_FACES,
                                   [(False, True), (False, False),
                                    (False, False)]],
                         ids=["xy", "x-hi"])
def test_unexchanged_top_cuts_stress_like_velocity(faces):
    s = _solver("compiled", np.float64, add=_sources())
    sched = s.schedule
    assert sched.split(faces)
    vcore, vshells = _regions(sched, "velocity")
    score, sshells = _regions(sched, "stress")
    assert score == vcore and sshells == vshells
    assert len(sshells) == sum(map(sum, faces))
    assert score[2] == slice(NGHOST, NGHOST + SHAPE[2])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("variant", ["pooled", "compiled"])
def test_core_ahead_to_the_surface_equals_unsplit(variant, dtype):
    """A; stress core ahead; B; C; next velocity core ahead — the procpool
    rank loop — over a core that reaches ``kt`` on held source rows."""
    ref = _solver("pooled", dtype, add=_sources())
    got = _solver(variant, dtype, add=_sources())
    sched = got.schedule
    assert sched.split(XY_FACES)
    got.run(1)      # the tables, and so the held rows, are built here
    ref.run(1)
    if variant == "compiled":
        core = _regions(sched, "stress")[0]
        held = got.held_rows[core[0].start - NGHOST:core[0].stop - NGHOST,
                             core[1].start - NGHOST:core[1].stop - NGHOST]
        assert held.any() and not held.all()
    nsteps = 6
    ref.run(nsteps)
    for istep in range(nsteps):
        sched.block_a()
        sched.core_ahead("stress")
        sched.block_b()
        sched.block_c(lambda: None)
        if istep < nsteps - 1:
            sched.core_ahead("velocity")
    _assert_same(ref, got, f"{variant} core-ahead")
