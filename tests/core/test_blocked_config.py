"""Edge cases for the SolverConfig-driven cache-blocking panel sizes.

The paper's IV.B kblock/jblock tiling used to be hardwired at the kernel
call sites; the sizes now live in :class:`SolverConfig` (``kblock``,
``jblock``) and are validated there.  Tiling re-orders the traversal but
not the arithmetic, so every legal size — including panels larger than
the axis they tile, panels exactly matching it, and awkward odd sizes —
must be bitwise-identical to the pooled sweep.
"""

import numpy as np
import pytest

from repro.bench import seed_solver_fields
from repro.core.grid import ALL_FIELDS, Grid3D
from repro.core.medium import Medium
from repro.core.solver import SolverConfig, WaveSolver

#: grid used throughout: deliberately not a multiple of any block size
_SHAPE = (17, 13, 11)


def _solver(**cfg_kw):
    g = Grid3D(*_SHAPE, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
    cfg = SolverConfig(absorbing="sponge", sponge_width=3,
                       free_surface=True, stability_check_interval=0,
                       **cfg_kw)
    sol = WaveSolver(g, med, cfg)
    seed_solver_fields(sol.wf)
    return sol


def _run_pair(nsteps=3, **blocked_kw):
    ref = _solver()
    blk = _solver(kernel_variant="blocked", **blocked_kw)
    ref.run(nsteps)
    blk.run(nsteps)
    return ref, blk


class TestBlockSizeEdgeCases:
    @pytest.mark.parametrize("kblock,jblock", [
        (16, 8),          # the defaults
        (100, 100),       # both larger than the axis extent
        (_SHAPE[2], _SHAPE[1]),   # exactly the axis extents
        (1, 1),           # degenerate single-cell panels
        (7, 5),           # odd sizes that straddle the axis ends
        (3, 200),         # one axis tiled, the other a single panel
    ])
    def test_blocked_bitwise_equals_pooled(self, kblock, jblock):
        ref, blk = _run_pair(kblock=kblock, jblock=jblock)
        for comp in ALL_FIELDS:
            assert np.array_equal(ref.wf.interior(comp),
                                  blk.wf.interior(comp)), comp

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError, match="block sizes"):
            SolverConfig(kblock=0)
        with pytest.raises(ValueError, match="block sizes"):
            SolverConfig(jblock=0)

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError, match="block sizes"):
            SolverConfig(kblock=-4, jblock=8)

    def test_config_sizes_reach_the_kernel(self):
        """The blocked driver panels come from the config, not literals:
        a panel size of 1 in both axes yields ny*nz panels."""
        sol = _solver(kernel_variant="blocked", kblock=1, jblock=1)
        panels = sol.kernel._panels(sol.config.kblock, sol.config.jblock)
        assert len(panels) == _SHAPE[1] * _SHAPE[2]
