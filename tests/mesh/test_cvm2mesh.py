"""Tests for CVM2MESH extraction and the mesh file format."""

import numpy as np
import pytest

from repro.core.fd import interior
from repro.core.grid import Grid3D
from repro.mesh.cvm import southern_california_like
from repro.mesh.cvm2mesh import (MeshFile, extract_mesh_parallel,
                                 extract_mesh_serial, mesh_to_medium)


@pytest.fixture(scope="module")
def setup():
    cvm = southern_california_like(x_extent=16e3, y_extent=8e3)
    grid = Grid3D(16, 8, 10, h=1000.0)
    return cvm, grid


class TestExtraction:
    def test_parallel_equals_serial(self, setup):
        """The parallel slice scheme must reproduce the serial extraction
        byte for byte (it only reorders independent writes)."""
        cvm, grid = setup
        serial = extract_mesh_serial(cvm, grid)
        parallel, elapsed = extract_mesh_parallel(cvm, grid, nranks=4)
        assert np.array_equal(serial.vfile.data, parallel.vfile.data)
        assert elapsed > 0

    def test_more_ranks_than_slices(self, setup):
        cvm, grid = setup
        serial = extract_mesh_serial(cvm, grid)
        parallel, _ = extract_mesh_parallel(cvm, grid, nranks=64)
        assert np.array_equal(serial.vfile.data, parallel.vfile.data)

    def test_rank_validation(self, setup):
        cvm, grid = setup
        with pytest.raises(ValueError):
            extract_mesh_parallel(cvm, grid, nranks=0)

    def test_mesh_file_size(self, setup):
        cvm, grid = setup
        mesh = MeshFile.empty(grid)
        assert mesh.nbytes == grid.ncells * 3 * 4

    def test_m8_mesh_file_would_be_4_8_tb(self):
        """VII.B: the M8 mesh file is 4.8 TB (436e9 cells, 3 float32)."""
        g = Grid3D(20250, 10125, 2125, h=40.0)
        # do not allocate! compute only
        nbytes = g.ncells * 3 * 4
        assert nbytes == pytest.approx(5.2e12, rel=0.11)  # ~4.8 TiB

    def test_slice_contiguity(self, setup):
        cvm, grid = setup
        mesh = MeshFile.empty(grid)
        assert mesh.slice_offset(1) - mesh.slice_offset(0) == mesh.slice_nbytes()


class TestMeshToMedium:
    def test_roundtrip_matches_direct_query(self, setup):
        """Mesh-file route and direct queries give the same medium."""
        cvm, grid = setup
        mesh = extract_mesh_serial(cvm, grid)
        med = mesh_to_medium(mesh)
        # spot-check: surface cell (z top) vs CVM at small depth
        x = (np.arange(grid.nx) + 0.5) * grid.h
        _, vs_cvm, _ = cvm.query(x[3], 0.5 * grid.h * 1, (0 + 0.5) * grid.h)
        vs_med = interior(med.vs)[3, 0, grid.nz - 1]
        assert vs_med == pytest.approx(vs_cvm, rel=1e-5)

    def test_depth_orientation(self, setup):
        """File is depth-major; the medium is z-up: deep material is fast."""
        cvm, grid = setup
        med = mesh_to_medium(extract_mesh_serial(cvm, grid))
        vs = interior(med.vs)
        assert vs[5, 4, 0] > vs[5, 4, grid.nz - 1]  # bottom faster than top

    def test_medium_is_valid(self, setup):
        cvm, grid = setup
        med = mesh_to_medium(extract_mesh_serial(cvm, grid))
        assert med.vs_min >= 390.0  # the CVM floor survives float32
        assert med.vp_max < 9000.0

    def test_medium_feeds_the_compiled_solver(self, setup):
        """Regression: the depth-major -> z-up transpose used to leave every
        array non-C-contiguous, which kernel_variant="compiled" refused."""
        from repro.core import SolverConfig, WaveSolver, compiled
        cvm, grid = setup
        med = mesh_to_medium(extract_mesh_serial(cvm, grid))
        for name in ("lam", "mu", "rho", "lam2mu", "mu_xy", "bx", "bz"):
            assert getattr(med, name).flags.c_contiguous, name
        if not compiled.compiled_available():
            pytest.skip("no compiled provider (no C compiler)")
        solver = WaveSolver(grid, med, SolverConfig(
            kernel_variant="compiled", absorbing="sponge", sponge_width=2))
        assert solver.fused is not None
        solver.run(2)
