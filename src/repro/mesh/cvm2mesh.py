"""CVM2MESH — parallel mesh extraction (Section III.B, Fig. 7).

"The program partitions the mesh region into a set of slices along the
z-axis ...  Each slice is assigned to an individual core for extraction from
the underlying CVM. ...  Each core contributes its slice to the final mesh
by computing the offset location of the slice within the mesh file, and uses
efficient MPI-IO file operations to seek that location and write the
slices."

:func:`extract_mesh_parallel` runs exactly that workflow on SimMPI: z-slice
decomposition, per-rank CVM queries, offset-addressed collective writes into
one :class:`~repro.io.mpiio.VirtualFile` holding float32 ``(vp, vs, rho)``
triples in x-fastest order.  :func:`extract_mesh_serial` is the pre-parallel
reference path ("reduced the extraction time from hundreds of hours to
minutes").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.grid import Grid3D
from ..core.medium import Medium
from ..io.lustre import LustreModel
from ..io.mpiio import FileView, VirtualFile, collective_write
from ..parallel.simmpi import run_spmd

__all__ = ["MeshFile", "extract_mesh_serial", "extract_mesh_parallel",
           "mesh_to_medium"]

_PROPS = 3  # vp, vs, rho
_ITEM = 4   # float32


@dataclass
class MeshFile:
    """The single global mesh file CVM2MESH produces.

    Layout: float32 little-endian, index order ``[z][y][x][prop]`` so a
    z-slice is one contiguous span (the property Fig. 7's slice writes rely
    on).  ``z`` is a *depth index* (0 = surface).
    """

    grid: Grid3D
    vfile: VirtualFile

    @classmethod
    def empty(cls, grid: Grid3D, stripe_count: int = 64) -> "MeshFile":
        size = grid.ncells * _PROPS * _ITEM
        return cls(grid=grid, vfile=VirtualFile(size=size,
                                                stripe_count=stripe_count))

    def slice_offset(self, z_index: int) -> int:
        return z_index * self.grid.nx * self.grid.ny * _PROPS * _ITEM

    def slice_nbytes(self) -> int:
        return self.grid.nx * self.grid.ny * _PROPS * _ITEM

    def as_volume(self) -> np.ndarray:
        """View as ``(nz, ny, nx, 3)`` float32 (depth-major file order)."""
        g = self.grid
        return self.vfile.as_array(np.float32, (g.nz, g.ny, g.nx, _PROPS))

    @property
    def nbytes(self) -> int:
        return self.vfile.size


def _query_slice(cvm, grid: Grid3D, z_index: int) -> np.ndarray:
    """Material of one depth slice as ``(ny, nx, 3)`` float32."""
    x = (np.arange(grid.nx) + 0.5) * grid.h
    y = (np.arange(grid.ny) + 0.5) * grid.h
    depth = (z_index + 0.5) * grid.h
    xg = np.broadcast_to(x[None, :], (grid.ny, grid.nx))
    yg = np.broadcast_to(y[:, None], (grid.ny, grid.nx))
    vp, vs, rho = cvm.query(xg, yg, np.full((grid.ny, grid.nx), depth))
    return np.stack([vp, vs, rho], axis=-1).astype(np.float32)


def extract_mesh_serial(cvm, grid: Grid3D) -> MeshFile:
    """Single-core extraction (the 'hundreds of hours' reference path)."""
    mesh = MeshFile.empty(grid)
    for z in range(grid.nz):
        mesh.vfile.write_at(mesh.slice_offset(z), _query_slice(cvm, grid, z))
    return mesh


def extract_mesh_parallel(cvm, grid: Grid3D, nranks: int,
                          model: LustreModel | None = None
                          ) -> tuple[MeshFile, float]:
    """Fig. 7: z-slices round-robined over ranks, merged via MPI-IO.

    Returns the mesh file and the virtual wall-clock of the extraction.
    """
    if nranks < 1:
        raise ValueError("need at least one rank")
    mesh = MeshFile.empty(grid)
    model = model or LustreModel()

    size = min(nranks, grid.nz)
    rounds = -(-grid.nz // size)

    def program(comm):
        # Every rank performs the same number of collective rounds; ranks
        # without a slice this round contribute an empty view.
        for r in range(rounds):
            z = comm.rank + r * comm.size
            if z < grid.nz:
                data = _query_slice(cvm, grid, z)
                view = FileView.contiguous(mesh.slice_offset(z),
                                           mesh.slice_nbytes())
            else:
                data = np.empty(0, dtype=np.uint8)
                view = FileView(blocks=())
            yield from collective_write(comm, mesh.vfile, view, data, model)
        return None

    result = run_spmd(size, program)
    return mesh, result.elapsed


def mesh_to_medium(mesh: MeshFile) -> Medium:
    """Build the solver's material model from an extracted mesh file.

    Converts the file's depth-major order back to the solver's
    ``(x, y, z-up)`` convention.
    """
    vol = mesh.as_volume().astype(np.float64)   # (nz_depth, ny, nx, 3)
    # depth-major -> z-up: reverse depth, then transpose to (x, y, z)
    vol = vol[::-1]                              # now index 0 = deepest
    # C-contiguous copies: np.pad keeps a transposed view's memory order, and
    # the compiled kernels (fixed strides) refuse the medium it would build
    vp, vs, rho = (np.ascontiguousarray(np.transpose(vol[..., c], (2, 1, 0)))
                   for c in range(3))
    return Medium.from_velocity_model(mesh.grid, vp, vs, rho)
