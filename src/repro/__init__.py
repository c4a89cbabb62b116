"""repro — a full reproduction of "Scalable Earthquake Simulation on
Petascale Supercomputers" (Cui et al., SC 2010): the AWP-ODC anelastic wave
propagation and dynamic rupture code, its petascale production stack
(simulated), and the M8 scenario pipeline.

Subpackages
-----------
``repro.core``
    Staggered-grid velocity–stress FD solver (AWM): 4th-order stencils,
    coarse-grained attenuation, PML/M-PML and sponge boundaries, FS2 free
    surface, sources/receivers, plus an independent pseudospectral
    comparator for verification.
``repro.rupture``
    SGSN spontaneous dynamic rupture (DFR): slip-weakening friction,
    Von Karman initial stress, split-node fault plane; kinematic sources.
``repro.parallel``
    The simulated petascale runtime: SimMPI (virtual-clock SPMD), 3-D
    domain decomposition, halo exchange (sync/async/reduced), machine
    models (Table 1), and the Eq. 7/8 performance model (Table 2).
``repro.mesh``
    Synthetic community velocity model, CVM2MESH extraction, PetaMeshP
    partitioning.
``repro.sourcegen``
    dSrcG dynamic source generation and PetaSrcP partitioning.
``repro.io``
    Lustre/GPFS models, simulated MPI-IO, output aggregation,
    checkpoint/restart, parallel MD5.
``repro.workflow``
    E2EaW workflow engine (transfers, ingestion) and aVal acceptance tests.
``repro.analysis``
    PGV metrics, BA08/CB08 GMPEs, seismogram tools, rupture diagnostics.
``repro.scenarios``
    The SCEC milestone catalog (Table 3) and the scaled M8 pipeline.
"""

from .core import (Grid3D, Medium, MomentTensorSource, Receiver, SolverConfig,
                   WaveSolver)
from .parallel import DistributedWaveSolver
from .rupture import FaultModel, SplitNodeFault
from .scenarios import M8Config, run_m8_scaled

__version__ = "1.0.0"

__all__ = [
    "Grid3D", "Medium", "MomentTensorSource", "Receiver", "SolverConfig",
    "WaveSolver", "DistributedWaveSolver", "FaultModel", "SplitNodeFault",
    "M8Config", "run_m8_scaled", "__version__",
]
