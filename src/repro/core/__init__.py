"""Core physics: the AWP-ODC staggered-grid velocity–stress FD solver."""

from .fd import C1, C2, NGHOST
from .grid import Grid3D, WaveField
from .medium import Medium
from .solver import (Receiver, SolverConfig, StateSchemaError,
                     SurfaceRecorder, WaveSolver)
from .source import (
    BodyForceSource,
    FiniteFaultSource,
    ManufacturedForcing,
    MomentTensorSource,
    SubFault,
    double_couple_strike_slip,
    magnitude_to_moment,
    moment_to_magnitude,
)
from .stability import cfl_dt, cfl_dt_map, max_frequency, rate_group_histogram
from .lts import (
    LTSScheduler,
    build_rate_groups,
    local_cfl_map,
    plane_cfl_bounds,
    theoretical_speedup,
)
from .pml import PML, PMLConfig
from .boundary import FreeSurfaceFS2, SpongeLayer

__all__ = [
    "C1", "C2", "NGHOST",
    "Grid3D", "WaveField", "Medium",
    "WaveSolver", "SolverConfig", "Receiver", "SurfaceRecorder",
    "StateSchemaError",
    "MomentTensorSource", "BodyForceSource", "ManufacturedForcing",
    "FiniteFaultSource", "SubFault",
    "double_couple_strike_slip", "moment_to_magnitude", "magnitude_to_moment",
    "cfl_dt", "cfl_dt_map", "max_frequency", "rate_group_histogram",
    "LTSScheduler", "build_rate_groups", "local_cfl_map",
    "plane_cfl_bounds", "theoretical_speedup",
    "PML", "PMLConfig", "FreeSurfaceFS2", "SpongeLayer",
]
