"""DFR — dynamic fault rupture (SGSN mode) and kinematic source models."""

from .friction import SlipWeakeningFriction, m8_friction_profiles
from .kinematic import KinematicRupture, denali_like_slip, elliptical_slip
from .solver import FaultModel, SplitNodeFault
from .stress import (InitialStress, build_m8_initial_stress,
                     depth_normal_stress, von_karman_field)

__all__ = [
    "SlipWeakeningFriction", "m8_friction_profiles",
    "KinematicRupture", "denali_like_slip", "elliptical_slip",
    "FaultModel", "SplitNodeFault",
    "InitialStress", "build_m8_initial_stress", "depth_normal_stress",
    "von_karman_field",
]
