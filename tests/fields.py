"""Deterministic wavefield seeding shared by the kernel equivalence tests."""

import zlib

import numpy as np

from repro.core.fd import interior
from repro.core.grid import WaveField


def seed_solver_fields(wf: WaveField) -> None:
    """Fill every field's interior with small seeded noise.

    Seeds come from ``zlib.crc32`` of the field name, *not* ``hash()``:
    Python string hashing is randomised per process (PYTHONHASHSEED).
    """
    for name, arr in wf.fields().items():
        rng = np.random.default_rng(zlib.crc32(name.encode()) & 0xFFFF)
        interior(arr)[...] = rng.standard_normal(
            interior(arr).shape) * 1e-3
