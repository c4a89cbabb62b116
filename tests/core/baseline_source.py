"""The per-source moment injection that :class:`SourceTable` replaced.

One ``MomentTensorSource`` at a time: its own scalar rate, then one
fancy-index subtract per stress component.  It reads only what ``bind``
leaves on the source (``_plan``, ``moment``, the STF), so the tests use it as
the bitwise oracle of the table, the way ``baseline_kernels.py`` is the
oracle of the update.
"""

from __future__ import annotations

import numpy as np

_COMPONENTS = {(0, 0): "sxx", (1, 1): "syy", (2, 2): "szz",
               (0, 1): "sxy", (0, 2): "sxz", (1, 2): "syz"}


def rate_at(src, t: float) -> float:
    """The source's moment rate at ``t``, one python scalar at a time."""
    if src.dt_stf is not None:
        samples = np.asarray(src.stf)
        i = t / src.dt_stf
        i0 = int(np.floor(i))
        if i0 < 0 or i0 >= samples.size - 1:
            return 0.0
        frac = i - i0
        return float((1 - frac) * samples[i0] + frac * samples[i0 + 1])
    return float(src.stf(t))


def inject(src, wf, t: float, dt: float) -> None:
    """Add one source's moment-rate increment for the step ending at
    ``t + dt`` (``src`` bound on ``wf``'s grid)."""
    rate = rate_at(src, t)
    if rate == 0.0:
        return
    vol = wf.grid.h ** 3
    m = src.moment
    scale = float(dt) * rate / vol
    for (a, b), name in _COMPONENTS.items():
        if m[a, b] == 0.0:
            continue
        arr = getattr(wf, name)
        idx, w = src._plan[name]
        coeff = float(m[a, b]) * scale
        arr[idx[:, 0], idx[:, 1], idx[:, 2]] -= coeff * w.astype(arr.dtype)


def per_source(order):
    """A drop-in for ``SourceTable.inject`` on a serial solver: the table's
    sources one after another, in the order of the list ``order`` (the
    solver's ``moment_sources``), not the table's."""
    def inject_all(table, wf, t: float, dt: float) -> None:
        for src in order:
            if any(s is src for s in table.sources):
                inject(src, wf, t, dt)
    return inject_all
