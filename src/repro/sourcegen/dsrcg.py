"""dSrcG — the dynamic source generator (Sections III.D, VII.A).

The M8 two-step method: "In a first step, we simulated a spontaneous rupture
on a planar, vertical fault ...  The source time histories obtained from the
dynamic simulation were then transferred onto a segmented approximation of
the southern SAF, and the wave propagation for this source was solved with
AWP-ODC" after "temporal interpolation and a 4th-order low-pass filter with
a cut-off frequency of 2 Hz".

This module turns a finished :class:`~repro.rupture.solver.RuptureSolver`
run (with recorded slip rates) into moment-rate time histories at subfaults:

1. aggregate fault cells into subfault blocks;
2. resample + 4th-order Butterworth low-pass each block's moment rate;
3. place the subfaults either on the original plane or on a *segmented
   trace*, rotating each subfault's moment tensor to its segment's strike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fd import interior
from ..core.source import FiniteFaultSource, SubFault
from ..rupture.solver import RuptureSolver

__all__ = ["FaultSegment", "segmented_trace", "lowpass_resample",
           "dynamic_source_from_rupture"]


@dataclass(frozen=True)
class FaultSegment:
    """One straight segment of a fault trace (map view)."""

    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def length(self) -> float:
        return float(np.hypot(self.x1 - self.x0, self.y1 - self.y0))

    @property
    def strike_angle(self) -> float:
        """Angle of the segment vs the +x axis, radians."""
        return float(np.arctan2(self.y1 - self.y0, self.x1 - self.x0))

    def point_at(self, s: float) -> tuple[float, float]:
        """Map-view position at along-segment distance ``s``."""
        f = s / self.length
        return (self.x0 + f * (self.x1 - self.x0),
                self.y0 + f * (self.y1 - self.y0))


def segmented_trace(points: list[tuple[float, float]]) -> list[FaultSegment]:
    """Build segments from a polyline (the 47-segment SAF approximation)."""
    if len(points) < 2:
        raise ValueError("need at least two trace points")
    return [FaultSegment(*points[i], *points[i + 1])
            for i in range(len(points) - 1)]


def _locate(segments: list[FaultSegment], s: float
            ) -> tuple[FaultSegment, float]:
    """Segment and local offset at along-trace distance ``s`` (clamped)."""
    total = 0.0
    for seg in segments:
        if s <= total + seg.length or seg is segments[-1]:
            return seg, float(np.clip(s - total, 0.0, seg.length))
        total += seg.length
    raise AssertionError("unreachable")


def lowpass_resample(t: np.ndarray, series: np.ndarray, dt_out: float,
                     f_cut: float, order: int = 4
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Temporal interpolation + 4th-order low-pass (the VII.B recipe).

    Resamples ``series(t)`` to a uniform ``dt_out`` grid, then applies a
    zero-phase Butterworth filter with cut-off ``f_cut``.
    """
    if len(t) < 2:
        raise ValueError("need at least two samples")
    t_out = np.arange(t[0], t[-1], dt_out)
    resampled = np.interp(t_out, t, series)
    nyq = 0.5 / dt_out
    if f_cut >= nyq:
        return t_out, resampled
    from scipy.signal import butter, filtfilt   # deferred: slow import
    b, a = butter(order, f_cut / nyq)
    return t_out, filtfilt(b, a, resampled)


def dynamic_source_from_rupture(rupture: RuptureSolver, block: int = 4,
                                dt_out: float = 0.05, f_cut: float = 2.0,
                                trace: list[FaultSegment] | None = None,
                                trace_offset: float = 0.0,
                                y_plane: float | None = None,
                                surface_z: float | None = None
                                ) -> FiniteFaultSource:
    """Convert a rupture run into a kinematic finite-fault source.

    Parameters
    ----------
    rupture:
        A completed rupture run with ``record_slip_rate()`` enabled.
    block:
        Fault cells per subfault along strike and depth.
    dt_out, f_cut:
        Output sampling and low-pass cut-off (M8: 2 Hz).
    trace:
        Optional segmented fault trace; when given, subfaults are placed
        along it (starting at along-trace distance ``trace_offset``) and
        their double-couple tensors are rotated to each segment's strike.
        Without a trace, subfaults stay on the original plane at
        ``y_plane``.
    """
    hist = rupture._slip_rate_history
    if not hist:
        raise RuntimeError("rupture must be run with record_slip_rate()")
    g = rupture.grid
    h = g.h
    fault = rupture.fault
    mu_plane = interior(rupture.medium.mu)[:, fault.j0, :]
    if y_plane is None:
        y_plane = (fault.j0) * h
    if surface_z is None:
        surface_z = g.nz * h

    times = np.array([t for t, _, _ in hist])
    ns = fault.i1 - fault.i0
    nd = fault.n_depth
    ks = g.nz - 1 - np.arange(nd)
    area = h * h

    subfaults: list[SubFault] = []
    for bi in range(0, ns, block):
        for bd in range(0, nd, block):
            cs = slice(fault.i0 + bi, min(fault.i0 + bi + block, fault.i1))
            ds = np.arange(bd, min(bd + block, nd))
            kk = ks[ds]
            mu_blk = mu_plane[cs][:, kk]
            # moment rate of the block over time (x and z components)
            mdot_x = np.array([(mu_blk * sx[cs][:, kk]).sum() * area
                               for _, sx, _ in hist])
            mdot_z = np.array([(mu_blk * sz[cs][:, kk]).sum() * area
                               for _, _, sz in hist])
            m0x = np.trapezoid(mdot_x, times)
            m0z = np.trapezoid(mdot_z, times)
            m0 = float(np.hypot(m0x, m0z))
            if m0 <= 0.0:
                continue
            t_out, rate = lowpass_resample(times, np.hypot(mdot_x, mdot_z),
                                           dt_out, f_cut)
            total = np.trapezoid(rate, t_out)
            if total <= 0:
                continue
            rate = rate / total  # normalised moment rate (integrates to 1)
            # strike/depth position of the block centre
            s_along = (bi + min(block, ns - bi) / 2.0) * h
            depth = (bd + min(block, nd - bd) / 2.0) * h
            strike_frac = m0x / m0 if m0 > 0 else 1.0
            dip_frac = m0z / m0 if m0 > 0 else 0.0
            m = np.zeros((3, 3))
            m[0, 1] = m[1, 0] = m0 * strike_frac
            m[1, 2] = m[2, 1] = m0 * dip_frac
            if trace is None:
                pos = (s_along + fault.i0 * h, y_plane, surface_z - depth)
            else:
                seg, local = _locate(trace, trace_offset + s_along)
                px, py = seg.point_at(local)
                ang = seg.strike_angle
                c, s = np.cos(ang), np.sin(ang)
                rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
                m = rot @ m @ rot.T
                pos = (px, py, surface_z - depth)
            subfaults.append(SubFault(position=pos, moment=m,
                                      rate_samples=rate, dt=dt_out,
                                      t_start=0.0))
    if not subfaults:
        raise ValueError("rupture produced no moment; nothing to export")
    return FiniteFaultSource(subfaults=subfaults)
