"""Independent Fourier pseudospectral elastic solver (verification, Fig. 3).

The paper verifies AWP-ODC by comparing PGVs against two *independent*
implementations (a finite-element code and another FD code, Section II.F).
This module provides the analogous independent comparator for this repo: a
staggered *Fourier* method that shares nothing with the FD kernels — spatial
derivatives are exact to machine precision for band-limited fields, computed
as ``ifft(i*k*exp(+/- i*k*h/2) * fft(f))`` (the half-cell shift implements the
same staggering as the FD grid, so both solvers discretise the identical
velocity–stress system and can share sources/receivers).

Restrictions (documented, acceptable for verification scenarios):

* periodic boundaries — no free surface, no absorbing layers; verification
  runs use buried sources and stop before wrap-around;
* smooth media (spectral differentiation of rough media rings); the
  verification benches use homogeneous or smoothly varying models.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid3D
from .medium import Medium
from .stability import cfl_dt

__all__ = ["PseudospectralSolver"]


class PseudospectralSolver:
    """Velocity–stress elastic solver with spectral staggered derivatives.

    Mirrors the :class:`~repro.core.solver.WaveSolver` leapfrog ordering so
    that, up to spatial discretisation error, the two produce the same
    wavefields — the basis of the Fig. 3 style inter-code verification.
    """

    def __init__(self, grid: Grid3D, medium: Medium, dt: float | None = None):
        self.grid = grid
        self.medium = medium
        # CFL for the Fourier method: k_max = pi/h; use a conservative factor.
        self.dt = dt if dt is not None else 0.5 * cfl_dt(grid.h, medium.vp_max,
                                                         order=2)
        shape = grid.shape
        self.v = {c: np.zeros(shape) for c in ("vx", "vy", "vz")}
        self.s = {c: np.zeros(shape) for c in ("sxx", "syy", "szz",
                                               "sxy", "sxz", "syz")}
        # Interior-shaped material fields.
        from .fd import interior
        self._lam = interior(medium.lam).copy()
        self._mu = interior(medium.mu).copy()
        self._lam2mu = self._lam + 2.0 * self._mu
        self._rho = interior(medium.rho).copy()
        # Wavenumber shift operators per axis and stagger direction.
        h = grid.h
        self._ikf = []
        self._ikb = []
        for n in shape:
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
            # Zero the Nyquist derivative (odd n has none) for a real result.
            if n % 2 == 0:
                k[n // 2] = 0.0
            self._ikf.append(1j * k * np.exp(+0.5j * k * h))
            self._ikb.append(1j * k * np.exp(-0.5j * k * h))
        self.t = 0.0
        self.moment_sources: list = []
        self.receivers: list = []

    # ------------------------------------------------------------------
    def _d(self, f: np.ndarray, axis: int, fwd: bool) -> np.ndarray:
        spec = np.fft.fft(f, axis=axis)
        k = (self._ikf if fwd else self._ikb)[axis]
        shape = [1, 1, 1]
        shape[axis] = -1
        spec *= k.reshape(shape)
        return np.real(np.fft.ifft(spec, axis=axis))

    def add_source(self, source) -> None:
        """Accepts the same MomentTensorSource objects as WaveSolver."""
        from .source import MomentTensorSource
        if not isinstance(source, MomentTensorSource):
            raise TypeError("pseudospectral solver only supports moment sources")
        source.bind(self.grid)
        self.moment_sources.append(source)

    def add_receiver(self, receiver) -> None:
        receiver.bind(self.grid)
        self.receivers.append(receiver)

    # ------------------------------------------------------------------
    def step(self) -> None:
        dt, rho = self.dt, self._rho
        v, s = self.v, self.s
        # Velocity update (same staggering pattern as the FD kernel).
        v["vx"] += dt / rho * (self._d(s["sxx"], 0, True)
                               + self._d(s["sxy"], 1, False)
                               + self._d(s["sxz"], 2, False))
        v["vy"] += dt / rho * (self._d(s["sxy"], 0, False)
                               + self._d(s["syy"], 1, True)
                               + self._d(s["syz"], 2, False))
        v["vz"] += dt / rho * (self._d(s["sxz"], 0, False)
                               + self._d(s["syz"], 1, False)
                               + self._d(s["szz"], 2, True))
        dvx = self._d(v["vx"], 0, False)
        dvy = self._d(v["vy"], 1, False)
        dvz = self._d(v["vz"], 2, False)
        div = dvx + dvy + dvz
        s["sxx"] += dt * (self._lam * div + 2 * self._mu * dvx)
        s["syy"] += dt * (self._lam * div + 2 * self._mu * dvy)
        s["szz"] += dt * (self._lam * div + 2 * self._mu * dvz)
        s["sxy"] += dt * self._mu * (self._d(v["vy"], 0, True)
                                     + self._d(v["vx"], 1, True))
        s["sxz"] += dt * self._mu * (self._d(v["vz"], 0, True)
                                     + self._d(v["vx"], 2, True))
        s["syz"] += dt * self._mu * (self._d(v["vz"], 1, True)
                                     + self._d(v["vy"], 2, True))
        # Moment injection (reuse the FD source's bound cells, minus ghosts).
        from .fd import NGHOST
        from .source import _COMPONENTS
        vol = self.grid.h ** 3
        for src in self.moment_sources:
            rate = src.rate_at(self.t)
            if rate == 0.0:
                continue
            scale = dt * rate / vol
            for (a, b), name in _COMPONENTS.items():
                if src.moment[a, b] == 0.0:
                    continue
                idx, w = src._plan[name]
                s[name][idx[:, 0] - NGHOST, idx[:, 1] - NGHOST,
                        idx[:, 2] - NGHOST] -= src.moment[a, b] * scale * w
        self.t += dt
        for r in self.receivers:
            for comp in ("vx", "vy", "vz"):
                from .fd import NGHOST as G
                i, j, k = (c - G for c in r._cells[comp])
                r.data[comp].append(float(v[comp][i, j, k]))

    def run(self, nsteps: int) -> None:
        for _ in range(nsteps):
            self.step()

    def max_velocity(self) -> float:
        return float(max(np.abs(a).max() for a in self.v.values()))
