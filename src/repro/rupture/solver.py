"""DFR — spontaneous dynamic rupture on a planar vertical fault ("SGSN mode").

Implements the staggered-grid split-node treatment of Dalguer & Day [14] in
the traction-at-split-node form: the fault divides the domain into (+) and
(-) subregions along a vertical plane of constant y; the velocity nodes on
the plane (``vx`` and ``vz``) are split into plus/minus halves that interact
only through the shear traction at the node, bounded by slip-weakening
friction.  Spatial accuracy near the fault is reduced to 2nd order via the
one-sided operators of the paper's Eq. (4a–c), exactly as described
("the accuracy of the FD equations is reduced to 2nd-order" within two grid
points of the plane).

:class:`SplitNodeFault` is the fault plane's state and its three step
hooks; the bulk grid, free surface, sponge and time loop are the
:class:`~repro.core.solver.WaveSolver`'s, which runs the hooks from its
one step schedule (DESIGN.md §3)::

    fault = SplitNodeFault(FaultModel(...))
    solver = WaveSolver(grid, medium,
                        SolverConfig(absorbing="sponge", sponge_width=8),
                        fault=fault)
    solver.run(nsteps)
    fault.final_slip(), fault.rupture_time_region(), ...

Simplifications relative to the full Dalguer–Day scheme (documented in
DESIGN.md): the in-plane stresses on the fault plane are not split (their
split contributions are antisymmetric for in-plane shear ruptures and vanish
to leading order for the planar strike-slip sources used here), and the
along-strike/down-dip traction components are colocated per cell for the
vector friction bound (a half-cell registration approximation).

The fault exposes the quantities Fig. 19 is built from: final slip, peak
slip rate, rupture time, and the rupture-velocity classification
(sub-Rayleigh vs super-shear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fd import C1, C2, NGHOST, interior
from .friction import SlipWeakeningFriction
from .stress import InitialStress

__all__ = ["FaultModel", "SplitNodeFault"]

#: slip-rate threshold defining rupture arrival (m/s)
RUPTURE_THRESHOLD = 1e-3

#: the fault arrays :meth:`SplitNodeFault.state_arrays` saves for a restart
STATE_ARRAYS = ("vxp", "vxm", "vzp", "vzm", "sxxp", "sxxm", "szzp", "szzm",
                "sxzp", "sxzm", "slip_x", "slip_z", "slip_path",
                "rupture_time", "peak_slip_rate")


def _one_sided(a: np.ndarray, h: float, axis: int, forward: bool
               ) -> np.ndarray:
    """2nd-order difference of a fault-plane array along x (``axis=0``) or
    z (``axis=1``): ``(a[i+1] - a[i]) / h`` stored at ``i`` (forward) or
    ``i+1`` (backward), zero on the open edge."""
    out = np.zeros_like(a)
    cut = [slice(None)] * 2
    cut[axis] = slice(None, -1) if forward else slice(1, None)
    out[tuple(cut)] = np.diff(a, axis=axis) / h
    return out


@dataclass
class FaultModel:
    """A planar, vertical fault embedded in the grid (the SGSN geometry).

    The plane sits at grid y-index ``j0`` (the ``vx``/``vz`` node plane).
    The *breakable* region spans strike cells ``[i0, i1)`` and the top
    ``n_depth`` cells below the free surface; outside it the plane is
    welded.  ``friction`` and ``initial`` are indexed ``[strike, depth]``
    with depth index 0 at the surface.
    """

    j0: int
    i0: int
    i1: int
    n_depth: int
    friction: SlipWeakeningFriction
    initial: InitialStress

    def __post_init__(self) -> None:
        shape = (self.i1 - self.i0, self.n_depth)
        if self.friction.shape != shape:
            raise ValueError(f"friction arrays have shape "
                             f"{self.friction.shape}, expected {shape}")
        if self.initial.tau0_x.shape != shape:
            raise ValueError("initial stress shape does not match fault")


class SplitNodeFault:
    """A split-node fault plane: state, step hooks and Fig. 19 diagnostics.

    Attach it with ``WaveSolver(..., fault=SplitNodeFault(model))``; the
    solver calls :meth:`bind` once and the step schedule calls
    :meth:`update_velocity` right after the velocity update,
    :meth:`snapshot` right before the stress update and
    :meth:`update_stress` right after it.  Interior y rows :attr:`rows`
    are held out of a compiled stress sweep's folded imaging and damping,
    so those run after :meth:`update_stress` rewrites the planes.
    """

    def __init__(self, fault: FaultModel):
        self.fault = fault
        #: interior y rows whose stresses the corrections rewrite
        self.rows = slice(fault.j0 - 2, fault.j0 + 2)
        self._slip_rate_history: list[tuple[float, np.ndarray, np.ndarray]] | None = None
        self._history_decimate = 1

    def bind(self, solver) -> None:
        """Allocate the fault state on ``solver``'s grid, medium, wavefield
        and time step."""
        grid, medium, fault = solver.grid, solver.medium, self.fault
        if not NGHOST + 2 <= fault.j0 < grid.ny - 2:
            raise ValueError("fault plane too close to the y boundary")
        if fault.n_depth >= grid.nz:
            raise ValueError("fault deeper than the grid")
        if not 0 <= fault.i0 < fault.i1 <= grid.nx:
            raise ValueError("invalid strike extent")
        self.grid = grid
        self.medium = medium
        self.wf = solver.wf
        self.dt = solver.dt
        h = grid.h
        self.area = h * h
        self._half_vol = h ** 3 / 2.0
        nx, nz = grid.nx, grid.nz
        self._gi = slice(NGHOST, NGHOST + nx)
        self._gk = slice(NGHOST, NGHOST + nz)

        # Full-plane fault state (welded outside the breakable region).
        # The split in-plane stresses (Dalguer & Day split sigma_xx,
        # sigma_zz, sigma_xz as well as the velocities) are only ever
        # consumed by the fault-plane dynamics itself — the bulk grid never
        # takes a y-derivative of them — so they live here as 2-D planes
        # integrated from the split velocities.
        shape = (nx, nz)
        for name in STATE_ARRAYS:
            setattr(self, name, np.zeros(shape))
        self.rupture_time[...] = np.inf

        # Expand fault-region arrays onto the full plane; welded elsewhere.
        big = 1e12  # effectively infinite strength outside the fault
        self.tau0_x = np.zeros(shape)
        self.tau0_z = np.zeros(shape)
        self.sigma_n0 = np.zeros(shape)
        self.mu_s = np.full(shape, 1e9)
        self.mu_d = np.full(shape, 1e9)
        self.dc = np.ones(shape)
        self.cohesion = np.full(shape, big)
        # depth index d -> grid k = nz-1-d
        ks = nz - 1 - np.arange(fault.n_depth)
        isl = slice(fault.i0, fault.i1)
        self.tau0_x[isl, ks] = fault.initial.tau0_x
        self.tau0_z[isl, ks] = fault.initial.tau0_z
        self.sigma_n0[isl, ks] = fault.initial.sigma_n
        self.mu_s[isl, ks] = fault.friction.mu_s
        self.mu_d[isl, ks] = fault.friction.mu_d
        self.dc[isl, ks] = fault.friction.dc
        self.cohesion[isl, ks] = fault.friction.cohesion

        # Split-node masses from each side's density (rho at cell centres
        # adjacent to the plane).
        rho = interior(medium.rho)
        self.m_plus = rho[:, min(fault.j0, grid.ny - 1), :] * self._half_vol
        self.m_minus = rho[:, max(fault.j0 - 1, 0), :] * self._half_vol
        self._j0p = fault.j0 + NGHOST
        # Fault-plane material for the split in-plane stress updates.
        self._lam_f = interior(medium.lam)[:, fault.j0, :]
        self._lam2mu_f = interior(medium.lam2mu)[:, fault.j0, :]
        self._mu_xz_f = interior(medium.mu_xz)[:, fault.j0, :]

    def record_slip_rate(self, decimate: int = 1) -> None:
        """Keep (t, slip-rate-x, slip-rate-z) snapshots every ``decimate``
        steps — the raw material dSrcG turns into moment-rate histories."""
        self._slip_rate_history = []
        self._history_decimate = decimate

    def slip_rate_history(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """The recorded ``(t, slip-rate-x, slip-rate-z)`` snapshots."""
        if not self._slip_rate_history:
            raise RuntimeError("call record_slip_rate() before run()")
        return self._slip_rate_history

    # ------------------------------------------------------------------
    # Restart state (WaveSolver.state / load_state)
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of the fault state a bitwise restart needs (the slip-rate
        history is output, like recorder frames, and stays out)."""
        return {name: getattr(self, name).copy() for name in STATE_ARRAYS}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_arrays` dict in place."""
        for name in STATE_ARRAYS:
            getattr(self, name)[...] = arrays[name]

    # ------------------------------------------------------------------
    # Step hooks (core.schedule.StepSchedule blocks A and B)
    # ------------------------------------------------------------------
    def update_velocity(self, t: float, nstep: int) -> None:
        """Advance the split nodes through the friction-bounded traction
        solve and publish their mean motion to the bulk ``vx``/``vz``."""
        wf, h, dt = self.wf, self.grid.h, self.dt
        j0p, gi, gk = self._j0p, self._gi, self._gk
        A, hv = self.area, self._half_vol

        # Bulk restoring force per side from that side's split in-plane
        # stresses; vx split nodes sit at (i+1/2, j0, k), vz at
        # (i, j0, k+1/2).
        bulk_x_p = hv * (_one_sided(self.sxxp, h, 0, True)
                         + _one_sided(self.sxzp, h, 1, False))
        bulk_x_m = hv * (_one_sided(self.sxxm, h, 0, True)
                         + _one_sided(self.sxzm, h, 1, False))
        r_plus_x = bulk_x_p + A * wf.sxy[gi, j0p, gk]
        r_minus_x = bulk_x_m - A * wf.sxy[gi, j0p - 1, gk]
        bulk_z_p = hv * (_one_sided(self.sxzp, h, 0, False)
                         + _one_sided(self.szzp, h, 1, True))
        bulk_z_m = hv * (_one_sided(self.sxzm, h, 0, False)
                         + _one_sided(self.szzm, h, 1, True))
        r_plus_z = bulk_z_p + A * wf.syz[gi, j0p, gk]
        r_minus_z = bulk_z_m - A * wf.syz[gi, j0p - 1, gk]

        mp, mm = self.m_plus, self.m_minus
        inv = 1.0 / mp + 1.0 / mm
        # Traction that would freeze the slip rate this step (the trial).
        sdot_x = self.vxp - self.vxm
        sdot_z = self.vzp - self.vzm
        t_lock_x = (sdot_x / dt + (r_plus_x / mp - r_minus_x / mm)) / (A * inv)
        t_lock_z = (sdot_z / dt + (r_plus_z / mp - r_minus_z / mm)) / (A * inv)
        trial_x = self.tau0_x + t_lock_x
        trial_z = self.tau0_z + t_lock_z
        # Effective normal stress including the dynamic perturbation syy.
        syy_fault = wf.syy[gi, j0p, gk]
        sigma_eff = self.sigma_n0 - syy_fault
        mu = self.mu_s - (self.mu_s - self.mu_d) * np.clip(
            self.slip_path / self.dc, 0.0, 1.0)
        strength = self.cohesion + mu * np.clip(sigma_eff, 0.0, None)
        mag = np.hypot(trial_x, trial_z)
        scale = np.where(mag > strength, strength / np.maximum(mag, 1e-30), 1.0)
        t_x = trial_x * scale - self.tau0_x
        t_z = trial_z * scale - self.tau0_z

        self.vxp += dt * (r_plus_x - A * t_x) / mp
        self.vxm += dt * (r_minus_x + A * t_x) / mm
        self.vzp += dt * (r_plus_z - A * t_z) / mp
        self.vzm += dt * (r_minus_z + A * t_z) / mm

        sdot_x = self.vxp - self.vxm
        sdot_z = self.vzp - self.vzm
        self.slip_x += dt * sdot_x
        self.slip_z += dt * sdot_z
        rate = np.hypot(sdot_x, sdot_z)
        self.slip_path += dt * rate
        np.maximum(self.peak_slip_rate, rate, out=self.peak_slip_rate)
        arriving = (rate > RUPTURE_THRESHOLD) & np.isinf(self.rupture_time)
        self.rupture_time[arriving] = t
        if self._slip_rate_history is not None \
                and nstep % self._history_decimate == 0:
            self._slip_rate_history.append((t, sdot_x.copy(), sdot_z.copy()))

        # Publish the node-average motion to the bulk grid.
        wf.vx[gi, j0p, gk] = 0.5 * (self.vxp + self.vxm)
        wf.vz[gi, j0p, gk] = 0.5 * (self.vzp + self.vzm)

    def snapshot(self) -> None:
        """Keep the four fault-adjacent ``sxy``/``syz`` planes (interior y
        rows :attr:`rows`) so the corrections can replace the bulk update's
        across-fault increments."""
        wf, gi, gk = self.wf, self._gi, self._gk
        ys = slice(self._j0p - 2, self._j0p + 2)
        self._before = (wf.sxy[gi, ys, gk].copy(), wf.syz[gi, ys, gk].copy())

    def update_stress(self) -> None:
        """Integrate the split in-plane stresses, then re-derive the four
        shear-stress planes adjacent to the fault with the one-sided
        operators of Eq. (4a–c)."""
        wf, h, dt = self.wf, self.grid.h, self.dt
        j, gi, gk = self._j0p, self._gi, self._gk
        vy = wf.vy

        # Split sigma_xx/sigma_zz/sigma_xz, one set per fault side
        # (2nd-order in-plane operators).  d(vy)/dy across the fault uses
        # the centred difference of the two adjacent continuous vy planes
        # (vy is continuous across a non-opening fault).
        dyvy = (vy[gi, j, gk] - vy[gi, j - 1, gk]) / h
        lam, l2m, mu = self._lam_f, self._lam2mu_f, self._mu_xz_f
        for vx_s, vz_s, sxx, szz, sxz in (
                (self.vxp, self.vzp, self.sxxp, self.szzp, self.sxzp),
                (self.vxm, self.vzm, self.sxxm, self.szzm, self.sxzm)):
            dxvx = _one_sided(vx_s, h, 0, False)
            dzvz = _one_sided(vz_s, h, 1, False)
            sxx += dt * (l2m * dxvx + lam * (dyvy + dzvz))
            szz += dt * (l2m * dzvz + lam * (dxvx + dyvy))
            sxz += dt * mu * (_one_sided(vx_s, h, 1, True)
                              + _one_sided(vz_s, h, 0, True))

        # Eq. 4a–c: d(v)/dy at j0 -/+ 1/2 takes the minus/plus split value
        # (4c); at j0 -/+ 3/2 the 4th-order stencil takes it as its j0
        # sample (4a, mirrored below the fault).  The in-plane derivative
        # of vy is unchanged by the fault.
        nx, nz = self.grid.nx, self.grid.nz
        gx1 = slice(NGHOST + 1, NGHOST + nx + 1)
        gz1 = slice(NGHOST + 1, NGHOST + nz + 1)
        for s, v, vp, vm, mu_s, before, d_vy in (
                (wf.sxy, wf.vx, self.vxp, self.vxm, self.medium.mu_xy,
                 self._before[0], lambda jj: vy[gx1, jj, gk] - vy[gi, jj, gk]),
                (wf.syz, wf.vz, self.vzp, self.vzm, self.medium.mu_yz,
                 self._before[1], lambda jj: vy[gi, jj, gz1] - vy[gi, jj, gk])):
            dyv = (
                (C1 * (v[gi, j - 1, gk] - v[gi, j - 2, gk])
                 + C2 * (vm - v[gi, j - 3, gk])) / h,
                (vm - v[gi, j - 1, gk]) / h,
                (v[gi, j + 1, gk] - vp) / h,
                (C1 * (v[gi, j + 2, gk] - v[gi, j + 1, gk])
                 + C2 * (v[gi, j + 3, gk] - vp)) / h)
            for n, jj in enumerate(range(j - 2, j + 2)):
                s[gi, jj, gk] = (before[:, n] + dt * mu_s[gi, jj, gk]
                                 * (d_vy(jj) / h + dyv[n]))

    # ------------------------------------------------------------------
    # Derived source quantities (Fig. 19 material)
    # ------------------------------------------------------------------
    def _region_view(self, arr: np.ndarray) -> np.ndarray:
        """Fault-region view indexed [strike, depth] (depth 0 = surface)."""
        ks = self.grid.nz - 1 - np.arange(self.fault.n_depth)
        return arr[self.fault.i0:self.fault.i1][:, ks]

    def final_slip(self) -> np.ndarray:
        return self._region_view(np.hypot(self.slip_x, self.slip_z))

    def peak_slip_rate_region(self) -> np.ndarray:
        return self._region_view(self.peak_slip_rate)

    def rupture_time_region(self) -> np.ndarray:
        return self._region_view(self.rupture_time)

    def seismic_moment(self) -> float:
        """M0 = integral of mu * slip over the ruptured area."""
        mu = interior(self.medium.mu)[:, self.fault.j0, :]
        slip = np.hypot(self.slip_x, self.slip_z)
        return float((mu * slip).sum() * self.area)

    def magnitude(self) -> float:
        from ..core.source import moment_to_magnitude
        return moment_to_magnitude(max(self.seismic_moment(), 1.0))

    def rupture_velocity(self) -> np.ndarray:
        """Local rupture speed |grad T_r|^-1 on the fault region (m/s)."""
        tr = self.rupture_time_region().copy()
        unbroken = ~np.isfinite(tr)
        tr[unbroken] = np.nan
        with np.errstate(invalid="ignore", divide="ignore"):
            gx, gz = np.gradient(tr, self.grid.h)
            v = 1.0 / np.hypot(gx, gz)
        v[unbroken] = np.nan
        return v

    def supershear_fraction(self) -> float:
        """Fraction of the ruptured area with rupture speed above the local
        S speed (the red/blue patches of Fig. 19c)."""
        vs3 = np.sqrt(interior(self.medium.mu) / interior(self.medium.rho))
        ks = self.grid.nz - 1 - np.arange(self.fault.n_depth)
        vs = vs3[self.fault.i0:self.fault.i1, self.fault.j0][:, ks]
        v = self.rupture_velocity()
        ruptured = np.isfinite(self.rupture_time_region())
        if not ruptured.any():
            return 0.0
        ss = (v > vs) & ruptured
        return float(ss.sum() / ruptured.sum())

    def moment_rate_history(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, Mdot) from recorded slip-rate snapshots (needs record_slip_rate)."""
        mu = interior(self.medium.mu)[:, self.fault.j0, :]
        ts, rates = [], []
        for t, sx, sz in self.slip_rate_history():
            ts.append(t)
            rates.append(float((mu * np.hypot(sx, sz)).sum() * self.area))
        return np.asarray(ts), np.asarray(rates)
