"""Coarse-grained memory-variable anelastic attenuation (Section II.A).

Realistic simulations must include anelastic losses, quantified by quality
factors for S waves (Qs) and P waves (Qp).  AWP-ODC implements the
coarse-grained memory-variable technique of Day [17] and Day & Bradley [18]:
instead of carrying all relaxation mechanisms at every grid point, each point
carries *one* standard-linear-solid (SLS) mechanism, and the eight relaxation
times of the full relaxation spectrum ("eight in our calculations") are
distributed over the 2x2x2 unit cells of the grid.  Wavelengths long compared
to the cell see the spatially averaged — effectively frequency-independent —
Q, at one-eighth the memory cost.

Formulation used here (memory variable on the stress rate): for each stress
component with elastic rate ``s_el``,

    d(sigma)/dt = s_el - zeta
    tau(x) * d(zeta)/dt + zeta = delta(x) * s_el

where ``tau(x)`` is the relaxation time of the mechanism assigned to the
point and ``delta(x) = 8 * w_k(x) / Q(x)`` its weighted modulus-defect
fraction.  The weights ``w_k`` are fit (non-negative least squares) so that

    sum_k (w_k / 8) * (w*tau_k) / (1 + (w*tau_k)^2) * 8 ~= 1/Q

is flat across the modelled frequency band — the constant-Q approximation.
The trapezoidal update is unconditionally stable.

Normal stresses relax with Qp, shear stresses with Qs, matching the paper's
on-the-fly ``Qs = 50 Vs``, ``Qp = 2 Qs`` rule (Section VII.B) when the
medium's default Q model is used.
"""

from __future__ import annotations

import numpy as np

from .fd import NGHOST, interior
from .grid import Grid3D
from .medium import Medium

__all__ = ["fit_q_weights", "sls_q_inverse", "CoarseGrainedAttenuation"]


def sls_q_inverse(omega: np.ndarray, tau: np.ndarray, weights: np.ndarray
                  ) -> np.ndarray:
    """1/Q(omega) of a weighted SLS sum (unit target Q).

    ``omega`` (rad/s) may be any shape; ``tau`` and ``weights`` are the
    mechanism relaxation times and fitted weights.
    """
    om = np.asarray(omega, dtype=np.float64)[..., None]
    wt = om * tau
    return (weights * wt / (1.0 + wt ** 2)).sum(axis=-1)


def fit_q_weights(f_min: float, f_max: float, n_mech: int = 8
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Fit mechanism weights for constant Q over ``[f_min, f_max]``.

    Returns ``(tau, weights)`` with relaxation times log-spaced across the
    band (eight by default, as in the paper) and non-negative weights such
    that ``sls_q_inverse(omega, tau, weights) ~= 1`` across the band; scale by
    ``1/Q`` for a target quality factor.
    """
    if not 0 < f_min < f_max:
        raise ValueError("need 0 < f_min < f_max")
    if n_mech < 1:
        raise ValueError("need at least one mechanism")
    tau = 1.0 / (2.0 * np.pi * np.logspace(np.log10(f_min), np.log10(f_max),
                                           n_mech)[::-1])
    om = 2.0 * np.pi * np.logspace(np.log10(f_min), np.log10(f_max), 16 * n_mech)
    phi = (om[:, None] * tau) / (1.0 + (om[:, None] * tau) ** 2)
    from scipy.optimize import nnls   # deferred: ~0.3 s of import
    weights, _ = nnls(phi, np.ones_like(om))
    return tau, weights


class CoarseGrainedAttenuation:
    """Per-grid attenuation state; plugs into the stress update as a rate hook.

    Parameters
    ----------
    grid, medium:
        The (sub)grid and its material model (supplies Qp/Qs fields).
    f_min, f_max:
        Frequency band over which Q is held approximately constant.  The
        paper's M8 band is 0–2 Hz; a decade such as (0.2, 2.0) is typical.
    n_mech:
        Number of relaxation mechanisms (8 in the paper).
    index_origin:
        Global interior index of this subgrid's (0,0,0) cell.  The 2x2x2
        mechanism assignment uses *global* parity so a decomposed run matches
        the serial run exactly.
    """

    #: Stress components relaxed with Qp vs Qs.
    _P_COMPONENTS = ("sxx", "syy", "szz")

    def __init__(self, grid: Grid3D, medium: Medium, f_min: float, f_max: float,
                 n_mech: int = 8, index_origin: tuple[int, int, int] = (0, 0, 0),
                 dtype=np.float64):
        self.grid = grid
        self.f_min, self.f_max = float(f_min), float(f_max)
        self.tau, self.weights = fit_q_weights(f_min, f_max, n_mech)
        n_cycle = 2 if n_mech > 1 else 1
        ii, jj, kk = np.meshgrid(
            (np.arange(grid.nx) + index_origin[0]) % n_cycle,
            (np.arange(grid.ny) + index_origin[1]) % n_cycle,
            (np.arange(grid.nz) + index_origin[2]) % n_cycle,
            indexing="ij")
        mech = (ii + 2 * jj + 4 * kk) % n_mech
        tau_x = self.tau[mech]
        w_x = self.weights[mech] * float(min(n_mech, 8))
        qp = interior(medium.qp)
        qs = interior(medium.qs)
        self._delta = {"p": (w_x / qp).astype(dtype), "s": (w_x / qs).astype(dtype)}
        self._tau_x = tau_x.astype(dtype)
        self._zeta = {c: np.zeros(grid.shape, dtype=dtype)
                      for c in ("sxx", "syy", "szz", "sxy", "sxz", "syz")}
        self._dt_coeffs: tuple[float, np.ndarray, np.ndarray] | None = None
        # Pooled hot-loop temporaries for the in-place rate hook.
        self._t1 = np.zeros(grid.shape, dtype=dtype)
        self._t2 = np.zeros(grid.shape, dtype=dtype)

    def _coeffs(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoidal update coefficients (A, B) for the current dt."""
        if self._dt_coeffs is None or self._dt_coeffs[0] != dt:
            # float(dt) keeps the division a weak-scalar op so the
            # coefficients inherit tau_x's storage dtype (f32 stays f32).
            r = self._tau_x / float(dt)
            a = (r - 0.5) / (r + 0.5)
            b = 1.0 / (r + 0.5)
            self._dt_coeffs = (dt, a, b)
        return self._dt_coeffs[1], self._dt_coeffs[2]

    def rate_hook(self, dt: float):
        """Return a ``hook(comp, elastic_rate) -> relaxed_rate`` callable.

        The hook is allocation-free: it relaxes the rate *in place* using
        pooled temporaries, with the ufunc calls ordered exactly as the
        expressions they replaced (``zeta_new = a*zeta + b*(delta*rate)``;
        ``adjusted = rate - 0.5*(zeta + zeta_new)``), so results are
        bit-identical to the allocating formulation.
        """
        a, b = self._coeffs(dt)
        t1, t2 = self._t1, self._t2

        def hook(comp: str, rate: np.ndarray) -> np.ndarray:
            zeta = self._zeta[comp]
            delta = self._delta["p" if comp in self._P_COMPONENTS else "s"]
            np.multiply(delta, rate, out=t1)
            np.multiply(b, t1, out=t1)            # b * (delta * rate)
            np.multiply(a, zeta, out=t2)
            np.add(t2, t1, out=t2)                # zeta_new = a*zeta + ...
            np.add(zeta, t2, out=t1)
            np.multiply(t1, 0.5, out=t1)          # 0.5 * (zeta + zeta_new)
            np.subtract(rate, t1, out=rate)
            np.copyto(zeta, t2)
            return rate

        return hook

    # ------------------------------------------------------------------
    def effective_q(self, freq: np.ndarray, q_target: float) -> np.ndarray:
        """Spatially averaged model Q at ``freq`` for a nominal target Q.

        Diagnostic used by tests: the coarse-grained medium's effective
        ``1/Q`` is the average of the eight mechanisms' contributions.
        """
        om = 2.0 * np.pi * np.asarray(freq, dtype=np.float64)
        inv_q = sls_q_inverse(om, self.tau, self.weights) / q_target
        return 1.0 / inv_q

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Memory-variable arrays (for checkpointing)."""
        return dict(self._zeta)

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in state.items():
            self._zeta[name][...] = arr
