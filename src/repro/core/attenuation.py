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
from .grid import STRESS_FIELDS, Grid3D
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
    # deferred: 0.38-0.65 s of import after `import repro`, 0.71-0.80 s
    # in a bare interpreter (scipy 1.17, 2 vCPU)
    from scipy.optimize import nnls
    weights, _ = nnls(phi, np.ones_like(om))
    return tau, weights


class CoarseGrainedAttenuation:
    """Per-grid attenuation state: the memory variables and the trapezoidal
    coefficients the anelastic stress update reads
    (:func:`repro.core.update.halves` with ``anelastic=True``).

    For each stress component ``zeta' = a*zeta + b*(delta*rate)``, the rate
    is relaxed to ``rate - (zeta + zeta') * 0.5`` and ``zeta = zeta'``, with
    ``r = tau/dt``, ``a = (r - 1/2)/(r + 1/2)`` and ``b = 1/(r + 1/2)``
    built once for ``dt`` in the field dtype.  Every array is padded, its
    ghosts zero, so the update binds it like a medium array.

    Parameters
    ----------
    grid, medium:
        The (sub)grid and its material model (supplies Qp/Qs fields).
    f_min, f_max:
        Frequency band over which Q is held approximately constant.  The
        paper's M8 band is 0–2 Hz; a decade such as (0.2, 2.0) is typical.
    dt:
        The time step the coefficients are built for.
    n_mech:
        Number of relaxation mechanisms (8 in the paper).
    index_origin:
        Global interior index of this subgrid's (0,0,0) cell.  The 2x2x2
        mechanism assignment uses *global* parity so a decomposed run matches
        the serial run exactly.
    """

    def __init__(self, grid: Grid3D, medium: Medium, f_min: float, f_max: float,
                 dt: float, n_mech: int = 8,
                 index_origin: tuple[int, int, int] = (0, 0, 0),
                 dtype=np.float64):
        self.grid = grid
        self.f_min, self.f_max = float(f_min), float(f_max)
        self.dt = float(dt)
        self.tau, self.weights = fit_q_weights(f_min, f_max, n_mech)
        n_cycle = 2 if n_mech > 1 else 1
        ii, jj, kk = np.meshgrid(
            (np.arange(grid.nx) + index_origin[0]) % n_cycle,
            (np.arange(grid.ny) + index_origin[1]) % n_cycle,
            (np.arange(grid.nz) + index_origin[2]) % n_cycle,
            indexing="ij")
        mech = (ii + 2 * jj + 4 * kk) % n_mech
        w_x = self.weights[mech] * float(min(n_mech, 8))
        # a python-float dt keeps the division a weak-scalar op, so the
        # coefficients inherit the storage dtype (f32 stays f32)
        r = self.tau[mech].astype(dtype) / self.dt
        coeffs = {"delta_p": (w_x / interior(medium.qp)).astype(dtype),
                  "delta_s": (w_x / interior(medium.qs)).astype(dtype),
                  "zeta_a": (r - 0.5) / (r + 0.5), "zeta_b": 1.0 / (r + 0.5)}
        #: ``delta_p``/``delta_s`` (Qp, Qs) and ``zeta_a``/``zeta_b``
        self.coefficients = {k: np.pad(v, NGHOST) for k, v in coeffs.items()}
        #: the memory variable of each stress component
        self.zeta = {c: np.zeros(grid.padded_shape, dtype)
                     for c in STRESS_FIELDS}

    def arrays(self, dt: float) -> dict[str, np.ndarray]:
        """The update's attenuation operands, by their statement names, for
        an update at ``dt`` — refused unless it is the one they are built
        for."""
        if float(dt) != self.dt:
            raise ValueError(f"attenuation is built for dt={self.dt}, "
                             f"not {float(dt)}")
        return {**self.coefficients,
                **{f"zeta_{c}": z for c, z in self.zeta.items()}}

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
        """Interior views of the memory variables (for checkpointing)."""
        return {c: interior(z) for c, z in self.zeta.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in state.items():
            interior(self.zeta[name])[...] = arr
