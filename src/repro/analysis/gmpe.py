"""NGA ground-motion prediction equations for PGV (Fig. 23).

Reimplementations of the two attenuation relations the paper compares M8
against:

* Boore & Atkinson (2008) [7] — distance metric R_JB;
* Campbell & Bozorgnia (2008) [8] — distance metric R_rup, with the basin
  (Z2.5) term; the paper's rock sites use "a depth of 400 m to the
  Vs = 2500 m/s isosurface ... (and Vs30 = 760 m/sec)".

Functional forms are implemented exactly; the published coefficient tables
are transcribed below.  Absolute medians may carry small transcription
error (documented in DESIGN.md) — the Fig. 23 reproduction is a *shape*
comparison (decay with distance, +-1 sigma band placement), which is robust
to that.

All medians are returned in cm/s (the papers' PGV unit); magnitudes are
moment magnitudes; distances are km.

Consumers: the Fig. 23 bench (``benchmarks/test_fig23_gmpe_comparison.py``)
and the ensemble farm, whose ``gmpe`` axis selects :func:`ba08_pgv` or
:func:`cb08_pgv` and lands per-job ``ln(sim / median)`` residual grids in
the product store (axis semantics and product layout: ``docs/farm.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ba08_pgv", "cb08_pgv", "GmpeResult", "probability_of_exceedance"]


@dataclass
class GmpeResult:
    """Median and log-normal sigma of a GMPE evaluation."""

    median: np.ndarray   #: cm/s
    sigma_ln: float      #: natural-log standard deviation

    def band(self, n_sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        f = np.exp(n_sigma * self.sigma_ln)
        return self.median / f, self.median * f

    def poe(self, value: np.ndarray | float) -> np.ndarray:
        """Probability of exceeding ``value`` under the log-normal model."""
        z = (np.log(np.asarray(value, dtype=float)) - np.log(self.median)) \
            / self.sigma_ln
        from scipy.stats import norm   # deferred: slow import
        return 1.0 - norm.cdf(z)


def probability_of_exceedance(value, result: GmpeResult) -> np.ndarray:
    """Convenience wrapper: P(exceed value) under the GMPE's log-normal."""
    return result.poe(value)


# ----------------------------------------------------------------------
# Boore & Atkinson (2008), PGV coefficients
# ----------------------------------------------------------------------
_BA08 = dict(
    blin=-0.600, b1=-0.500, b2=-0.06,
    c1=-0.87370, c2=0.10060, c3=-0.00334, h=2.54,
    e1=5.00121, e2=5.04727, e3=4.63188, e4=5.08210,
    e5=0.18322, e6=-0.12736, e7=0.00000, mh=8.50,
    mref=4.5, rref=1.0, vref=760.0,
    sigma=0.560,
)


def ba08_pgv(mag: float, r_jb: np.ndarray, vs30: float = 760.0,
             mechanism: str = "strike-slip") -> GmpeResult:
    """Boore–Atkinson 2008 median PGV (cm/s) and sigma.

    ``mechanism`` is 'strike-slip', 'normal', 'reverse', or 'unspecified'.
    """
    c = _BA08
    r_jb = np.asarray(r_jb, dtype=np.float64)
    r = np.sqrt(r_jb ** 2 + c["h"] ** 2)
    f_d = ((c["c1"] + c["c2"] * (mag - c["mref"]))
           * np.log(r / c["rref"]) + c["c3"] * (r - c["rref"]))
    e_mech = {"unspecified": c["e1"], "strike-slip": c["e2"],
              "normal": c["e3"], "reverse": c["e4"]}
    try:
        base = e_mech[mechanism]
    except KeyError:
        raise ValueError(f"unknown mechanism {mechanism!r}") from None
    if mag <= c["mh"]:
        f_m = base + c["e5"] * (mag - c["mh"]) + c["e6"] * (mag - c["mh"]) ** 2
    else:
        f_m = base + c["e7"] * (mag - c["mh"])
    f_s = c["blin"] * np.log(vs30 / c["vref"])  # linear site term only
    return GmpeResult(median=np.exp(f_m + f_d + f_s), sigma_ln=c["sigma"])


# ----------------------------------------------------------------------
# Campbell & Bozorgnia (2008), PGV coefficients
# ----------------------------------------------------------------------
_CB08 = dict(
    c0=0.954, c1=0.696, c2=-0.309, c3=-0.019, c4=-2.016, c5=0.170,
    c6=4.00, c7=0.245, c8=0.0, c9=0.358, c10=1.694, c11=0.092, c12=1.000,
    k1=400.0, k2=-1.955, k3=1.929, c=1.88, n=1.18,
    sigma=0.551,
)


def cb08_pgv(mag: float, r_rup: np.ndarray, vs30: float = 760.0,
             z25_km: float = 0.4, mechanism: str = "strike-slip") -> GmpeResult:
    """Campbell–Bozorgnia 2008 median PGV (cm/s) and sigma.

    ``z25_km`` is the depth to Vs = 2.5 km/s in km (the paper's rock sites
    use 0.4 km); strike-slip faulting (no hanging-wall or fault-type
    adjustments).
    """
    c = _CB08
    r_rup = np.asarray(r_rup, dtype=np.float64)
    f_mag = c["c0"] + c["c1"] * mag
    if mag > 5.5:
        f_mag += c["c2"] * (mag - 5.5)
    if mag > 6.5:
        f_mag += c["c3"] * (mag - 6.5)
    f_dis = (c["c4"] + c["c5"] * mag) * np.log(
        np.sqrt(r_rup ** 2 + c["c6"] ** 2))
    if mechanism == "reverse":
        f_flt = c["c7"]
    elif mechanism == "normal":
        f_flt = c["c8"]
    elif mechanism == "strike-slip":
        f_flt = 0.0
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    # Shallow site response (linear branch; vs30 >= k1 for rock sites).
    if vs30 >= c["k1"]:
        f_site = (c["c10"] + c["k2"] * c["n"]) * np.log(vs30 / c["k1"])
    else:
        # full nonlinear branch omitted for sub-k1 vs30; linearised instead
        f_site = (c["c10"] + c["k2"] * c["n"]) * np.log(vs30 / c["k1"])
    # Basin response.
    if z25_km < 1.0:
        f_sed = c["c11"] * (z25_km - 1.0)
    elif z25_km <= 3.0:
        f_sed = 0.0
    else:
        f_sed = c["c12"] * c["k3"] * np.exp(-0.75) * (
            1.0 - np.exp(-0.25 * (z25_km - 3.0)))
    return GmpeResult(median=np.exp(f_mag + f_dis + f_flt + f_site + f_sed),
                      sigma_ln=c["sigma"])
