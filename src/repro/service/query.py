"""Query — what a hazard-service user asks for, resolved to a farm job.

A query names a *product* (a PGV surface map, a seismogram component, a
GMPE residual field, or a scalar extracted at a site) of one fully
resolved scenario configuration.  Identity is delegated wholesale to the
farm: the physics fields are packed into a single-job
:class:`~repro.farm.spec.FarmSpec`, expanded to a
:class:`~repro.farm.spec.FarmJob`, and the query's cache key *is* that
job's content address (``canonical_config_hash(job.config())[:32]``).
Two consequences fall out for free:

* any two queries that agree on the physics fields — whatever order the
  request dict listed them in, ``7`` vs ``7.0``, list vs tuple
  hypocenter — resolve to the same store entry, because
  canonical-JSON hashing and the farm's float/int normalisation run
  underneath;
* the ``product`` and ``site`` fields never enter the hash: they only
  select *which slice* of the stored product bundle is returned, so a
  PGV-map query and a site-PGV query for the same scenario share one
  simulation.

``repro-product/1`` bundles carry these arrays (see
``farm/job.py::job_products``): surface maps on the (nx, ny) grid —
``pgvh``, ``pgv_gm``, ``peak_vz``, ``gmpe_residual``, ``gmpe_r_km`` —
plus the fault-plane ``rupture_times`` and nine seismogram traces
``seis.{near,off_axis,far}.{vx,vy,vz}``.  ``site=(fx, fy)`` is a pair of
domain fractions, valid only for surface maps, extracted at the nearest
grid point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from ..farm.spec import FarmJob, FarmSpec, FarmSpecError

__all__ = ["MAP_PRODUCTS", "PRODUCTS", "Query", "QueryError"]

#: 2-D surface-map products (site extraction allowed).
MAP_PRODUCTS = ("pgvh", "pgv_gm", "peak_vz", "gmpe_residual", "gmpe_r_km")

#: Non-map products addressable by name.
_SEIS_RE = re.compile(r"^seis\.(near|off_axis|far)\.(vx|vy|vz)$")

#: Every addressable product name (seismograms enumerated explicitly).
PRODUCTS = MAP_PRODUCTS + ("rupture_times",) + tuple(
    f"seis.{rec}.{comp}"
    for rec in ("near", "off_axis", "far")
    for comp in ("vx", "vy", "vz"))


class QueryError(ValueError):
    """A query is malformed (unknown product/scenario, bad site, ...)."""


@dataclass(frozen=True)
class Query:
    """One hazard-product request.

    The physics fields mirror one cell of the farm's axis product; the
    serving-only fields ``product`` and ``site`` are excluded from
    :meth:`key` by construction (they are simply never passed to the
    farm).  Values are normalised in ``__post_init__`` (int/float/tuple
    coercion) so e.g. ``magnitude=7`` and ``magnitude=7.0`` are the
    *same* query object and hash identically.
    """

    scenario: str
    nx: int = 24
    nsteps: int = 48
    magnitude: float = 6.5
    hypocenter: tuple[float, float] = (0.35, 0.4)
    rupture_seed: int = 1
    dtype: str = "float64"
    gmpe: str = "ba08"
    lts: str = "off"
    product: str = "pgvh"
    site: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "nsteps", int(self.nsteps))
        object.__setattr__(self, "magnitude", float(self.magnitude))
        object.__setattr__(self, "rupture_seed", int(self.rupture_seed))
        try:
            hyp = (float(self.hypocenter[0]), float(self.hypocenter[1]))
        except (TypeError, IndexError, ValueError):
            raise QueryError(
                f"hypocenter must be a (fx, fy) pair, got "
                f"{self.hypocenter!r}") from None
        object.__setattr__(self, "hypocenter", hyp)
        if self.product not in PRODUCTS and not _SEIS_RE.match(self.product):
            raise QueryError(
                f"unknown product {self.product!r}; known: "
                f"{', '.join(PRODUCTS)}")
        if self.site is not None:
            if self.product not in MAP_PRODUCTS:
                raise QueryError(
                    f"site extraction only applies to surface maps "
                    f"({', '.join(MAP_PRODUCTS)}), not {self.product!r}")
            try:
                site = (float(self.site[0]), float(self.site[1]))
            except (TypeError, IndexError, ValueError):
                raise QueryError(
                    f"site must be a (fx, fy) pair, got "
                    f"{self.site!r}") from None
            if not all(0.0 <= v <= 1.0 for v in site):
                raise QueryError(
                    f"site fractions must lie in [0, 1]^2, got {site!r}")
            object.__setattr__(self, "site", site)
        # Physics validation is the farm's job: building the one-job spec
        # surfaces unknown scenarios, bad dtypes/gmpes, out-of-range
        # hypocenters with the farm's own messages.  The job it expands to
        # is this query's identity, resolved here once and kept.
        try:
            job = FarmSpec(
                scenario=self.scenario, nx=self.nx, nsteps=self.nsteps,
                axes={"magnitude": [self.magnitude],
                      "hypocenter": [list(self.hypocenter)],
                      "rupture_seed": [self.rupture_seed],
                      "dtype": [self.dtype],
                      "gmpe": [self.gmpe],
                      "lts": [self.lts]}).expand()[0]
        except FarmSpecError as exc:
            raise QueryError(str(exc)) from None
        object.__setattr__(self, "_job", job)

    # -- identity ------------------------------------------------------
    def to_job(self, inject_failures: int = 0) -> FarmJob:
        """The single farm job this query schedules on a store miss."""
        if inject_failures:
            return replace(self._job, inject_failures=int(inject_failures))
        return self._job

    def key(self) -> str:
        """Content address (the farm job's key — product/site excluded)."""
        return self.to_job().key()

    def label(self) -> str:
        tail = f" @({self.site[0]:.2f},{self.site[1]:.2f})" if self.site \
            else ""
        return f"{self.product}{tail} of {self.to_job().label()}"

    # -- serving -------------------------------------------------------
    def extract(self, arrays: dict):
        """Slice this query's answer out of a stored product bundle.

        Returns the named array, or a python float when ``site`` asks
        for a point value (nearest grid node to the fraction pair).
        """
        if self.product not in arrays:
            raise QueryError(
                f"stored bundle lacks product {self.product!r} "
                f"(has: {', '.join(sorted(arrays))})")
        arr = arrays[self.product]
        if self.site is None:
            return arr
        ni, nj = arr.shape
        i = int(round(self.site[0] * (ni - 1)))
        j = int(round(self.site[1] * (nj - 1)))
        return float(arr[i, j])

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        d = {"scenario": self.scenario, "nx": self.nx,
             "nsteps": self.nsteps, "magnitude": self.magnitude,
             "hypocenter": list(self.hypocenter),
             "rupture_seed": self.rupture_seed, "dtype": self.dtype,
             "gmpe": self.gmpe, "lts": self.lts, "product": self.product}
        if self.site is not None:
            d["site"] = list(self.site)
        return d

    _FIELDS = ("scenario", "nx", "nsteps", "magnitude", "hypocenter",
               "rupture_seed", "dtype", "gmpe", "lts", "product", "site")

    @classmethod
    def from_dict(cls, d: dict) -> "Query":
        if not isinstance(d, dict):
            raise QueryError("query document is not a JSON object")
        unknown = sorted(set(d) - set(cls._FIELDS))
        if unknown:
            raise QueryError(f"unknown query keys: {', '.join(unknown)} "
                             f"(known: {', '.join(cls._FIELDS)})")
        if "scenario" not in d:
            raise QueryError("query lacks a 'scenario'")
        kwargs = {k: d[k] for k in cls._FIELDS if k in d}
        if "hypocenter" in kwargs:
            kwargs["hypocenter"] = tuple(kwargs["hypocenter"])
        if kwargs.get("site") is not None:
            kwargs["site"] = tuple(kwargs["site"])
        return cls(**kwargs)
