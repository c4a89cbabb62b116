"""FarmSpec — declarative description of a scenario ensemble.

A farm is *whole-sim parallelism*: the cartesian product of a milestone
scenario (:mod:`repro.scenarios.catalog`) with parameter axes —
magnitude, hypocenter position, rupture-slip seed, wavefield precision,
and GMPE choice — expanded into independent :class:`FarmJob`\\ s that the
:mod:`repro.farm.engine` schedules across worker processes.  This is the
oq-hazardlib scenario-calculator shape (seeds x realisations x GSIMs
fanned over ``concurrent_tasks``) applied to this repo's solver stack.

Determinism contract: every job derives its RNG seed from
``zlib.crc32`` of the job's canonical-JSON configuration (not ``hash()``,
which PYTHONHASHSEED randomises per process), so the same spec expands to
the same jobs with the same seeds in every process — the property the
content-addressed product store and the serial == multiprocess
bitwise-equality tests rely on.

Schema and axis semantics are documented in ``docs/farm.md``.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from ..core.solver import KERNEL_VARIANTS
from ..obs.provenance import canonical_config_hash, canonical_json
from ..scenarios.catalog import SCENARIOS

__all__ = ["FARM_SPEC_SCHEMA", "AXES", "FarmSpec", "FarmJob",
           "FarmSpecError"]

#: Schema identifier expected at the top of a spec JSON document.
FARM_SPEC_SCHEMA = "repro-farm-spec/1"

#: Axis name -> (element validator, human description).  The expansion is
#: the cartesian product over these, in this order (job index order).
AXES = ("magnitude", "hypocenter", "rupture_seed", "dtype", "gmpe", "lts")

_DTYPES = ("float32", "float64")
_GMPES = ("ba08", "cb08")
_LTS = ("off", "auto")
#: ``auto`` (the default) = compiled where a provider exists, else pooled;
#: resolved where the job runs (:func:`repro.farm.job.resolve_variant`).
_VARIANTS = ("auto", *KERNEL_VARIANTS)


class FarmSpecError(ValueError):
    """A spec document is malformed (unknown scenario/axis, bad values)."""


@dataclass(frozen=True)
class FarmJob:
    """One fully-resolved ensemble member (a single simulation to run).

    All fields except ``index``, ``inject_failures``, and
    ``kernel_variant`` are physics-affecting and enter :meth:`config`
    (hence the cache key and the derived seed).  ``index`` is the job's
    position in the spec expansion; ``inject_failures`` is a test-only
    knob making the first N attempts raise (the retry-path teeth test)
    and is deliberately excluded from the key so a retried job lands at
    the same address.  ``kernel_variant`` selects the stencil backend
    (one of :data:`~repro.core.solver.KERNEL_VARIANTS`) and is excluded
    from the key because they are bitwise-equal on the farm problem class
    (sponge + free surface, no PML/attenuation) — the equivalence-matrix
    cells in :mod:`repro.verify.matrix` gate that claim at atol=0, so the
    same spec lands the same product addresses whichever backend computed
    them; the default ``auto`` takes the compiled one wherever the host
    can build it.  A variant that ever broke bitwise equality would have
    to move into :meth:`config`.  ``lts`` sits between the two regimes:
    excluded from the key only while the measured LTS-vs-global-dt
    misfit passes the PrecisionGate bound (see
    :func:`repro.farm.gate.lts_identity_exempt`), included otherwise.
    """

    scenario: str
    nx: int
    nsteps: int
    magnitude: float
    hypocenter: tuple[float, float]   #: (along-strike, down-dip) fractions
    rupture_seed: int
    dtype: str
    gmpe: str
    index: int = 0
    inject_failures: int = 0
    kernel_variant: str = "auto"
    lts: str = "off"

    def config(self) -> dict:
        """The physics-affecting configuration (enters the cache key).

        ``lts`` is conditionally identity-relevant: excluded while the
        measured LTS-vs-global-dt misfit passes the PrecisionGate bound
        (:func:`repro.farm.gate.lts_identity_exempt` — then an LTS job
        shares the global-dt job's product address, like the bitwise
        ``kernel_variant``), included otherwise so a scheme that
        measurably diverges gets its own addresses.
        """
        d = {
            "scenario": self.scenario,
            "nx": self.nx,
            "nsteps": self.nsteps,
            "magnitude": self.magnitude,
            "hypocenter": list(self.hypocenter),
            "rupture_seed": self.rupture_seed,
            "dtype": self.dtype,
            "gmpe": self.gmpe,
        }
        if self.lts != "off":
            from .gate import lts_identity_exempt
            if not lts_identity_exempt(self.lts):
                d["lts"] = self.lts
        return d

    def key(self) -> str:
        """Content address of this job's products (32 hex chars)."""
        return canonical_config_hash(self.config())[:32]

    def derived_seed(self) -> int:
        """crc32-of-canonical-JSON seed: stable across processes and
        PYTHONHASHSEED, distinct per job configuration."""
        return zlib.crc32(canonical_json(self.config()).encode()) & 0xFFFFFFFF

    def label(self) -> str:
        tail = f" lts={self.lts}" if self.lts != "off" else ""
        return (f"{self.scenario} Mw{self.magnitude:.1f} "
                f"hyp({self.hypocenter[0]:.2f},{self.hypocenter[1]:.2f}) "
                f"seed{self.rupture_seed} {self.dtype} {self.gmpe}{tail}")

    def to_dict(self) -> dict:
        d = self.config()
        d["index"] = self.index
        d["inject_failures"] = self.inject_failures
        d["kernel_variant"] = self.kernel_variant
        d["lts"] = self.lts      # full fidelity even when identity-exempt
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FarmJob":
        return cls(scenario=d["scenario"], nx=int(d["nx"]),
                   nsteps=int(d["nsteps"]),
                   magnitude=float(d["magnitude"]),
                   hypocenter=tuple(float(v) for v in d["hypocenter"]),
                   rupture_seed=int(d["rupture_seed"]),
                   dtype=d["dtype"], gmpe=d["gmpe"],
                   index=int(d.get("index", 0)),
                   inject_failures=int(d.get("inject_failures", 0)),
                   kernel_variant=d.get("kernel_variant", "auto"),
                   lts=d.get("lts", "off"))


@dataclass(frozen=True)
class FarmSpec:
    """A declarative ensemble: scenario + sizing + parameter axes.

    ``axes`` maps axis names (:data:`AXES`) to value lists; omitted axes
    default to a single element.  ``inject_failures`` maps job *index*
    (in expansion order) to a number of initially-failing attempts — a
    test/teeth knob, not part of any job's identity.  ``kernel_variant``
    picks the stencil backend for every job — by default the compiled
    one where the host has a provider, else pooled (it is not an axis:
    backends are bitwise-equal, so fanning over them would duplicate
    products).
    """

    scenario: str
    nx: int = 24
    nsteps: int = 48
    axes: dict = field(default_factory=dict)
    inject_failures: dict = field(default_factory=dict)
    kernel_variant: str = "auto"

    #: per-axis defaults used when an axis is omitted from the spec
    _DEFAULTS = {
        "magnitude": (6.5,),
        "hypocenter": ((0.35, 0.4),),
        "rupture_seed": (1,),
        "dtype": ("float64",),
        "gmpe": ("ba08",),
        "lts": ("off",),
    }

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise FarmSpecError(
                f"unknown scenario {self.scenario!r}; "
                f"known: {sorted(SCENARIOS)}")
        if self.nx < 8:
            raise FarmSpecError(f"nx must be >= 8 (got {self.nx})")
        if self.nsteps < 1:
            raise FarmSpecError(f"nsteps must be >= 1 (got {self.nsteps})")
        if self.kernel_variant not in _VARIANTS:
            raise FarmSpecError(
                f"kernel_variant must be one of {_VARIANTS} "
                f"(got {self.kernel_variant!r})")
        unknown = sorted(set(self.axes) - set(AXES))
        if unknown:
            raise FarmSpecError(f"unknown axes: {', '.join(unknown)} "
                                f"(known: {', '.join(AXES)})")
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise FarmSpecError(f"axis {axis!r} must be a non-empty list")
        for d in self.axes.get("dtype", ()):
            if d not in _DTYPES:
                raise FarmSpecError(f"dtype axis value {d!r} not in {_DTYPES}")
        for g in self.axes.get("gmpe", ()):
            if g not in _GMPES:
                raise FarmSpecError(f"gmpe axis value {g!r} not in {_GMPES}")
        for lv in self.axes.get("lts", ()):
            if lv not in _LTS:
                raise FarmSpecError(f"lts axis value {lv!r} not in {_LTS}")
        for h in self.axes.get("hypocenter", ()):
            if (not isinstance(h, (list, tuple)) or len(h) != 2
                    or not all(0.0 < float(v) < 1.0 for v in h)):
                raise FarmSpecError(
                    f"hypocenter axis values must be (0,1)^2 fraction "
                    f"pairs, got {h!r}")

    # ------------------------------------------------------------------
    def axis_values(self, name: str) -> tuple:
        vals = self.axes.get(name)
        return tuple(vals) if vals else self._DEFAULTS[name]

    def njobs(self) -> int:
        n = 1
        for axis in AXES:
            n *= len(self.axis_values(name=axis))
        return n

    def expand(self) -> list[FarmJob]:
        """The full job list: cartesian product over axes, in axis order."""
        jobs: list[FarmJob] = []
        for idx, (mag, hyp, seed, dtype, gmpe, lts) in enumerate(product(
                *(self.axis_values(a) for a in AXES))):
            jobs.append(FarmJob(
                scenario=self.scenario, nx=self.nx, nsteps=self.nsteps,
                magnitude=float(mag),
                hypocenter=(float(hyp[0]), float(hyp[1])),
                rupture_seed=int(seed), dtype=dtype, gmpe=gmpe,
                index=idx,
                inject_failures=int(self.inject_failures.get(idx, 0)),
                kernel_variant=self.kernel_variant, lts=lts))
        return jobs

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"schema": FARM_SPEC_SCHEMA, "scenario": self.scenario,
                "nx": self.nx, "nsteps": self.nsteps,
                "kernel_variant": self.kernel_variant,
                "axes": {k: [list(v) if isinstance(v, (list, tuple)) else v
                             for v in vals]
                         for k, vals in self.axes.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "FarmSpec":
        if not isinstance(d, dict):
            raise FarmSpecError("spec document is not a JSON object")
        schema = d.get("schema", FARM_SPEC_SCHEMA)
        if schema != FARM_SPEC_SCHEMA:
            raise FarmSpecError(f"spec schema {schema!r} != "
                                f"{FARM_SPEC_SCHEMA!r}")
        known = {"schema", "scenario", "nx", "nsteps", "axes",
                 "inject_failures", "kernel_variant"}
        unknown = sorted(set(d) - known)
        if unknown:
            raise FarmSpecError(f"unknown spec keys: {', '.join(unknown)}")
        if "scenario" not in d:
            raise FarmSpecError("spec lacks a 'scenario'")
        inject = {int(k): int(v)
                  for k, v in (d.get("inject_failures") or {}).items()}
        return cls(scenario=d["scenario"], nx=int(d.get("nx", 24)),
                   nsteps=int(d.get("nsteps", 48)),
                   axes=dict(d.get("axes") or {}),
                   inject_failures=inject,
                   kernel_variant=d.get("kernel_variant", "auto"))

    @classmethod
    def load(cls, path: str | Path) -> "FarmSpec":
        """Read and validate a spec JSON file."""
        try:
            with open(path) as f:
                doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise FarmSpecError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(doc)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path
