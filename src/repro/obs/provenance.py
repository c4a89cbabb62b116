"""Run provenance — canonical config hashes and the RunManifest.

Every artifact this repo produces (bench JSON, verify reports, golden
``__meta__`` blocks, checkpoints, span traces) should answer two questions
without re-running anything: *what exact configuration produced this* and
*in what environment*.  :func:`canonical_config_hash` gives the first — a
SHA-256 over a canonicalised (sorted-key, dataclass-expanded, dtype-
normalised) JSON form of any configuration object, so two processes with
the same config produce the same hash regardless of dict insertion order,
PYTHONHASHSEED, or whether the config is a dataclass or a plain dict.
:class:`RunManifest` gives the second — config hash plus git revision,
host, package versions, dtype, and backend — and is attached uniformly by
the producing layers.

The config hash is also the seed of the content-addressed cache key the
hazard-service direction needs (ROADMAP item 3): :func:`cache_key` combines
a solver config hash with a scenario hash into one address.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import subprocess
import time

import numpy as np

__all__ = ["MANIFEST_SCHEMA", "RunManifest", "cache_key", "canonical_state",
           "canonical_json", "canonical_config_hash", "git_revision"]

MANIFEST_SCHEMA = "repro-manifest/1"


def canonical_state(obj):
    """Reduce ``obj`` to a deterministic plain-data form for hashing.

    Dataclasses become ``{"__class__": name, **fields}`` mappings, numpy
    dtypes and scalar types become their dtype names, numpy scalars become
    python numbers, tuples become lists, and mapping keys are stringified
    (json sorts them).  Arrays are refused: a config that embeds bulk data
    has no canonical identity cheap enough to hash on every run.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__class__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical_state(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): canonical_state(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_state(v) for v in obj]
    if isinstance(obj, type):
        # dtype classes (np.float64) and anything else passed as a type
        try:
            return np.dtype(obj).name
        except TypeError:
            return obj.__name__
    if isinstance(obj, np.dtype):
        return obj.name
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        raise TypeError("config objects must not embed numpy arrays")
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if callable(obj):
        return f"<callable {getattr(obj, '__qualname__', repr(obj))}>"
    return repr(obj)


def canonical_json(obj) -> str:
    """Compact, sorted-key JSON of :func:`canonical_state`."""
    return json.dumps(canonical_state(obj), sort_keys=True,
                      separators=(",", ":"))


def canonical_config_hash(obj) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``obj``.

    Identical configs hash identically across processes and platforms —
    the property the golden store, the bench baselines, and the future
    content-addressed scenario cache all rely on.
    """
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def cache_key(config, scenario=None) -> str:
    """Content address for (config, scenario): ``<hash16>-<hash16>``.

    Seeds the hazard-service cache (ROADMAP item 3): two runs with the
    same solver configuration and scenario parameters share one key.
    """
    ch = canonical_config_hash(config)[:16]
    if scenario is None:
        return ch
    return f"{ch}-{canonical_config_hash(scenario)[:16]}"


def git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``.

    Memoised per process and working directory: a farm or a store stamps
    one manifest per product, and each used to fork ``git rev-parse``.
    """
    return _git_revision(os.getcwd())


@functools.lru_cache(maxsize=8)
def _git_revision(cwd: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=cwd)
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def _package_versions() -> dict[str, str]:
    versions = {"python": platform.python_version(),
                "numpy": np.__version__}
    try:
        import scipy
        versions["scipy"] = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a baked-in dep
        pass
    return versions


@dataclasses.dataclass
class RunManifest:
    """Provenance stamp attached to every produced artifact.

    ``config_hash`` is :func:`canonical_config_hash` of whatever
    configuration object produced the run (a :class:`SolverConfig`, a
    :class:`BenchConfig`, the golden ``SCENARIO`` dict, ...).
    """

    config_hash: str
    git_rev: str = "unknown"
    host: str = ""
    machine: str = ""
    dtype: str | None = None
    backend: str | None = None
    packages: dict = dataclasses.field(default_factory=dict)
    created: str = ""
    schema: str = MANIFEST_SCHEMA

    @classmethod
    def collect(cls, config=None, dtype=None, backend: str | None = None
                ) -> "RunManifest":
        """Build a manifest for the current process and ``config``."""
        return cls(
            config_hash=canonical_config_hash(config),
            git_rev=git_revision(),
            host=platform.node(),
            machine=platform.machine(),
            dtype=np.dtype(dtype).name if dtype is not None else None,
            backend=backend,
            packages=_package_versions(),
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})
