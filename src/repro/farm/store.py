"""Content-addressed, schema'd product store (``repro-product/1``).

The golden-store pattern (:mod:`repro.verify.golden`: npz files whose
``__meta__`` entry carries a schema id, the producing configuration, and
a provenance manifest) generalised into a durable product store: one npz
per farm job, addressed by the job's canonical config hash
(:func:`repro.obs.provenance.canonical_config_hash`), sharded two hex
chars deep::

    <root>/
      ab/
        ab12...ef.npz      # all product arrays + __meta__
      cd/
        cd34...01.npz

Because the address *is* the configuration hash, the store doubles as
the farm's resume/cache layer: a job whose key already exists is a cache
hit and is never recomputed — and the hazard-service direction (ROADMAP
item 3) can answer repeat queries straight from this layout.

Writes are atomic (tmp file + ``os.replace``) so a farm killed mid-job
never leaves a torn product behind; whatever *did* land is safely
resumable.  Store layout and meta fields are documented in
``docs/farm.md``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from ..obs.provenance import RunManifest, canonical_config_hash
from .spec import FarmJob

__all__ = ["PRODUCT_SCHEMA", "ProductStore", "ProductError"]

#: Schema identifier carried in every product's ``__meta__``.
PRODUCT_SCHEMA = "repro-product/1"


class ProductError(ValueError):
    """A product file is missing, torn, or carries the wrong schema."""


class ProductStore:
    """Content-addressed npz store under one root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    def has(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> list[str]:
        """Every product key present, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("??/*.npz"))

    def count(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------
    def put(self, job: FarmJob, arrays: dict[str, np.ndarray],
            wall_s: float = 0.0, attempts: int = 1) -> Path:
        """Write one job's products atomically; returns the final path.

        The ``__meta__`` document records the product schema, the job's
        canonical configuration and content key, the crc32-derived seed,
        per-array shapes/dtypes, and a :class:`RunManifest` whose
        ``config_hash`` is the full canonical hash of the job config —
        re-derivable by anyone holding the meta alone.
        """
        key = job.key()
        meta = {
            "schema": PRODUCT_SCHEMA,
            "key": key,
            "job": job.config(),
            "derived_seed": job.derived_seed(),
            "wall_s": float(wall_s),
            "attempts": int(attempts),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "arrays": {k: {"shape": list(np.asarray(v).shape),
                           "dtype": str(np.asarray(v).dtype)}
                       for k, v in arrays.items()},
            "manifest": RunManifest.collect(
                config=job.config(), dtype=job.dtype,
                backend="farm").to_dict(),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {k: np.asarray(v) for k, v in arrays.items()}
        payload["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez_compressed(f, **payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def get(self, key: str, names=None) -> tuple[dict[str, np.ndarray], dict]:
        """Load (arrays, meta) for ``key``; validates schema and address.

        ``names`` restricts which arrays are decompressed (a name the
        bundle lacks is simply absent from the result); ``None`` reads
        them all.  Whatever is asked for, ``__meta__`` is read and a file
        whose meta hash does not match its address is refused — content
        addressing is only worth anything if it is checked — and every
        way a torn or bit-flipped file can fail to load surfaces as
        :class:`ProductError`.  Each member read is CRC-checked, so a
        call verifies every byte it returns; damage inside a member it
        did not read is found by the call that reads it.
        """
        path = self.path_for(key)
        if not path.exists():
            raise ProductError(f"no product {key} under {self.root}")
        try:
            with np.load(path, allow_pickle=False) as z:
                if "__meta__" not in z:
                    raise ProductError(f"product {path} lacks __meta__")
                meta = json.loads(str(z["__meta__"]))
                wanted = z.files if names is None else \
                    [k for k in names if k in z.files]
                arrays = {k: z[k] for k in wanted if k != "__meta__"}
        except ProductError:
            raise
        except Exception as exc:  # noqa: BLE001 - torn or flipped bytes can
            # raise anything (BadZipFile, zlib.error, KeyError, ...)
            raise ProductError(f"cannot read product {path}: "
                               f"{type(exc).__name__}: {exc}") from None
        if meta.get("schema") != PRODUCT_SCHEMA:
            raise ProductError(f"product {path} has schema "
                               f"{meta.get('schema')!r}, expected "
                               f"{PRODUCT_SCHEMA!r}")
        stated = canonical_config_hash(meta.get("job", {}))[:32]
        if stated != key:
            raise ProductError(
                f"product {path}: job config hashes to {stated}, "
                f"not its address {key} — store corrupted?")
        return arrays, meta

    def get_job(self, job: FarmJob) -> tuple[dict[str, np.ndarray], dict]:
        return self.get(job.key())
