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

import io
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..obs.provenance import RunManifest, canonical_config_hash
from .spec import FarmJob

__all__ = ["PRODUCT_SCHEMA", "ProductStore", "ProductError"]

#: Schema identifier carried in every product's ``__meta__``.
PRODUCT_SCHEMA = "repro-product/1"

#: What one store's read memo may hold: verified file bytes plus the
#: answers decoded from them.  A product larger than this is not kept.
_MEMO_BYTES = 64 << 20
#: What one note (names read once) is charged: about a key and a tuple.
_NOTE_BYTES = 256
#: numpy parses every .npy header with ``ast.literal_eval``, and CPython
#: 3.11's AST builder keeps its recursion count per interpreter: two
#: threads parsing at once can fail with "SystemError: AST constructor
#: recursion depth mismatch".  One parse at a time, in every store.
_PARSE_LOCK = threading.Lock()


class ProductError(ValueError):
    """A product file is missing, torn, or carries the wrong schema."""


def _held(raw: bytes | None, answers: dict) -> int:
    """Bytes one memo entry holds: the file bytes, each kept answer's
    arrays and meta text, and ``_NOTE_BYTES`` for each note."""
    return (len(raw) if raw is not None else 0) + sum(
        _NOTE_BYTES if answer is None else
        sum(a.nbytes for a in answer[0].values()) + len(answer[1])
        for answer in answers.values())


class ProductStore:
    """Content-addressed npz store under one root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        #: key -> (bytes last verified or None, {names: (arrays, meta
        #: text), or None for names read only once so far})
        self._memo: OrderedDict[str, tuple] = OrderedDict()
        self._memo_bytes = 0
        self._memo_lock = threading.Lock()

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

        The file is read once, whole.  When its bytes equal those an
        earlier call with the same ``names`` verified, that call's
        answer is returned from the memo (fresh copies; nothing is
        decoded); otherwise the bytes are checked as above.  An answer is
        kept from the second verified read with the same ``names`` on, so
        one asked for once costs the memo a note, not a copy.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise ProductError(f"no product {key} under {self.root}") \
                from None
        names = None if names is None else tuple(names)
        with self._memo_lock:
            kept, answers = self._memo.get(key, (None, {}))
            answer = answers.get(names) if kept == raw else None
            if answer is not None:
                self._memo.move_to_end(key)
                arrays, meta_text = answer
                return ({k: a.copy(order="K") for k, a in arrays.items()},
                        json.loads(meta_text))
        arrays, meta, meta_text = self._load(path, key, raw, names)
        with self._memo_lock:
            self._remember(key, raw, names, arrays, meta_text)
        return arrays, meta

    def _load(self, path: Path, key: str, raw: bytes, names) \
            -> tuple[dict[str, np.ndarray], dict, str]:
        """The full check of one file's bytes: (arrays, meta, meta text)."""
        try:
            with _PARSE_LOCK, np.load(io.BytesIO(raw),
                                      allow_pickle=False) as z:
                if "__meta__" not in z:
                    raise ProductError(f"product {path} lacks __meta__")
                meta_text = str(z["__meta__"])
                meta = json.loads(meta_text)
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
        return arrays, meta, meta_text

    def _remember(self, key: str, raw: bytes, names, arrays,
                  meta_text: str) -> None:
        """Memo one verified answer (caller holds ``_memo_lock``).

        The first read of a product with given ``names`` leaves a note; a
        later one keeps the bytes and a private copy of the answer.
        Least recently used products go first once the memo passes its
        bound.
        """
        kept, answers = self._memo.pop(key, (None, {}))
        self._memo_bytes -= _held(kept, answers)
        if kept != raw:                 # answers from other bytes go
            kept, answers = None, dict.fromkeys(answers)
        if names in answers:
            kept = raw
            answers[names] = (
                {k: a.copy(order="K") for k, a in arrays.items()}, meta_text)
        else:
            answers[names] = None
        held = _held(kept, answers)
        if held <= _MEMO_BYTES:
            self._memo[key] = (kept, answers)
            self._memo_bytes += held
        while self._memo_bytes > _MEMO_BYTES:
            self._memo_bytes -= _held(*self._memo.popitem(last=False)[1])

    def get_job(self, job: FarmJob) -> tuple[dict[str, np.ndarray], dict]:
        return self.get(job.key())
