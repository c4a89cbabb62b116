"""Checkpoint/restart (Section III.F).

"All simulation states consisting of all the internal state variables on
each processor are periodically saved into reliable storage where each
processor is responsible for writing and updating its own checkpoint data."

:class:`CheckpointManager` persists solver state dictionaries to disk (one
file per rank per epoch, matching the per-processor scheme), tracks the
modelled filesystem cost (the paper notes M8 skipped checkpointing because
each epoch would have written 49 TB), verifies integrity with MD5, and
restores the latest complete epoch — including after injected failures that
leave partial epochs behind.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..obs.tracer import get_tracer
from .checksum import md5_digest
from .lustre import LustreModel

__all__ = ["CheckpointManager", "CheckpointCorrupt"]


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file failed its integrity check."""


def _state_bytes(state: dict) -> bytes:
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class CheckpointManager:
    """Per-rank checkpoint files under ``root`` with epoch bookkeeping."""

    root: Path
    model: LustreModel = field(default_factory=LustreModel)
    io_seconds: float = 0.0

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, epoch: int, rank: int) -> Path:
        return self.root / f"ckpt_e{epoch:06d}_r{rank:06d}.pkl"

    def _marker(self, epoch: int) -> Path:
        return self.root / f"ckpt_e{epoch:06d}.complete"

    def _manifest_path(self, epoch: int) -> Path:
        return self.root / f"ckpt_e{epoch:06d}.manifest.json"

    def write_epoch(self, epoch: int, states: dict[int, dict],
                    max_open: int = 650, manifest: dict | None = None) -> float:
        """Write one epoch (rank -> state dict); returns modelled seconds.

        The epoch is marked complete only after every rank file lands —
        restart never sees a torn epoch.  ``manifest`` (a
        :class:`~repro.obs.provenance.RunManifest` dict) is persisted
        alongside so a restart can prove which configuration produced the
        checkpoint.
        """
        with get_tracer().span("checkpoint.write", category="io",
                               epoch=epoch, nranks=len(states)):
            blobs = {rank: _state_bytes(st) for rank, st in states.items()}
            t = self.model.open_files(len(blobs),
                                      concurrent=min(max_open, len(blobs)))
            total_bytes = sum(len(b) for b in blobs.values())
            t += self.model.transfer(total_bytes,
                                     stripe_count=1,  # unity stripe per rank
                                     n_clients=len(blobs),
                                     n_requests=len(blobs))
            for rank, blob in blobs.items():
                digest = md5_digest(np.frombuffer(blob, dtype=np.uint8))
                with open(self._path(epoch, rank), "wb") as f:
                    f.write(digest.encode() + b"\n")
                    f.write(blob)
            if manifest is not None:
                self._manifest_path(epoch).write_text(
                    json.dumps(manifest, indent=2, sort_keys=True,
                               default=str), encoding="utf-8")
            self._marker(epoch).touch()
            self.io_seconds += t
        return t

    def read_manifest(self, epoch: int) -> dict | None:
        """The provenance manifest written with one epoch, if any."""
        path = self._manifest_path(epoch)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    def complete_epochs(self) -> list[int]:
        return sorted(int(p.name[6:12]) for p in self.root.glob("ckpt_e*.complete"))

    def latest_epoch(self) -> int | None:
        epochs = self.complete_epochs()
        return epochs[-1] if epochs else None

    def read_epoch(self, epoch: int, ranks: list[int]) -> dict[int, dict]:
        """Load and verify one epoch's states for the given ranks."""
        out: dict[int, dict] = {}
        with get_tracer().span("checkpoint.read", category="io",
                               epoch=epoch, nranks=len(ranks)):
            for rank in ranks:
                path = self._path(epoch, rank)
                if not path.exists():
                    raise FileNotFoundError(f"missing checkpoint {path.name}")
                raw = path.read_bytes()
                nl = raw.find(b"\n")
                blob = memoryview(raw)[nl + 1:]     # the state, not a copy
                if (md5_digest(np.frombuffer(blob, dtype=np.uint8)).encode()
                        != raw[:nl]):
                    raise CheckpointCorrupt(f"{path.name} failed its MD5 "
                                            "check")
                out[rank] = pickle.loads(blob)
        return out

    def restore_latest(self, ranks: list[int]) -> tuple[int, dict[int, dict]] | None:
        """Restore the newest epoch that verifies for all ranks.

        Walks backward past corrupt/partial epochs (failure tolerance);
        returns None when nothing restorable exists.
        """
        for epoch in reversed(self.complete_epochs()):
            try:
                return epoch, self.read_epoch(epoch, ranks)
            except (FileNotFoundError, CheckpointCorrupt):
                continue
        return None

    # ------------------------------------------------------------------
    def inject_corruption(self, epoch: int, rank: int) -> None:
        """Flip bytes in one checkpoint file (for failure-injection tests)."""
        path = self._path(epoch, rank)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))

    def estimated_epoch_bytes(self, states: dict[int, dict]) -> int:
        return sum(len(_state_bytes(st)) for st in states.values())
