"""Small shared pieces: the clock, rep loops, op counting, sample summaries."""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

now = time.perf_counter


@dataclass
class Ops:
    """Operations attempted and failed (reps, jobs, queries, checks)."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; ``what`` names it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)


def timed_reps(fn, seconds: float, min_reps: int) -> list:
    """Call ``fn()`` until ``seconds`` have passed and ``min_reps`` are done;
    returns what each call returned.

    Garbage is collected between calls (each call times itself, so this is
    outside every clock): solvers hold reference cycles, and leaving them to
    the collector's own schedule makes peak memory depend on the rep count.
    """
    out = []
    t_end = now() + seconds
    while len(out) < min_reps or now() < t_end:
        gc.collect()
        out.append(fn())
    return out


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summary(values) -> dict:
    """Median, quartiles and count of one sample list (the --out document)."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def column(rows: list[dict], key: str) -> list:
    return [r[key] for r in rows]


def digest(arr: np.ndarray) -> str:
    """Content hash for bitwise-equality checks across reps."""
    a = np.ascontiguousarray(arr)
    return hashlib.sha1(a.tobytes() + str((a.shape, a.dtype)).encode()
                        ).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped
    child, in MB (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / 1e6
