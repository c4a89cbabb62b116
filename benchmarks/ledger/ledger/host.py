"""Host calibration: the measured ceilings the layer rows are read against.

Run once per traced invocation, outside every workload's clock.  The byte
counts of the I/O probes are those of the artefacts the workloads write (a
``quake_serial`` checkpoint, a ``farm_cold`` product), so a ceiling and the
layer it bounds move the same number of bytes.
"""

from __future__ import annotations

import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from .env import ROOT, scratch_dir
from .util import median, now

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")

#: Largest triad array the calibration will touch.  First touch of fresh
#: guest memory runs at ~0.2 GiB/s on the 2-core reference VM, so three
#: arrays of 4 x its reported 260 MiB LLC would cost more than a whole run.
TRIAD_MAX_BYTES = 128 << 20

#: sizes of the artefacts the I/O ceilings imitate (full sizing)
CHECKPOINT_BYTES = 23_000_000
PRODUCT_BYTES = 77_000


def llc_bytes() -> int:
    """Size of the last-level cache as sysfs reports it (0 if unknown)."""
    best_level, best = -1, 0
    for index in _CACHE_DIR.glob("index*"):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction" or level < best_level:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        digits = size[:-1] if size[-1] in "KMG" else size
        best_level, best = level, int(digits) * mult
    return best


def _available_bytes() -> int:
    """Memory an allocation may take: MemAvailable, or the cgroup limit
    when that is lower."""
    avail = 0
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        if limit != "max":
            avail = min(avail or int(limit), int(limit))
    except (OSError, ValueError):
        pass
    return avail or (1 << 30)


def _big_array(n: int, value: float) -> np.ndarray:
    """``n`` float64 on an anonymous mapping with transparent huge pages
    requested, which makes first touch several times cheaper where the
    kernel can supply them."""
    m = mmap.mmap(-1, n * 8)
    try:
        m.madvise(mmap.MADV_HUGEPAGE)
    except (AttributeError, OSError):
        pass
    a = np.frombuffer(m, dtype=np.float64)
    a[:] = value
    return a


def triad(llc: int, cap: int | None = None) -> dict:
    """STREAM-style triad ``a = b + s*c`` on three float64 arrays.

    Each array is at least four times the last-level cache, capped at an
    eighth of the available memory and at TRIAD_MAX_BYTES; when a cap binds
    the bandwidth is not a proven memory ceiling and ``capped`` says so.  numpy needs two passes
    (``a = s*c``; ``a += b``), which touch five arrays' worth of bytes.
    """
    want = 4 * (llc or (32 << 20))
    cap = cap if cap is not None else min(_available_bytes() // 8,
                                          TRIAD_MAX_BYTES)
    nbytes = min(want, cap)
    n = nbytes // 8
    a, b, c = _big_array(n, 0.0), _big_array(n, 1.0), _big_array(n, 2.0)
    best = float("inf")
    for _ in range(2):
        t = now()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, now() - t)
    del a, b, c
    return {"host.triad_array_bytes": n * 8,
            "host.triad_GBps": 5 * n * 8 / best / 1e9,
            "host.triad_capped": int(nbytes < want)}


def fork_import_s() -> float:
    """Wall time of a fresh interpreter importing the farm and the service:
    what every spawned worker or CLI call pays before it does anything."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t = now()
    subprocess.run([sys.executable, "-c",
                    "import repro.farm, repro.service"],
                   env=env, check=True)
    return now() - t


def io_ceilings() -> dict:
    """npz write/read at product size and a plain file write at checkpoint
    size, in MB/s (medians of five and three)."""
    rng = np.random.default_rng(0)
    arrays = {f"a{i}": rng.standard_normal(PRODUCT_BYTES // 8 // 8)
              for i in range(8)}
    blob = rng.bytes(CHECKPOINT_BYTES)
    wr, rd, fw = [], [], []
    with scratch_dir("host") as tmp:
        for i in range(5):
            path = tmp / f"p{i}.npz"
            t = now()
            with open(path, "wb") as f:
                np.savez_compressed(f, **arrays)
            wr.append(now() - t)
            t = now()
            with np.load(path) as z:
                for k in z.files:
                    z[k]
            rd.append(now() - t)
        for i in range(3):
            t = now()
            (tmp / f"c{i}.bin").write_bytes(blob)
            fw.append(now() - t)
    return {"host.npz_write_MBps": PRODUCT_BYTES / median(wr) / 1e6,
            "host.npz_read_MBps": PRODUCT_BYTES / median(rd) / 1e6,
            "host.file_write_MBps": CHECKPOINT_BYTES / median(fw) / 1e6}


def calibrate(tiny: bool = False) -> dict:
    """All ``host.*`` rows.  ``tiny`` (self-tests) keeps the triad arrays at
    8 MiB, which marks the bandwidth as capped."""
    llc = llc_bytes()
    return {"host.cpu_count": os.cpu_count() or 1,
            "host.llc_bytes": llc,
            "host.fork_import_s": fork_import_s(),
            **triad(llc, cap=(8 << 20) if tiny else None), **io_ceilings()}
