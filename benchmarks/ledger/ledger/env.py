"""Process environment of the ledger: paths, thread caps, the repo import.

Everything the harness writes (JIT cache, temporary stores, checkpoints,
outputs, traces) lives under ``<checkout>/.bench_build/ledger`` so a run
reads and writes only inside its checkout.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

#: checkout root: benchmarks/ledger/ledger/env.py -> three levels up
ROOT = Path(__file__).resolve().parents[3]
BUILD = ROOT / ".bench_build"
WORK = BUILD / "ledger"

#: never more than this many busy workers/ranks/threads beside the driver
WORKERS = min(2, os.cpu_count() or 1)

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS/OpenMP to one thread, point the JIT cache into the checkout
    and put the checkout's ``src`` first on ``sys.path``.

    Must run before numpy is imported (the thread caps are read at import).
    Exits with status 2 when the checkout has no ``src/repro``: a
    benchmark without the program it measures has nothing to report.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"ledger: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_JIT_CACHE"] = str(BUILD / "repro-jit")
    sys.path.insert(0, str(src))
    WORK.mkdir(parents=True, exist_ok=True)
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"ledger: imported repro from {repro.__file__}, not from this "
              f"checkout ({src})", file=sys.stderr)
        raise SystemExit(2)


def _children() -> list[int]:
    """Pids of this process's direct children, zombies included."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue                    # ended while we were looking
        # "pid (comm) state ppid ...": comm may itself contain ") "
        if int(stat.rpartition(") ")[2].split()[1]) == me:
            out.append(int(entry))
    return out


def stop_children(grace: float = 5.0) -> None:
    """Leave no process behind: stop and reap everything this process
    started.

    ``DistributedWaveSolver(backend="procpool")`` creates a
    ``SharedMemory`` arena, and that starts Python's multiprocessing
    resource tracker: a helper process that by design outlives its parent
    (it exits only when it reads end-of-file on its pipe) and is then left
    to init to reap.  Closing the pipe and waiting for it here makes the
    run end with no process of its own alive.  Any other child still
    running (a worker stranded by an exception) is terminated first, since
    it holds a copy of the tracker's pipe.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    strays = [pid for pid in _children() if pid != tracker._pid]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + grace
        for pid in strays:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        while strays and time.monotonic() < deadline:
            for pid in list(strays):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        strays.remove(pid)
                except ChildProcessError:
                    strays.remove(pid)  # someone else reaped it
            if strays:
                time.sleep(0.01)
        if not strays:
            break
    try:
        tracker._stop()                 # closes its pipe, waits for its exit
    except ChildProcessError:
        pass


@contextmanager
def scratch_dir(prefix: str):
    """A temporary directory under WORK, removed on exit."""
    path = Path(tempfile.mkdtemp(prefix=prefix + "-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
