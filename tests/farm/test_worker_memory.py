"""Long-lived workers must not grow: a finished job's solver is freed by
reference count (no solver <-> schedule cycle left for the collector), so
a worker's RSS is flat in the number of jobs it has run."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

SCRIPT = """
import gc, sys
gc.disable()                      # reference counting alone must do
from repro.core import WaveSolver
from repro.farm import FarmSpec
from repro.farm.engine import _worker_run

def rss_mb():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith("VmRSS:")) / 1024.0

jobs = FarmSpec(scenario="ShakeOut-K", nx=48, nsteps=2,
                axes={"rupture_seed": list(range(50))}).expand()
for n, job in enumerate(jobs, 1):
    out = _worker_run(job.to_dict(), 1, sys.argv[1])
    assert out["ok"], out
    if n == 5:
        early = rss_mb()
solvers = sum(isinstance(o, WaveSolver) for o in gc.get_objects())
print(solvers, rss_mb() - early)
"""


def test_fifty_jobs_leave_no_solver_and_no_rss_growth(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    solvers, growth_mb = out.stdout.split()
    assert int(solvers) == 0
    assert float(growth_mb) < 8.0, f"RSS grew {growth_mb} MB over 45 jobs"
