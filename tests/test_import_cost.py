"""``import repro`` must not pay for scipy: it is ~0.9 s of start-up that
every CLI call, forked worker and benchmark set-up would carry, and only
four functions (Q-weight fit, Butterworth filters, GMPE exceedance) use it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys
import repro, repro.farm, repro.service
from repro.core import Grid3D, Medium, SolverConfig, WaveSolver, cfl_dt
grid = Grid3D(12, 12, 12, h=100.0)
dt = cfl_dt(grid.h, 5600.0, order=4, safety=0.5)
WaveSolver(grid, Medium.homogeneous(grid, vp=5600.0, vs=3200.0, rho=2700.0),
           SolverConfig(dt=dt, absorbing="sponge", sponge_width=3,
                        free_surface=True)).run(2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:5])
"""


def test_importing_and_stepping_a_sponge_solver_loads_no_scipy():
    out = subprocess.run([sys.executable, "-c", PROBE],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
