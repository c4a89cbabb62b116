"""Teeth test: the compiled backend's graceful fallback must be loud.

Runs a subprocess with every C compiler hidden (empty ``PATH``, no
``CC``), then asserts the contract:

* requesting ``kernel_variant="compiled"`` emits **exactly one**
  ``RuntimeWarning`` per solver and produces bitwise pooled results —
  the run keeps going, it does not crash;
* the equivalence matrix *skips* compiled cells when no provider exists,
  and a cell that *thinks* a provider exists but hits the runtime
  fallback **errors** (the matrix runs warnings-as-errors), so a silent
  fallback can never masquerade as a passing compiled cell.

The compiler is hidden in a child process so the test is meaningful on
hosts that *do* have gcc installed.
"""

import json
import os
import subprocess
import sys

import pytest

_SCRIPT = r"""
import json
import warnings

import numpy as np
from repro.core import compiled
from repro.core.grid import ALL_FIELDS, Grid3D
from repro.core.medium import Medium
from repro.core.solver import SolverConfig, WaveSolver
from tests.fields import seed_solver_fields

out = {"available": compiled.compiled_available()}


def build(variant):
    g = Grid3D(16, 14, 12, h=100.0)
    med = Medium.homogeneous(g, vp=4000.0, vs=2300.0, rho=2500.0)
    cfg = SolverConfig(absorbing="sponge", sponge_width=3,
                       free_surface=True, stability_check_interval=0,
                       kernel_variant=variant)
    sol = WaveSolver(g, med, cfg)
    seed_solver_fields(sol.wf)
    return sol

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    sol = build("compiled")
    sol.run(4)
runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
out["n_runtime_warnings"] = len(runtime)
out["warning_text"] = str(runtime[0].message) if runtime else ""
out["effective_variant"] = sol.kernel_variant
out["numpy_operators"] = (sol.sponge.kernels is None
                          and sol.free_surface.kernels is None)

ref = build("pooled")
ref.run(4)
out["pooled_equal"] = all(
    np.array_equal(sol.wf.interior(c), ref.wf.interior(c))
    for c in ALL_FIELDS)

# matrix: compiled cells skip outright without a provider...
from repro.verify.matrix import build_cells, run_matrix
cells = build_cells(backends=("sim",), dtypes=("float64",),
                    variants=("compiled",), decomps=((1, 1, 1),))
rep = run_matrix(cells=cells)
out["matrix_status"] = rep.cells[0].status
out["matrix_detail"] = rep.cells[0].detail

# ...and a runtime fallback inside a cell is an error, not a pass:
# make the probe lie so run_cell reaches the warning.
compiled.compiled_available = lambda: True
rep2 = run_matrix(cells=cells)
out["forced_status"] = rep2.cells[0].status
out["forced_passed"] = rep2.passed
out["forced_detail"] = rep2.cells[0].detail

print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fallback_report():
    env = dict(os.environ)
    env["PATH"] = ""                                # hides cc/gcc/clang
    env.pop("CC", None)
    env.pop("REPRO_COMPILED_PROVIDER", None)
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    proc = subprocess.run([sys.executable, "-c", _SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestFallbackContract:
    def test_no_provider_detected(self, fallback_report):
        assert fallback_report["available"] is False

    def test_exactly_one_runtime_warning(self, fallback_report):
        assert fallback_report["n_runtime_warnings"] == 1
        assert "falling back" in fallback_report["warning_text"]
        assert "compiled" in fallback_report["warning_text"]

    def test_results_equal_pooled(self, fallback_report):
        assert fallback_report["effective_variant"] == "pooled"
        assert fallback_report["numpy_operators"] is True
        assert fallback_report["pooled_equal"] is True

    def test_matrix_skips_compiled_cells(self, fallback_report):
        assert fallback_report["matrix_status"] == "skip"
        assert "no compiled provider" in fallback_report["matrix_detail"]

    def test_runtime_fallback_fails_the_cell(self, fallback_report):
        assert fallback_report["forced_status"] == "error"
        assert fallback_report["forced_passed"] is False
        assert "RuntimeWarning" in fallback_report["forced_detail"]
