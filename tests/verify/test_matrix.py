"""Equivalence-matrix tests: bitwise cells, precision gating, skip/fail
bookkeeping, and the full backend x dtype x variant x decomp coverage."""

import numpy as np
import pytest

from repro.parallel import procpool
from repro.verify.matrix import (FULL_DECOMPS, QUICK_DECOMPS, CellResult,
                                 MatrixCell, MatrixProblem, MatrixResult,
                                 build_cells, run_matrix)

pytestmark = [pytest.mark.verify, pytest.mark.tier1]

needs_fork = pytest.mark.skipif(not procpool.procpool_available(),
                                reason="fork/shared_memory unavailable")


class TestCellEnumeration:
    def test_full_matrix_covers_every_combination(self):
        cells = build_cells()
        assert len(cells) == 2 * 2 * 2 * len(FULL_DECOMPS)
        combos = {(c.backend, c.dtype, c.kernel_variant, c.decomp)
                  for c in cells}
        assert len(combos) == len(cells)
        assert {c.backend for c in cells} == {"sim", "procpool"}
        assert {c.dtype for c in cells} == {"float64", "float32"}
        assert {c.kernel_variant for c in cells} == {"pooled", "compiled"}
        # rank counts 1, 2, 4 with an uneven 4-way split included
        assert {c.nranks for c in cells} == {1, 2, 4}
        assert (4, 1, 1) in {c.decomp for c in cells}

    def test_uneven_decomp_is_actually_uneven(self):
        """(22, 20, 18) over (4, 1, 1): x widths 6, 6, 5, 5."""
        from repro.core import Grid3D
        from repro.parallel.decomp import Decomposition3D
        p = MatrixProblem()
        d = Decomposition3D(Grid3D(*p.shape, h=p.h), 4, 1, 1)
        widths = {sub.grid.shape[0] for sub in d.subdomains()}
        assert widths == {5, 6}


class TestQuickMatrix:
    @pytest.fixture(scope="class")
    def quick_result(self):
        cells = build_cells(backends=("sim",), decomps=QUICK_DECOMPS)
        return run_matrix(cells=cells), cells

    def test_all_sim_cells_bitwise(self, quick_result):
        result, cells = quick_result
        assert result.passed, result.summary()
        assert result.counts["pass"] == len(cells)
        for c in result.cells:
            assert c.max_abs_diff == 0.0, c.cell.label

    def test_precision_gate_included_and_passing(self, quick_result):
        result, _ = quick_result
        assert result.precision is not None
        assert result.precision.passed

    def test_report_dict_schema(self, quick_result):
        result, cells = quick_result
        d = result.to_dict()
        assert d["passed"] is True
        assert len(d["cells"]) == len(cells)
        assert d["precision"]["dtype"] == "float32"


@needs_fork
class TestProcpoolCells:
    def test_procpool_cell_bitwise(self):
        cells = build_cells(backends=("procpool",), dtypes=("float64",),
                            variants=("pooled",), decomps=((2, 1, 1),))
        result = run_matrix(cells=cells, precision_gate=False)
        assert result.passed, result.summary()
        assert result.counts["pass"] == 1


@pytest.mark.slow
class TestFullMatrix:
    def test_every_combination_bitwise(self):
        """All 32 cells: {sim, procpool} x {f64, f32} x {pooled, compiled}
        x {1, 2, 4-even, 4-uneven ranks} reproduce serial at
        atol=0 (compiled cells skip, not fail, where no provider exists)."""
        result = run_matrix()
        assert result.passed, result.summary()
        assert result.counts["fail"] == 0 and result.counts["error"] == 0


class TestFailureDetection:
    def test_perturbed_field_detected(self):
        """The comparator must flag a 1-ulp-scale perturbation (atol=0)."""
        from repro.verify.matrix import _compare
        p = MatrixProblem()
        fields, waves = p.run_serial("float64")
        bad = {k: v.copy() for k, v in fields.items()}
        bad["vx"][3, 3, 3] = np.nextafter(bad["vx"][3, 3, 3], np.inf)
        equal, worst, where = _compare(bad, waves, fields, waves)
        assert not equal
        assert where == "field vx"
        assert worst > 0.0

    def test_skip_when_procpool_unavailable(self, monkeypatch):
        monkeypatch.setattr(procpool, "procpool_available", lambda: False)
        cells = build_cells(backends=("procpool",), dtypes=("float64",),
                            variants=("pooled",), decomps=((2, 1, 1),))
        result = run_matrix(cells=cells, precision_gate=False)
        assert result.passed                      # skip is not failure
        assert result.counts["skip"] == 1

    def test_failed_cell_fails_matrix(self):
        cell = MatrixCell("sim", "float64", "pooled", (2, 1, 1))
        res = MatrixResult(cells=[CellResult(cell, "fail",
                                             max_abs_diff=1e-3,
                                             detail="field vx")])
        assert not res.passed
        assert "FAIL" in res.summary()


class TestLTSCells:
    def test_forced_lts_cell_bitwise_vs_serial_lts(self):
        cells = build_cells(backends=("sim",), dtypes=("float64",),
                            variants=("pooled",), decomps=((2, 1, 1),),
                            lts="forced")
        result = run_matrix(cells=cells, precision_gate=False)
        assert result.passed, result.summary()
        for c in result.cells:
            assert c.status == "pass" and c.max_abs_diff == 0.0
            assert c.cell.label.endswith("/lts")
            assert c.to_dict()["lts"] == "forced"

    def test_lts_references_keyed_separately_from_off(self):
        # an LTS cell and an off cell in one run must not share references
        cells = (build_cells(backends=("sim",), dtypes=("float64",),
                             variants=("pooled",), decomps=((2, 1, 1),))
                 + build_cells(backends=("sim",), dtypes=("float64",),
                               variants=("pooled",), decomps=((2, 1, 1),),
                               lts="forced"))
        result = run_matrix(cells=cells, precision_gate=False)
        assert result.passed, result.summary()
        assert [c.cell.lts for c in result.cells] == ["off", "forced"]
