"""Cross-configuration equivalence matrix (repro.verify).

The repo carries four layers of optimization — alloc-free kernels,
SimMPI/procpool SPMD backends, compiled fused kernels, the float32 fast
path — each of which promised "same numerics".  This module *enforces* the
composition of those promises on one reference problem across every
backend × dtype × kernel-variant × decomposition combination:

* **Bitwise cells** — every distributed configuration must reproduce the
  serial solver of the *same dtype* at ``atol=0`` (``np.array_equal`` on
  all nine gathered fields plus the receiver waveforms).  This is the
  contract PR-2/PR-3/PR-4 established individually; the matrix runs it as
  a grid so a future change cannot bend one combination silently.  The
  ``compiled`` kernel variant (fused JIT sweeps) holds the same atol=0
  contract at both precisions.  Compiled cells are skipped when the host
  has no C compiler — but a *runtime* fallback to pooled fails the cell,
  because cells run under ``warnings.simplefilter("error")`` and the
  fallback warns.
* **Precision cell** — float32 against float64 is *not* bitwise; it is
  gated by the PR-4 :class:`repro.workflow.aval.PrecisionGate` tolerances
  (L2 waveform misfit + surface-PGV relative error).  Because every f32
  cell above is bitwise-equal to the serial f32 run, the single gate bounds
  the whole f32 column transitively.

The matrix problem is deliberately heterogeneous (seeded random medium)
with an off-centre source, uneven decompositions included — the
configurations most likely to expose halo/dtype/kernel bugs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..core import (Grid3D, Medium, MomentTensorSource, Receiver,
                    SolverConfig, WaveSolver, cfl_dt)
from ..core import compiled
from ..core.solver import KERNEL_VARIANTS
from ..core.source import gaussian_pulse
from ..parallel import procpool
from ..parallel.decomp import Decomposition3D
from ..parallel.distributed import DistributedWaveSolver
from ..workflow.aval import PrecisionGate, PrecisionReport

__all__ = ["MatrixCell", "CellResult", "MatrixResult", "MatrixProblem",
           "build_cells", "run_matrix", "QUICK_DECOMPS", "FULL_DECOMPS"]

FIELDS = ("vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz")

#: Decomps for the full matrix: 1 rank, 2 ranks, 4 ranks even, and 4 ranks
#: uneven (x = 22 over 4 ranks gives widths 6, 6, 5, 5).
FULL_DECOMPS: tuple[tuple[int, int, int], ...] = (
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (4, 1, 1))
#: Quick profile keeps the 2-rank and the uneven 4-rank splits.
QUICK_DECOMPS: tuple[tuple[int, int, int], ...] = ((2, 1, 1), (4, 1, 1))


@dataclass(frozen=True)
class MatrixCell:
    """One configuration of the equivalence matrix."""

    backend: str                     #: 'sim' | 'procpool'
    dtype: str                       #: 'float64' | 'float32'
    kernel_variant: str              #: one of KERNEL_VARIANTS
    decomp: tuple[int, int, int]
    #: 'off', or 'forced' = the fixed two-group ×1/×2 LTS map; LTS cells
    #: compare against a *serial LTS* reference at the same dt, so the
    #: bitwise contract covers the rate-group scheduler across backends.
    lts: str = "off"

    @property
    def nranks(self) -> int:
        px, py, pz = self.decomp
        return px * py * pz

    @property
    def label(self) -> str:
        return (f"{self.backend}/{self.dtype}/{self.kernel_variant}/"
                f"{'x'.join(map(str, self.decomp))}"
                + ("/lts" if self.lts != "off" else ""))


@dataclass
class CellResult:
    cell: MatrixCell
    status: str                      #: 'pass' | 'fail' | 'skip' | 'error'
    max_abs_diff: float = 0.0        #: worst |distributed - serial| anywhere
    detail: str = ""

    def to_dict(self) -> dict:
        return {"backend": self.cell.backend, "dtype": self.cell.dtype,
                "kernel_variant": self.cell.kernel_variant,
                "decomp": list(self.cell.decomp), "lts": self.cell.lts,
                "status": self.status,
                "max_abs_diff": float(self.max_abs_diff),
                "detail": self.detail}


@dataclass
class MatrixResult:
    cells: list[CellResult]
    precision: PrecisionReport | None = None

    @property
    def passed(self) -> bool:
        ok_cells = all(c.status in ("pass", "skip") for c in self.cells)
        ok_prec = self.precision is None or self.precision.passed
        return ok_cells and ok_prec

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
        for c in self.cells:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        n = self.counts
        lines = [f"equivalence matrix {status}: {n['pass']} bitwise cells "
                 f"pass, {n['fail']} fail, {n['error']} error, "
                 f"{n['skip']} skipped"]
        for c in self.cells:
            if c.status in ("fail", "error"):
                lines.append(f"  {c.cell.label}: {c.status} "
                             f"(max |diff| {c.max_abs_diff:.3e}) {c.detail}")
        if self.precision is not None:
            lines.append("  " + self.precision.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        prec = None
        if self.precision is not None:
            p = self.precision
            prec = {"passed": bool(p.passed), "dtype": p.dtype,
                    "worst_misfit": float(p.worst[1]),
                    "worst_channel": p.worst[0],
                    "pgv_rel_err": float(p.pgv_rel_err),
                    "misfit_tol": float(p.misfit_tol),
                    "pgv_tol": float(p.pgv_tol)}
        return {"passed": bool(self.passed), "counts": self.counts,
                "cells": [c.to_dict() for c in self.cells],
                "precision": prec}


@dataclass
class MatrixProblem:
    """The shared reference scenario every matrix cell runs.

    Heterogeneous medium (seeded), off-centre moment source, sponge
    absorber (under PML/attenuation the compiled variant degrades to
    pooled, which would make its cells vacuous), one receiver.  Dimensions
    (22, 20, 18) make the (4, 1, 1) decomposition uneven: x widths
    6, 6, 5, 5.
    """

    shape: tuple[int, int, int] = (22, 20, 18)
    h: float = 100.0
    nsteps: int = 8
    seed: int = 5
    f0: float = 3.0

    def grid(self) -> Grid3D:
        return Grid3D(*self.shape, h=self.h)

    def medium(self, grid: Grid3D) -> Medium:
        rng = np.random.default_rng(self.seed)
        vs = rng.uniform(1500, 2500, grid.shape)
        vp = 2.0 * vs
        rho = rng.uniform(2200, 2800, grid.shape)
        return Medium.from_velocity_model(grid, vp, vs, rho)

    def source(self) -> MomentTensorSource:
        return MomentTensorSource(
            position=(1200.0, 1000.0, 900.0), moment=np.eye(3) * 1e13,
            stf=lambda t: gaussian_pulse(np.array([t]), f0=self.f0)[0],
            spatial_width=150.0)

    def receiver(self) -> Receiver:
        return Receiver(position=(1500.0, 1200.0, 1100.0))

    #: Forced LTS partition of the nz=18 column (the random medium has no
    #: vertical structure, so 'auto' would put everything at rate 1).
    LTS_MAP = ((0, 9, 1), (9, 18, 2))

    def lts_dt(self) -> float:
        """Fine dt for LTS cells: half the global CFL bound, so the forced
        rate-2 group steps exactly at the bound."""
        g = self.grid()
        return 0.5 * cfl_dt(self.h, float(self.medium(g).vp_max))

    def config(self, dtype: str, *, lts: str = "off") -> SolverConfig:
        kw = {}
        if lts != "off":
            kw = {"lts": self.LTS_MAP, "dt": self.lts_dt()}
        return SolverConfig(absorbing="sponge", sponge_width=6,
                            free_surface=True, dtype=np.dtype(dtype).type,
                            **kw)

    # -- runs ----------------------------------------------------------

    def run_serial(self, dtype: str, lts: str = "off") -> tuple[dict, dict]:
        """Serial reference run; returns (fields, waveforms)."""
        g = self.grid()
        solver = WaveSolver(g, self.medium(g), self.config(dtype, lts=lts))
        solver.add_source(self.source())
        rec = solver.add_receiver(self.receiver())
        solver.run(self.nsteps)
        fields = {n: solver.wf.interior(n).copy() for n in FIELDS}
        waves = {c: np.asarray(v) for c, v in rec.data.items()}
        return fields, waves

    def run_cell(self, cell: MatrixCell) -> tuple[dict, dict]:
        """Distributed run for one matrix cell; returns (fields, waves)."""
        g = self.grid()
        with warnings.catch_warnings():
            # A silent fallback would vacuously pass the cell.  Construction
            # is covered too: the compiled->pooled fallback warns at solver
            # build time, the procpool->sim one inside run().
            warnings.simplefilter("error")
            solver = DistributedWaveSolver(
                g, self.medium(g), decomp=Decomposition3D(g, *cell.decomp),
                config=self.config(cell.dtype, lts=cell.lts),
                backend=cell.backend,
                kernel_variant=cell.kernel_variant)
            solver.add_source(self.source())
            rec = solver.add_receiver(self.receiver())
            solver.run(self.nsteps)
        fields = {n: solver.gather_field(n) for n in FIELDS}
        waves = {c: np.asarray(v) for c, v in rec.data.items()}
        return fields, waves


def build_cells(backends=("sim", "procpool"),
                dtypes=("float64", "float32"),
                variants=KERNEL_VARIANTS,
                decomps=FULL_DECOMPS, lts="off") -> list[MatrixCell]:
    return [MatrixCell(b, d, v, tuple(dec), lts)
            for b in backends for d in dtypes for v in variants
            for dec in decomps]


def _compare(cand_fields, cand_waves, ref_fields, ref_waves
             ) -> tuple[bool, float, str]:
    """atol=0 comparison; returns (equal, max_abs_diff, first_mismatch)."""
    worst = 0.0
    first = ""
    for name in FIELDS:
        a, b = cand_fields[name], ref_fields[name]
        if not np.array_equal(a, b):
            diff = float(np.abs(a.astype(np.float64)
                                - b.astype(np.float64)).max())
            worst = max(worst, diff)
            first = first or f"field {name}"
    for comp, ref in ref_waves.items():
        a = cand_waves[comp]
        if not np.array_equal(a, ref):
            diff = float(np.abs(np.asarray(a, dtype=np.float64)
                                - np.asarray(ref, dtype=np.float64)).max())
            worst = max(worst, diff)
            first = first or f"waveform {comp}"
    return (first == ""), worst, first


def run_matrix(problem: MatrixProblem | None = None,
               cells: list[MatrixCell] | None = None,
               *, precision_gate: bool = True,
               progress=None) -> MatrixResult:
    """Run the equivalence matrix and the f32-vs-f64 precision cell.

    ``progress``, if given, is called with each :class:`CellResult` as it
    lands (the CLI uses this for live output).
    """
    problem = problem or MatrixProblem()
    cells = build_cells() if cells is None else cells
    have_procpool = procpool.procpool_available()
    have_compiled = compiled.compiled_available()

    references: dict[tuple[str, str], tuple[dict, dict]] = {}
    results: list[CellResult] = []
    for cell in cells:
        if cell.backend == "procpool" and not have_procpool:
            res = CellResult(cell, "skip",
                             detail="fork/shared_memory unavailable")
        elif cell.kernel_variant == "compiled" and not have_compiled:
            res = CellResult(cell, "skip",
                             detail="no compiled provider (no C compiler)")
        else:
            ref_key = (cell.dtype, cell.lts)
            if ref_key not in references:
                references[ref_key] = problem.run_serial(cell.dtype,
                                                         lts=cell.lts)
            ref_fields, ref_waves = references[ref_key]
            try:
                fields, waves = problem.run_cell(cell)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                res = CellResult(cell, "error",
                                 detail=f"{type(exc).__name__}: {exc}")
            else:
                equal, worst, where = _compare(fields, waves,
                                               ref_fields, ref_waves)
                res = CellResult(cell, "pass" if equal else "fail",
                                 max_abs_diff=worst, detail=where)
        results.append(res)
        if progress is not None:
            progress(res)

    precision = PrecisionGate().evaluate() if precision_gate else None
    return MatrixResult(cells=results, precision=precision)
