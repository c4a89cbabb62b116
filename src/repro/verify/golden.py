"""Golden regression store (repro.verify).

Small committed ``.npz`` snapshots of physics outputs — seismograms, the
surface PGV map, and rupture-front times of a mini kinematic scenario;
the same scenario run anelastic under PML (field and memory-variable
planes, one seismogram); and the slip, rupture time, peak slip rate and a
surface velocity plane of a mini spontaneous (TPV3-style) rupture — with
schema'd metadata and tolerance-gated comparison.  This is the
paper's "reference solution" half of aVal made durable: the MMS harness
proves the discretization order, the matrix proves backend equivalence,
and the goldens pin the *actual numbers* so an innocent-looking refactor
cannot drift the physics unnoticed.

Layout: the kinematic scenario run feeds three golden files, its
anelastic run one and the dynamic-rupture run one, under
``src/repro/verify/goldens/`` (packaged data, < 1 MB total).  Each file
stores its arrays plus a ``__meta__`` entry holding a JSON document:
schema id, scenario parameters, and the comparison tolerances that were
in force when the golden was written.

Refresh path (after an *intentional* physics change)::

    repro verify --update-goldens          # regenerates in place
    git diff src/repro/verify/goldens      # review, then commit

Comparison uses ``max|a - b| <= atol + rtol * max|ref|`` per array.  The
default ``rtol`` (1e-7) is far above cross-platform libm jitter and far
below any genuine physics regression; regenerating on the same platform
is bitwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import (Grid3D, Medium, PMLConfig, Receiver, SolverConfig,
                    WaveSolver, cfl_dt)
from ..obs.provenance import RunManifest
from ..rupture.kinematic import KinematicRupture

__all__ = ["GOLDEN_SCHEMA", "GOLDEN_DIR", "GOLDEN_NAMES", "GoldenMismatch",
           "GoldenResult", "run_scenario", "save_golden", "load_golden",
           "check_goldens", "update_goldens"]

GOLDEN_SCHEMA = "repro-golden/1"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
GOLDEN_NAMES = ("kinematic_mini_seismograms", "kinematic_mini_pgv",
                "kinematic_mini_rupture_front", "anelastic_mini",
                "dynamic_mini_rupture")

#: Default gate: well above libm jitter, well below physics regressions.
DEFAULT_RTOL = 1e-7
DEFAULT_ATOL = 0.0

#: The mini kinematic scenario, fixed forever (changing any of these
#: invalidates the committed goldens — bump the schema if you must).
SCENARIO = {
    "shape": [24, 24, 20],
    "h": 200.0,
    "nsteps": 60,
    "vp": 5600.0, "vs": 3200.0, "rho": 2700.0,
    "fault": {"length": 2000.0, "depth": 1600.0, "spacing": 400.0,
              "magnitude": 5.5, "hypocenter": [1000.0, 800.0],
              "rupture_velocity": 2800.0, "rise_time": 0.6,
              "stf": "triangle"},
    "receivers": {"near": [3400.0, 2400.0, 2600.0],
                  "off_axis": [1600.0, 3400.0, 2200.0],
                  "surface": [2400.0, 2400.0, 3600.0]},
}


#: The mini kinematic scenario run anelastic: split-field PML instead of
#: the sponge, the free surface, and coarse-grained memory variables over
#: the band (the medium's default ``Qs = 50 Vs``, ``Qp = 2 Qs``).
ANELASTIC_SCENARIO = {**SCENARIO, "pml_width": 6,
                      "attenuation_band": [0.3, 3.0]}


#: The mini spontaneous rupture, fixed forever like :data:`SCENARIO`: a
#: TPV3-style uniform prestress with an overstressed nucleation patch on a
#: vertical slip-weakening fault, homogeneous medium, free surface, sponge.
RUPTURE_SCENARIO = {
    "shape": [40, 20, 16],
    "h": 200.0,
    "nsteps": 120,
    "vp": 6000.0, "vs": 3464.0, "rho": 2670.0,
    "sponge_width": 4,
    "fault": {"j0": 10, "i0": 8, "n_strike": 24, "n_depth": 10,
              "tau0": 70e6, "sigma_n": 120e6, "mu_s": 0.677, "mu_d": 0.525,
              "dc": 0.4, "nucleation_center": [6, 5],
              "nucleation_radius": 900.0, "nucleation_overstress": 1.005},
}


def _scenario_of(name: str) -> dict:
    return {"dynamic_mini_rupture": RUPTURE_SCENARIO,
            "anelastic_mini": ANELASTIC_SCENARIO}.get(name, SCENARIO)


def run_scenario() -> dict[str, dict[str, np.ndarray]]:
    """Run the mini scenarios once; return arrays per golden name."""
    return {**_run_kinematic(), **_run_anelastic(), **_run_dynamic()}


def _kinematic_solver(**cfg):
    """The mini kinematic scenario's solver (``cfg``: its absorber and
    attenuation), source added; returns ``(solver, rupture, receivers)``.

    A M5.5 kinematic rupture (5x4 subfaults, Denali-like slip) on a
    vertical plane through a homogeneous half-space, free surface on;
    three receivers.
    """
    sc = SCENARIO
    grid = Grid3D(*sc["shape"], h=sc["h"])
    med = Medium.homogeneous(grid, vp=sc["vp"], vs=sc["vs"], rho=sc["rho"])
    dt = cfl_dt(sc["h"], sc["vp"], order=4, safety=0.5)
    solver = WaveSolver(grid, med, SolverConfig(dt=dt, free_surface=True,
                                                **cfg))

    f = sc["fault"]
    rupture = KinematicRupture(
        length=f["length"], depth=f["depth"], spacing=f["spacing"],
        magnitude=f["magnitude"], hypocenter=tuple(f["hypocenter"]),
        rupture_velocity=f["rupture_velocity"], rise_time=f["rise_time"],
        stf=f["stf"])
    surface_z = (sc["shape"][2] - 1) * sc["h"]
    fault = rupture.to_finite_fault(
        origin=(1400.0, 0.0, 0.0), y_plane=sc["shape"][1] * sc["h"] / 2,
        surface_z=surface_z - 2 * sc["h"], dt=dt)
    solver.add_source(fault)
    recs = {name: solver.add_receiver(Receiver(position=tuple(p), name=name))
            for name, p in sc["receivers"].items()}
    return solver, rupture, recs


def _run_kinematic() -> dict[str, dict[str, np.ndarray]]:
    """The mini kinematic scenario under a sponge: three seismograms, the
    decimated surface PGV map and the rupture front."""
    solver, rupture, recs = _kinematic_solver(absorbing="sponge",
                                              sponge_width=4)
    recorder = solver.record_surface(dec_space=1, dec_time=2)
    solver.run(SCENARIO["nsteps"])

    seis = {f"{name}.{comp}": np.asarray(r.data[comp])
            for name, r in recs.items() for comp in ("vx", "vy", "vz")}
    return {
        "kinematic_mini_seismograms": seis,
        "kinematic_mini_pgv": {"pgvh": recorder.peak_horizontal()},
        "kinematic_mini_rupture_front": {
            "rupture_times": rupture.rupture_times(),
            "slip": np.asarray(rupture.slip)},
    }


def _run_anelastic() -> dict[str, dict[str, np.ndarray]]:
    """The mini kinematic scenario with PML and attenuation: the fault
    plane (``y = ny/2``) and the top interior plane of the nine fields and
    the six memory variables, and the ``near`` seismogram."""
    from ..core.fd import interior
    sc = ANELASTIC_SCENARIO
    solver, _, recs = _kinematic_solver(
        absorbing="pml", pml=PMLConfig(width=sc["pml_width"]),
        attenuation_band=tuple(sc["attenuation_band"]))
    solver.run(sc["nsteps"])
    arrays = {**{k: interior(v) for k, v in solver.wf.fields().items()},
              **{f"zeta.{k}": v for k, v in
                 solver.attenuation.state_arrays().items()}}
    jm = sc["shape"][1] // 2
    out = {f"{k}.{cut}": np.ascontiguousarray(plane)
           for k, a in arrays.items()
           for cut, plane in (("fault", a[:, jm, :]), ("top", a[:, :, -1]))}
    out.update({f"near.{c}": np.asarray(recs["near"].data[c])
                for c in ("vx", "vy", "vz")})
    return {"anelastic_mini": out}


def _run_dynamic() -> dict[str, dict[str, np.ndarray]]:
    """The mini spontaneous rupture: final slip, rupture time (-1 where the
    fault never broke), peak slip rate, and the top interior plane of vx."""
    from ..core.fd import NGHOST
    from ..rupture import (FaultModel, InitialStress, SlipWeakeningFriction,
                           SplitNodeFault)
    sc = RUPTURE_SCENARIO
    f = sc["fault"]
    h, ns, nd = sc["h"], f["n_strike"], f["n_depth"]
    grid = Grid3D(*sc["shape"], h=h)
    med = Medium.homogeneous(grid, vp=sc["vp"], vs=sc["vs"], rho=sc["rho"])
    friction = SlipWeakeningFriction.uniform(
        (ns, nd), mu_s=f["mu_s"], mu_d=f["mu_d"], dc=f["dc"], cohesion=0.0)
    xs = (np.arange(ns) + 0.5) * h
    zs = (np.arange(nd) + 0.5) * h
    cx, cz = f["nucleation_center"]
    patch = ((xs[:, None] - cx * h) ** 2 + (zs[None, :] - cz * h) ** 2
             <= f["nucleation_radius"] ** 2)
    tau0 = np.where(patch, f["mu_s"] * f["sigma_n"]
                    * f["nucleation_overstress"], f["tau0"])
    initial = InitialStress(tau0_x=tau0, tau0_z=np.zeros_like(tau0),
                            sigma_n=np.full((ns, nd), f["sigma_n"]))
    model = FaultModel(j0=f["j0"], i0=f["i0"], i1=f["i0"] + ns, n_depth=nd,
                       friction=friction, initial=initial)
    rs = SplitNodeFault(model)
    solver = WaveSolver(grid, med, SolverConfig(
        absorbing="sponge", sponge_width=sc["sponge_width"]), fault=rs)
    solver.run(sc["nsteps"])
    tr = rs.rupture_time_region()
    g, kt = NGHOST, NGHOST + grid.nz - 1
    return {"dynamic_mini_rupture": {
        "slip": rs.final_slip(),
        "rupture_time": np.where(np.isfinite(tr), tr, -1.0),
        "peak_slip_rate": rs.peak_slip_rate_region(),
        "surface_vx": solver.wf.vx[g:-g, g:-g, kt].copy()}}


# ----------------------------------------------------------------------
# npz store
# ----------------------------------------------------------------------

def golden_path(name: str, directory: Path | None = None) -> Path:
    return (directory or GOLDEN_DIR) / f"{name}.npz"


def save_golden(name: str, arrays: dict[str, np.ndarray],
                directory: Path | None = None,
                rtol: float = DEFAULT_RTOL,
                atol: float = DEFAULT_ATOL) -> Path:
    """Write one golden npz with schema'd ``__meta__`` metadata; an array
    holding a NaN or an infinity is refused (its bound would be too)."""
    for key, v in arrays.items():
        if not np.isfinite(np.asarray(v, dtype=np.float64)).all():
            raise ValueError(f"golden {name}: array {key!r} is not finite")
    scenario = _scenario_of(name)
    meta = {
        "schema": GOLDEN_SCHEMA,
        "name": name,
        "scenario": scenario,
        "rtol": rtol,
        "atol": atol,
        "arrays": {k: {"shape": list(np.asarray(v).shape),
                       "dtype": str(np.asarray(v).dtype)}
                   for k, v in arrays.items()},
        "manifest": RunManifest.collect(config=scenario).to_dict(),
    }
    path = golden_path(name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {k: np.asarray(v) for k, v in arrays.items()}
    payload["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
    np.savez_compressed(path, **payload)
    return path


def load_golden(name: str, directory: Path | None = None
                ) -> tuple[dict[str, np.ndarray], dict]:
    """Read a golden npz; returns (arrays, meta). Validates the schema."""
    path = golden_path(name, directory)
    with np.load(path, allow_pickle=False) as z:
        if "__meta__" not in z:
            raise ValueError(f"golden {path} lacks __meta__ metadata")
        meta = json.loads(str(z["__meta__"]))
        arrays = {k: z[k] for k in z.files if k != "__meta__"}
    if meta.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(f"golden {path} has schema {meta.get('schema')!r}, "
                         f"expected {GOLDEN_SCHEMA!r}")
    return arrays, meta


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

@dataclass
class GoldenMismatch:
    array: str
    max_abs_err: float
    bound: float
    note: str = ""


@dataclass
class GoldenResult:
    name: str
    status: str                       #: 'pass' | 'fail' | 'missing'
    mismatches: list[GoldenMismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def summary(self) -> str:
        if self.status == "pass":
            return f"golden {self.name} PASS"
        if self.status == "missing":
            return (f"golden {self.name} MISSING — run "
                    f"`repro verify --update-goldens` and commit")
        if not self.mismatches:
            return f"golden {self.name} FAIL"
        worst = max(self.mismatches, key=lambda m: m.max_abs_err)
        return (f"golden {self.name} FAIL: {worst.array} max|err| "
                f"{worst.max_abs_err:.3e} > bound {worst.bound:.3e} "
                f"{worst.note}")

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "mismatches": [{"array": m.array,
                                "max_abs_err": float(m.max_abs_err),
                                "bound": float(m.bound), "note": m.note}
                               for m in self.mismatches]}


def compare_arrays(candidate: dict[str, np.ndarray],
                   reference: dict[str, np.ndarray],
                   rtol: float, atol: float) -> list[GoldenMismatch]:
    """Per-array ``max|a-b| <= atol + rtol * max|ref|`` gate; a reference
    holding a NaN or an infinity matches nothing."""
    out: list[GoldenMismatch] = []
    for key in sorted(set(reference) | set(candidate)):
        if key not in candidate:
            out.append(GoldenMismatch(key, float("inf"), 0.0,
                                      "absent from candidate"))
            continue
        if key not in reference:
            out.append(GoldenMismatch(key, float("inf"), 0.0,
                                      "absent from golden"))
            continue
        a = np.asarray(candidate[key], dtype=np.float64)
        b = np.asarray(reference[key], dtype=np.float64)
        if a.shape != b.shape:
            out.append(GoldenMismatch(key, float("inf"), 0.0,
                                      f"shape {a.shape} != {b.shape}"))
            continue
        if not np.isfinite(b).all():
            out.append(GoldenMismatch(key, float("inf"), 0.0,
                                      "golden is not finite"))
            continue
        bound = atol + rtol * float(np.abs(b).max()) if b.size else atol
        err = float(np.abs(a - b).max()) if a.size else 0.0
        if not err <= bound:    # a NaN error (diverged candidate) fails
            out.append(GoldenMismatch(key, err, bound))
    return out


def check_goldens(directory: Path | None = None,
                  produced: dict[str, dict[str, np.ndarray]] | None = None
                  ) -> list[GoldenResult]:
    """Re-run the scenario and compare against every committed golden.

    ``produced`` lets callers (and tests) inject pre-computed arrays
    instead of re-running the scenario.
    """
    produced = produced if produced is not None else run_scenario()
    results: list[GoldenResult] = []
    for name in GOLDEN_NAMES:
        path = golden_path(name, directory)
        if not path.exists():
            results.append(GoldenResult(name, "missing"))
            continue
        reference, meta = load_golden(name, directory)
        mism = compare_arrays(produced[name], reference,
                              rtol=float(meta.get("rtol", DEFAULT_RTOL)),
                              atol=float(meta.get("atol", DEFAULT_ATOL)))
        results.append(GoldenResult(name, "pass" if not mism else "fail",
                                    mism))
    return results


def update_goldens(directory: Path | None = None) -> list[Path]:
    """Regenerate every golden in place (`repro verify --update-goldens`)."""
    produced = run_scenario()
    return [save_golden(name, arrays, directory)
            for name, arrays in produced.items()]
