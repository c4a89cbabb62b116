"""One farm job: a scaled scenario simulation producing hazard products.

:func:`run_job` turns a :class:`~repro.farm.spec.FarmJob` into the
product family the hazard pipeline consumes:

``pgvh``
    Peak horizontal ground velocity map (root-sum-of-squares, the
    Fig. 21 quantity) over the decimated free surface.
``pgv_gm``
    Geometric-mean horizontal PGV map (the Fig. 23 / GMPE measure).
``peak_vz``
    Peak vertical-amplitude grid.
``seismograms``
    Three-component velocity time series at three fixed receivers
    (``near`` / ``off_axis`` / ``far``), one array per component.
``gmpe_residual``
    ``ln(simulated / GMPE median)`` per surface point against the job's
    chosen attenuation relation (:mod:`repro.analysis.gmpe`), plus the
    ``r_km`` distance grid it was evaluated on.

The simulation is the golden-store mini kinematic scenario generalised:
the milestone scenario from :mod:`repro.scenarios.catalog` fixes the
domain aspect ratio and relative fault length (via
:meth:`~repro.scenarios.catalog.Scenario.scaled_grid`), the job's axes
set magnitude, hypocenter, slip realisation (seeded by the job's
crc32-derived seed), precision, and GMPE.  Everything is deterministic:
two processes running the same job produce bitwise-identical arrays.

See ``docs/farm.md`` for the product schema and a worked example.
"""

from __future__ import annotations

import functools

import numpy as np

from ..analysis.gmpe import ba08_pgv, cb08_pgv
from ..analysis.pgv import geometric_mean_pgv
from ..core import Medium, Receiver, SolverConfig, WaveSolver, cfl_dt
from ..rupture.kinematic import KinematicRupture, denali_like_slip
from ..scenarios.catalog import scenario
from .spec import FarmJob

__all__ = ["FarmJobError", "run_job", "job_products", "resolve_variant"]

#: Fixed material for the scaled farm medium (homogeneous half-space).
_VP, _VS, _RHO = 5600.0, 3200.0, 2700.0

_GMPE_FNS = {"ba08": ba08_pgv, "cb08": cb08_pgv}


class FarmJobError(RuntimeError):
    """A job failed (includes injected teeth-test failures)."""


@functools.cache
def resolve_variant(kernel_variant: str) -> str:
    """The stencil backend a job runs: ``auto`` is the compiled kernel
    where this host has a provider, else pooled — probed once per
    process and silent either way (an *explicit* ``compiled`` without a
    provider still warns); any other name is taken as given."""
    if kernel_variant != "auto":
        return kernel_variant
    from ..core.compiled import compiled_available
    return "compiled" if compiled_available() else "pooled"


def _build_problem(job: FarmJob):
    """Grid, solver, rupture and receivers for one job (deterministic)."""
    sc = scenario(job.scenario)
    grid = sc.scaled_grid(nx=job.nx)
    med = Medium.homogeneous(grid, vp=_VP, vs=_VS, rho=_RHO)
    dt = cfl_dt(grid.h, _VP, order=4, safety=0.5)
    cfg = SolverConfig(dt=dt, absorbing="sponge", sponge_width=3,
                       free_surface=True, stability_check_interval=0,
                       dtype=np.dtype(job.dtype).type,
                       kernel_variant=resolve_variant(job.kernel_variant),
                       lts=job.lts)
    solver = WaveSolver(grid, med, cfg)

    x_extent, y_extent, z_extent = grid.extent
    # fault length preserves the milestone's fault/domain ratio (capped so
    # the sponge stays clear); depth extent fixed at 40% of the domain
    frac = min(0.7, sc.fault_length_km / sc.domain_km[0])
    length = frac * x_extent
    depth = 0.4 * z_extent
    spacing = max(length / 6.0, depth / 4.0)
    n_strike = max(2, int(round(length / spacing)))
    n_depth = max(2, int(round(depth / spacing)))
    slip = denali_like_slip(n_strike, n_depth, seed=job.derived_seed())
    rupture = KinematicRupture(
        length=length, depth=depth, spacing=spacing,
        magnitude=job.magnitude,
        hypocenter=(job.hypocenter[0] * length, job.hypocenter[1] * depth),
        rupture_velocity=0.85 * _VS, rise_time=4.0 * dt, slip=slip)
    surface_z = (grid.shape[2] - 1) * grid.h
    x0 = (x_extent - length) / 2.0
    fault = rupture.to_finite_fault(
        origin=(x0, 0.0, 0.0), y_plane=y_extent / 2.0,
        surface_z=surface_z - 2 * grid.h, dt=dt)
    solver.add_source(fault)

    positions = {
        "near": (x_extent * 0.5, y_extent * 0.6, surface_z - grid.h),
        "off_axis": (x_extent * 0.3, y_extent * 0.85, surface_z - grid.h),
        "far": (x_extent * 0.9, y_extent * 0.25, surface_z - grid.h),
    }
    recs = {name: solver.add_receiver(Receiver(position=pos, name=name))
            for name, pos in positions.items()}
    recorder = solver.record_surface(dec_space=1, dec_time=2)
    return solver, rupture, recs, recorder, (x0, length, y_extent / 2.0)


def _gmpe_residual(job: FarmJob, pgv_gm: np.ndarray, grid_h: float,
                   trace: tuple[float, float, float]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """ln(sim / median) against the job's GMPE over the surface grid.

    Distance is the horizontal distance to the surface fault trace
    segment (the R_JB idea at this scale; also used as R_rup for cb08 —
    the trace is shallow relative to the grid spacing).
    """
    x0, length, y_plane = trace
    nx, ny = pgv_gm.shape
    xs = np.arange(nx) * grid_h
    ys = np.arange(ny) * grid_h
    dx = np.clip(np.maximum(x0 - xs, xs - (x0 + length)), 0.0, None)
    dy = np.abs(ys - y_plane)
    r_km = np.hypot(dx[:, None], dy[None, :]) / 1e3
    r_km = np.maximum(r_km, 0.5)   # avoid the GMPE near-field singularity
    res = _GMPE_FNS[job.gmpe](job.magnitude, r_km.ravel())
    median_cm = res.median.reshape(r_km.shape)
    sim_cm = np.maximum(np.asarray(pgv_gm, dtype=np.float64) * 100.0, 1e-12)
    return np.log(sim_cm / median_cm), r_km


def job_products(job: FarmJob) -> dict[str, np.ndarray]:
    """Run the job's simulation; return its product arrays by name."""
    solver, rupture, recs, recorder, trace = _build_problem(job)
    try:
        solver.run(job.nsteps)
    finally:
        # a long-lived service worker must not carry each job's wavefield
        # (~10 MB) until the garbage collector happens to run
        solver.schedule.close()
    pgvh = recorder.peak_horizontal()
    pgv_gm = geometric_mean_pgv(recorder.frames)
    peak_vz = None
    for _, _, _, vz in recorder.frames:
        av = np.abs(vz)
        peak_vz = av if peak_vz is None else np.maximum(peak_vz, av)
    residual, r_km = _gmpe_residual(job, pgv_gm, solver.grid.h, trace)
    out: dict[str, np.ndarray] = {
        "pgvh": pgvh,
        "pgv_gm": pgv_gm,
        "peak_vz": peak_vz,
        "gmpe_residual": residual,
        "gmpe_r_km": r_km,
        "rupture_times": rupture.rupture_times(),
    }
    for name, rec in recs.items():
        for comp in ("vx", "vy", "vz"):
            out[f"seis.{name}.{comp}"] = rec.series(comp)
    return out


def run_job(job: FarmJob, attempt: int = 1) -> dict[str, np.ndarray]:
    """Run one job; raises :class:`FarmJobError` on (injected) failure.

    ``attempt`` is 1-based; a job with ``inject_failures=n`` raises on
    its first ``n`` attempts and succeeds afterwards — the deterministic
    hook behind the engine's retry-path tests and CI teeth checks.
    """
    if attempt <= job.inject_failures:
        raise FarmJobError(
            f"injected failure {attempt}/{job.inject_failures} "
            f"for job {job.key()}")
    try:
        return job_products(job)
    except FarmJobError:
        raise
    except Exception as exc:
        raise FarmJobError(f"job {job.key()} failed: "
                           f"{type(exc).__name__}: {exc}") from exc
