"""repro.farm — batched ensemble execution with a schema'd product store.

The throughput axis of the reproduction (ROADMAP item 2): where
:mod:`repro.parallel` makes *one* simulation faster by domain
decomposition, the farm runs *many* scenario variations per hour —
whole-sim parallelism over (scenario, magnitude, hypocenter, seed,
dtype, GMPE) tuples, the shape of SCEC's ensemble campaigns (the seven
ShakeOut-D source realisations of Fig. 18, scaled up).

* :mod:`repro.farm.spec` — :class:`FarmSpec` (declarative axes ->
  cartesian job expansion, crc32-derived per-job seeds);
* :mod:`repro.farm.job` — one job = one scaled kinematic scenario
  producing PGV maps, peak-amplitude grids, seismograms, and GMPE
  residuals;
* :mod:`repro.farm.store` — content-addressed ``repro-product/1`` npz
  store keyed by the canonical config hash (atomic writes, meta +
  provenance manifest per product);
* :mod:`repro.farm.engine` — multiprocess scheduler with resume-from-
  store cache hits, bounded retries, and ``farm.*`` telemetry.

CLI: ``repro farm spec.json [--workers N] [--json report.json]`` — see
``docs/farm.md`` for the spec schema, store layout, and a worked
end-to-end example.
"""

from .spec import (AXES, FARM_SPEC_SCHEMA, FarmJob, FarmSpec, FarmSpecError)
from .job import FarmJobError, job_products, run_job
from .store import PRODUCT_SCHEMA, ProductError, ProductStore
from .engine import (FARM_REPORT_SCHEMA, FarmReport, JobResult, execute_job,
                     run_farm)

__all__ = [
    "AXES", "FARM_SPEC_SCHEMA", "FarmJob", "FarmSpec", "FarmSpecError",
    "FarmJobError", "job_products", "run_job",
    "PRODUCT_SCHEMA", "ProductError", "ProductStore",
    "FARM_REPORT_SCHEMA", "FarmReport", "JobResult", "execute_job",
    "run_farm",
]
