"""The farm engine: schedule ensemble jobs across worker processes.

Complements :mod:`repro.parallel.procpool` (which splits *one* solve
across ranks) with whole-simulation parallelism: independent jobs fanned
over OS worker processes, each writing its products straight into the
content-addressed :class:`~repro.farm.store.ProductStore`.

Behaviour (jobs run through the one :class:`JobExecutor`, which the
hazard service shares):

* **resume** — jobs whose key is already in the store are cache hits
  (counted and reported, never recomputed); a farm killed mid-run picks
  up exactly where its atomic store writes stopped;
* **bounded retries** — a failing job is resubmitted up to
  ``max_retries`` times, each retry logged to the structured event log
  (:mod:`repro.obs.events`); exhausted jobs are reported failed without
  sinking the rest of the farm;
* **worker death** — a killed worker process costs the jobs that were
  in flight one attempt each; the pool is rebuilt and the rest of the
  farm carries on;
* **graceful degradation** — on a host that cannot fork the jobs run on
  threads in this process, with a single warning, mirroring the
  procpool -> SimMPI fallback;
* **telemetry** — jobs/hour, hit rate, p50/p95 job wall time land in
  the ``farm.*`` metrics (:mod:`repro.obs.metrics`) and the schema'd
  ``repro-farm/1`` report.

See ``docs/farm.md`` for the report schema and a worked example.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
import warnings
from collections import deque
from concurrent.futures import (Future, ProcessPoolExecutor,
                                ThreadPoolExecutor, as_completed)
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from ..obs.events import get_event_log
from ..obs.metrics import default_registry
from ..obs.provenance import RunManifest
from ..obs.tracer import get_tracer
from .job import run_job
from .spec import FarmJob, FarmSpec
from .store import ProductStore

__all__ = ["FARM_REPORT_SCHEMA", "JobResult", "FarmReport", "JobExecutor",
           "execute_job", "run_farm"]

#: Schema identifier of the farm report (``repro farm --json``).
FARM_REPORT_SCHEMA = "repro-farm/1"


@dataclass
class JobResult:
    """Outcome of one ensemble member."""

    key: str
    index: int
    label: str
    status: str               #: 'done' | 'cached' | 'failed'
    attempts: int = 0
    wall_s: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        return {"key": self.key, "index": self.index, "label": self.label,
                "status": self.status, "attempts": self.attempts,
                "wall_s": self.wall_s, "error": self.error}


@dataclass
class FarmReport:
    """Schema'd summary of one farm run (the throughput scoreboard)."""

    spec: dict
    store: str
    workers: int
    results: list[JobResult] = field(default_factory=list)
    wall_s: float = 0.0
    manifest: dict = field(default_factory=dict)

    def _count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def njobs(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> int:
        return self._count("done")

    @property
    def cached(self) -> int:
        return self._count("cached")

    @property
    def failed(self) -> int:
        return self._count("failed")

    @property
    def retries(self) -> int:
        return sum(max(0, r.attempts - 1) for r in self.results)

    @property
    def hit_rate(self) -> float:
        return self.cached / self.njobs if self.njobs else 0.0

    @property
    def jobs_per_hour(self) -> float:
        """Landed products (fresh + cached) per hour of farm wall time."""
        done = self.completed + self.cached
        return done / (self.wall_s / 3600.0) if self.wall_s > 0 else 0.0

    def job_wall_percentile(self, q: float) -> float:
        walls = sorted(r.wall_s for r in self.results if r.status == "done")
        if not walls:
            return 0.0
        return float(np.percentile(walls, q))

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "schema": FARM_REPORT_SCHEMA,
            "spec": self.spec,
            "store": self.store,
            "workers": self.workers,
            "njobs": self.njobs,
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "retries": self.retries,
            "hit_rate": self.hit_rate,
            "wall_s": self.wall_s,
            "jobs_per_hour": self.jobs_per_hour,
            "job_wall_p50_s": self.job_wall_percentile(50),
            "job_wall_p95_s": self.job_wall_percentile(95),
            "manifest": self.manifest,
            "results": [r.to_dict() for r in self.results],
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path

    def summary(self) -> str:
        lines = [
            f"farm: {self.njobs} jobs on {self.workers} worker(s), "
            f"store {self.store}",
            f"  completed {self.completed}, cached {self.cached} "
            f"(hit rate {self.hit_rate:.0%}), failed {self.failed}, "
            f"retries {self.retries}",
            f"  wall {self.wall_s:.2f} s = "
            f"{self.jobs_per_hour:,.0f} jobs/hour; job wall "
            f"p50 {self.job_wall_percentile(50):.3f} s, "
            f"p95 {self.job_wall_percentile(95):.3f} s",
        ]
        for r in self.results:
            if r.status == "failed":
                lines.append(f"  FAILED [{r.index}] {r.label}: {r.error} "
                             f"({r.attempts} attempts)")
        return "\n".join(lines)

    def publish_metrics(self, registry=None) -> None:
        reg = registry if registry is not None else default_registry()
        reg.gauge("farm.jobs_total").set(self.njobs)
        reg.gauge("farm.jobs_completed").set(self.completed)
        reg.gauge("farm.jobs_cached").set(self.cached)
        reg.gauge("farm.jobs_failed").set(self.failed)
        reg.gauge("farm.hit_rate").set(self.hit_rate)
        reg.gauge("farm.jobs_per_hour").set(self.jobs_per_hour)
        hist = reg.histogram("farm.job_wall_s")
        for r in self.results:
            if r.status == "done":
                hist.observe(r.wall_s)


# ----------------------------------------------------------------------
# One attempt (runs in a pool worker)
# ----------------------------------------------------------------------

def _failure(error: str, wall_s: float = 0.0) -> dict:
    return {"ok": False, "wall_s": wall_s, "error": error}


def _attempt(runner, job: FarmJob, attempt: int, store: ProductStore,
             delay_s: float) -> dict:
    """Run one attempt of ``job`` and land its products.

    Sleeps the retry backoff first (in the worker, so a backing-off job
    occupies its slot), then returns a plain-data outcome — never raises
    — so scheduling failures stay distinguishable from job failures.
    ``wall_s`` is the job body alone, excluding the store write.
    """
    if delay_s > 0:
        time.sleep(delay_s)
    t0 = time.perf_counter()
    try:
        with get_tracer().span(f"farm.job[{job.index}]",
                               category="workflow"):
            arrays = runner(job, attempt=attempt)
        wall = time.perf_counter() - t0
        store.put(job, arrays, wall_s=wall, attempts=attempt)
        return {"ok": True, "wall_s": wall, "error": None}
    except Exception as exc:  # noqa: BLE001 - reported to the scheduler
        return _failure(f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - t0)


def _worker_run(job_dict: dict, attempt: int, store_root: str,
                delay_s: float = 0.0) -> dict:
    """The worker-process entry point: one real attempt, products written
    by the worker itself, only the plain outcome pickled back."""
    return _attempt(run_job, FarmJob.from_dict(job_dict), attempt,
                    ProductStore(store_root), delay_s)


# ----------------------------------------------------------------------
# The one job executor
# ----------------------------------------------------------------------

class _Handle:
    """One submitted job: its result record and the future it completes."""

    __slots__ = ("job", "res", "future", "delay_s", "pool")

    def __init__(self, job: FarmJob):
        self.job = job
        self.res = JobResult(key=job.key(), index=job.index,
                             label=job.label(), status="pending", attempts=1)
        self.future: Future = Future()
        self.delay_s = 0.0
        self.pool = None


class JobExecutor:
    """Jobs in, :class:`JobResult` futures out — the farm's and the hazard
    service's one way of running a job (docs/farm.md, "The job executor").

    A ``concurrent.futures`` pool plus the single retry policy
    (:meth:`_retire`).  Real jobs (``runner=None``) go to ``workers``
    processes forked here, in the constructor — so a caller that starts
    threads later never forks with them alive — each running
    :func:`_worker_run`.  An injected ``runner`` (the
    :func:`~repro.farm.job.run_job` signature: the test seam, and how a
    one-worker farm stays in-process) runs on a thread pool through the
    same submit/retire path, as do real jobs on a host that cannot fork
    (one ``RuntimeWarning``).

    At most ``workers`` attempts are inside the pool at once, so the
    attempts a dead worker's broken pool fails are exactly the jobs that
    were in flight: the pool is replaced (``<prefix>.worker.died``),
    they are charged the attempt and retried, waiting jobs are untouched.
    Every submitted job's future completes with its :class:`JobResult`;
    it never raises.
    """

    def __init__(self, store: ProductStore, workers: int = 2,
                 max_retries: int = 2, backoff_s: float = 0.0, events=None,
                 event_prefix: str = "farm", runner=None):
        self.store = store
        self.workers = workers
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.events = events if events is not None else get_event_log()
        self.event_prefix = event_prefix
        self._runner = runner
        self._lock = threading.Lock()
        self._waiting: deque[_Handle] = deque()
        self._running: set[_Handle] = set()   # attempts inside the pool
        self._open: set[Future] = set()       # futures of unfinished jobs
        self._closed = False
        self._broken_pools: list[ProcessPoolExecutor] = []
        self._pool = self._start_pool()

    def _start_pool(self):
        if self._runner is None:
            pool = None
            try:
                pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"))
                pool.submit(int).result()    # forks every worker now
                return pool
            except (ValueError, OSError) as exc:
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                warnings.warn(
                    f"{self.event_prefix}: worker processes unavailable "
                    f"({exc}); running jobs on threads in this process",
                    RuntimeWarning, stacklevel=4)
                self._runner = run_job
        return ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix=f"{self.event_prefix}-job")

    def close(self) -> None:
        """Refuse new jobs, drain every accepted one to ``done`` or
        ``failed``, then stop the pool and reap its processes."""
        with self._lock:
            self._closed = True
            pending = list(self._open)
        futures_wait(pending)
        self._pool.shutdown(wait=True)
        for pool in self._broken_pools:
            pool.shutdown(wait=True)

    # -- submit / retire -----------------------------------------------
    def submit(self, job: FarmJob) -> Future:
        """Schedule ``job``; the future's result is its :class:`JobResult`."""
        h = _Handle(job)
        with self._lock:
            if self._closed:
                raise RuntimeError("job executor is closed")
            self._waiting.append(h)
            self._open.add(h.future)
        self._pump()
        return h.future

    def _pump(self) -> None:
        """Move waiting jobs into the pool while a worker is free."""
        while True:
            with self._lock:
                if not self._waiting or len(self._running) >= self.workers:
                    return
                h = self._waiting.popleft()
                h.pool = self._pool
                self._running.add(h)
            # outside the lock: the pool's own lock is also held around
            # the done-callbacks of a broken pool, which take ours
            try:
                if self._runner is None:
                    fut = h.pool.submit(
                        _worker_run, h.job.to_dict(), h.res.attempts,
                        str(self.store.root), h.delay_s)
                else:
                    fut = h.pool.submit(
                        _attempt, self._runner, h.job, h.res.attempts,
                        self.store, h.delay_s)
            except Exception as exc:  # noqa: BLE001 - broken or shut pool
                fut = Future()
                fut.set_exception(exc)
            fut.add_done_callback(partial(self._attempt_done, h))

    def _attempt_done(self, h: _Handle, fut: Future) -> None:
        try:
            out = fut.result()
        except BrokenProcessPool as exc:
            self._replace_pool(h, exc)
            out = _failure(f"worker process died: {exc}")
        except Exception as exc:  # noqa: BLE001 - e.g. unpicklable outcome
            out = _failure(f"{type(exc).__name__}: {exc}")
        final = self._retire(h, out)
        with self._lock:
            self._running.discard(h)
            if final:
                self._open.discard(h.future)
            else:
                self._waiting.append(h)
        if final:
            h.future.set_result(h.res)
        self._pump()

    def _retire(self, h: _Handle, out: dict) -> bool:
        """The retry policy: apply one attempt's outcome to the job's
        record; True when the job is final, False when it goes round
        again (``h.delay_s`` then holds its backoff)."""
        res, prefix = h.res, self.event_prefix
        res.wall_s = out["wall_s"]
        if out["ok"]:
            res.status = "done"
            return True
        res.error = out["error"]
        if res.attempts <= self.max_retries:
            h.delay_s = self.backoff_s * (2.0 ** (res.attempts - 1))
            self.events.warn(f"{prefix}.job.retry", key=res.key,
                             index=res.index, attempt=res.attempts,
                             backoff_s=h.delay_s, error=res.error)
            res.attempts += 1
            return False
        res.status = "failed"
        self.events.error(f"{prefix}.job.failed", key=res.key,
                          index=res.index, attempts=res.attempts,
                          error=res.error)
        return True

    def _replace_pool(self, h: _Handle, exc: BaseException) -> None:
        """First casualty of a broken pool swaps in a fresh one (its
        workers fork on the next submit)."""
        with self._lock:
            if self._pool is not h.pool:
                return
            keys = [o.res.key for o in self._running if o.pool is h.pool]
            self._broken_pools.append(h.pool)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"))
        self.events.warn(f"{self.event_prefix}.worker.died", keys=keys,
                         error=str(exc))


def execute_job(job: FarmJob, store: ProductStore, max_retries: int = 2,
                backoff_s: float = 0.0, events=None,
                event_prefix: str = "farm", runner=None) -> JobResult:
    """Run one job to completion in this process; return its record.

    A one-worker in-process :class:`JobExecutor` around a single submit:
    ``runner`` (default :func:`~repro.farm.job.run_job`) is the job body,
    ``store.put`` is called on the instance passed in.
    """
    with closing(JobExecutor(
            store, workers=1, max_retries=max_retries, backoff_s=backoff_s,
            events=events, event_prefix=event_prefix,
            runner=runner if runner is not None else run_job)) as ex:
        return ex.submit(job).result()


def run_farm(spec: FarmSpec, store: ProductStore | str | Path,
             workers: int = 2, resume: bool = True, max_retries: int = 2,
             progress=None, registry=None) -> FarmReport:
    """Expand ``spec`` and land every job's products in ``store``.

    ``resume=True`` (the default) treats jobs already present in the
    store as cache hits; ``resume=False`` recomputes everything
    (overwriting in place).  ``workers == 1`` runs in-process; more run
    on forked worker processes (threads in this process, with a
    warning, when the host cannot fork).  ``progress`` is called with
    each finished :class:`JobResult`.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0 (got {max_retries})")
    store = store if isinstance(store, ProductStore) else ProductStore(store)
    events = get_event_log()
    jobs = spec.expand()
    results: dict[int, JobResult] = {}
    todo: list[FarmJob] = []
    for job in jobs:
        if resume and store.has(job.key()):
            results[job.index] = res = JobResult(
                key=job.key(), index=job.index, label=job.label(),
                status="cached")
            if progress:
                progress(res)
        else:
            todo.append(job)
    events.info("farm.start", njobs=len(jobs), cached=len(jobs) - len(todo),
                workers=workers, store=str(store.root))

    t0 = time.perf_counter()
    with get_tracer().span("farm.run", category="workflow"):
        if todo:
            with closing(JobExecutor(
                    store, workers=workers, max_retries=max_retries,
                    events=events,
                    runner=run_job if workers == 1 else None)) as ex:
                for fut in as_completed([ex.submit(j) for j in todo]):
                    res = fut.result()
                    results[res.index] = res
                    if progress:
                        progress(res)
    wall = time.perf_counter() - t0

    report = FarmReport(
        spec=spec.to_dict(), store=str(store.root), workers=workers,
        results=[results[j.index] for j in jobs], wall_s=wall,
        manifest=RunManifest.collect(config=spec.to_dict(),
                                     backend="farm").to_dict())
    report.publish_metrics(registry)
    events.info("farm.done", completed=report.completed,
                cached=report.cached, failed=report.failed,
                retries=report.retries, wall_s=wall)
    return report
