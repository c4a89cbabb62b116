"""HazardService — cache-first hazard-product serving over the farm.

The millions-of-users story from ROADMAP item 3: users ask for hazard
*products* (a PGV value at a site, a shaking-map tile), not raw
simulations.  The service resolves every :class:`~repro.service.query.
Query` to its farm content address and then follows a strict
cache-first discipline inside one lock:

1. **coalesce** — an identical query is already being computed: attach
   to the in-flight job (N concurrent identical queries cost one
   simulation);
2. **hit** — the :class:`~repro.farm.store.ProductStore` already holds
   the address: answer immediately;
3. **miss** — register a new in-flight job and hand it to the farm's
   :class:`~repro.farm.engine.JobExecutor`; its done-callback retires
   the in-flight entry under the same lock.

The lock covers only the dict/store checks; the potentially blocking
slot acquire (backpressure once ``queue_depth`` jobs are waiting behind
the running ones) happens after release, so a full service can never
deadlock the callbacks that need the lock to retire finished jobs.

The service owns no thread, queue or worker loop.  Real jobs run on the
executor's forked worker processes (forked in the constructor, before
any client thread exists, reaped by :meth:`HazardService.close`), which
solve and ``put`` the product themselves; retries, backoff and the
``service.job.retry`` / ``service.job.failed`` / ``service.worker.died``
events are the executor's, identical to the farm's.  A stored product
that cannot be loaded is quarantined and recomputed once
(``service.store.corrupt``).  A fetch asks the store for the one bundle
member it answers from (plus ``__meta__``), so it verifies every byte it
returns and the bundle's schema and address, or finds the file's bytes
equal to ones verified before; damage to a member it does not read is
found by the query that reads it.  Query latency (submit → answer in
hand, the value in ``QueryResult.latency_s``) lands in the
``service.query.latency_s`` histogram at fetch; the counters are mirrored
to ``service.*`` gauges after every transition.

Lifecycle: ``submit() -> QueryTicket``, ``poll(ticket)``,
``fetch(ticket) -> QueryResult`` (or ``request()`` for the synchronous
round trip).  See docs/service.md.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

from ..farm.engine import JobExecutor, JobResult
from ..farm.store import ProductError, ProductStore
from ..obs.events import get_event_log
from ..obs.metrics import MetricsRegistry, default_registry
from .query import Query

__all__ = ["HazardService", "QueryResult", "QueryTicket", "ServiceConfig",
           "ServiceError", "ServiceStats"]


class ServiceError(RuntimeError):
    """A query cannot be served (closed service, fetch timeout)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs; validation mirrors the farm CLI bounds."""

    workers: int = 2
    queue_depth: int = 32
    max_retries: int = 2
    backoff_s: float = 0.05
    fetch_timeout_s: float = 600.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (got {self.workers})")
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1 (got {self.queue_depth})")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0 (got {self.max_retries})")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0 (got {self.backoff_s})")


class _InflightJob:
    """One scheduled simulation plus everyone waiting on it."""

    __slots__ = ("key", "done", "status", "attempts", "error")

    def __init__(self, key: str):
        self.key = key
        self.done = threading.Event()
        self.status = "pending"         # pending | done | failed
        self.attempts = 0
        self.error: str | None = None


@dataclass(frozen=True)
class QueryTicket:
    """Handle returned by :meth:`HazardService.submit`.

    ``source`` records how the query was resolved at submit time:
    ``hit`` (store already had it), ``miss`` (this ticket scheduled the
    job), or ``coalesced`` (attached to a job another ticket scheduled).
    """

    query: Query
    key: str
    source: str
    t0: float
    job: _InflightJob | None


@dataclass(frozen=True)
class QueryResult:
    """Terminal answer for one ticket."""

    query: Query
    key: str
    status: str                 # ok | failed
    source: str                 # hit | miss | coalesced
    data: object                # ndarray, float (site query), or None
    latency_s: float
    attempts: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of the service counters (also mirrored to gauges)."""

    queries: int
    store_hits: int
    coalesced: int
    jobs_scheduled: int
    jobs_completed: int
    jobs_failed: int
    retries: int
    hit_rate: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float

    def to_dict(self) -> dict:
        return {
            "queries": self.queries, "store_hits": self.store_hits,
            "coalesced": self.coalesced,
            "jobs_scheduled": self.jobs_scheduled,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed, "retries": self.retries,
            "hit_rate": self.hit_rate,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
        }


class HazardService:
    """Submit → poll → fetch serving front over a product store.

    ``runner`` substitutes the per-attempt job body (the
    :func:`~repro.farm.job.run_job` signature) — the stress/fault test
    harness injects counting and failing runners here without paying
    for real simulations; such a runner runs on threads in this process,
    real jobs on worker processes forked by the constructor.  Use as a
    context manager or call :meth:`close`, which reaps the workers.
    """

    def __init__(self, store: ProductStore | str, config: ServiceConfig
                 | None = None, registry: MetricsRegistry | None = None,
                 runner=None):
        self.store = store if isinstance(store, ProductStore) \
            else ProductStore(store)
        self.config = config if config is not None else ServiceConfig()
        self.registry = registry if registry is not None \
            else default_registry()
        self._events = get_event_log()
        self._lock = threading.Lock()
        self._inflight: dict[str, _InflightJob] = {}
        # jobs accepted and unfinished: `workers` running + `queue_depth`
        # waiting; the next miss blocks in submit()
        self._slots = threading.BoundedSemaphore(
            self.config.queue_depth + self.config.workers)
        self._closed = False
        self._latency = self.registry.histogram("service.query.latency_s")
        self._queries = 0
        self._store_hits = 0
        self._coalesced = 0
        self._scheduled = 0
        self._completed = 0
        self._failed = 0
        self._retries = 0
        self._executor = JobExecutor(
            self.store, workers=self.config.workers,
            max_retries=self.config.max_retries,
            backoff_s=self.config.backoff_s, events=self._events,
            event_prefix="service", runner=runner)

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "HazardService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting queries, drain every accepted job, then stop
        and reap the workers (no child process outlives this call)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.close()

    # -- submit --------------------------------------------------------
    def submit(self, query: Query, inject_failures: int = 0) -> QueryTicket:
        """Resolve a query cache-first; returns a ticket immediately.

        ``inject_failures`` is the farm's teeth knob threaded through:
        the first N attempts of the scheduled job raise, exercising the
        retry path (it never enters the cache key).  Blocks only when
        the job queue is full (bounded backpressure).
        """
        t0 = time.perf_counter()
        farm_job = query.to_job(inject_failures=inject_failures)
        key = farm_job.key()
        enqueue = None
        with self._lock:
            if self._closed:
                raise ServiceError("service is closed")
            self._queries += 1
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._coalesced += 1
                ticket = QueryTicket(query=query, key=key,
                                     source="coalesced", t0=t0, job=inflight)
            elif self.store.has(key):
                self._store_hits += 1
                ticket = QueryTicket(query=query, key=key, source="hit",
                                     t0=t0, job=None)
            else:
                job = _InflightJob(key)
                self._inflight[key] = job
                self._scheduled += 1
                enqueue = job
                ticket = QueryTicket(query=query, key=key, source="miss",
                                     t0=t0, job=job)
        if enqueue is not None:
            self._events.info("service.query.miss", key=key,
                              product=query.product)
            self._slots.acquire()       # may block: bounded backpressure
            try:
                fut = self._executor.submit(farm_job)
            except RuntimeError as exc:     # closed since the lock dropped
                self._retire(enqueue, JobResult(
                    key=key, index=farm_job.index, label=farm_job.label(),
                    status="failed", error=str(exc)))
                raise ServiceError("service is closed") from None
            fut.add_done_callback(
                lambda f: self._retire(enqueue, f.result()))
        elif ticket.source == "hit":
            self._events.info("service.query.hit", key=key,
                              product=query.product)
        else:
            self._events.info("service.query.coalesced", key=key,
                              product=query.product)
        self._publish()
        return ticket

    # -- poll / fetch --------------------------------------------------
    def poll(self, ticket: QueryTicket) -> str:
        """``hit`` | ``pending`` | ``done`` | ``failed`` (non-blocking)."""
        if ticket.job is None:
            return "hit"
        return ticket.job.status

    def fetch(self, ticket: QueryTicket, timeout: float | None = None) \
            -> QueryResult:
        """Block until the ticket's job lands, then serve from the store:
        read the one member the query answers from, and observe the
        latency the result reports.

        Failed jobs yield ``status="failed"`` results (never raise) so a
        batch can report every row; only a *timeout* raises
        :class:`ServiceError` — a hung job is an operational problem,
        not an answer.
        """
        timeout = self.config.fetch_timeout_s if timeout is None else timeout
        for recovered in (False, True):
            job = ticket.job
            if job is not None:
                if not job.done.wait(timeout):
                    raise ServiceError(
                        f"query {ticket.key}: no result after {timeout:g} s "
                        f"(job status {job.status!r})")
                if job.status == "failed":
                    return QueryResult(
                        query=ticket.query, key=ticket.key, status="failed",
                        source=ticket.source, data=None,
                        latency_s=time.perf_counter() - ticket.t0,
                        attempts=job.attempts, error=job.error)
            try:
                arrays, _meta = self.store.get(
                    ticket.key, names=(ticket.query.product,))
                break
            except ProductError as exc:
                if recovered:
                    raise ServiceError(
                        f"query {ticket.key}: product unreadable after "
                        f"recompute: {exc}") from None
                self._quarantine(ticket.key, exc)
                ticket = replace(self.submit(ticket.query), t0=ticket.t0)
        data = ticket.query.extract(arrays)
        latency = time.perf_counter() - ticket.t0
        self._latency.observe(latency)
        return QueryResult(
            query=ticket.query, key=ticket.key, status="ok",
            source=ticket.source, data=data, latency_s=latency,
            attempts=job.attempts if job is not None else 0)

    def _quarantine(self, key: str, exc: ProductError) -> None:
        """Move an unreadable product aside so the key is a miss again.

        Checked again under the lock: a concurrent fetch may already have
        quarantined the file, and by now even landed its replacement.
        """
        with self._lock:
            if key in self._inflight:
                return
            try:
                self.store.get(key)
                return
            except ProductError:
                pass
            path = self.store.path_for(key)
            try:
                path.replace(path.with_name(path.name + ".corrupt"))
            except FileNotFoundError:
                return
        self._events.error("service.store.corrupt", key=key, error=str(exc))

    def request(self, query: Query, inject_failures: int = 0,
                timeout: float | None = None) -> QueryResult:
        """Synchronous submit + fetch."""
        return self.fetch(self.submit(query, inject_failures=inject_failures),
                          timeout=timeout)

    # -- stats ---------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Served-without-new-compute fraction: (hits + coalesced)/queries."""
        with self._lock:
            return self._hit_rate()

    def _hit_rate(self) -> float:       # caller holds the lock
        return ((self._store_hits + self._coalesced) / self._queries
                if self._queries else 0.0)

    def stats(self) -> ServiceStats:
        pct = self._latency.percentiles((50, 95, 99))
        with self._lock:
            return ServiceStats(
                queries=self._queries, store_hits=self._store_hits,
                coalesced=self._coalesced, jobs_scheduled=self._scheduled,
                jobs_completed=self._completed, jobs_failed=self._failed,
                retries=self._retries,
                hit_rate=self._hit_rate(),
                latency_p50_s=pct["p50"], latency_p95_s=pct["p95"],
                latency_p99_s=pct["p99"])

    def _publish(self) -> None:
        """Mirror the counters to gauges (set under the lock, so a gauge
        never steps backwards); percentiles are :meth:`stats`' business."""
        g = self.registry.gauge
        with self._lock:
            g("service.queries").set(self._queries)
            g("service.store_hits").set(self._store_hits)
            g("service.coalesced").set(self._coalesced)
            g("service.jobs_scheduled").set(self._scheduled)
            g("service.jobs_failed").set(self._failed)
            g("service.retries").set(self._retries)
            g("service.hit_rate").set(self._hit_rate())

    # -- retire (the executor's done-callback) --------------------------
    def _retire(self, job: _InflightJob, res: JobResult) -> None:
        """Close an in-flight entry with its job's outcome and wake
        everyone waiting on it."""
        with self._lock:
            self._inflight.pop(job.key, None)
            job.attempts = res.attempts
            self._retries += max(0, res.attempts - 1)
            if res.status == "done":
                job.status = "done"
                self._completed += 1
            else:
                job.status = "failed"
                job.error = res.error
                self._failed += 1
        self._slots.release()
        job.done.set()
        self._publish()
