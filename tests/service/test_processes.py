"""The service and the farm on real worker processes (no ``runner=``).

Lifecycle, crash recovery and same-bits checks that only mean something
when the jobs run where production runs them: in the forked workers of
the one :class:`~repro.farm.engine.JobExecutor`.
"""

import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.farm import FarmSpec, ProductStore, engine, run_farm
from repro.obs.events import EventLog, use_event_log
from repro.obs.metrics import MetricsRegistry
from repro.service import (HazardService, Query, ServiceConfig,
                           ServiceError)

FAST = ServiceConfig(backoff_s=0.0)
PHYSICS = dict(scenario="ShakeOut-K", nx=16, nsteps=2)


def children() -> dict[int, str]:
    """``{pid: state}`` of this process's children, zombies included."""
    out = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == os.getpid():
            out[int(stat.parent.name)] = fields[0]
    return out


class TestLifecycle:
    def test_close_drains_jobs_in_flight_and_reaps_every_worker(
            self, tmp_path):
        before = set(children())
        svc = HazardService(tmp_path, ServiceConfig(workers=2, backoff_s=0.0),
                            registry=MetricsRegistry())
        workers = set(children()) - before
        assert len(workers) == 2        # forked by the constructor
        tickets = [svc.submit(Query(rupture_seed=s, **PHYSICS))
                   for s in range(1, 6)]
        svc.close()                     # 5 jobs accepted, at most 2 done
        assert not workers & set(children())     # none alive, none zombie
        assert all(svc.poll(t) == "done" for t in tickets)
        assert ProductStore(tmp_path).count() == 5
        assert all(svc.fetch(t).ok for t in tickets)    # fetch needs no worker
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(Query(rupture_seed=9, **PHYSICS))

    def test_threads_asking_for_one_unseen_key_schedule_one_job(
            self, tmp_path):
        q = Query(**PHYSICS)
        out, errors = [], []
        with HazardService(tmp_path, FAST,
                           registry=MetricsRegistry()) as svc:
            barrier = threading.Barrier(6)

            def client() -> None:
                try:
                    barrier.wait()
                    out.append(svc.request(q))
                except BaseException as exc:    # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            stats = svc.stats()
        assert not errors, errors
        assert stats.jobs_scheduled == 1
        assert len(out) == 6 and all(r.ok for r in out)
        assert len({r.data.tobytes() for r in out}) == 1


class TestSameBits:
    def test_service_product_equals_the_farms_and_the_pooled_variants(
            self, tmp_path):
        """One key, three producers: a service miss (default variant, in a
        service worker), the farm, and an explicit pooled job."""
        q = Query(magnitude=6.8, **PHYSICS)
        spec = FarmSpec(axes={"magnitude": [6.8]}, **PHYSICS)
        pooled = FarmSpec(axes={"magnitude": [6.8]},
                          kernel_variant="pooled", **PHYSICS)
        assert spec.expand()[0].key() == pooled.expand()[0].key() == q.key()
        with HazardService(tmp_path / "svc", FAST,
                           registry=MetricsRegistry()) as svc:
            assert svc.request(q).source == "miss"
        assert run_farm(spec, tmp_path / "farm", workers=2,
                        registry=MetricsRegistry()).completed == 1
        assert run_farm(pooled, tmp_path / "pooled", workers=1,
                        registry=MetricsRegistry()).completed == 1
        ref, _ = ProductStore(tmp_path / "svc").get(q.key())
        for other in ("farm", "pooled"):
            arrays, _ = ProductStore(tmp_path / other).get(q.key())
            assert sorted(arrays) == sorted(ref)
            for name in ref:
                assert np.array_equal(arrays[name], ref[name]), (other, name)


@pytest.mark.parametrize("front", ["farm", "service"])
def test_sigkilled_worker_costs_its_jobs_one_attempt(front, tmp_path,
                                                     monkeypatch):
    """A worker that dies mid-job breaks the pool, not the run: the
    executor rebuilds it, the jobs that were inside are retried, nobody
    else is charged and nobody is left waiting."""
    seeds = (1, 2, 3, 4)
    spec = FarmSpec(axes={"rupture_seed": list(seeds)}, **PHYSICS)
    victim = spec.expand()[1].key()
    real = engine.run_job

    def run_job(job, attempt=1):        # inherited by the forked workers
        if job.key() == victim and attempt == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(job, attempt=attempt)

    monkeypatch.setattr(engine, "run_job", run_job)
    with use_event_log(EventLog()) as log:
        if front == "farm":
            report = run_farm(spec, tmp_path, workers=2,
                              registry=MetricsRegistry())
            assert report.passed, report.summary()
            attempts = {r.key: r.attempts for r in report.results}
        else:
            with HazardService(tmp_path, FAST,
                               registry=MetricsRegistry()) as svc:
                tickets = [svc.submit(Query(rupture_seed=s, **PHYSICS))
                           for s in seeds]
                results = [svc.fetch(t, timeout=120) for t in tickets]
            assert all(r.ok for r in results), [r.error for r in results]
            attempts = {r.key: r.attempts for r in results}
    assert attempts[victim] == 2
    # the pool holds at most `workers` jobs: the victim and one bystander
    assert sum(a - 1 for a in attempts.values()) <= 2
    names = [e.name for e in log.events]
    assert names.count(f"{front}.worker.died") == 1
    assert f"{front}.job.failed" not in names
    store = ProductStore(tmp_path)
    assert store.count() == len(seeds)
    for key in store.keys():
        store.get(key)
