"""HazardService lifecycle: submit → poll → fetch, coalescing, retries."""

import threading

import numpy as np
import pytest

from repro.farm import ProductError
from repro.obs.events import EventLog, use_event_log
from repro.obs.metrics import MetricsRegistry
from repro.service import (HazardService, Query, ServiceConfig,
                           ServiceError)

from ..farm.test_store import damage, disk_full, record_member_reads
from .conftest import make_fake_runner, mini_query

FAST = ServiceConfig(backoff_s=0.0)


class TestLifecycle:
    def test_miss_then_fetch(self, tmp_path, registry):
        runner = make_fake_runner()
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=runner) as svc:
            q = mini_query()
            ticket = svc.submit(q)
            assert ticket.source == "miss"
            res = svc.fetch(ticket)
            assert res.ok and res.source == "miss"
            assert isinstance(res.data, np.ndarray)
            assert res.data.shape == (16, 16)
            assert svc.poll(ticket) == "done"
            assert runner.counts == {q.key(): 1}

    def test_warm_store_is_a_hit(self, tmp_path, registry):
        runner = make_fake_runner()
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=runner) as svc:
            svc.request(mini_query())
        with HazardService(tmp_path, FAST, registry=MetricsRegistry(),
                           runner=runner) as svc:
            ticket = svc.submit(mini_query(product="pgv_gm"))
            assert ticket.source == "hit"
            assert svc.poll(ticket) == "hit"
            res = svc.fetch(ticket)
            assert res.ok and res.source == "hit"
            stats = svc.stats()
            assert stats.hit_rate == 1.0
            assert stats.jobs_scheduled == 0
        # the second service never executed anything
        assert sum(runner.counts.values()) == 1

    def test_coalescing_is_deterministic_under_a_gate(self, tmp_path,
                                                      registry):
        gate = threading.Event()
        runner = make_fake_runner(gate=gate)
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=runner) as svc:
            t1 = svc.submit(mini_query())
            # worker is now blocked inside the job; identical submits
            # (any product/site shape) must coalesce, not reschedule
            t2 = svc.submit(mini_query(product="pgv_gm"))
            t3 = svc.submit(mini_query(site=(0.5, 0.5)))
            assert t1.source == "miss"
            assert t2.source == "coalesced" and t3.source == "coalesced"
            assert svc.poll(t2) == "pending"
            gate.set()
            r1, r2, r3 = svc.fetch(t1), svc.fetch(t2), svc.fetch(t3)
        assert r1.ok and r2.ok and r3.ok
        assert isinstance(r3.data, float)
        assert runner.counts == {mini_query().key(): 1}
        stats = svc.stats()
        assert stats.queries == 3 and stats.coalesced == 2
        assert stats.jobs_scheduled == 1
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_site_value_matches_map_cell(self, tmp_path, registry):
        runner = make_fake_runner()
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=runner) as svc:
            full = svc.request(mini_query())
            point = svc.request(mini_query(site=(0.0, 1.0)))
        assert point.data == float(full.data[0, -1])

    def test_submit_after_close_raises(self, tmp_path, registry):
        svc = HazardService(tmp_path, FAST, registry=registry,
                            runner=make_fake_runner())
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.submit(mini_query())

    def test_fetch_timeout_raises_not_hangs(self, tmp_path, registry):
        gate = threading.Event()
        runner = make_fake_runner(gate=gate)
        svc = HazardService(tmp_path, FAST, registry=registry, runner=runner)
        try:
            ticket = svc.submit(mini_query())
            with pytest.raises(ServiceError, match="no result after"):
                svc.fetch(ticket, timeout=0.05)
        finally:
            gate.set()
            svc.close()


class TestFaultInjection:
    def test_retry_succeeds_and_emits_events(self, tmp_path, registry):
        with use_event_log(EventLog()) as log:
            runner = make_fake_runner()
            with HazardService(tmp_path, FAST, registry=registry,
                               runner=runner) as svc:
                q = mini_query()
                res = svc.request(q, inject_failures=1)
                assert res.ok and res.attempts == 2
                stats = svc.stats()
            assert stats.retries == 1 and stats.jobs_failed == 0
            assert runner.counts == {q.key(): 2}
            names = [e.name for e in log.events]
            assert "service.job.retry" in names
            assert "service.job.failed" not in names
            retry = next(e for e in log.events
                         if e.name == "service.job.retry")
            assert retry.attrs["key"] == q.key()

    def test_exponential_backoff_recorded_in_events(self, tmp_path,
                                                    registry):
        with use_event_log(EventLog()) as log:
            cfg = ServiceConfig(max_retries=2, backoff_s=0.01)
            with HazardService(tmp_path, cfg, registry=registry,
                               runner=make_fake_runner()) as svc:
                res = svc.request(mini_query(), inject_failures=2)
                assert res.ok and res.attempts == 3
            delays = [e.attrs["backoff_s"] for e in log.events
                      if e.name == "service.job.retry"]
        assert delays == [0.01, 0.02]

    def test_zero_retries_surfaces_failed_status(self, tmp_path, registry):
        with use_event_log(EventLog()) as log:
            cfg = ServiceConfig(max_retries=0, backoff_s=0.0)
            with HazardService(tmp_path, cfg, registry=registry,
                               runner=make_fake_runner()) as svc:
                res = svc.request(mini_query(), inject_failures=1)
                assert res.status == "failed" and not res.ok
                assert "injected failure" in res.error
                assert res.data is None
                stats = svc.stats()
            assert stats.jobs_failed == 1 and stats.retries == 0
            assert "service.job.failed" in [e.name for e in log.events]

    def test_failed_key_can_be_resubmitted(self, tmp_path, registry):
        cfg = ServiceConfig(max_retries=0, backoff_s=0.0)
        runner = make_fake_runner()
        with HazardService(tmp_path, cfg, registry=registry,
                           runner=runner) as svc:
            q = mini_query()
            assert svc.request(q, inject_failures=1).status == "failed"
            # the failed job left inflight; a clean resubmit must rerun
            res = svc.request(q)
            assert res.ok
        assert runner.counts == {q.key(): 2}

    def test_crashing_runner_fails_cleanly(self, tmp_path, registry):
        def runner(job, attempt=1):
            raise OSError("disk on fire")  # not a FarmJobError

        with HazardService(tmp_path, FAST, registry=registry,
                           runner=runner) as svc:
            res = svc.request(mini_query())
        assert res.status == "failed"
        assert "disk on fire" in res.error

    def test_full_disk_is_a_failed_result_not_a_hang(self, tmp_path,
                                                     registry, monkeypatch):
        monkeypatch.setattr(np, "savez_compressed", disk_full)
        cfg = ServiceConfig(max_retries=0, backoff_s=0.0)
        with HazardService(tmp_path, cfg, registry=registry,
                           runner=make_fake_runner()) as svc:
            q = mini_query()
            res = svc.request(q, timeout=30)
            assert res.status == "failed" and res.data is None
            assert "No space left on device" in res.error
            assert not svc.store.has(q.key())
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


class TestCorruptProduct:
    @pytest.mark.parametrize("how", ["truncated", "bitflip"])
    def test_unreadable_hit_is_quarantined_and_recomputed(
            self, tmp_path, registry, how):
        """Damage a fetch runs into — a torn file, or a flipped byte in
        the member the query reads."""
        runner = make_fake_runner()
        q = mini_query()
        with use_event_log(EventLog()) as log, \
                HazardService(tmp_path, FAST, registry=registry,
                              runner=runner) as svc:
            good = svc.request(q).data
            path = svc.store.path_for(q.key())
            damage(path, how, member=q.product)
            ticket = svc.submit(q)
            assert ticket.source == "hit"       # has() is exists()
            res = svc.fetch(ticket)
            assert res.ok and res.source == "miss"
            np.testing.assert_array_equal(res.data, good)
            assert path.with_name(path.name + ".corrupt").exists()
            assert svc.store.keys() == [q.key()]
            assert svc.request(q).source == "hit"   # and stays recovered
        assert [e.name for e in log.events].count(
            "service.store.corrupt") == 1
        assert runner.counts == {q.key(): 2}

    def test_damage_outside_the_member_read_waits_for_its_reader(
            self, tmp_path, registry):
        """A fetch verifies what it returns: a flipped byte in another
        member neither fails nor quarantines this query; the query that
        reads the damaged member finds it and recomputes once."""
        runner = make_fake_runner()
        q, other = mini_query(), mini_query(product="peak_vz")
        with use_event_log(EventLog()) as log, \
                HazardService(tmp_path, FAST, registry=registry,
                              runner=runner) as svc:
            good, good_other = svc.request(q).data, svc.request(other).data
            path = svc.store.path_for(q.key())
            damage(path, "bitflip", member=other.product)
            res = svc.request(q)
            assert res.ok and res.source == "hit"
            assert np.array_equal(res.data, good)
            assert not path.with_name(path.name + ".corrupt").exists()
            assert runner.counts == {q.key(): 1}
            assert "service.store.corrupt" not in [e.name for e in log.events]
            with pytest.raises(ProductError):
                svc.store.get(q.key())      # the full read does see it
            res = svc.request(other)
            assert res.ok and res.source == "miss"
            assert np.array_equal(res.data, good_other)
            assert path.with_name(path.name + ".corrupt").exists()
        assert [e.name for e in log.events].count(
            "service.store.corrupt") == 1
        assert runner.counts == {q.key(): 2}

    def test_still_unreadable_after_recompute_raises_service_error(
            self, tmp_path, registry):
        """The recompute happens once; a store that keeps handing back
        garbage is an operational failure, never an answer."""
        q = mini_query()
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=make_fake_runner()) as svc:
            svc.request(q)
            real_put = svc.store.put

            def torn_put(job, arrays, **kw):
                path = real_put(job, arrays, **kw)
                damage(path, "truncated")
                return path

            svc.store.put = torn_put
            damage(svc.store.path_for(q.key()), "truncated")
            with pytest.raises(ServiceError, match="unreadable after"):
                svc.request(q)


class TestBackpressure:
    def test_submit_blocks_once_queue_depth_jobs_wait(self, tmp_path,
                                                      registry):
        gate = threading.Event()
        cfg = ServiceConfig(workers=1, queue_depth=1, backoff_s=0.0)
        with HazardService(tmp_path, cfg, registry=registry,
                           runner=make_fake_runner(gate=gate)) as svc:
            tickets = [svc.submit(mini_query(rupture_seed=s))
                       for s in (1, 2)]            # one running, one waiting
            third = threading.Thread(
                target=lambda: tickets.append(
                    svc.submit(mini_query(rupture_seed=3))))
            third.start()
            third.join(timeout=0.2)
            assert third.is_alive()                 # no slot: blocked
            assert svc.stats().jobs_scheduled == 3  # but already in flight
            gate.set()
            third.join(timeout=30)
            assert not third.is_alive()
            assert all(svc.fetch(t).ok for t in tickets)


class TestObservability:
    def test_gauges_published(self, tmp_path, registry):
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=make_fake_runner()) as svc:
            svc.request(mini_query())
            svc.request(mini_query())
        assert registry.gauge("service.queries").value == 2
        assert registry.gauge("service.store_hits").value == 1
        assert registry.gauge("service.jobs_scheduled").value == 1
        assert registry.gauge("service.hit_rate").value == 0.5

    def test_query_events_reach_the_flight_recorder(self, tmp_path,
                                                    registry):
        with use_event_log(EventLog()) as log:
            with HazardService(tmp_path, FAST, registry=registry,
                               runner=make_fake_runner()) as svc:
                svc.request(mini_query())
                svc.request(mini_query())
            names = [e.name for e in log.events]
        assert "service.query.miss" in names
        assert "service.query.hit" in names

    def test_warm_fetch_reads_the_one_member_it_answers_from(
            self, tmp_path, registry, monkeypatch):
        q = mini_query(product="gmpe_residual", site=(0.5, 0.5))
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=make_fake_runner()) as svc:
            svc.request(q)
            read = record_member_reads(monkeypatch,
                                       svc.store.path_for(q.key()))
            ticket = svc.submit(q)
            assert ticket.source == "hit" and read == []
            assert svc.fetch(ticket).ok
        assert sorted(read) == ["__meta__", "gmpe_residual"]

    def test_fetch_answers_equal_the_full_bundle(self, tmp_path, registry):
        """Every product name, map and site: the one-member read returns
        what ``extract`` takes from the whole bundle."""
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=make_fake_runner()) as svc:
            key = svc.request(mini_query()).key
            bundle = svc.store.get(key)[0]
            for name in bundle:
                q = mini_query(product=name)
                assert np.array_equal(svc.request(q).data, q.extract(bundle))
            site = mini_query(product="pgv_gm", site=(0.25, 0.75))
            assert svc.request(site).data == site.extract(bundle)

    def test_latency_histogram_counts_every_query(self, tmp_path, registry):
        with HazardService(tmp_path, FAST, registry=registry,
                           runner=make_fake_runner()) as svc:
            for _ in range(3):
                svc.request(mini_query())
        hist = registry.get("service.query.latency_s")
        assert hist.count == 3
        stats = svc.stats()
        assert stats.latency_p99_s >= stats.latency_p50_s >= 0.0
