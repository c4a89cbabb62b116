"""Latency-gate tests: percentile exactness feeding the service columns.

Seeds deterministic durations into the ``service.query.latency_s``
histogram and asserts the p50/p95/p99 the service reports are *exactly*
the numpy linear-interpolation percentiles — the numbers the
``service_query`` bench row and the ``--compare`` gate are built on.
"""

import numpy as np
import pytest

from repro.obs.metrics import Histogram, MetricsRegistry

from .conftest import make_fake_runner, mini_query

DURATIONS = [0.001 * k for k in range(1, 101)]   # 1..100 ms, shuffled below


class TestHistogramPercentiles:
    def test_exactness_against_numpy(self):
        h = Histogram("t")
        rng = np.random.default_rng(7)
        samples = rng.permutation(DURATIONS)
        for v in samples:
            h.observe(v)
        for q in (50, 95, 99):
            assert h.percentile(q) == pytest.approx(
                np.percentile(DURATIONS, q), rel=0, abs=1e-15)

    def test_small_sample_interpolation(self):
        h = Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.percentile(50) == 2.5      # the documented convention
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0

    def test_percentiles_convenience(self):
        h = Histogram("t")
        for v in DURATIONS:
            h.observe(v)
        pct = h.percentiles((50, 95, 99))
        assert set(pct) == {"p50", "p95", "p99"}
        assert pct["p50"] == h.percentile(50)
        assert pct["p99"] == h.percentile(99)

    def test_empty_histogram_reports_zero(self):
        h = Histogram("t")
        assert h.percentiles((50, 99)) == {"p50": 0.0, "p99": 0.0}


class TestServiceStatsPercentiles:
    def test_stats_report_the_seeded_histogram(self, tmp_path):
        """Bypass the wall clock: seed the latency histogram directly and
        check stats() surfaces the exact percentiles."""
        from repro.service import HazardService, ServiceConfig

        registry = MetricsRegistry()
        with HazardService(tmp_path, ServiceConfig(backoff_s=0.0),
                           registry=registry,
                           runner=make_fake_runner()) as svc:
            hist = registry.get("service.query.latency_s")
            for v in DURATIONS:
                hist.observe(v)
            stats = svc.stats()
        assert stats.latency_p50_s == pytest.approx(
            np.percentile(DURATIONS, 50), abs=1e-15)
        assert stats.latency_p95_s == pytest.approx(
            np.percentile(DURATIONS, 95), abs=1e-15)
        assert stats.latency_p99_s == pytest.approx(
            np.percentile(DURATIONS, 99), abs=1e-15)

    def test_batch_report_carries_percentiles(self, tmp_path):
        from repro.service import Request, ServiceConfig, run_batch

        reqs = [Request(mini_query()), Request(mini_query()),
                Request(mini_query(site=(0.5, 0.5)))]
        report = run_batch(reqs, tmp_path,
                           config=ServiceConfig(backoff_s=0.0),
                           runner=make_fake_runner())
        doc = report.to_dict()
        assert doc["schema"] == "repro-service/1"
        for col in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
            assert isinstance(doc["stats"][col], float)
        assert doc["stats"]["latency_p99_s"] >= doc["stats"]["latency_p50_s"]
        assert all(isinstance(r["latency_s"], float) for r in doc["results"])


class TestHistogramCoversTheWait:
    def test_warm_stats_are_the_percentiles_of_the_results(self, tmp_path):
        """The histogram is observed at fetch with the value the result
        carries — store read included — not at submit."""
        from repro.service import HazardService, ServiceConfig

        cfg = ServiceConfig(backoff_s=0.0)
        with HazardService(tmp_path, cfg, registry=MetricsRegistry(),
                           runner=make_fake_runner()) as svc:
            svc.request(mini_query())                   # fill the store
        registry = MetricsRegistry()
        with HazardService(tmp_path, cfg, registry=registry,
                           runner=make_fake_runner()) as svc:
            results = [svc.request(mini_query(product=p))
                       for p in ("pgvh", "pgv_gm", "peak_vz", "pgvh",
                                 "rupture_times", "gmpe_r_km")]
            stats = svc.stats()
        assert all(r.source == "hit" for r in results)
        seen = [r.latency_s for r in results]
        assert registry.get("service.query.latency_s").count == len(seen)
        for q, got in ((50, stats.latency_p50_s), (95, stats.latency_p95_s),
                       (99, stats.latency_p99_s)):
            assert got == pytest.approx(np.percentile(seen, q),
                                        rel=0, abs=1e-15)

    def test_one_observation_per_answered_ticket(self, tmp_path):
        """Miss and coalesced tickets are observed like hits; a failed
        result is not."""
        import threading
        from repro.service import HazardService, ServiceConfig

        registry = MetricsRegistry()
        gate = threading.Event()
        cfg = ServiceConfig(max_retries=0, backoff_s=0.0)
        with HazardService(tmp_path, cfg, registry=registry,
                           runner=make_fake_runner(gate=gate)) as svc:
            tickets = [svc.submit(mini_query()) for _ in range(3)]
            bad = svc.submit(mini_query(rupture_seed=9), inject_failures=1)
            assert [t.source for t in tickets] == ["miss", "coalesced",
                                                   "coalesced"]
            gate.set()
            results = [svc.fetch(t) for t in tickets]
            assert svc.fetch(bad).status == "failed"
            stats = svc.stats()
        assert registry.get("service.query.latency_s").count == 3
        assert stats.latency_p50_s == pytest.approx(
            np.percentile([r.latency_s for r in results], 50),
            rel=0, abs=1e-15)


class TestSubmitComputesNoPercentile:
    def test_warm_submits_never_sort_the_histogram(self, tmp_path,
                                                   monkeypatch):
        from repro.service import HazardService, ServiceConfig

        registry = MetricsRegistry()
        rng = np.random.default_rng(3)
        seeded = rng.random(50_000).tolist()
        with HazardService(tmp_path, ServiceConfig(backoff_s=0.0),
                           registry=registry,
                           runner=make_fake_runner()) as svc:
            svc.request(mini_query())
            hist = registry.get("service.query.latency_s")
            for v in seeded[1:]:            # the miss was sample one
                hist.observe(v)
            calls = []
            for name in ("percentile", "percentiles", "summary"):
                real = getattr(Histogram, name)
                monkeypatch.setattr(
                    Histogram, name,
                    lambda self, *a, _real=real, _name=name, **kw:
                        (calls.append(_name), _real(self, *a, **kw))[1])
            tickets = [svc.submit(mini_query()) for _ in range(200)]
            assert all(t.source == "hit" for t in tickets)
            assert calls == []
            assert registry.gauge("service.queries").value == 201
            assert registry.gauge("service.store_hits").value == 200
            stats = svc.stats()
        assert calls == ["percentiles"]
        for q, got in ((50, stats.latency_p50_s), (95, stats.latency_p95_s),
                       (99, stats.latency_p99_s)):
            assert got == pytest.approx(np.percentile(seeded, q),
                                        rel=0, abs=1e-15)
