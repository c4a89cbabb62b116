"""Farm engine: retries, resume, serial == multiprocess bitwise equality."""

import numpy as np
import pytest

from repro.farm import (FARM_REPORT_SCHEMA, FarmSpec, ProductStore, run_farm)
from repro.obs.metrics import MetricsRegistry

from .test_store import disk_full


def mini_spec(**kw):
    kw.setdefault("scenario", "ShakeOut-K")
    kw.setdefault("nx", 16)
    kw.setdefault("nsteps", 4)
    return FarmSpec(**kw)


class TestSerial:
    def test_single_job_farm(self, tmp_path):
        spec = mini_spec()
        report = run_farm(spec, tmp_path / "store", workers=1,
                          registry=MetricsRegistry())
        assert report.passed
        assert report.njobs == 1
        assert report.completed == 1
        assert report.cached == 0 and report.failed == 0
        store = ProductStore(tmp_path / "store")
        assert store.count() == 1
        arrays, meta = store.get_job(spec.expand()[0])
        assert "pgvh" in arrays and "gmpe_residual" in arrays
        assert meta["schema"] == "repro-product/1"

    def test_rerun_is_all_cache_hits(self, tmp_path):
        spec = mini_spec(axes={"rupture_seed": [1, 2]})
        store = tmp_path / "store"
        first = run_farm(spec, store, workers=1, registry=MetricsRegistry())
        assert first.completed == 2
        rerun = run_farm(spec, store, workers=1, registry=MetricsRegistry())
        assert rerun.completed == 0
        assert rerun.cached == 2
        assert rerun.hit_rate == 1.0
        assert rerun.passed

    def test_no_resume_recomputes(self, tmp_path):
        spec = mini_spec()
        store = tmp_path / "store"
        run_farm(spec, store, workers=1, registry=MetricsRegistry())
        again = run_farm(spec, store, workers=1, resume=False,
                         registry=MetricsRegistry())
        assert again.completed == 1
        assert again.cached == 0

    def test_retry_then_succeed(self, tmp_path):
        spec = mini_spec(inject_failures={0: 1})
        report = run_farm(spec, tmp_path / "store", workers=1,
                          max_retries=2, registry=MetricsRegistry())
        assert report.passed
        res = report.results[0]
        assert res.status == "done"
        assert res.attempts == 2
        assert report.retries == 1
        assert ProductStore(tmp_path / "store").has(res.key)

    def test_retry_exhausted(self, tmp_path):
        spec = mini_spec(inject_failures={0: 99})
        report = run_farm(spec, tmp_path / "store", workers=1,
                          max_retries=1, registry=MetricsRegistry())
        assert not report.passed
        res = report.results[0]
        assert res.status == "failed"
        assert res.attempts == 2          # 1 try + 1 retry
        assert "injected failure" in res.error
        assert ProductStore(tmp_path / "store").count() == 0

    def test_resume_after_partial_farm(self, tmp_path):
        """Kill-and-resume: a farm that half-landed its products picks up
        exactly where the atomic store writes stopped."""
        store = tmp_path / "store"
        # first pass: job 1 always fails, no retries -> only job 0 lands
        broken = mini_spec(axes={"rupture_seed": [1, 2]},
                           inject_failures={1: 99})
        first = run_farm(broken, store, workers=1, max_retries=0,
                         registry=MetricsRegistry())
        assert first.completed == 1 and first.failed == 1
        assert ProductStore(store).count() == 1
        # resume with the healthy spec: job 0 is a cache hit, job 1 runs
        spec = mini_spec(axes={"rupture_seed": [1, 2]})
        second = run_farm(spec, store, workers=1,
                          registry=MetricsRegistry())
        assert second.passed
        assert second.cached == 1
        assert second.completed == 1
        assert ProductStore(store).count() == 2

    def test_progress_callback_sees_every_job(self, tmp_path):
        spec = mini_spec(axes={"rupture_seed": [1, 2]})
        seen = []
        run_farm(spec, tmp_path / "store", workers=1,
                 progress=lambda r: seen.append((r.index, r.status)),
                 registry=MetricsRegistry())
        assert sorted(seen) == [(0, "done"), (1, "done")]

    def test_bad_args(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            run_farm(mini_spec(), tmp_path, workers=0)
        with pytest.raises(ValueError, match="max_retries"):
            run_farm(mini_spec(), tmp_path, max_retries=-1)


class TestReport:
    def test_to_dict_schema_and_rates(self, tmp_path):
        spec = mini_spec()
        report = run_farm(spec, tmp_path / "store", workers=1,
                          registry=MetricsRegistry())
        doc = report.to_dict()
        assert doc["schema"] == FARM_REPORT_SCHEMA
        assert doc["njobs"] == 1
        assert doc["completed"] == 1
        assert doc["jobs_per_hour"] > 0
        assert doc["manifest"]["config_hash"]
        assert doc["results"][0]["status"] == "done"

    def test_write_json(self, tmp_path):
        import json
        report = run_farm(mini_spec(), tmp_path / "store", workers=1,
                          registry=MetricsRegistry())
        path = report.write_json(tmp_path / "report.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == FARM_REPORT_SCHEMA

    def test_metrics_published(self, tmp_path):
        reg = MetricsRegistry()
        run_farm(mini_spec(), tmp_path / "store", workers=1, registry=reg)
        assert reg.gauge("farm.jobs_total").value == 1
        assert reg.gauge("farm.jobs_completed").value == 1
        assert reg.gauge("farm.jobs_failed").value == 0
        assert reg.histogram("farm.job_wall_s").count == 1


class TestMultiprocess:
    def test_two_workers_bitwise_equal_to_serial(self, tmp_path):
        """The determinism contract end to end: a 2-worker farm lands
        products bitwise-identical to the same jobs run serially."""
        spec = mini_spec(axes={"rupture_seed": [1, 2],
                               "dtype": ["float32", "float64"]})
        pool_root = tmp_path / "pool"
        serial_root = tmp_path / "serial"
        pooled = run_farm(spec, pool_root, workers=2,
                          registry=MetricsRegistry())
        serial = run_farm(spec, serial_root, workers=1,
                          registry=MetricsRegistry())
        assert pooled.passed and serial.passed
        assert pooled.completed == serial.completed == 4
        pool_store, serial_store = (ProductStore(pool_root),
                                    ProductStore(serial_root))
        assert pool_store.keys() == serial_store.keys()
        for job in spec.expand():
            a, _ = pool_store.get_job(job)
            b, _ = serial_store.get_job(job)
            assert sorted(a) == sorted(b)
            for name in a:
                np.testing.assert_array_equal(
                    a[name], b[name],
                    err_msg=f"{job.label()} product {name!r} differs")

    def test_pool_retry_then_succeed(self, tmp_path):
        spec = mini_spec(inject_failures={0: 1})
        report = run_farm(spec, tmp_path / "store", workers=2,
                          max_retries=2, registry=MetricsRegistry())
        assert report.passed
        assert report.results[0].attempts == 2

    def test_pool_retry_exhausted_does_not_sink_farm(self, tmp_path):
        spec = mini_spec(axes={"rupture_seed": [1, 2]},
                         inject_failures={0: 99})
        report = run_farm(spec, tmp_path / "store", workers=2,
                          max_retries=1, registry=MetricsRegistry())
        assert not report.passed
        statuses = {r.index: r.status for r in report.results}
        assert statuses[0] == "failed"
        assert statuses[1] == "done"

    def test_no_fork_runs_on_threads_with_one_warning(self, tmp_path,
                                                      monkeypatch):
        from repro.farm import engine

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(engine.multiprocessing, "get_context", no_fork)
        spec = mini_spec(axes={"rupture_seed": [1, 2, 3]})
        with pytest.warns(RuntimeWarning,
                          match="worker processes unavailable") as caught:
            report = run_farm(spec, tmp_path / "store", workers=2,
                              registry=MetricsRegistry())
        assert len(caught) == 1
        assert report.passed and report.completed == 3


class TestDefaultVariant:
    """``kernel_variant="auto"`` (the default): compiled where the host has
    a provider, pooled where it has none — silently either way."""

    @pytest.fixture(autouse=True)
    def fresh_probe(self):
        from repro.farm.job import resolve_variant
        resolve_variant.cache_clear()
        yield
        resolve_variant.cache_clear()

    def test_spec_and_query_default_to_auto(self):
        from repro.service import Query
        assert mini_spec().kernel_variant == "auto"
        assert mini_spec().expand()[0].kernel_variant == "auto"
        assert Query(scenario="ShakeOut-K").to_job().kernel_variant == "auto"

    def test_auto_is_compiled_where_a_provider_exists(self):
        from repro.core.compiled import compiled_available
        from repro.farm.job import resolve_variant
        if not compiled_available():
            pytest.skip("no compiled provider")
        assert resolve_variant("auto") == "compiled"
        assert resolve_variant("pooled") == "pooled"

    def test_no_compiler_means_pooled_without_a_warning(self, tmp_path,
                                                        monkeypatch):
        import warnings

        from repro.farm.job import resolve_variant
        monkeypatch.setenv("REPRO_COMPILED_PROVIDER", "none")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_variant("auto") == "pooled"
            report = run_farm(mini_spec(), tmp_path / "store", workers=1,
                              registry=MetricsRegistry())
        assert report.passed


class TestExecutorStress:
    def test_many_submitters_every_future_completes_window_holds(
            self, tmp_path):
        """8 threads x 12 jobs whose first attempt fails, on 3 pool
        threads with a 10 us switch interval: every future completes
        `done` on attempt 2 and the pool never held more than `workers`
        attempts (the invariant the worker-death accounting rests on)."""
        import sys
        import threading
        from contextlib import closing

        from repro.farm import FarmJobError
        from repro.farm.engine import JobExecutor

        lock = threading.Lock()
        inside = peak = 0

        def runner(job, attempt=1):
            nonlocal inside, peak
            with lock:
                inside += 1
                peak = max(peak, inside)
            try:
                if attempt == 1:
                    raise FarmJobError("first attempt always fails")
                return {"pgvh": np.zeros((2, 2))}
            finally:
                with lock:
                    inside -= 1

        jobs = mini_spec(axes={"rupture_seed": list(range(96))}).expand()
        results, old = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with closing(JobExecutor(ProductStore(tmp_path), workers=3,
                                     runner=runner)) as ex:
                def client(mine):
                    futs = [ex.submit(j) for j in mine]
                    results.extend(f.result(timeout=60) for f in futs)

                threads = [threading.Thread(target=client,
                                            args=(jobs[i::8],))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert len(results) == 96
        assert all(r.status == "done" and r.attempts == 2 for r in results)
        assert 1 <= peak <= 3
        assert ProductStore(tmp_path).count() == 96


class TestStoreFailureModes:
    def test_two_farms_racing_one_store(self, tmp_path):
        """Both farms compute and ``put`` every key (``resume=False``, so
        neither can step aside as a cache hit): atomic replace means both
        finish, and what is left is one verified product per job."""
        import threading

        spec = mini_spec(axes={"rupture_seed": [1, 2, 3]})
        store = ProductStore(tmp_path)
        start = threading.Barrier(2)
        reports = []

        def farm():
            start.wait(timeout=30)
            reports.append(run_farm(spec, store, workers=1, resume=False,
                                    registry=MetricsRegistry()))

        threads = [threading.Thread(target=farm) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert len(reports) == 2
        for report in reports:
            assert [r.status for r in report.results] == ["done"] * 3
        keys = sorted(j.key() for j in spec.expand())
        assert store.keys() == keys
        for key in keys:
            assert store.get(key)[1]["key"] == key
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_full_disk_fails_the_job_with_the_error_text(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(np, "savez_compressed", disk_full)
        report = run_farm(mini_spec(), tmp_path, workers=1, max_retries=0,
                          registry=MetricsRegistry())
        monkeypatch.undo()
        (res,) = report.results
        assert res.status == "failed"
        assert "No space left on device" in res.error
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert not ProductStore(tmp_path).has(res.key)
