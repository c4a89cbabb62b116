"""Query identity and validation: product/site never enter the hash."""

import numpy as np
import pytest

from repro.farm import FarmSpec
from repro.obs.provenance import canonical_config_hash
from repro.service import Query, QueryError

from .conftest import mini_query


class TestIdentity:
    def test_key_is_the_farm_jobs_content_address(self):
        q = mini_query(magnitude=7.0, rupture_seed=3)
        job = q.to_job()
        assert q.key() == job.key()
        assert q.key() == canonical_config_hash(job.config())[:32]

    def test_key_matches_equivalent_farm_spec_expansion(self):
        q = mini_query(magnitude=6.8)
        spec = FarmSpec(scenario="ShakeOut-K", nx=16, nsteps=4,
                        axes={"magnitude": [6.8]})
        assert q.key() == spec.expand()[0].key()

    def test_product_and_site_do_not_enter_the_key(self):
        base = mini_query()
        assert mini_query(product="pgv_gm").key() == base.key()
        assert mini_query(product="seis.near.vz").key() == base.key()
        assert mini_query(site=(0.25, 0.75)).key() == base.key()

    def test_int_float_normalisation(self):
        assert mini_query(magnitude=7).key() == \
            mini_query(magnitude=7.0).key()
        assert mini_query(rupture_seed=np.int64(2)).key() == \
            mini_query(rupture_seed=2).key()
        assert mini_query(hypocenter=[0.25, 0.5]) == \
            mini_query(hypocenter=(0.25, 0.5))

    def test_distinct_physics_distinct_keys(self):
        keys = {mini_query(magnitude=m, rupture_seed=s).key()
                for m in (6.5, 7.0) for s in (1, 2)}
        assert len(keys) == 4

    def test_inject_failures_never_enters_the_key(self):
        q = mini_query()
        assert q.to_job(inject_failures=3).key() == q.key()

    def test_job_is_resolved_once_per_query(self, monkeypatch):
        expands = []
        real = FarmSpec.expand
        monkeypatch.setattr(
            FarmSpec, "expand",
            lambda self: (expands.append(1), real(self))[1])
        q = mini_query(magnitude=7.0)
        for _ in range(5):
            q.key(), q.label(), q.to_job(), q.to_job(inject_failures=2)
        assert len(expands) == 1
        assert q.to_job(inject_failures=2).inject_failures == 2
        assert q.to_job().inject_failures == 0      # the kept job is intact

    def test_resolved_job_survives_copy_and_pickle(self):
        import pickle
        from dataclasses import replace
        q = mini_query(magnitude=7.0)
        assert pickle.loads(pickle.dumps(q)).key() == q.key()
        moved = replace(q, rupture_seed=5)
        assert moved.key() == mini_query(magnitude=7.0, rupture_seed=5).key()
        assert moved.key() != q.key()


class TestValidation:
    def test_unknown_scenario_rejected_with_farm_message(self):
        with pytest.raises(QueryError, match="unknown scenario"):
            Query(scenario="nope")

    def test_unknown_product(self):
        with pytest.raises(QueryError, match="unknown product"):
            mini_query(product="pgx")

    def test_seis_products_accepted(self):
        for rec in ("near", "off_axis", "far"):
            mini_query(product=f"seis.{rec}.vx")

    def test_site_requires_a_map_product(self):
        with pytest.raises(QueryError, match="surface maps"):
            mini_query(product="seis.near.vx", site=(0.5, 0.5))
        with pytest.raises(QueryError, match="surface maps"):
            mini_query(product="rupture_times", site=(0.5, 0.5))

    def test_site_fractions_bounded(self):
        with pytest.raises(QueryError, match=r"\[0, 1\]"):
            mini_query(site=(1.5, 0.5))

    def test_bad_dtype_and_gmpe_rejected(self):
        with pytest.raises(QueryError):
            mini_query(dtype="float16")
        with pytest.raises(QueryError):
            mini_query(gmpe="nope")


class TestSerialisation:
    def test_roundtrip(self):
        q = mini_query(magnitude=7.2, product="pgv_gm", site=(0.1, 0.9))
        assert Query.from_dict(q.to_dict()) == q

    def test_unknown_keys_rejected(self):
        with pytest.raises(QueryError, match="unknown query keys: tile"):
            Query.from_dict({"scenario": "ShakeOut-K", "tile": 3})

    def test_scenario_required(self):
        with pytest.raises(QueryError, match="lacks a 'scenario'"):
            Query.from_dict({"magnitude": 7.0})

    def test_non_object_rejected(self):
        with pytest.raises(QueryError, match="not a JSON object"):
            Query.from_dict([1, 2])


class TestExtract:
    def test_full_map(self):
        arr = np.arange(16.0).reshape(4, 4)
        out = mini_query().extract({"pgvh": arr})
        assert out is arr

    def test_site_nearest_grid_point(self):
        arr = np.arange(16.0).reshape(4, 4)
        q = mini_query(site=(1.0, 0.0))
        assert q.extract({"pgvh": arr}) == float(arr[3, 0])
        q = mini_query(site=(0.5, 0.5))     # 0.5 * 3 = 1.5 rounds to 2
        assert q.extract({"pgvh": arr}) == float(arr[2, 2])

    def test_missing_product_raises(self):
        with pytest.raises(QueryError, match="lacks product"):
            mini_query(product="pgv_gm").extract({"pgvh": np.zeros((2, 2))})
