"""FarmSpec expansion, validation, and the cross-process seed contract."""

import json
import os
import subprocess
import sys

import pytest

from repro.farm import AXES, FARM_SPEC_SCHEMA, FarmJob, FarmSpec, FarmSpecError


def mini_spec(**kw):
    kw.setdefault("scenario", "ShakeOut-K")
    kw.setdefault("nx", 16)
    kw.setdefault("nsteps", 8)
    return FarmSpec(**kw)


class TestExpansion:
    def test_default_axes_give_one_job(self):
        spec = mini_spec()
        assert spec.njobs() == 1
        jobs = spec.expand()
        assert len(jobs) == 1
        assert jobs[0].index == 0
        assert jobs[0].dtype == "float64"
        assert jobs[0].gmpe == "ba08"

    def test_cartesian_counts(self):
        spec = mini_spec(axes={"magnitude": [6.0, 6.5, 7.0],
                               "rupture_seed": [1, 2],
                               "dtype": ["float32", "float64"]})
        assert spec.njobs() == 3 * 2 * 2
        jobs = spec.expand()
        assert len(jobs) == 12
        assert [j.index for j in jobs] == list(range(12))

    def test_all_axes_product(self):
        spec = mini_spec(axes={"magnitude": [6.5, 7.0],
                               "hypocenter": [[0.3, 0.4], [0.6, 0.5]],
                               "rupture_seed": [1, 2, 3],
                               "dtype": ["float32"],
                               "gmpe": ["ba08", "cb08"]})
        assert spec.njobs() == 2 * 2 * 3 * 1 * 2
        jobs = spec.expand()
        # expansion order follows AXES order; every tuple is unique
        assert len({j.key() for j in jobs}) == len(jobs)
        assert AXES == ("magnitude", "hypocenter", "rupture_seed",
                        "dtype", "gmpe", "lts")

    def test_inject_failures_mapped_by_index_not_in_key(self):
        spec = mini_spec(axes={"rupture_seed": [1, 2]},
                         inject_failures={1: 3})
        jobs = spec.expand()
        assert jobs[0].inject_failures == 0
        assert jobs[1].inject_failures == 3
        clean = mini_spec(axes={"rupture_seed": [1, 2]}).expand()
        # the teeth knob must not perturb the content address
        assert [j.key() for j in jobs] == [j.key() for j in clean]


class TestValidation:
    def test_unknown_scenario(self):
        with pytest.raises(FarmSpecError, match="unknown scenario"):
            FarmSpec(scenario="nope")

    def test_unknown_axis(self):
        with pytest.raises(FarmSpecError, match="unknown axes"):
            mini_spec(axes={"wavelength": [1]})

    def test_bad_dtype(self):
        with pytest.raises(FarmSpecError, match="dtype"):
            mini_spec(axes={"dtype": ["float16"]})

    def test_bad_gmpe(self):
        with pytest.raises(FarmSpecError, match="gmpe"):
            mini_spec(axes={"gmpe": ["as97"]})

    def test_bad_lts(self):
        with pytest.raises(FarmSpecError, match="lts"):
            mini_spec(axes={"lts": ["always"]})

    def test_bad_hypocenter(self):
        with pytest.raises(FarmSpecError, match="hypocenter"):
            mini_spec(axes={"hypocenter": [[1.5, 0.5]]})

    def test_empty_axis(self):
        with pytest.raises(FarmSpecError, match="non-empty"):
            mini_spec(axes={"magnitude": []})

    def test_nx_floor(self):
        with pytest.raises(FarmSpecError, match="nx"):
            mini_spec(nx=4)


class TestLTSIdentityGate:
    """``lts`` enters the content hash unless it is ``"off"``."""

    def _twin_jobs(self):
        jobs = mini_spec(axes={"lts": ["off", "auto"]}).expand()
        assert [j.lts for j in jobs] == ["off", "auto"]
        return jobs

    def test_failing_gate_puts_lts_in_the_hash(self):
        off, auto = self._twin_jobs()
        assert auto.config()["lts"] == "auto"
        assert auto.key() != off.key()

    def test_off_never_enters_the_hash(self):
        # pre-lts specs must keep their addresses: default jobs' config
        # has no lts key at all
        (job,) = mini_spec().expand()
        assert job.lts == "off"
        assert "lts" not in job.config()

    def test_to_dict_round_trips_lts(self):
        _, auto = self._twin_jobs()
        d = auto.to_dict()
        assert d["lts"] == "auto"
        assert FarmJob.from_dict(d) == auto

    @pytest.mark.parametrize("lts, scenario, key, seed", [
        ("off", "ShakeOut-K", "a4d2154acab65558c44d6337e8601b7f", 2557776989),
        ("off", "M8", "409e2b2ca96d20611b9d2fa20524546e", 1604169840),
        ("auto", "ShakeOut-K", "0d722f01b86647c1677c4e97335a3263", 3439549634),
        ("auto", "M8", "2c030aa95cb5e7ce7b3b38abea299643", 647437793),
    ])
    def test_keys_and_seeds_are_pinned(self, lts, scenario, key, seed):
        """Stored products keep their addresses: these keys and seeds were
        written by the measured-gate rule this one replaced (which never
        exempted ``auto``)."""
        kw = (dict(nx=24, nsteps=48, magnitude=6.5, hypocenter=(0.35, 0.4),
                   rupture_seed=1, dtype="float64", gmpe="ba08")
              if scenario == "ShakeOut-K" else
              dict(nx=16, nsteps=8, magnitude=7.0, hypocenter=(0.5, 0.5),
                   rupture_seed=3, dtype="float32", gmpe="cb08"))
        job = FarmJob(scenario=scenario, lts=lts, **kw)
        assert job.key() == key
        assert job.derived_seed() == seed


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        spec = mini_spec(axes={"magnitude": [6.5, 7.0],
                               "hypocenter": [[0.3, 0.4]]})
        path = spec.save(tmp_path / "spec.json")
        loaded = FarmSpec.load(path)
        assert loaded.njobs() == spec.njobs()
        assert ([j.key() for j in loaded.expand()]
                == [j.key() for j in spec.expand()])

    def test_schema_enforced(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": "repro-farm-spec/99",
                                 "scenario": "ShakeOut-K"}))
        with pytest.raises(FarmSpecError, match="schema"):
            FarmSpec.load(p)

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"scenario": "ShakeOut-K", "nranks": 4}))
        with pytest.raises(FarmSpecError, match="unknown spec keys"):
            FarmSpec.load(p)

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(FarmSpecError, match="not valid JSON"):
            FarmSpec.load(p)

    def test_to_dict_carries_schema(self):
        assert mini_spec().to_dict()["schema"] == FARM_SPEC_SCHEMA


class TestDerivedSeed:
    def test_distinct_per_config(self):
        jobs = mini_spec(axes={"rupture_seed": [1, 2, 3]}).expand()
        seeds = [j.derived_seed() for j in jobs]
        assert len(set(seeds)) == len(seeds)

    def test_index_does_not_enter_seed(self):
        a = FarmJob(scenario="ShakeOut-K", nx=16, nsteps=8, magnitude=6.5,
                    hypocenter=(0.35, 0.4), rupture_seed=1,
                    dtype="float64", gmpe="ba08", index=0)
        b = FarmJob(scenario="ShakeOut-K", nx=16, nsteps=8, magnitude=6.5,
                    hypocenter=(0.35, 0.4), rupture_seed=1,
                    dtype="float64", gmpe="ba08", index=7, inject_failures=2)
        assert a.derived_seed() == b.derived_seed()
        assert a.key() == b.key()

    def test_stable_across_processes(self, tmp_path):
        """A subprocess with a different PYTHONHASHSEED derives the same
        seed and key — the property multiprocess scheduling relies on."""
        from pathlib import Path

        import repro
        job = mini_spec().expand()[0]
        snippet = (
            "from repro.farm import FarmSpec\n"
            "j = FarmSpec(scenario='ShakeOut-K', nx=16, nsteps=8)"
            ".expand()[0]\n"
            "print(j.derived_seed(), j.key())\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   PYTHONHASHSEED="random")
        out = subprocess.run([sys.executable, "-c", snippet], env=env,
                             capture_output=True, text=True, check=True)
        seed, key = out.stdout.split()
        assert int(seed) == job.derived_seed()
        assert key == job.key()


class TestKernelVariant:
    """The stencil backend rides along on jobs but stays out of identity:
    pooled/compiled are bitwise-equal on the farm problem class,
    so the same spec must land the same product addresses whichever
    backend computed them."""

    def test_excluded_from_job_identity(self):
        base = mini_spec().expand()[0]
        comp = mini_spec(kernel_variant="compiled").expand()[0]
        assert comp.kernel_variant == "compiled"
        assert comp.key() == base.key()
        assert comp.derived_seed() == base.derived_seed()
        assert "kernel_variant" not in comp.config()

    def test_job_round_trip_preserves_variant(self):
        job = mini_spec(kernel_variant="pooled").expand()[0]
        again = FarmJob.from_dict(job.to_dict())
        assert again == job
        assert again.kernel_variant == "pooled"

    def test_spec_round_trip_preserves_variant(self):
        spec = mini_spec(kernel_variant="compiled")
        again = FarmSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_spec_json_key_accepted(self):
        doc = {"schema": FARM_SPEC_SCHEMA, "scenario": "ShakeOut-K",
               "nx": 16, "nsteps": 8, "kernel_variant": "compiled"}
        spec = FarmSpec.from_dict(doc)
        assert spec.kernel_variant == "compiled"
        assert all(j.kernel_variant == "compiled" for j in spec.expand())

    def test_bad_variant_rejected(self):
        for variant in ("gpu", "blocked"):
            with pytest.raises(FarmSpecError, match="kernel_variant"):
                mini_spec(kernel_variant=variant)
        with pytest.raises(FarmSpecError, match="kernel_variant"):
            FarmSpec.from_dict({"schema": FARM_SPEC_SCHEMA,
                                "scenario": "ShakeOut-K",
                                "kernel_variant": "gpu"})

    def test_variant_products_land_at_same_address(self, tmp_path):
        """Cache-hit across backends: a store filled by a pooled run
        resolves every job of a compiled rerun (the bitwise-equality
        claim the identity exclusion rests on)."""
        from repro.core import compiled
        if not compiled.compiled_available():
            pytest.skip("no compiled provider")
        from repro.farm import ProductStore, run_farm
        spec = mini_spec(kernel_variant="pooled")
        store = ProductStore(tmp_path / "store")
        first = run_farm(spec, store, workers=1)
        assert first.passed
        rerun = run_farm(mini_spec(kernel_variant="compiled"), store,
                         workers=1)
        assert rerun.passed
        assert all(r.status == "cached" for r in rerun.results)
