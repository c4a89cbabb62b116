"""Golden regression store tests: the committed snapshots match the current
code, the comparator has teeth, and the refresh path works."""

import numpy as np
import pytest

from repro.verify import golden

pytestmark = [pytest.mark.verify, pytest.mark.tier1]


@pytest.fixture(scope="module")
def scenario_arrays():
    """One scenario run shared by the module (the expensive part)."""
    return golden.run_scenario()


class TestCommittedGoldens:
    def test_all_goldens_committed_and_passing(self, scenario_arrays):
        results = golden.check_goldens(produced=scenario_arrays)
        assert [r.name for r in results] == list(golden.GOLDEN_NAMES)
        for r in results:
            assert r.passed, r.summary()

    def test_total_size_under_one_megabyte(self):
        total = sum(golden.golden_path(n).stat().st_size
                    for n in golden.GOLDEN_NAMES)
        assert total < 1_000_000, f"goldens are {total} bytes"

    def test_metadata_schema(self):
        for name in golden.GOLDEN_NAMES:
            arrays, meta = golden.load_golden(name)
            assert meta["schema"] == golden.GOLDEN_SCHEMA
            assert meta["name"] == name
            assert set(meta["arrays"]) == set(arrays)
            for key, spec in meta["arrays"].items():
                assert list(arrays[key].shape) == spec["shape"]

    def test_signals_are_nontrivial(self, scenario_arrays):
        """Goldens of a silent run would vacuously pass forever."""
        seis = scenario_arrays["kinematic_mini_seismograms"]
        assert all(np.abs(v).max() > 1e-3 for v in seis.values())
        assert scenario_arrays["kinematic_mini_pgv"]["pgvh"].max() > 1e-2
        ane = scenario_arrays["anelastic_mini"]
        assert all(np.abs(ane[f"zeta.{c}.fault"]).max() > 1e6
                   for c in ("sxx", "syy", "szz", "sxy", "sxz", "syz"))

    def test_dynamic_rupture_spreads_past_nucleation(self, scenario_arrays):
        """The rupture golden pins a propagating front, not a locked or
        nucleation-only fault."""
        rup = scenario_arrays["dynamic_mini_rupture"]
        assert (rup["rupture_time"] > 0).mean() > 0.4
        assert rup["slip"].max() > 0.5
        assert np.abs(rup["surface_vx"]).max() > 1e-2


class TestComparator:
    def test_perturbation_detected(self, scenario_arrays):
        bad = {k: {a: v.copy() for a, v in d.items()}
               for k, d in scenario_arrays.items()}
        bad["kinematic_mini_pgv"]["pgvh"] *= 1.0 + 1e-5
        results = {r.name: r for r in golden.check_goldens(produced=bad)}
        assert not results["kinematic_mini_pgv"].passed
        assert results["kinematic_mini_seismograms"].passed

    def test_missing_array_detected(self, scenario_arrays):
        bad = {k: dict(d) for k, d in scenario_arrays.items()}
        del bad["kinematic_mini_rupture_front"]["slip"]
        results = {r.name: r for r in golden.check_goldens(produced=bad)}
        r = results["kinematic_mini_rupture_front"]
        assert not r.passed
        assert any("absent" in m.note for m in r.mismatches)

    def test_nan_candidate_detected(self):
        """A diverged run's NaNs must not compare as 'no error'."""
        mism = golden.compare_arrays({"a": np.full(3, np.nan)},
                                     {"a": np.ones(3)}, rtol=1e-7, atol=0.0)
        assert mism and mism[0].array == "a"

    def test_non_finite_reference_matches_nothing(self):
        """``rtol * max|ref|`` is inf for a reference holding inf, which
        would pass any finite candidate: such an entry is a mismatch."""
        mism = golden.compare_arrays({"a": np.array([7.0, 3.0])},
                                     {"a": np.array([1.0, np.inf])},
                                     rtol=1e-7, atol=0.0)
        assert [m.array for m in mism] == ["a"]
        assert "not finite" in mism[0].note

    def test_save_refuses_non_finite_array(self, tmp_path):
        with pytest.raises(ValueError, match="'t' is not finite"):
            golden.save_golden("kinematic_mini_pgv",
                               {"x": np.ones(2), "t": np.array([1.0, np.inf])},
                               directory=tmp_path)
        assert not golden.golden_path("kinematic_mini_pgv", tmp_path).exists()

    def test_shape_mismatch_detected(self):
        mism = golden.compare_arrays({"a": np.zeros((2, 3))},
                                     {"a": np.zeros((3, 2))},
                                     rtol=1e-7, atol=0.0)
        assert mism and "shape" in mism[0].note


class TestStoreRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        arrays = {"x": np.arange(6.0).reshape(2, 3),
                  "y": np.float32([1.5, -2.5])}
        golden.save_golden("kinematic_mini_pgv", arrays, directory=tmp_path)
        loaded, meta = golden.load_golden("kinematic_mini_pgv",
                                          directory=tmp_path)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == arrays[k].dtype
        assert meta["rtol"] == golden.DEFAULT_RTOL

    def test_wrong_schema_rejected(self, tmp_path):
        import json
        path = golden.golden_path("kinematic_mini_pgv", tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {"schema": "repro-golden/999", "name": "kinematic_mini_pgv"}
        np.savez_compressed(path, pgvh=np.zeros(3),
                            __meta__=np.array(json.dumps(meta)))
        with pytest.raises(ValueError, match="schema"):
            golden.load_golden("kinematic_mini_pgv", directory=tmp_path)

    def test_update_goldens_writes_all(self, tmp_path):
        paths = golden.update_goldens(directory=tmp_path)
        assert len(paths) == len(golden.GOLDEN_NAMES)
        results = golden.check_goldens(directory=tmp_path)
        assert all(r.passed for r in results)

    def test_missing_golden_reported(self, tmp_path, scenario_arrays):
        results = golden.check_goldens(directory=tmp_path,
                                       produced=scenario_arrays)
        assert all(r.status == "missing" for r in results)
        assert all(not r.passed for r in results)


class TestGoldenManifest:
    def test_meta_carries_run_manifest(self, tmp_path):
        from repro.obs.provenance import canonical_config_hash
        golden.save_golden("kinematic_mini_pgv",
                           {"pgvh": np.zeros((2, 2))}, directory=tmp_path)
        _, meta = golden.load_golden("kinematic_mini_pgv",
                                     directory=tmp_path)
        m = meta["manifest"]
        assert len(m["config_hash"]) == 64
        assert m["config_hash"] == canonical_config_hash(golden.SCENARIO)
        assert m["git_rev"]

    def test_committed_goldens_have_manifest(self):
        for name in golden.GOLDEN_NAMES:
            _, meta = golden.load_golden(name)
            assert "manifest" in meta, name
            assert len(meta["manifest"]["config_hash"]) == 64, name
