"""Tests for canonical config hashing and the RunManifest."""

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from repro.core import SolverConfig
from repro.obs import (MANIFEST_SCHEMA, RunManifest, cache_key,
                       canonical_config_hash, canonical_state)
from repro.obs.provenance import canonical_json, git_revision


@dataclasses.dataclass
class _Cfg:
    dt: float = 0.01
    order: int = 4


class TestCanonicalState:
    def test_dict_key_order_irrelevant(self):
        a = {"x": 1, "y": {"p": 2, "q": 3}}
        b = {"y": {"q": 3, "p": 2}, "x": 1}
        assert canonical_config_hash(a) == canonical_config_hash(b)

    def test_tuples_equal_lists(self):
        assert (canonical_config_hash({"shape": (4, 5)})
                == canonical_config_hash({"shape": [4, 5]}))

    def test_dataclass_expands_with_class_tag(self):
        st = canonical_state(_Cfg())
        assert st == {"__class__": "_Cfg", "dt": 0.01, "order": 4}

    def test_dataclass_distinct_from_plain_dict(self):
        assert (canonical_config_hash(_Cfg())
                != canonical_config_hash({"dt": 0.01, "order": 4}))

    def test_numpy_dtype_normalised(self):
        assert canonical_state(np.float32) == "float32"
        assert canonical_state(np.dtype("float32")) == "float32"
        assert (canonical_config_hash({"dtype": np.float32})
                == canonical_config_hash({"dtype": np.dtype("float32")}))

    def test_numpy_scalars_become_numbers(self):
        assert canonical_state(np.int64(3)) == 3
        assert canonical_state(np.float64(0.5)) == 0.5

    def test_arrays_refused(self):
        with pytest.raises(TypeError):
            canonical_state({"data": np.zeros(3)})

    def test_callables_stringified(self):
        st = canonical_state({"stf": canonical_json})
        assert "canonical_json" in st["stf"]

    def test_solver_config_hashes(self):
        h1 = canonical_config_hash(SolverConfig(dt=0.01))
        h2 = canonical_config_hash(SolverConfig(dt=0.01))
        h3 = canonical_config_hash(SolverConfig(dt=0.02))
        assert h1 == h2
        assert h1 != h3

    def test_hash_identical_across_processes(self):
        """The cross-process guarantee: a subprocess with a different (and
        randomised) PYTHONHASHSEED produces the same canonical hash."""
        import json as _json
        import os
        from pathlib import Path

        import repro
        cfg = {"shape": [24, 24, 20], "h": 200.0, "dtype": "float32",
               "nested": {"b": 2, "a": 1}}
        local = canonical_config_hash(cfg)
        code = ("import json,sys;"
                "from repro.obs import canonical_config_hash;"
                "print(canonical_config_hash(json.loads(sys.argv[1])))")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   PYTHONHASHSEED="random")
        out = subprocess.run(
            [sys.executable, "-c", code, _json.dumps(cfg)],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == local


class TestCacheKey:
    def test_config_only(self):
        key = cache_key({"a": 1})
        assert key == canonical_config_hash({"a": 1})[:16]

    def test_config_plus_scenario(self):
        key = cache_key({"a": 1}, {"b": 2})
        ch, _, sh = key.partition("-")
        assert ch == canonical_config_hash({"a": 1})[:16]
        assert sh == canonical_config_hash({"b": 2})[:16]


class TestRunManifest:
    def test_collect_fields(self):
        m = RunManifest.collect(config={"a": 1}, dtype=np.float32,
                                backend="procpool")
        assert m.schema == MANIFEST_SCHEMA
        assert m.config_hash == canonical_config_hash({"a": 1})
        assert m.dtype == "float32"
        assert m.backend == "procpool"
        assert m.host
        assert m.packages["python"]
        assert m.packages["numpy"] == np.__version__
        assert m.created

    def test_to_from_dict_round_trip(self):
        m = RunManifest.collect(config={"a": 1})
        d = m.to_dict()
        assert RunManifest.from_dict(d) == m

    def test_from_dict_ignores_unknown_keys(self):
        m = RunManifest.from_dict({"config_hash": "x", "novel_field": 1})
        assert m.config_hash == "x"

    def test_git_revision_shape(self):
        rev = git_revision()
        assert isinstance(rev, str) and rev

    def test_manifests_fork_git_once_per_process(self, monkeypatch):
        """A farm stamps one manifest per product: one ``git rev-parse``
        for all of them, not one each."""
        from repro.obs import provenance
        provenance._git_revision.cache_clear()
        calls = []
        real_run = subprocess.run

        def counting_run(cmd, *args, **kwargs):
            calls.append(cmd)
            return real_run(cmd, *args, **kwargs)

        monkeypatch.setattr(provenance.subprocess, "run", counting_run)
        revs = {RunManifest.collect(config={"job": i}).git_rev
                for i in range(5)}
        assert len(calls) == 1 and calls[0][0] == "git"
        assert len(revs) == 1

    def test_non_repo_cwd_is_unknown_even_after_a_memoised_hit(
            self, monkeypatch, tmp_path):
        git_revision()                      # memoise the repo's answer
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert git_revision() == "unknown"
        assert RunManifest.collect(config={}).git_rev == "unknown"
