"""Tests for the command-line tools."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        p = build_parser()
        # a command is required
        with pytest.raises(SystemExit):
            p.parse_args([])

    @pytest.mark.parametrize("cmd", ["mesh-extract", "partition", "run-quake",
                                     "rupture", "perf-report", "aval", "m8"])
    def test_subcommand_parses(self, cmd):
        args = build_parser().parse_args([cmd])
        assert args.command == cmd


class TestMeshExtract:
    def test_runs_and_writes(self, tmp_path, capsys):
        out = tmp_path / "mesh.npy"
        rc = main(["mesh-extract", "--nx", "12", "--ny", "8", "--nz", "8",
                   "--ranks", "3", "--out", str(out)])
        assert rc == 0
        vol = np.load(out)
        assert vol.shape == (8, 8, 12, 3)
        assert "extracted 768 cells" in capsys.readouterr().out


class TestPartition:
    def test_both_models_agree(self, capsys):
        rc = main(["partition", "--nx", "12", "--ny", "8", "--nz", "8",
                   "--ranks", "4"])
        assert rc == 0
        assert "blocks identical: True" in capsys.readouterr().out


class TestRunQuake:
    def test_produces_pgv(self, tmp_path, capsys):
        out = tmp_path / "pgv.npy"
        rc = main(["run-quake", "--n", "20", "--steps", "40",
                   "--out", str(out)])
        assert rc == 0
        pgv = np.load(out)
        assert pgv.shape == (20, 20)
        assert pgv.max() > 0

    @pytest.mark.parametrize("backend", ["sim", "procpool"])
    def test_distributed_backends_match_serial(self, tmp_path, capsys,
                                               backend):
        serial = tmp_path / "pgv_serial.npy"
        dist = tmp_path / f"pgv_{backend}.npy"
        assert main(["run-quake", "--n", "20", "--steps", "20",
                     "--out", str(serial)]) == 0
        assert main(["run-quake", "--n", "20", "--steps", "20",
                     "--ranks", "2", "--backend", backend,
                     "--out", str(dist)]) == 0
        assert np.array_equal(np.load(serial), np.load(dist))
        assert backend in capsys.readouterr().out


class TestRunQuakeLTS:
    def test_banner_and_run(self, capsys):
        rc = main(["run-quake", "--n", "16", "--steps", "8",
                   "--lts", "auto"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "local time stepping:" in out
        assert "theoretical speedup" in out
        assert "sponge absorbing boundary" in out

    def test_banner_counts_global_cells(self, capsys):
        rc = main(["run-quake", "--n", "16", "--steps", "4",
                   "--lts", "auto"])
        assert rc == 0
        out = capsys.readouterr().out
        # per-rate counts must sum to the global cell count (16 * 16 * 12)
        import re
        counts = [int(c.replace(",", "")) for c in
                  re.findall(r"x\d+: ([\d,]+)", out)]
        assert sum(counts) == 16 * 16 * 12

    def test_distributed_lts_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "pgv_serial.npy"
        dist = tmp_path / "pgv_dist.npy"
        assert main(["run-quake", "--n", "20", "--steps", "12",
                     "--lts", "auto", "--out", str(serial)]) == 0
        assert main(["run-quake", "--n", "20", "--steps", "12",
                     "--lts", "auto", "--ranks", "2",
                     "--out", str(dist)]) == 0
        assert np.array_equal(np.load(serial), np.load(dist))

    def test_diagnose_surfaces_lts(self, tmp_path, capsys):
        trace = tmp_path / "lts.jsonl"
        assert main(["run-quake", "--n", "16", "--steps", "6",
                     "--lts", "auto", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["diagnose", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "local time stepping: map" in out

    def test_off_runs_unchanged(self, tmp_path):
        # --lts off must be the exact pre-LTS run (PML + homogeneous)
        a, b = tmp_path / "a.npy", tmp_path / "b.npy"
        assert main(["run-quake", "--n", "16", "--steps", "8",
                     "--out", str(a)]) == 0
        assert main(["run-quake", "--n", "16", "--steps", "8",
                     "--lts", "off", "--out", str(b)]) == 0
        assert np.array_equal(np.load(a), np.load(b))


class TestRupture:
    def test_reports_magnitude(self, capsys):
        rc = main(["rupture", "--strike", "24", "--depth", "10",
                   "--steps", "80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Mw" in out and "peak slip" in out


class TestPerfReport:
    def test_jaguar_production_point(self, capsys):
        rc = main(["perf-report"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Jaguar" in out
        assert "Tflop/s" in out
        assert "Eq. 8 efficiency" in out

    def test_other_machine(self, capsys):
        rc = main(["perf-report", "--machine", "ranger", "--cores", "60000",
                   "--nx", "6000", "--ny", "3000", "--nz", "800"])
        assert rc == 0
        assert "Ranger" in capsys.readouterr().out


class TestAval:
    def test_bootstrap_passes(self, capsys):
        rc = main(["aval"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_reference_roundtrip(self, tmp_path, capsys):
        ref = tmp_path / "ref.npz"
        assert main(["aval", "--update-reference", str(ref)]) == 0
        assert main(["aval", "--reference", str(ref)]) == 0
        assert "PASS" in capsys.readouterr().out


class TestTraceFlag:
    def test_run_quake_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        rc = main(["run-quake", "--n", "16", "--steps", "10",
                   "--trace", str(trace)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        from repro.obs import read_jsonl
        spans = read_jsonl(trace)
        assert spans
        assert any(sp.name == "solver.step" for sp in spans)

    def test_trace_chrome_writes_valid_json(self, tmp_path):
        import json
        out = tmp_path / "run.json"
        rc = main(["run-quake", "--n", "16", "--steps", "10",
                   "--trace-chrome", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_trace_restores_global_tracer(self, tmp_path):
        from repro.obs import NULL_TRACER, get_tracer
        main(["run-quake", "--n", "16", "--steps", "5",
              "--trace", str(tmp_path / "t.jsonl")])
        assert get_tracer() is NULL_TRACER

    def test_untraced_run_unchanged(self, tmp_path, capsys):
        rc = main(["run-quake", "--n", "16", "--steps", "5"])
        assert rc == 0
        assert "wrote" not in capsys.readouterr().out


class TestTraceReport:
    def _make_trace(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        main(["run-quake", "--n", "16", "--steps", "10",
              "--trace", str(trace)])
        return trace

    def test_renders_breakdown(self, tmp_path, capsys):
        trace = self._make_trace(tmp_path)
        capsys.readouterr()
        rc = main(["trace-report", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-rank phase breakdown" in out
        for phase in ("compute", "halo", "io", "other"):
            assert phase in out
        assert "top 10 spans" in out

    def test_chrome_conversion(self, tmp_path, capsys):
        import json
        trace = self._make_trace(tmp_path)
        chrome = tmp_path / "run.json"
        rc = main(["trace-report", str(trace), "--chrome", str(chrome)])
        assert rc == 0
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]

    def test_empty_trace_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-report", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().out

    def test_distributed_trace_per_rank_rows(self, tmp_path, capsys):
        """A SimMPI trace renders one breakdown row per rank."""
        from repro.core import Grid3D, Medium, SolverConfig
        from repro.obs import Tracer, use_tracer, write_jsonl
        from repro.parallel.distributed import DistributedWaveSolver
        from repro.parallel.machine import jaguar

        g = Grid3D(12, 12, 12, h=100.0)
        d = DistributedWaveSolver(
            g, Medium.homogeneous(g), nranks=4,
            config=SolverConfig(free_surface=False, absorbing="none"),
            machine=jaguar())
        tracer = Tracer()
        with use_tracer(tracer):
            d.run(2)
        trace = tmp_path / "dist.jsonl"
        write_jsonl(tracer.spans, trace)
        rc = main(["trace-report", str(trace), "--top", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        for rank in range(4):
            assert f"\n     {rank} " in out
        assert "all" in out


class TestTraceManifest:
    def test_trace_leads_with_manifest_header(self, tmp_path):
        import json
        trace = tmp_path / "run.jsonl"
        rc = main(["run-quake", "--n", "16", "--steps", "5",
                   "--trace", str(trace)])
        assert rc == 0
        first = json.loads(trace.read_text().splitlines()[0])
        assert "manifest" in first
        m = first["manifest"]
        assert len(m["config_hash"]) == 64
        assert m["schema"].startswith("repro-manifest/")
        from repro.obs import read_manifest
        assert read_manifest(trace) == m

    def test_manifest_hash_is_solver_config_hash(self, tmp_path):
        """run-quake stamps the hash of its actual SolverConfig."""
        from repro.obs import read_manifest
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["run-quake", "--n", "16", "--steps", "2", "--trace", str(a)])
        main(["run-quake", "--n", "16", "--steps", "4", "--trace", str(b)])
        # same SolverConfig (steps is not part of it) -> same hash
        assert (read_manifest(a)["config_hash"]
                == read_manifest(b)["config_hash"])
        c = tmp_path / "c.jsonl"
        main(["run-quake", "--n", "16", "--steps", "2",
              "--dtype", "float32", "--trace", str(c)])
        assert (read_manifest(c)["config_hash"]
                != read_manifest(a)["config_hash"])

    def test_chrome_trace_carries_manifest(self, tmp_path):
        import json
        out = tmp_path / "run.json"
        main(["run-quake", "--n", "16", "--steps", "5",
              "--trace-chrome", str(out)])
        doc = json.loads(out.read_text())
        assert doc["otherData"]["manifest"]["config_hash"]


class TestDiagnose:
    def _trace(self, tmp_path, ranks=1):
        trace = tmp_path / "run.jsonl"
        argv = ["run-quake", "--n", "16", "--steps", "8",
                "--trace", str(trace)]
        if ranks > 1:
            argv += ["--ranks", str(ranks), "--backend", "procpool"]
        assert main(argv) == 0
        return trace

    def test_diagnose_parses(self):
        args = build_parser().parse_args(["diagnose", "t.jsonl", "--json"])
        assert args.command == "diagnose"
        assert args.json

    def test_reports_on_serial_trace(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["diagnose", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace diagnosis" in out
        assert "critical path" in out
        assert "per-rank utilization" in out

    def test_json_output(self, tmp_path, capsys):
        import json
        trace = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["diagnose", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["critical_path_s"] > 0
        assert doc["manifest"]["config_hash"]

    def test_procpool_trace_per_rank(self, tmp_path, capsys):
        from repro.parallel import procpool
        if not procpool.procpool_available():
            pytest.skip("fork/shared_memory unavailable")
        import json
        trace = self._trace(tmp_path, ranks=4)
        capsys.readouterr()
        assert main(["diagnose", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nranks"] == 4
        for r in range(4):
            rk = doc["per_rank"][str(r)]
            assert rk["busy_s"] > 0
            assert rk["wait_s"] >= 0
        assert doc["imbalance_ratio"] >= 1.0

    def test_empty_trace_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["diagnose", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err


class TestHealthFlags:
    def test_inject_nan_exits_4_with_bundle(self, tmp_path, capsys):
        import json
        diag = tmp_path / "diag"
        rc = main(["run-quake", "--n", "16", "--steps", "40",
                   "--inject-nan", "10", "--health-interval", "5",
                   "--diagnosis-dir", str(diag)])
        assert rc == 4
        assert "HEALTH ABORT" in capsys.readouterr().err
        report = json.loads((diag / "report-r0.json").read_text())
        assert report["reason"]
        assert report["field_stats"]
        assert report["manifest"]["config_hash"]
        assert (diag / "events-r0.jsonl").exists()

    def test_inject_nan_procpool_exits_4(self, tmp_path, capsys):
        from repro.parallel import procpool
        if not procpool.procpool_available():
            pytest.skip("fork/shared_memory unavailable")
        diag = tmp_path / "diag"
        rc = main(["run-quake", "--n", "16", "--steps", "40",
                   "--ranks", "2", "--backend", "procpool",
                   "--inject-nan", "10", "--health-interval", "5",
                   "--diagnosis-dir", str(diag)])
        assert rc == 4
        assert "HEALTH ABORT" in capsys.readouterr().err
        assert (diag / "report-r0.json").exists()

    def test_warn_policy_completes(self, tmp_path, capsys):
        with pytest.warns(RuntimeWarning):
            rc = main(["run-quake", "--n", "16", "--steps", "20",
                       "--inject-nan", "5", "--health-interval", "5",
                       "--health", "warn",
                       "--diagnosis-dir", str(tmp_path / "d")])
        assert rc == 0
        assert "PGVH" in capsys.readouterr().out

    def test_healthy_run_matches_unmonitored(self, tmp_path, capsys):
        """--health abort on a healthy run: same PGV, exit 0."""
        a = tmp_path / "a.npy"
        b = tmp_path / "b.npy"
        assert main(["run-quake", "--n", "16", "--steps", "15",
                     "--out", str(a)]) == 0
        assert main(["run-quake", "--n", "16", "--steps", "15",
                     "--health", "abort", "--out", str(b)]) == 0
        assert np.array_equal(np.load(a), np.load(b))


class TestFarm:
    def _write_spec(self, tmp_path, **kw):
        import json
        doc = {"schema": "repro-farm-spec/1", "scenario": "ShakeOut-K",
               "nx": 16, "nsteps": 4}
        doc.update(kw)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_parses(self, tmp_path):
        args = build_parser().parse_args(["farm", "spec.json"])
        assert args.command == "farm"
        assert args.workers == 2
        assert args.resume is True
        assert args.max_retries == 2

    def test_runs_and_reruns_cached(self, tmp_path, capsys):
        import json
        spec = self._write_spec(tmp_path,
                                axes={"rupture_seed": [1, 2]})
        store = tmp_path / "products"
        report = tmp_path / "report.json"
        rc = main(["farm", str(spec), "--workers", "1",
                   "--store", str(store), "--json", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "completed 2" in out
        assert "2 products" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro-farm/1"
        assert doc["completed"] == 2
        # second invocation: everything served from the store
        rc = main(["farm", str(spec), "--workers", "1",
                   "--store", str(store), "--json", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cached 2" in out
        assert "hit rate 100%" in out
        doc = json.loads(report.read_text())
        assert doc["cached"] == 2 and doc["completed"] == 0

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        rc = main(["farm", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, scenario="nope")
        rc = main(["farm", str(spec), "--store", str(tmp_path / "s")])
        assert rc == 2
        assert "invalid farm spec" in capsys.readouterr().err

    def test_failed_job_exits_1(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, inject_failures={"0": 99})
        rc = main(["farm", str(spec), "--workers", "1",
                   "--max-retries", "0", "--store", str(tmp_path / "s")])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out


class TestKernelVariantFlags:
    """--kernel-variant threading through run-quake and farm."""

    def test_run_quake_defaults_to_pooled(self):
        args = build_parser().parse_args(["run-quake"])
        assert args.kernel_variant == "pooled"

    def test_run_quake_rejects_unknown_variant(self):
        for variant in ("gpu", "blocked"):
            with pytest.raises(SystemExit) as exc:
                main(["run-quake", "--kernel-variant", variant])
            assert exc.value.code == 2

    @pytest.mark.parametrize("variant", ["compiled"])
    def test_run_quake_variant_matches_default_run(self, tmp_path, capsys,
                                                   variant):
        """A compiled run swaps PML for a sponge and a pooled run keeps PML,
        so compare them where both take the sponge (LTS on): bitwise-equal
        PGV."""
        from repro.core import compiled
        if not compiled.compiled_available():
            pytest.skip("no compiled provider")
        a = tmp_path / "a.npy"
        b = tmp_path / "b.npy"
        assert main(["run-quake", "--n", "20", "--steps", "20", "--lts",
                     "auto", "--out", str(a)]) == 0
        assert main(["run-quake", "--n", "20", "--steps", "20", "--lts",
                     "auto", "--kernel-variant", variant,
                     "--out", str(b)]) == 0
        out = capsys.readouterr().out
        assert np.array_equal(np.load(a), np.load(b))
        assert "sponge absorbing boundary" in out
        target = compiled.get_kernels(np.float64).target
        assert f"kernel variant: {variant}, target {target}" in out

    def test_farm_override_parses(self):
        args = build_parser().parse_args(["farm", "spec.json",
                                          "--kernel-variant", "compiled"])
        assert args.kernel_variant == "compiled"
        # default: no override, use the spec's variant
        args = build_parser().parse_args(["farm", "spec.json"])
        assert args.kernel_variant is None
