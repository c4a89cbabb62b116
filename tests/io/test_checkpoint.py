"""Tests for checkpoint/restart with failure injection."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.io.checkpoint import CheckpointCorrupt, CheckpointManager


def _states(seed=0, nranks=4):
    rng = np.random.default_rng(seed)
    return {r: {"t": 1.5, "nstep": 100,
                "fields": rng.standard_normal((4, 4))}
            for r in range(nranks)}


class TestWriteRestore:
    def test_roundtrip(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        states = _states()
        cm.write_epoch(1, states)
        back = cm.read_epoch(1, list(states))
        for r in states:
            assert np.array_equal(back[r]["fields"], states[r]["fields"])
            assert back[r]["nstep"] == 100

    def test_latest_epoch(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        assert cm.latest_epoch() is None
        cm.write_epoch(1, _states())
        cm.write_epoch(5, _states(1))
        assert cm.latest_epoch() == 5
        assert cm.complete_epochs() == [1, 5]

    def test_restore_latest(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        cm.write_epoch(1, _states(seed=1))
        cm.write_epoch(2, _states(seed=2))
        epoch, states = cm.restore_latest([0, 1, 2, 3])
        assert epoch == 2
        ref = _states(seed=2)
        assert np.array_equal(states[0]["fields"], ref[0]["fields"])

    def test_io_cost_tracked(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        t = cm.write_epoch(1, _states())
        assert t > 0
        assert cm.io_seconds == pytest.approx(t)

    def test_file_is_digest_line_then_pickle(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        states = _states(nranks=2)
        cm.write_epoch(1, states)
        for r, st in states.items():
            blob = pickle.dumps(st, protocol=pickle.HIGHEST_PROTOCOL)
            assert cm._path(1, r).read_bytes() == (
                hashlib.md5(blob).hexdigest().encode() + b"\n" + blob)

    def test_missing_rank_file(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        cm.write_epoch(1, _states(nranks=2))
        with pytest.raises(FileNotFoundError):
            cm.read_epoch(1, [0, 1, 2])


class TestFailureInjection:
    def test_corruption_detected(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        cm.write_epoch(1, _states())
        cm.inject_corruption(1, rank=2)
        with pytest.raises(CheckpointCorrupt, match="MD5"):
            cm.read_epoch(1, [0, 1, 2, 3])

    def test_torn_digest_line_detected(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        cm.write_epoch(1, _states(nranks=1))
        path = cm._path(1, 0)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointCorrupt, match="MD5"):
            cm.read_epoch(1, [0])

    def test_restore_falls_back_past_corrupt_epoch(self, tmp_path):
        """The restart logic walks back to the newest *verifiable* epoch."""
        cm = CheckpointManager(tmp_path)
        cm.write_epoch(1, _states(seed=1))
        cm.write_epoch(2, _states(seed=2))
        cm.inject_corruption(2, rank=0)
        epoch, states = cm.restore_latest([0, 1, 2, 3])
        assert epoch == 1
        ref = _states(seed=1)
        assert np.array_equal(states[3]["fields"], ref[3]["fields"])

    def test_nothing_restorable(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        cm.write_epoch(1, _states(nranks=1))
        cm.inject_corruption(1, rank=0)
        assert cm.restore_latest([0]) is None


class TestSolverIntegration:
    def test_wave_solver_checkpoint_restart(self, tmp_path):
        """End-to-end: checkpoint a running WaveSolver to disk, restore, and
        land bitwise on the uninterrupted trajectory (Section III.F)."""
        from repro.core import (Grid3D, Medium, MomentTensorSource,
                                SolverConfig, WaveSolver)
        from repro.core.source import gaussian_pulse

        g = Grid3D(14, 14, 12, h=100.0)
        med = Medium.homogeneous(g)
        cfg = SolverConfig(absorbing="sponge", sponge_width=3)

        def make():
            s = WaveSolver(g, med, cfg)
            s.add_source(MomentTensorSource(
                position=(700.0, 700.0, 600.0), moment=np.eye(3) * 1e13,
                stf=lambda t: gaussian_pulse(np.array([t]), f0=4.0)[0]))
            return s

        ref = make()
        ref.run(30)

        cm = CheckpointManager(tmp_path)
        victim = make()
        victim.run(15)
        cm.write_epoch(victim.nstep, {0: victim.state()})

        resumed = make()
        epoch, states = cm.restore_latest([0])
        resumed.load_state(states[0])
        assert epoch == 15
        resumed.run(15)
        assert np.array_equal(ref.wf.interior("vx"), resumed.wf.interior("vx"))


class TestManifest:
    def test_manifest_round_trip(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        m = {"config_hash": "a" * 64, "git_rev": "abc1234"}
        cm.write_epoch(3, _states(), manifest=m)
        assert cm.read_manifest(3) == m
        assert (tmp_path / "ckpt_e000003.manifest.json").exists()

    def test_manifest_absent(self, tmp_path):
        cm = CheckpointManager(tmp_path)
        cm.write_epoch(1, _states())
        assert cm.read_manifest(1) is None
        assert cm.read_manifest(99) is None

    def test_manifest_written_before_complete_marker(self, tmp_path):
        """A complete epoch must always carry its manifest: the manifest
        lands before the .complete marker so restore never races it."""
        import json as _json
        cm = CheckpointManager(tmp_path)
        cm.write_epoch(2, _states(), manifest={"k": 1})
        # the epoch is complete AND the manifest is readable
        assert 2 in cm.complete_epochs()
        text = (tmp_path / "ckpt_e000002.manifest.json").read_text()
        assert _json.loads(text) == {"k": 1}
