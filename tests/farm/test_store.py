"""ProductStore: round-trip, schema checks, and address integrity."""

import json

import numpy as np
import pytest

from repro.farm import (PRODUCT_SCHEMA, FarmSpec, ProductError, ProductStore)
from repro.obs.provenance import canonical_config_hash


def one_job():
    return FarmSpec(scenario="ShakeOut-K", nx=16, nsteps=8).expand()[0]


def toy_arrays():
    return {"pgvh": np.arange(12.0).reshape(3, 4),
            "seis.near.vx": np.linspace(0.0, 1.0, 5, dtype=np.float32)}


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ProductStore(tmp_path / "products")
        job = one_job()
        path = store.put(job, toy_arrays(), wall_s=0.25, attempts=2)
        assert path.exists()
        assert store.has(job.key())
        arrays, meta = store.get_job(job)
        np.testing.assert_array_equal(arrays["pgvh"], toy_arrays()["pgvh"])
        assert arrays["seis.near.vx"].dtype == np.float32
        assert meta["schema"] == PRODUCT_SCHEMA
        assert meta["key"] == job.key()
        assert meta["attempts"] == 2
        assert meta["wall_s"] == 0.25
        assert meta["derived_seed"] == job.derived_seed()
        assert meta["arrays"]["pgvh"]["shape"] == [3, 4]

    def test_sharded_layout(self, tmp_path):
        store = ProductStore(tmp_path)
        job = one_job()
        path = store.put(job, toy_arrays())
        key = job.key()
        assert path == tmp_path / key[:2] / f"{key}.npz"
        assert store.keys() == [key]
        assert store.count() == 1

    def test_manifest_hash_matches_fresh_recomputation(self, tmp_path):
        """The acceptance criterion: the stored manifest's config hash
        equals a fresh hash of the stored job config, and its 32-char
        prefix is the file's address."""
        store = ProductStore(tmp_path)
        job = one_job()
        store.put(job, toy_arrays())
        _, meta = store.get(job.key())
        fresh = canonical_config_hash(meta["job"])
        assert meta["manifest"]["config_hash"] == fresh
        assert fresh[:32] == job.key()

    def test_missing_key(self, tmp_path):
        with pytest.raises(ProductError, match="no product"):
            ProductStore(tmp_path).get("ab" + "0" * 30)

    def test_empty_store(self, tmp_path):
        store = ProductStore(tmp_path / "nothing")
        assert store.keys() == []
        assert store.count() == 0
        assert not store.has("ab" + "0" * 30)


class TestIntegrity:
    def test_address_mismatch_refused(self, tmp_path):
        """A product whose meta config does not hash to its address is
        corrupt and must be refused, not silently served."""
        store = ProductStore(tmp_path)
        job = one_job()
        store.put(job, toy_arrays())
        key = job.key()
        # graft the file onto a different address
        fake = "ff" * 16
        dst = store.path_for(fake)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(store.path_for(key).read_bytes())
        with pytest.raises(ProductError, match="not its address"):
            store.get(fake)

    def test_wrong_schema_refused(self, tmp_path):
        store = ProductStore(tmp_path)
        job = one_job()
        path = store.put(job, toy_arrays())
        # rewrite with a bogus schema but a matching address
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["__meta__"]))
            arrays = {k: z[k] for k in z.files if k != "__meta__"}
        meta["schema"] = "repro-product/99"
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **arrays)
        with pytest.raises(ProductError, match="schema"):
            store.get(job.key())

    def test_meta_missing_refused(self, tmp_path):
        store = ProductStore(tmp_path)
        key = "ab" + "0" * 30
        path = store.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, x=np.zeros(3))
        with pytest.raises(ProductError, match="__meta__"):
            store.get(key)

    def test_no_tmp_droppings_after_put(self, tmp_path):
        store = ProductStore(tmp_path)
        store.put(one_job(), toy_arrays())
        assert list(tmp_path.rglob("*.tmp")) == []


def damage(path, how: str, member: str | None = None) -> None:
    """Tear a stored npz (``truncated``) or flip one byte inside the
    compressed data of one array (``bitflip``: ``member`` by name, the
    largest member when not given)."""
    import zipfile
    raw = bytearray(path.read_bytes())
    if how == "truncated":
        raw = raw[:len(raw) // 2]
    else:
        with zipfile.ZipFile(path) as z:
            info = (z.getinfo(member + ".npy") if member is not None else
                    max(z.infolist(), key=lambda i: i.compress_size))
        raw[info.header_offset + 30 + len(info.filename)
            + info.compress_size // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def disk_full(*args, **kwargs):
    """Stand-in for a write that hits ENOSPC — after a few bytes landed,
    when it is handed the open file."""
    import errno
    if args and hasattr(args[0], "write"):
        args[0].write(b"PK torn")
    raise OSError(errno.ENOSPC, "No space left on device")


def record_member_reads(monkeypatch, path) -> list:
    """Wrap ``NpzFile.__getitem__`` with a recorder; returns the list the
    member names read from now on are appended to."""
    with np.load(path) as z:
        NpzFile = type(z)
    read = []
    real = NpzFile.__getitem__
    monkeypatch.setattr(
        NpzFile, "__getitem__",
        lambda self, k: (read.append(k), real(self, k))[1])
    return read


class TestCorruptFile:
    @pytest.mark.parametrize("how", ["truncated", "bitflip"])
    def test_get_raises_product_error(self, tmp_path, how):
        """Whatever a damaged file makes numpy/zipfile/zlib raise, the
        store reports it as ProductError — and has() stays a cheap
        existence check that still says yes."""
        store = ProductStore(tmp_path)
        job = one_job()
        rng = np.random.default_rng(0)
        path = store.put(job, {"pgvh": rng.random((32, 32)),
                               "pgv_gm": rng.random((8, 8))})
        damage(path, how)
        assert store.has(job.key())
        with pytest.raises(ProductError, match="cannot read product"):
            store.get(job.key())


class TestPartialRead:
    """``get(key, names=...)`` decompresses only what it is asked for and
    verifies every byte it returns plus the schema and the address."""

    @pytest.fixture
    def stored(self, tmp_path):
        store = ProductStore(tmp_path)
        job = one_job()
        rng = np.random.default_rng(0)
        path = store.put(job, {"pgvh": rng.random((32, 32)),
                               "pgv_gm": rng.random((8, 8)),
                               "peak_vz": rng.random((8, 8))})
        return store, job.key(), path

    def test_named_member_equals_the_full_read(self, stored):
        store, key, _ = stored
        full, meta = store.get(key)
        part, part_meta = store.get(key, names=("pgvh",))
        assert list(part) == ["pgvh"]
        assert np.array_equal(part["pgvh"], full["pgvh"])
        assert part_meta == meta

    def test_reads_exactly_the_members_asked_for(self, stored, monkeypatch):
        store, key, path = stored
        read = record_member_reads(monkeypatch, path)
        store.get(key, names=("pgv_gm",))
        assert sorted(read) == ["__meta__", "pgv_gm"]
        del read[:]
        store.get(key)
        assert sorted(read) == ["__meta__", "peak_vz", "pgv_gm", "pgvh"]

    def test_unknown_name_is_absent_not_an_error(self, stored):
        store, key, path = stored
        before = sorted(p.name for p in path.parent.iterdir())
        arrays, meta = store.get(key, names=("nope",))
        assert arrays == {} and meta["key"] == key
        assert sorted(p.name for p in path.parent.iterdir()) == before

    def test_damage_is_found_by_the_read_that_touches_it(self, stored):
        store, key, path = stored
        good = store.get(key)[0]
        damage(path, "bitflip", member="pgvh")
        for name in ("pgv_gm", "peak_vz"):
            assert np.array_equal(store.get(key, names=(name,))[0][name],
                                  good[name])
        with pytest.raises(ProductError, match="cannot read product"):
            store.get(key, names=("pgvh",))
        with pytest.raises(ProductError, match="cannot read product"):
            store.get(key)              # no names: every member verified

    def test_truncated_file_fails_every_read(self, stored):
        store, key, path = stored
        damage(path, "truncated")
        with pytest.raises(ProductError, match="cannot read product"):
            store.get(key, names=("pgv_gm",))

    def test_schema_and_address_checked_whatever_is_read(self, stored):
        store, key, path = stored
        fake = "ff" * 16
        dst = store.path_for(fake)
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(path.read_bytes())
        with pytest.raises(ProductError, match="not its address"):
            store.get(fake, names=("pgv_gm",))
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["__meta__"]))
            arrays = {k: z[k] for k in z.files if k != "__meta__"}
        meta["schema"] = "repro-product/99"
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez_compressed(path, **arrays)
        with pytest.raises(ProductError, match="schema"):
            store.get(key, names=())


class TestDiskFull:
    @pytest.mark.parametrize("where", ["savez_compressed", "replace"])
    def test_enospc_in_put_leaves_nothing_behind(self, tmp_path,
                                                 monkeypatch, where):
        import os

        store = ProductStore(tmp_path)
        job = one_job()
        monkeypatch.setattr(np if where == "savez_compressed" else os,
                            where, disk_full)
        with pytest.raises(OSError, match="No space left"):
            store.put(job, toy_arrays())
        monkeypatch.undo()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert not store.has(job.key())
        assert store.keys() == []
