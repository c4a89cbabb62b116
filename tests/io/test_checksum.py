"""Tests for parallel MD5 checksumming."""

import hashlib

import numpy as np
import pytest

from repro.io.checksum import ChecksumManifest, md5_digest, parallel_checksums


class TestDigest:
    def test_deterministic(self):
        a = np.arange(100, dtype=np.float64)
        assert md5_digest(a) == md5_digest(a.copy())

    def test_sensitive_to_any_change(self):
        a = np.arange(100, dtype=np.float64)
        b = a.copy()
        b[57] = np.nextafter(b[57], np.inf)  # a single-ULP change
        assert md5_digest(a) != md5_digest(b)

    def test_noncontiguous_canonicalised(self):
        a = np.arange(100, dtype=np.float64)
        assert md5_digest(a[::2]) == md5_digest(a[::2].copy())

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "0-d", "empty"])
    def test_equals_md5_of_c_order_bytes(self, layout):
        """C-contiguous arrays are hashed in place, other layouts after one
        copy: either way the digest is that of ``tobytes()``."""
        a = np.arange(60, dtype=np.float64).reshape(3, 4, 5)
        a = {"C": a, "F": np.asfortranarray(a), "strided": a[:, ::2, 1:],
             "0-d": np.array(2.5), "empty": np.zeros((0, 3))}[layout]
        assert md5_digest(a) == hashlib.md5(a.tobytes()).hexdigest()


class TestManifest:
    def _chunks(self):
        rng = np.random.default_rng(0)
        return {i: rng.standard_normal(64) for i in range(6)}

    def test_parallel_checksums(self):
        chunks = self._chunks()
        manifest, seconds = parallel_checksums(chunks)
        assert len(manifest.digests) == 6
        assert seconds > 0
        for cid, arr in chunks.items():
            assert manifest.verify(cid, arr)

    def test_parallel_time_is_slowest_chunk(self):
        chunks = {0: np.zeros(1000, dtype=np.uint8),
                  1: np.zeros(10_000_000, dtype=np.uint8)}
        _, seconds = parallel_checksums(chunks, hash_rate=1e7)
        assert seconds == pytest.approx(1.0)

    def test_verify_detects_corruption(self):
        chunks = self._chunks()
        manifest, _ = parallel_checksums(chunks)
        chunks[3][0] += 1.0
        assert not manifest.verify(3, chunks[3])

    def test_collection_digest_stable(self):
        chunks = self._chunks()
        m1, _ = parallel_checksums(chunks)
        m2 = ChecksumManifest()
        for cid in reversed(sorted(chunks)):
            m2.add(cid, md5_digest(chunks[cid]))
        assert m1.collection_digest() == m2.collection_digest()

    def test_diff(self):
        chunks = self._chunks()
        m1, _ = parallel_checksums(chunks)
        chunks[2][:] = 0
        m2, _ = parallel_checksums(chunks)
        assert m1.diff(m2) == [2]

    def test_duplicate_chunk_rejected(self):
        m = ChecksumManifest()
        m.add(1, "abc")
        with pytest.raises(ValueError, match="duplicate"):
            m.add(1, "def")

    def test_lines_roundtrip(self):
        m1, _ = parallel_checksums(self._chunks())
        m2 = ChecksumManifest.from_lines(m1.to_lines())
        assert m1.digests == m2.digests
