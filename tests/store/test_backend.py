"""Tests for the on-disk backend: atomicity, CRC verification, LRU."""

import pytest

from repro.errors import StoreError
from repro.store import ResultsStore
from repro.store.backend import LRU_CAPACITY, DiskBackend


def key(n: int) -> str:
    return f"{n:064x}"


def flip_body_byte(path):
    """Flip one bit in the middle of a blob's body (after its header)."""
    data = bytearray(path.read_bytes())
    body_start = data.find(b"\n") + 1
    data[(body_start + len(data)) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put(key(1), {"a": [1, 2.5, "x"]})
        assert backend.get(key(1)) == {"a": [1, 2.5, "x"]}

    def test_missing_key_is_a_counted_miss(self, tmp_path):
        backend = DiskBackend(tmp_path)
        assert backend.get(key(2)) is None
        assert backend.stats()["misses"] == 1

    def test_cross_instance_read(self, tmp_path):
        DiskBackend(tmp_path).put(key(3), {"v": 7})
        fresh = DiskBackend(tmp_path)
        assert fresh.get(key(3)) == {"v": 7}
        assert fresh.stats()["disk_hits"] == 1

    def test_overwrite(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put(key(4), {"v": 1})
        backend.put(key(4), {"v": 2})
        assert backend.get(key(4)) == {"v": 2}

    def test_no_temp_files_left_behind(self, tmp_path):
        backend = DiskBackend(tmp_path)
        for n in range(10):
            backend.put(key(n), {"n": n})
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_malformed_key_rejected(self, tmp_path):
        backend = DiskBackend(tmp_path)
        with pytest.raises(StoreError):
            backend.put("not-hex!", {})
        with pytest.raises(StoreError):
            backend.get("ab")  # too short to shard


class TestCorruption:
    def _entry_path(self, tmp_path, k):
        return tmp_path / k[:2] / f"{k[2:]}.json"

    def test_bit_rot_is_quarantined_miss(self, tmp_path):
        DiskBackend(tmp_path).put(key(5), {"v": 5})
        path = self._entry_path(tmp_path, key(5))
        flip_body_byte(path)
        backend = DiskBackend(tmp_path)
        assert backend.get(key(5)) is None
        stats = backend.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_truncated_file_is_quarantined_miss(self, tmp_path):
        DiskBackend(tmp_path).put(key(6), {"v": 6})
        path = self._entry_path(tmp_path, key(6))
        path.write_bytes(path.read_bytes()[:-3])
        backend = DiskBackend(tmp_path)
        assert backend.get(key(6)) is None
        assert backend.stats()["corrupt"] == 1

    def test_rewrite_after_quarantine_recovers(self, tmp_path):
        DiskBackend(tmp_path).put(key(7), {"v": 7})
        path = self._entry_path(tmp_path, key(7))
        path.write_text("garbage")
        backend = DiskBackend(tmp_path)
        assert backend.get(key(7)) is None
        backend.put(key(7), {"v": 7})
        assert DiskBackend(tmp_path).get(key(7)) == {"v": 7}

    def test_quarantined_blob_leaves_the_entry_count(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.put_object("memo", {"n": 1}, {"v": 1})
        assert store.stats()["entries"] == 1
        (blob,) = (tmp_path / "objects").rglob("*.json")
        flip_body_byte(blob)
        fresh = ResultsStore(tmp_path)
        assert fresh.get_object("memo", {"n": 1}) is None
        assert fresh.stats()["misses"] == 1
        assert fresh.stats()["entries"] == 0


class TestLRU:
    def test_second_read_hits_memory(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put(key(8), {"v": 8})
        fresh = DiskBackend(tmp_path)
        fresh.get(key(8))
        fresh.get(key(8))
        stats = fresh.stats()
        assert stats["disk_hits"] == 1 and stats["lru_hits"] == 1

    def test_capacity_bounds_residency(self, tmp_path):
        backend = DiskBackend(tmp_path)
        for n in range(LRU_CAPACITY + 3):
            backend.put(key(n), {"n": n})
        assert len(backend._lru) == LRU_CAPACITY
        # Evicted entries still come back from disk.
        assert backend.get(key(0)) == {"n": 0}
        assert backend.stats()["disk_hits"] == 1


class TestDeleteAndEnumerate:
    def test_delete(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put(key(10), {})
        assert backend.delete(key(10))
        assert not backend.delete(key(10))
        assert backend.get(key(10)) is None
