"""ResultCache index batching: one index.json write per grid."""

from __future__ import annotations

import json

import pytest

from repro.cache import ResultCache
from repro.exec import RunSpec, run_grid


def _specs(count: int) -> list[RunSpec]:
    return [RunSpec(kind="burst", protocol="1PC", n=2, seed=i, point=i) for i in range(count)]


def _count_index_writes(cache: ResultCache, monkeypatch) -> list[int]:
    writes: list[int] = []
    real = cache._write_index

    def counting(entries):
        writes.append(len(entries))
        real(entries)

    monkeypatch.setattr(cache, "_write_index", counting)
    return writes


def _indexed(cache: ResultCache) -> dict:
    return json.loads((cache.root / "index.json").read_text(encoding="utf-8"))["entries"]


def test_twenty_cell_grid_writes_the_index_once(tmp_path, monkeypatch):
    cache = ResultCache(root=tmp_path / "cache", fingerprint="fp")
    writes = _count_index_writes(cache, monkeypatch)
    run_grid(_specs(20), cache=cache)
    assert writes == [20]
    assert len(_indexed(cache)) == 20 == len(cache.entries())
    # A warm rerun writes no entry, hence no index.
    run_grid(_specs(20), cache=cache)
    assert writes == [20]


def test_failing_grid_still_indexes_the_cells_it_wrote(tmp_path, monkeypatch):
    cache = ResultCache(root=tmp_path / "cache", fingerprint="fp")
    writes = _count_index_writes(cache, monkeypatch)
    bad = RunSpec(kind="burst", protocol="1PC", n=2, op="mkdir", seed=9, point=9)
    with pytest.raises(Exception, match="unsupported burst op"):
        run_grid(_specs(3) + [bad], cache=cache)
    assert writes == [3]
    assert len(_indexed(cache)) == 3 == len(cache.entries())


def test_describe_and_gc_write_pending_lines_first(tmp_path):
    cache = ResultCache(root=tmp_path / "cache", fingerprint="fp")
    with cache.batched_index():
        run_grid(_specs(2), cache=cache)  # nested: still pending here
        assert not (cache.root / "index.json").exists()
        assert cache.describe()["kinds"] == {"burst": 2}
        run_grid(_specs(3), cache=cache)
        assert cache.gc(10**9) == (0, 0)
        assert len(_indexed(cache)) == 3
    assert len(_indexed(cache)) == 3
    with cache.batched_index():
        run_grid(_specs(4), cache=cache)
        assert cache.clear() == 4
    assert _indexed(cache) == {}
