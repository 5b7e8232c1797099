"""Tests for the tiered cache backends (memory + disk)."""

import os
import threading

import pytest

from repro.compiler.cache import (
    ContentCache,
    DiskBackend,
    MemoryBackend,
    clear_caches,
    disable_disk_cache,
    disk_cache_config,
    drop_memory_tiers,
    enable_disk_cache,
)


@pytest.fixture
def disk_isolation():
    """Leave the module-level registry exactly as the suite expects."""
    yield
    disable_disk_cache()
    clear_caches()


def _disk_files(root):
    found = []
    for dirpath, _dirs, files in os.walk(str(root)):
        found.extend(os.path.join(dirpath, f) for f in files
                     if f.endswith(".pkl"))
    return found


def test_memory_backend_is_lru_bounded():
    backend = MemoryBackend(max_entries=2)
    assert backend.put("a", 1) == 0
    assert backend.put("b", 2) == 0
    assert backend.get("a") == (True, 1)  # refreshes "a"
    assert backend.put("c", 3) == 1  # evicts "b", the LRU entry
    assert backend.get("b") == (False, None)
    assert backend.get("a") == (True, 1)
    assert backend.get("c") == (True, 3)
    assert len(backend) == 2


def test_disk_backend_roundtrip_and_cross_instance_reuse(tmp_path):
    first = DiskBackend(str(tmp_path), max_entries=16)
    key = ("kernel/sched.c", "deadbeef")
    assert first.put(key, {"payload": list(range(5))}) == 0
    # A fresh backend over the same directory — a "new process" — sees
    # the entry purely through the content address.
    second = DiskBackend(str(tmp_path), max_entries=16)
    assert second.get(key) == (True, {"payload": [0, 1, 2, 3, 4]})
    assert second.get(("other", "key")) == (False, None)


def test_disk_backend_eviction_bound(tmp_path):
    backend = DiskBackend(str(tmp_path), max_entries=4)
    for i in range(10):
        backend.put(("key", i), i)
    assert len(backend) <= 4


def test_disk_backend_tolerates_corrupt_entries(tmp_path):
    backend = DiskBackend(str(tmp_path), max_entries=16)
    backend.put("key", "value")
    path = backend._path("key")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    assert backend.get("key") == (False, None)
    assert not os.path.exists(path)  # corrupt file was dropped


def test_disk_backend_skips_unpicklable_values(tmp_path):
    backend = DiskBackend(str(tmp_path), max_entries=16)
    backend.put("lock", threading.Lock())
    assert backend.put_failures == 1
    assert backend.get("lock") == (False, None)
    assert _disk_files(tmp_path) == []


def test_disk_backend_clear_removes_files(tmp_path):
    backend = DiskBackend(str(tmp_path), max_entries=16)
    backend.put("a", 1)
    backend.put("b", 2)
    assert len(backend) == 2
    backend.clear()
    assert len(backend) == 0
    assert _disk_files(tmp_path) == []


def test_disk_hit_promotes_into_memory_tier(tmp_path):
    cache = ContentCache("t", max_entries=8)
    cache.attach_disk(DiskBackend(str(tmp_path), max_entries=16))
    cache.put("k", "v")
    cache.drop_memory()
    assert len(cache) == 0

    assert cache.get("k") == "v"  # served by disk
    assert cache.stats.disk_hits == 1
    assert cache.stats.hits == 1
    assert len(cache) == 1  # promoted

    assert cache.get("k") == "v"  # now a pure memory hit
    assert cache.stats.disk_hits == 1
    assert cache.stats.hits == 2


def test_cold_process_starts_warm_from_disk(tmp_path):
    warm = ContentCache("t", max_entries=8)
    warm.attach_disk(DiskBackend(str(tmp_path), max_entries=16))
    warm.put(("unit", "digest"), "compiled")

    # A second ContentCache over the same directory models a process
    # restart: no memory state survives, the disk tier does.
    cold = ContentCache("t", max_entries=8)
    cold.attach_disk(DiskBackend(str(tmp_path), max_entries=16))
    assert len(cold) == 0
    assert cold.get(("unit", "digest")) == "compiled"
    assert cold.stats.disk_hits == 1


def test_content_cache_clear_wipes_all_tiers(tmp_path):
    cache = ContentCache("t", max_entries=8)
    cache.attach_disk(DiskBackend(str(tmp_path), max_entries=16))
    cache.put("k", "v")
    assert _disk_files(tmp_path)
    cache.clear()
    assert len(cache) == 0
    assert _disk_files(tmp_path) == []
    assert cache.get("k") is None


def test_disabled_cache_bypasses_disk_tier(tmp_path):
    cache = ContentCache("t", max_entries=8)
    cache.attach_disk(DiskBackend(str(tmp_path), max_entries=16))
    cache.enabled = False
    cache.put("k", "v")
    assert cache.get("k") is None
    assert _disk_files(tmp_path) == []


def test_enable_disk_cache_covers_registered_caches(tmp_path,
                                                    disk_isolation):
    from repro.compiler.cache import COMPILE_CACHE, PARSE_CACHE

    root = str(tmp_path / "objects")
    assert disk_cache_config() is None
    assert enable_disk_cache(root, max_entries=32) == root
    assert disk_cache_config() == (root, 32)
    assert PARSE_CACHE.disk is not None
    assert COMPILE_CACHE.disk is not None
    # per-cache subdirectories keep the content addresses disjoint
    assert PARSE_CACHE.disk.directory != COMPILE_CACHE.disk.directory

    from repro.compiler.cache import parse_unit_cached

    clear_caches()
    source = "int f(void) { return 7; }\n"
    parse_unit_cached(source, "unit.c")
    assert _disk_files(root)

    # a restart: memory gone, the parse comes back from disk
    drop_memory_tiers()
    parse_unit_cached(source, "unit.c")
    assert PARSE_CACHE.stats.disk_hits == 1

    # clear_caches() is the hygiene story: the directory empties too
    clear_caches()
    assert _disk_files(root) == []

    disable_disk_cache()
    assert disk_cache_config() is None
    assert PARSE_CACHE.disk is None


def test_compile_results_survive_a_simulated_restart(tmp_path,
                                                     disk_isolation):
    """End-to-end: a real unit compile is served from the disk tier
    after every memory tier is dropped."""
    from repro.compiler import compile_source_cached
    from repro.compiler.cache import COMPILE_CACHE

    root = str(tmp_path / "objects")
    enable_disk_cache(root, max_entries=64)
    clear_caches()
    source = "int answer(void) { return 42; }\n"
    first = compile_source_cached(source, "unit.c")
    drop_memory_tiers()
    again = compile_source_cached(source, "unit.c")
    assert COMPILE_CACHE.stats.disk_hits >= 1
    assert first.objfile.name == again.objfile.name


def test_pool_groups_keep_the_parents_disk_bound(tmp_path, disk_isolation,
                                                 monkeypatch):
    """A ``jobs > 1`` group attaches the parent's disk tier with the
    parent's bound, not the default 512: ``_evaluate_group`` runs here
    on a thread standing in for the pool process."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.compiler.cache import COMPILE_CACHE
    from repro.evaluation import CORPUS, engine

    version = CORPUS[0].kernel_version
    specs = [s for s in CORPUS if s.kernel_version == version][:2]
    root = str(tmp_path / "objects")
    enable_disk_cache(root, max_entries=7)
    clear_caches()
    monkeypatch.setattr(engine, "ProcessPoolExecutor",
                        lambda max_workers: ThreadPoolExecutor(1))
    stats = engine.EngineStats()
    results = engine.evaluate_corpus(specs, run_stress=False, jobs=2,
                                     stats=stats)
    assert stats.groups == 1 and not stats.fallback_reason
    assert [r.cve_id for r in results.results] == [s.cve_id for s in specs]
    assert disk_cache_config() == (root, 7)
    assert COMPILE_CACHE.disk.max_entries == 7
    assert 0 < len(COMPILE_CACHE.disk) <= 7
