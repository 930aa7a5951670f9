"""Cache model: hits, misses, LRU, writebacks, stats."""

import copy

import pytest

from repro.memory.cache import Cache


def test_cold_miss_then_hit():
    cache = Cache("t", 1024, 1, 32)
    hit, wb = cache.access(0x100)
    assert not hit and wb is None
    hit, wb = cache.access(0x104)          # same 32-byte block
    assert hit
    assert cache.stats.accesses == 2
    assert cache.stats.misses == 1


def test_direct_mapped_conflict():
    cache = Cache("t", 1024, 1, 32)          # 32 sets
    cache.access(0x0)
    cache.access(0x0 + 1024)          # same set, different tag -> evict
    hit, __ = cache.access(0x0)
    assert not hit          # first block was evicted


def test_lru_in_two_way_set():
    cache = Cache("t", 2048, 2, 32)          # 32 sets, 2-way
    set_stride = 32 * 32          # same set every stride
    a, b, c = 0, set_stride, 2 * set_stride
    cache.access(a)
    cache.access(b)
    cache.access(a)              # a is now MRU
    cache.access(c)              # evicts b (LRU)
    assert cache.probe(a)
    assert not cache.probe(b)
    assert cache.probe(c)


def test_dirty_writeback_address():
    cache = Cache("t", 64, 1, 32)          # 2 sets
    cache.access(0x0, is_write=True)
    __, wb = cache.access(0x0 + 64)          # conflicting block
    assert wb == 0x0
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    cache = Cache("t", 64, 1, 32)
    cache.access(0x0, is_write=False)
    __, wb = cache.access(0x0 + 64)
    assert wb is None


def test_write_hit_marks_dirty():
    cache = Cache("t", 64, 1, 32)
    cache.access(0x0)                     # clean fill
    cache.access(0x4, is_write=True)      # write hit dirties the block
    __, wb = cache.access(0x0 + 64)
    assert wb == 0x0


def test_flush_reports_dirty_lines():
    cache = Cache("t", 1024, 1, 32)
    cache.access(0x0, is_write=True)
    cache.access(0x40, is_write=False)
    assert cache.flush() == 1
    assert not cache.probe(0x0)


def test_miss_rate():
    cache = Cache("t", 1024, 1, 32)
    cache.access(0x0)
    cache.access(0x0)
    cache.access(0x0)
    cache.access(0x0)
    assert cache.stats.miss_rate == pytest.approx(0.25)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Cache("t", 1000, 1, 32)          # not divisible
    with pytest.raises(ValueError):
        Cache("t", 96, 1, 32)          # 3 sets: not a power of two


def test_block_addr():
    cache = Cache("t", 1024, 1, 32)
    assert cache.block_addr(0x12345) == 0x12340


def test_new_cache_materialises_no_set():
    cache = Cache("t", 128 * 1024, 2, 32)          # 2,048 sets
    assert cache._sets == {}
    assert not cache.probe(0x4000)                 # a probe creates none
    assert cache._sets == {}
    cache.access(0x4000)
    cache.access(0x4000 + 64 * 1024, is_write=True)    # same set, 2-way
    assert list(cache._sets) == [(0x4000 >> 5) & 2047]


def test_deepcopy_holds_only_resident_sets():
    cache = Cache("t", 8 * 1024, 1, 32)            # 256 sets
    for addr in (0x0, 0x20, 0x2000 + 0x20, 0x1F00):
        cache.access(addr, is_write=addr == 0x20)
    clone = copy.deepcopy(cache)
    assert sorted(clone._sets) == sorted(cache._sets) == [0, 1, 248]
    assert clone._sets == cache._sets
    assert all(clone._sets[index] is not cache._sets[index]
               for index in cache._sets)
    assert clone.stats.snapshot() == cache.stats.snapshot()
    # The copy runs on alone: its hits, victims and writebacks are the
    # original's, and the original does not move.
    assert clone.access(0x2000 + 0x20) == (True, None)
    assert clone.access(0x20) == (False, None)
    assert clone.access(0x2000 + 0x20) == (False, None)
    assert cache.probe(0x2000 + 0x20) and not cache.probe(0x40)
    assert len(cache._sets) == 3


def test_flush_drops_every_set():
    cache = Cache("t", 1024, 2, 32)
    cache.access(0x0, is_write=True)
    cache.access(0x40)
    assert cache.flush() == 1
    assert cache._sets == {}
    assert cache.access(0x0) == (False, None)
