"""Tests for the set-associative write-back cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.mem.cache import Cache, CacheConfig

SMALL = CacheConfig(name="t", size_bytes=256, line_bytes=32, ways=2)


def _fill_words(base: int, count: int = 8) -> list[int]:
    return [(base + 4 * i) & 0xFFFF_FFFF for i in range(count)]


def make_resident(cache: Cache, address: int) -> None:
    line = address & ~31
    cache.install(line, _fill_words(line))


def test_geometry():
    assert SMALL.num_sets == 4
    assert SMALL.words_per_line == 8
    with pytest.raises(MemoryError_):
        CacheConfig(name="bad", size_bytes=100)


def test_miss_then_hit():
    cache = Cache(SMALL)
    assert not cache.lookup(0x1000)
    make_resident(cache, 0x1000)
    assert cache.lookup(0x1000)
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_lookup_words_matches_lookup_then_word_reads():
    cache = Cache(SMALL)
    make_resident(cache, 0x40)
    assert cache.lookup_words(0x48, 2) == [cache.read(0x48), cache.read(0x4C)]
    assert cache.lookup_words(0x40, 8) == _fill_words(0x40)
    assert cache.lookup_words(0x80, 1) is None
    with pytest.raises(MemoryError_):
        cache.lookup_words(0x5C, 2)  # the second word is in the next line
    # Each call counts one access, exactly as lookup() does.
    assert (cache.stats.hits, cache.stats.misses) == (3, 1)
    twin = Cache(SMALL)
    make_resident(twin, 0x40)
    for address in (0x48, 0x40, 0x80, 0x5C):
        twin.lookup(address)
    assert twin.stats == cache.stats


def test_read_resident_word_and_byte():
    cache = Cache(SMALL)
    make_resident(cache, 0x40)
    assert cache.read(0x44) == 0x44
    assert cache.read(0x44, width=1) == 0x44
    assert cache.read(0x45, width=1) == 0x00


def test_read_nonresident_raises():
    cache = Cache(SMALL)
    with pytest.raises(MemoryError_):
        cache.read(0x40)


def test_write_marks_dirty_and_writeback_plan():
    cache = Cache(SMALL)
    make_resident(cache, 0x0)
    cache.write(0x4, 0xABCD)
    assert cache.read(0x4) == 0xABCD
    # Fill two more lines in set 0 -> the dirty line becomes the victim.
    make_resident(cache, 0x100)  # same set (0x100 % 128 == 0 set)
    plan = cache.prepare_fill(0x200)
    assert plan.writeback_address == 0x0
    assert plan.writeback_words[1] == 0xABCD


def test_byte_write_read_modify():
    cache = Cache(SMALL)
    make_resident(cache, 0x20)
    cache.write(0x21, 0xEE, width=1)
    assert cache.read(0x20) == (0x20 & ~0xFF00) | 0xEE00


def test_lru_replacement_order():
    cache = Cache(SMALL)
    make_resident(cache, 0x000)  # set 0, way A
    make_resident(cache, 0x100)  # set 0, way B
    cache.read(0x000)  # touch A: B becomes LRU
    plan = cache.prepare_fill(0x200)
    cache.install(plan.line_address, _fill_words(0x200))
    assert cache.probe(0x000)
    assert not cache.probe(0x100)


def test_invalidate_all_discards_dirty():
    cache = Cache(SMALL)
    make_resident(cache, 0x60)
    cache.write(0x60, 1)
    cache.invalidate_all()
    assert cache.resident_lines() == 0
    assert cache.stats.invalidations == 1
    plan = cache.prepare_fill(0x60)
    assert plan.writeback_address is None  # dirty data was discarded


def test_install_wrong_width_rejected():
    cache = Cache(SMALL)
    with pytest.raises(MemoryError_):
        cache.install(0x0, [0] * 4)


def test_holds_range():
    cache = Cache(SMALL)
    make_resident(cache, 0x40)
    make_resident(cache, 0x60)
    assert cache.holds_range(0x40, 64)
    assert not cache.holds_range(0x40, 96)


def test_write_allocate_flag_mutable():
    cache = Cache(SMALL)
    assert cache.write_allocate
    cache.write_allocate = False
    assert not cache.write_allocate


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0x3FF),
            st.booleans(),
            st.integers(min_value=0, max_value=0xFFFF_FFFF),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_cache_matches_reference_model(operations):
    """The cache + a backing dict must behave like a plain flat memory."""
    cache = Cache(SMALL)
    backing: dict[int, int] = {}
    reference: dict[int, int] = {}

    def backing_read(line: int) -> list[int]:
        return [backing.get(line + 4 * i, 0) for i in range(8)]

    for address, is_write, value in operations:
        address &= ~3
        if not cache.probe(address):
            plan = cache.prepare_fill(address)
            if plan.writeback_address is not None:
                for i, word in enumerate(plan.writeback_words):
                    backing[plan.writeback_address + 4 * i] = word
            cache.install(plan.line_address, backing_read(plan.line_address))
        if is_write:
            cache.write(address, value)
            reference[address] = value & 0xFFFF_FFFF
        else:
            assert cache.read(address) == reference.get(address, 0)
    # Final coherence: every reference word is visible either in the
    # cache or in the backing store.
    for address, value in reference.items():
        observed = (
            cache.read(address) if cache.probe(address) else backing.get(address, 0)
        )
        assert observed == value
