"""Shift/mask address decomposition equals the arithmetic definition."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache, CacheConfig
from repro.utils.bitops import align_down


def arithmetic_decompose(config: CacheConfig, address: int) -> tuple[int, int, int]:
    """(tag, set index, word index) by alignment, division and modulo."""
    line = align_down(address, config.line_bytes)
    set_index = (line // config.line_bytes) % config.num_sets
    tag = line // (config.line_bytes * config.num_sets)
    return tag, set_index, (address - line) // 4


#: Every power-of-two geometry up to 256-byte lines, 16 ways, 512 sets.
geometries = st.builds(
    lambda line, ways, sets: CacheConfig(
        name="c", size_bytes=(1 << line) * (1 << ways) * (1 << sets),
        line_bytes=1 << line, ways=1 << ways,
    ),
    st.integers(0, 8),
    st.integers(0, 4),
    st.integers(0, 9),
)


@settings(max_examples=200, deadline=None)
@given(geometries, st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=8))
def test_shift_mask_decompose_matches_division(config, addresses):
    cache = Cache(config)
    for address in addresses:
        assert cache._decompose(address) == arithmetic_decompose(config, address)


def test_default_geometries_match_on_boundaries():
    for config in (
        CacheConfig(name="icache", size_bytes=8 << 10),
        CacheConfig(name="dcache", size_bytes=4 << 10),
    ):
        cache = Cache(config)
        span = config.size_bytes // config.ways
        for address in (0, 3, 4, span - 1, span, span + 4, (1 << 32) - 1):
            assert cache._decompose(address) == arithmetic_decompose(
                config, address
            )
