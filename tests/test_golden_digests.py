"""The simulator reproduces its committed golden digests.

Tier-1 checks the declared subset ``TIER1_CASES``; the full matrix runs
with ``python tests/golden_digests.py check``.
"""

from __future__ import annotations

import pytest

from tests.golden_digests import TIER1_CASES, case_keys, load_fixture, run_case


def test_fixture_covers_the_full_matrix():
    assert sorted(load_fixture()) == sorted(case_keys())


@pytest.mark.parametrize("key", TIER1_CASES)
def test_tier1_case_matches_fixture(key):
    assert run_case(key) == load_fixture()[key]
