"""Hypothesis properties of diagrams produced by seeded move walks."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from braidbracket.diagram import BraidWord, parse_pd  # noqa: E402
from braidbracket.moves import random_equivalent_pair  # noqa: E402

BASES = [
    BraidWord(2, (1, 1, 1)),
    BraidWord(3, (1, -2, 1, -2)),
    BraidWord(3, (1, 2, -1, 2, 1, 2)),
    BraidWord(4, (2, -2, 3, -1)),
    BraidWord(4, (1, 2, 3, -1, 2)),
]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), base=st.sampled_from(BASES),
       n_moves=st.integers(0, 60))
def test_pd_round_trip_keeps_canonical_code(seed, base, n_moves):
    _, d = random_equivalent_pair(seed, n_moves, base, max_crossings=14)
    back = parse_pd(d.to_pd_json())
    assert back.canonical_code() == d.canonical_code()
    assert back.canonical_code(with_seam=True) == d.canonical_code(with_seam=True)
