"""The sort-and-mask dedup against ``np.unique``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sorting import sorted_unique


@given(
    st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=200),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200, deadline=None)
def test_matches_np_unique(values, repeat):
    keys = np.asarray(values * repeat, dtype=np.int64)
    got = sorted_unique(keys)
    expected = np.unique(keys)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_does_not_modify_input():
    keys = np.array([3, 1, 3, 2], dtype=np.int64)
    sorted_unique(keys)
    np.testing.assert_array_equal(keys, [3, 1, 3, 2])
