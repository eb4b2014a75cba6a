"""Property test: the key permutation equals the sequential Fisher-Yates shuffle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blpcs.keyrand import derive_stream  # noqa: E402
from oracles import fisher_yates_reference  # noqa: E402


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3000), seed=st.integers(0, 2**64 - 1))
def test_permutation_equals_swap_loop(n, seed):
    s, r = derive_stream(seed, "perm"), derive_stream(seed, "perm")
    assert np.array_equal(s.permutation(n).map, fisher_yates_reference(r, n))
