"""Property tests on random inputs (skipped when hypothesis is not installed)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_metrics import _constellation, assert_report_equals_reference  # noqa: E402


@st.composite
def constellations(draw):
    """(P, K) points with P <= 64 and K <= 6, each column drawn from a small pool.

    Small pools make values repeat within a column, so the per-column tables
    have fewer rows than there are points.
    """
    P = draw(st.integers(2, 64))
    K = draw(st.integers(1, 6))
    value = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
    columns = []
    for _ in range(K):
        pool = draw(st.lists(value, min_size=1, max_size=8))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=P, max_size=P))
        columns.append(np.asarray(pool)[picks])
    return _constellation(np.column_stack(columns))


@settings(deadline=None, database=None)
@given(constellation=constellations(), varsigma2=st.floats(0.0, 10.0))
def test_pairwise_report_equals_reference(constellation, varsigma2):
    assert_report_equals_reference(constellation, varsigma2)
