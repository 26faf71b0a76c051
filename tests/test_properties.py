"""Property tests on random inputs (skipped when hypothesis is not installed)."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from scma_vlc import SystemParams  # noqa: E402
from scma_vlc.errors import DomainError  # noqa: E402
from scma_vlc.fileio import dumps_codebook_set, loads_codebook_set  # noqa: E402
from scma_vlc.model import codebook_set_from_constellations  # noqa: E402
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


@st.composite
def unit_gain_sets(draw):
    """A feasible unit-gain set of 1 to 6 users on the reference 4 x 6 graph.

    Entries lie in [0.01, sqrt(Pe / N)], so every book is within its power
    budget without rescaling.
    """
    params = SystemParams(
        J=draw(st.integers(1, 6)), sigma2=draw(st.floats(1e-4, 1.0)),
        varsigma2=draw(st.floats(0.0, 10.0)), Pe=draw(st.floats(0.1, 100.0)),
    )
    entry = st.floats(0.01, np.sqrt(params.Pe / params.N))
    size = params.N * params.M
    books = [np.reshape(draw(st.lists(entry, min_size=size, max_size=size)),
                        (params.N, params.M)) for _ in range(params.J)]
    return codebook_set_from_constellations(params, books)


@settings(deadline=None, database=None)
@given(cb_set=unit_gain_sets())
def test_codebook_file_round_trips(cb_set):
    text = dumps_codebook_set(cb_set)
    back = loads_codebook_set(text)
    assert dumps_codebook_set(back) == text
    assert back.params == cb_set.params
    np.testing.assert_array_equal(back.graph.F, cb_set.graph.F)
    for got, want in zip(back.books, cb_set.books):
        np.testing.assert_array_equal(got.C, want.C)


@settings(deadline=None, database=None)
@given(cb_set=unit_gain_sets(), data=st.data())
def test_non_finite_gain_rejected(cb_set, data):
    p = cb_set.params
    gains = [np.asarray(data.draw(st.lists(st.floats(0.0, 1e3), min_size=p.K, max_size=p.K)))
             for _ in range(p.J)]
    j = data.draw(st.integers(0, p.J - 1))
    k = data.draw(st.integers(0, p.K - 1))
    gains[j][k] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(DomainError):
        replace(cb_set, gains=tuple(gains))
