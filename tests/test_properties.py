"""Property tests on random inputs (skipped when hypothesis is not installed)."""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from scma_vlc import SystemParams  # noqa: E402
from scma_vlc.decoder import _build_tables, joint_map_bruteforce, loglik_table  # noqa: E402
from scma_vlc.decoder import max_log_mpa_batch, mpa_linear_batch  # noqa: E402
from scma_vlc.errors import DomainError  # noqa: E402
from scma_vlc.fileio import dumps_codebook_set, loads_codebook_set  # noqa: E402
from scma_vlc.model import codebook_set_from_constellations, enumerate_superimposed  # noqa: E402
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


@st.composite
def cycle_free_sets(draw):
    """(set, its settle, received vectors): a random set on a cycle-free graph.

    build_factor_graph's graph for K <= 5 and N in {1, 2}, with J at most K
    users for N = 1 and K - 1 for N = 2 (a user is then an edge between two
    resources, and more than K - 1 edges close a cycle), and M^J <= 256.
    Books and gains are random; eight received vectors lie near the points,
    each with its own per-resource noise.
    """
    M = draw(st.sampled_from([2, 4, 8]))
    K = draw(st.integers(1, 5))
    N = draw(st.integers(1, min(2, K)))
    most = min(K - N + 1, comb(K, N), {2: 8, 4: 4, 8: 2}[M])
    params = SystemParams(J=draw(st.integers(1, most)), K=K, M=M, N=N,
                          sigma2=draw(st.floats(1e-2, 1.0)),
                          varsigma2=draw(st.floats(0.0, 10.0)))
    entry = st.floats(0.0, 3.0)
    books = [np.reshape(draw(st.lists(entry, min_size=N * M, max_size=N * M)), (N, M))
             for _ in range(params.J)]
    gains = tuple(np.asarray(draw(st.lists(st.floats(0.1, 2.0), min_size=K, max_size=K)))
                  for _ in range(params.J))
    cb_set = codebook_set_from_constellations(params, books, gains)
    settle = _build_tables(cb_set).settle
    assert settle is not None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = enumerate_superimposed(cb_set)
    idx = rng.integers(0, len(points.points), size=8)
    noise = np.sqrt(points.covariances[idx]) * rng.standard_normal((8, K))
    return cb_set, settle, points.points[idx] + noise


def _brute_marginals(Y, cb_set):
    """Per-user posterior marginals and max-marginals (T, J, M) from the joint table."""
    ll, constellation = loglik_table(Y, cb_set)
    post = np.exp(ll - ll.max(axis=1, keepdims=True))
    post /= post.sum(axis=1, keepdims=True)
    T, (J, M) = len(Y), (cb_set.params.J, cb_set.params.M)
    marginals, max_marginals = np.empty((2, T, J, M))
    for j in range(J):
        for m in range(M):
            mine = constellation.index_tuples[:, j] == m + 1
            marginals[:, j, m] = post[:, mine].sum(axis=1)
            max_marginals[:, j, m] = ll[:, mine].max(axis=1)
    return ll, marginals, max_marginals


# On a cycle-free graph message passing is exact once every message is final
# (Kschischang, Frey and Loeliger, IEEE T-IT 2001): sum-product gives the
# posterior marginals and Max-Log the max-marginals.
@settings(deadline=None, database=None)
@given(case=cycle_free_sets())
def test_sum_product_gives_posterior_marginals_on_trees(case):
    cb_set, settle, Y = case
    _, marginals, _ = _brute_marginals(Y, cb_set)
    beliefs = mpa_linear_batch(Y, cb_set, settle)[0]
    np.testing.assert_allclose(np.exp(beliefs), marginals, rtol=0, atol=1e-12)


@settings(deadline=None, database=None)
@given(case=cycle_free_sets())
def test_max_log_gives_max_marginals_and_map_bits_on_trees(case):
    cb_set, settle, Y = case
    ll, _, max_marginals = _brute_marginals(Y, cb_set)
    beliefs, _, hard, _, _ = max_log_mpa_batch(Y, cb_set, settle, include_logdet=True)
    # Each user's beliefs shifted so that their maximum is 0, within 1e-9
    # relative; an entry near 0 is held to 1e-9 of the frame's best
    # log-likelihood, the size of the terms it is the difference of.
    got = beliefs - beliefs.max(axis=2, keepdims=True)
    want = max_marginals - max_marginals.max(axis=2, keepdims=True)
    scale = 1.0 + np.abs(ll.max(axis=1))[:, None, None]
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), scale))
    # The bits are the joint MAP's wherever its tuple leads the next by more
    # than 1e-9 (Criterion 4's rule).
    second, best = np.sort(ll, axis=1)[:, -2:].T
    for t in np.flatnonzero(best - second > 1e-9):
        np.testing.assert_array_equal(hard[t].reshape(-1), joint_map_bruteforce(Y[t], cb_set)[1])
