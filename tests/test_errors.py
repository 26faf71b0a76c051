"""The typed-error contract over the public surface of scma_vlc.

Every public function in scma_vlc.__all__, and every dataclass there that
takes input, is called with one scalar argument replaced by a bad value: a
bool, a non-integer float for an integer, a string, None (where None is not
a documented value), NaN, +-inf and a value outside its bounds. Each call
raises a ScmaVlcError, except the 1-based indices of codeword and
mapping_from_graph, which raise IndexError. The same calls succeed with numpy
scalars.

The array and sequence arguments have a table of their own (ARRAY_CASES):
codewords, codebooks, gains, points and received vectors, max_log_mpa_batch
and loglik_table included, and the power levels and beta schedule. Their bad
values are a string, None (where it is not documented), a bool array, a
ragged list, a NaN, +-inf or (where entries are >= 0) negative entry, and a
wrong number of dimensions or length; each raises a ScmaVlcError. Lists and
integer arrays, and an empty (0, K) batch, are accepted.

Not in the tables: the result records (BerPoint, DecoderState, DesignResult,
DistanceReport, EpdEllipse, OpCounts, SuperConstellation) and StackedVector,
which the package builds; the mapping matrices, which mapping_from_graph
derives from the graph; the bool flags; and file paths, whose errors are
OSError.
qfunc is an array function that takes bools, so only its non-numeric input
is here.
"""

from dataclasses import replace
from math import inf, nan

import numpy as np
import pytest

import scma_vlc
from scma_vlc import (
    Codebook, CodebookSet, DesignConfig, SystemParams, TrialStream, add_idgn,
    build_factor_graph, codeword, enumerate_superimposed, epd_ellipses, joint_map_bruteforce,
    load_fixture, logsumexp_gradient, logsumexp_objective, mapping_from_graph, max_log_mpa,
    mpa_linear, mpa_linear_batch, op_counts, pairwise_report, pep_idgn, qfunc, random_init, red,
    scale_codebook_set, simulate_ber, stack_codebook_set, sweep,
)
from scma_vlc.decoder import loglik_table, max_log_mpa_batch
from scma_vlc.errors import ScmaVlcError

LS3 = load_fixture("ls-j3")
STACKED = stack_codebook_set(LS3)
POINTS = enumerate_superimposed(LS3)
S_I, S_J = POINTS.points[1], POINTS.points[2]
RUN = {"max_frames": 64, "min_bit_errors": None}


def _integer(least, most=None):
    """Bad values of an integer argument in [least, most]."""
    return [True, 2.5, "a", None, nan, inf, -inf, least - 1] + ([most + 1] if most else [])


def _real(*outside):
    """Bad values of a real argument; outside lists values beyond its bounds."""
    return [True, "a", None, nan, inf, -inf, *outside]


def _optional(bad):
    return [v for v in bad if v is not None]


# (public name, argument, call(value), bad values, a valid numpy value, error)
CASES = [
    ("SystemParams", "J", lambda v: SystemParams(J=v), _integer(1), np.int64(3)),
    ("SystemParams", "K", lambda v: SystemParams(J=3, K=v), _integer(1), np.int64(4)),
    ("SystemParams", "M", lambda v: SystemParams(J=3, M=v), _integer(2) + [3], np.int64(4)),
    ("SystemParams", "N", lambda v: SystemParams(J=3, N=v), _integer(1), np.int64(2)),
    ("SystemParams", "sigma2", lambda v: SystemParams(J=3, sigma2=v), _real(0.0, -1.0),
     np.float64(0.01)),
    ("SystemParams", "varsigma2", lambda v: SystemParams(J=3, varsigma2=v), _real(-1.0),
     np.float64(5.0)),
    ("SystemParams", "Pe", lambda v: SystemParams(J=3, Pe=v), _real(0.0, -1.0),
     np.float64(8.0)),
    ("DesignConfig", "beta_schedule", lambda v: DesignConfig(beta_schedule=(v,)),
     _real(0.0, -1.0), np.float64(8.0)),
    ("DesignConfig", "starts", lambda v: DesignConfig(starts=v), _integer(1), np.int64(2)),
    ("DesignConfig", "seed", lambda v: DesignConfig(seed=v), _integer(0), np.int64(2)),
    ("DesignConfig", "max_inner_iters", lambda v: DesignConfig(max_inner_iters=v),
     _integer(0), np.int64(2)),
    ("TrialStream", "seed", lambda v: TrialStream(seed=v), _integer(0), np.int64(2)),
    ("TrialStream", "stream_id", lambda v: TrialStream(seed=0, stream_id=v), _integer(0),
     np.int64(2)),
    ("build_factor_graph", "K", lambda v: build_factor_graph(v, 3, 2), _integer(1),
     np.int64(4)),
    ("build_factor_graph", "J", lambda v: build_factor_graph(4, v, 2), _integer(1),
     np.int64(3)),
    ("build_factor_graph", "N", lambda v: build_factor_graph(4, 3, v), _integer(1),
     np.int64(2)),
    ("mapping_from_graph", "j", lambda v: mapping_from_graph(LS3.graph, v), _integer(1, 3),
     np.int64(2), IndexError),
    ("codeword", "j", lambda v: codeword(LS3, v, 1), _integer(1, 3), np.int64(2), IndexError),
    ("codeword", "m", lambda v: codeword(LS3, 1, v), _integer(1, 4), np.int64(2), IndexError),
    ("scale_codebook_set", "target_Pe", lambda v: scale_codebook_set(LS3, v),
     _real(0.0, -1.0), np.float64(8.0)),
    ("red", "varsigma2", lambda v: red(S_I, S_J, v), _real(-1.0), np.float64(5.0)),
    ("pairwise_report", "varsigma2", lambda v: pairwise_report(POINTS, v), _real(-1.0),
     np.float64(5.0)),
    ("pairwise_report", "bins", lambda v: pairwise_report(POINTS, 5.0, bins=v),
     _optional(_integer(1)), np.int64(8)),
    ("StackedVector.distances", "varsigma2", lambda v: STACKED.distances(v), _real(-1.0),
     np.float64(5.0)),
    ("logsumexp_objective", "beta", lambda v: logsumexp_objective(STACKED, v, 5.0),
     _real(0.0, -1.0), np.float64(8.0)),
    ("logsumexp_objective", "varsigma2", lambda v: logsumexp_objective(STACKED, 8.0, v),
     _real(-1.0), np.float64(5.0)),
    ("logsumexp_gradient", "beta", lambda v: logsumexp_gradient(STACKED, v, 5.0),
     _real(0.0, -1.0), np.float64(8.0)),
    ("logsumexp_gradient", "varsigma2", lambda v: logsumexp_gradient(STACKED, 8.0, v),
     _real(-1.0), np.float64(5.0)),
    ("epd_ellipses", "sigma2", lambda v: epd_ellipses(LS3.books[0], v, 5.0),
     _real(0.0, -1.0), np.float64(0.01)),
    ("epd_ellipses", "varsigma2", lambda v: epd_ellipses(LS3.books[0], 0.01, v),
     _real(-1.0), np.float64(5.0)),
    ("epd_ellipses", "confidence",
     lambda v: epd_ellipses(LS3.books[0], 0.01, 5.0, confidence=v),
     _real(0.0, 1.0, -1.0), np.float64(0.9)),
    ("random_init", "seed", lambda v: random_init(LS3.params, v, STACKED), _integer(0),
     np.int64(2)),
    ("max_log_mpa", "n_iters", lambda v: max_log_mpa(S_I, LS3, v), _integer(1), np.int64(2)),
    ("mpa_linear", "n_iters", lambda v: mpa_linear(S_I, LS3, v), _integer(0), np.int64(2)),
    ("mpa_linear_batch", "n_iters", lambda v: mpa_linear_batch(POINTS.points[:2], LS3, v),
     _integer(0), np.int64(2)),
    ("op_counts", "M", lambda v: op_counts(v, 2, 4, 6, "max_log"), _integer(1), np.int64(4)),
    ("op_counts", "d_f", lambda v: op_counts(4, v, 4, 6, "max_log"), _integer(1),
     np.int64(2)),
    ("op_counts", "K", lambda v: op_counts(4, 2, v, 6, "max_log"), _integer(1), np.int64(4)),
    ("op_counts", "n_iters", lambda v: op_counts(4, 2, 4, v, "max_log"), _integer(0),
     np.int64(6)),
    ("op_counts", "variant", lambda v: op_counts(4, 2, 4, 6, v), [True, 2.5, "a", None, nan],
     np.str_("mpa")),
    ("add_idgn", "sigma2", lambda v: add_idgn(S_I, v, 5.0, TrialStream(0)), _real(0.0, -1.0),
     np.float64(0.01)),
    ("add_idgn", "varsigma2", lambda v: add_idgn(S_I, 0.01, v, TrialStream(0)), _real(-1.0),
     np.float64(5.0)),
    ("pep_idgn", "sigma2", lambda v: pep_idgn(S_I, S_J, v, 5.0), _real(0.0, -1.0),
     np.float64(0.01)),
    ("pep_idgn", "varsigma2", lambda v: pep_idgn(S_I, S_J, 0.01, v), _real(-1.0),
     np.float64(5.0)),
    ("qfunc", "x", qfunc, ["a", None], np.float64(1.0)),
    ("load_fixture", "name", load_fixture, [True, 2.5, "a", None, nan], np.str_("ls-j3")),
    ("simulate_ber", "n_iters",
     lambda v: simulate_ber(LS3, n_iters=v, compute_analytical=False, **RUN), _integer(1),
     np.int64(2)),
    ("simulate_ber", "seed",
     lambda v: simulate_ber(LS3, seed=v, compute_analytical=False, **RUN), _integer(0),
     np.int64(2)),
    ("simulate_ber", "min_bit_errors",
     lambda v: simulate_ber(LS3, max_frames=64, min_bit_errors=v, compute_analytical=False),
     _optional(_integer(1)), np.int64(2)),
    ("simulate_ber", "max_frames",
     lambda v: simulate_ber(LS3, max_frames=v, min_bit_errors=None, compute_analytical=False),
     _optional(_integer(1)), np.int64(64)),
    ("sweep", "pe_list", lambda v: sweep([v], cb_set=LS3, **RUN), _real(0.0, -1.0),
     np.float64(8.0)),
    ("sweep", "n_iters", lambda v: sweep([8.0], cb_set=LS3, n_iters=v, **RUN), _integer(1),
     np.int64(2)),
    ("sweep", "seed", lambda v: sweep([8.0], cb_set=LS3, seed=v, **RUN), _integer(0),
     np.int64(2)),
    ("sweep", "min_bit_errors",
     lambda v: sweep([8.0], cb_set=LS3, max_frames=64, min_bit_errors=v),
     _optional(_integer(1)), np.int64(2)),
    ("sweep", "max_frames",
     lambda v: sweep([8.0], cb_set=LS3, max_frames=v, min_bit_errors=None),
     _optional(_integer(1)), np.int64(64)),
    ("sweep", "mode", lambda v: sweep([8.0], cb_set=LS3, mode=v, **RUN),
     [True, 2.5, "a", None, nan], np.str_("scale")),
]

def _bad_rows():
    for name, arg, call, bads, _good, *error in CASES:
        for value in bads:
            yield pytest.param(call, value, *(error or [ScmaVlcError]),
                               id=f"{name}-{arg}-{value!r}")


@pytest.mark.parametrize("call,value,error", _bad_rows())
def test_bad_scalar_raises_package_error(call, value, error):
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("call,good", [
    pytest.param(call, good, id=f"{name}-{arg}") for name, arg, call, _bads, good, *_ in CASES
])
def test_numpy_scalar_is_accepted(call, good):
    call(good)


def test_table_covers_every_public_callable_with_scalar_input():
    # Names of scma_vlc.__all__ whose inputs are arrays, package objects or
    # paths only, or which are result records the package builds.
    no_scalars = {
        "BerPoint", "Codebook", "CodebookSet", "DecoderState", "DesignResult",
        "DistanceReport", "EpdEllipse", "FactorGraph", "OpCounts", "StackedVector",
        "SuperConstellation", "analytical_ber", "design", "enumerate_superimposed",
        "fixture_names", "joint_map_bruteforce", "load_codebook_set", "power",
        "project_feasible", "save_codebook_set", "stack_codebook_set",
    }
    tabled = {name.split(".")[0] for name, *_ in CASES}
    assert tabled | no_scalars == set(scma_vlc.__all__)


def _entries(good, nonnegative=True):
    """Bad values of an array argument whose valid value is good.

    A string, None, a bool array, a ragged list, and good with a NaN, +inf,
    -inf or (with nonnegative) a negative first entry.
    """
    good = np.asarray(good, dtype=float)
    ragged = good.tolist()
    ragged[0] = [ragged[0], ragged[0]]

    def first(v):
        x = good.copy()
        x.flat[0] = v
        return x

    return (["a", None, good.astype(bool), ragged, first(nan), first(inf), first(-inf)]
            + ([first(-1.0)] if nonnegative else []))


def _shapes(good):
    """good with one more dimension and with its last axis one shorter."""
    good = np.asarray(good, dtype=float)
    return [good[None], good[..., :-1]]


K = LS3.params.K
Y = POINTS.points[:3] + 0.5
BOOK = LS3.books[0].C
ONES = np.ones(K)


def _set_with_gains(gains):
    return CodebookSet(LS3.params, LS3.graph, LS3.books, gains=gains)


# (public name, argument, call(value), bad values, valid values)
ARRAY_CASES = [
    ("red", "s_i", lambda v: red(v, S_J, 5.0), _entries(S_I) + _shapes(S_I),
     [S_I.tolist(), S_I.astype(int)]),
    ("red", "s_j", lambda v: red(S_I, v, 5.0), _entries(S_J) + _shapes(S_J),
     [S_J.tolist(), S_J.astype(int)]),
    ("pep_idgn", "s_i", lambda v: pep_idgn(v, S_J, 0.01, 5.0), _entries(S_I) + _shapes(S_I),
     [S_I.tolist(), S_I.astype(int)]),
    ("pep_idgn", "s_j", lambda v: pep_idgn(S_I, v, 0.01, 5.0), _entries(S_J) + _shapes(S_J),
     [S_J.tolist(), S_J.astype(int)]),
    ("pairwise_report", "points",
     lambda v: pairwise_report(replace(POINTS, points=v), 5.0),
     _entries(POINTS.points) + [POINTS.points[None], POINTS.points[0]],
     [POINTS.points.tolist(), POINTS.points.astype(int)]),
    ("Codebook", "C", lambda v: Codebook(C=v),
     _entries(BOOK) + [BOOK[None], BOOK[0]], [BOOK.tolist(), BOOK.astype(int)]),
    ("CodebookSet", "gains", _set_with_gains,
     [5, "a", (ONES,) * 2, (ONES,) * 4, (ONES[:-1], ONES, ONES), (ONES[None], ONES, ONES)]
     + [(bad, ONES, ONES) for bad in _entries(ONES)],
     [[[1.0] * K] * 3, np.ones((3, K), dtype=int), (ONES, ONES.tolist(), ONES.astype(int))]),
    ("add_idgn", "s", lambda v: add_idgn(v, 0.01, 5.0, TrialStream(0)), _entries(S_I),
     [S_I.tolist(), S_I.astype(int), POINTS.points]),
    ("add_idgn", "out", lambda v: add_idgn(S_I, 0.01, 5.0, TrialStream(0), out=v),
     ["a", S_I.tolist(), np.empty(K, dtype=int), np.empty(K + 1), np.empty((K, 2))[:, 0],
      S_I], [np.empty(K)]),
    ("max_log_mpa", "y", lambda v: max_log_mpa(v, LS3),
     _entries(Y[0], nonnegative=False) + _shapes(Y[0]) + [3.0, np.ones((K, K))],
     [Y[0].tolist(), np.zeros(K, dtype=int), -Y[0]]),
    ("mpa_linear", "y", lambda v: mpa_linear(v, LS3),
     _entries(Y[0], nonnegative=False) + _shapes(Y[0]) + [3.0, np.ones((K, K))],
     [Y[0].tolist(), np.zeros(K, dtype=int)]),
    ("joint_map_bruteforce", "y", lambda v: joint_map_bruteforce(v, LS3),
     _entries(Y[0], nonnegative=False) + _shapes(Y[0]) + [3.0, np.ones((K, K))],
     [Y[0].tolist(), np.zeros(K, dtype=int)]),
    ("max_log_mpa_batch", "Y", lambda v: max_log_mpa_batch(v, LS3),
     _entries(Y, nonnegative=False) + _shapes(Y) + [np.ones((2, K, K))],
     [Y.tolist(), np.zeros((2, K), dtype=int), Y[0], np.empty((0, K))]),
    ("mpa_linear_batch", "Y", lambda v: mpa_linear_batch(v, LS3, 2),
     _entries(Y, nonnegative=False) + _shapes(Y) + [np.ones((2, K, K))],
     [Y.tolist(), np.zeros((2, K), dtype=int), Y[0], np.empty((0, K))]),
    ("loglik_table", "Y", lambda v: loglik_table(v, LS3),
     _entries(Y, nonnegative=False) + _shapes(Y) + [np.ones((2, K, K))],
     [Y.tolist(), np.zeros((2, K), dtype=int), np.empty((0, K))]),
    ("sweep", "pe_list", lambda v: sweep(v, cb_set=LS3, **RUN),
     [5, None, np.float64(8.0), "a", [True], [[8.0]], [nan]],
     [[8], (4.0, 8.0), np.array([8.0]), range(4, 9, 4)]),
    ("DesignConfig", "beta_schedule", lambda v: DesignConfig(beta_schedule=v),
     [5, None, np.float64(1.0), "a", (True, 2.0), [[1.0]], [1.0, inf]],
     [[1, 2], np.array([1.0, 2.0]), range(1, 4)]),
]


def _array_rows(pick):
    for name, arg, call, bads, goods in ARRAY_CASES:
        for i, value in enumerate(pick(bads, goods)):
            yield pytest.param(call, value, id=f"{name}-{arg}-{i}")


@pytest.mark.parametrize("call,value", _array_rows(lambda bads, goods: bads))
def test_bad_array_raises_package_error(call, value):
    with pytest.raises(ScmaVlcError):
        call(value)


@pytest.mark.parametrize("call,value", _array_rows(lambda bads, goods: goods))
def test_list_and_integer_arrays_are_accepted(call, value):
    call(value)
