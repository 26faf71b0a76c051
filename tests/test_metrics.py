import numpy as np
import pytest

from scma_vlc import (
    enumerate_superimposed,
    epd_ellipses,
    load_fixture,
    logsumexp_gradient,
    logsumexp_objective,
    pairwise_report,
    red,
    stack_codebook_set,
)
from scma_vlc import metrics
from scma_vlc.errors import CapacityError, DomainError, UnsupportedError
from scma_vlc.metrics import CHI2_2_Q95
from scma_vlc.model import SuperConstellation

from conftest import random_codebook_set
from kernel_reference import (
    reference_distances,
    reference_gradient,
    reference_objective,
    reference_stack,
)

FIXTURES = ["dr-j3", "ls-j3", "ls-j4", "ls-j5", "ls-j6"]

# Reference copy of the pairwise formula that the per-resource gather
# replaced: pairs come from np.triu_indices, chunked to bound memory, and each
# row of per-component terms is reduced with np.sum.
_PAIR_CHUNK = 500_000


def _pair_distances(points, varsigma2, ii, jj):
    g = varsigma2 * points + 1.0
    diff = points[ii] - points[jj]
    return np.sum(diff * diff / np.sqrt(g[ii] * g[jj]), axis=1)


def _reference_distances(points, varsigma2):
    ii, jj = np.triu_indices(len(points), k=1)
    return np.concatenate([
        _pair_distances(points, varsigma2, ii[lo:lo + _PAIR_CHUNK], jj[lo:lo + _PAIR_CHUNK])
        for lo in range(0, len(ii), _PAIR_CHUNK)
    ])


def _constellation(points):
    P = len(points)
    return SuperConstellation(points=points, index_tuples=np.ones((P, 1), dtype=int),
                              bit_labels=np.zeros((P, 1), dtype=np.uint8),
                              covariances=np.ones_like(points))


def assert_report_equals_reference(constellation, varsigma2, bins=10):
    ref = _reference_distances(constellation.points, varsigma2)
    rep = pairwise_report(constellation, varsigma2, bins=bins)
    assert rep.pair_count == len(ref)
    assert rep.d_min == ref.min() and rep.d_max == ref.max()
    counts, edges = np.histogram(ref, bins=bins)
    np.testing.assert_array_equal(rep.histogram[0], counts)
    np.testing.assert_array_equal(rep.histogram[1], edges)


class TestRed:
    def test_reduces_to_euclidean(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.uniform(0, 10, size=4)
            b = rng.uniform(0, 10, size=4)
            assert abs(red(a, b, 0.0) - np.sum((a - b) ** 2)) < 1e-12

    def test_known_value(self):
        # Unit differences, geometric-mean denominators 2 and 2.
        assert abs(red(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 3.0) - 1.0) < 1e-15

    def test_symmetry(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([4.0, 3.0, 2.0, 1.0])
        assert red(a, b, 5.0) == red(b, a, 5.0)

    def test_shrinks_with_shot_noise(self):
        a = np.array([2.0, 5.0])
        b = np.array([3.0, 1.0])
        assert red(a, b, 5.0) < red(a, b, 1.0) < red(a, b, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            red(np.array([-1.0, 0.0]), np.array([0.0, 1.0]), 1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            red(np.array([1.0]), np.array([1.0, 2.0]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            red(np.array([bad, 1.0]), np.array([0.0, 1.0]), 1.0)
        with pytest.raises(DomainError):
            red(np.array([0.0, 1.0]), np.array([1.0, bad]), 1.0)

    @pytest.mark.parametrize("varsigma2", [np.nan, np.inf, -1.0])
    def test_rejects_bad_varsigma2(self, varsigma2):
        with pytest.raises(DomainError):
            red(np.array([1.0, 0.0]), np.array([0.0, 1.0]), varsigma2)


class TestStackedVector:
    def test_l_layout(self, ls_j3):
        sv = stack_codebook_set(ls_j3)
        manual = np.concatenate([b.C.reshape(-1) for b in ls_j3.books])
        np.testing.assert_array_equal(sv.L, manual)


class TestPairwiseReport:
    def test_pair_count(self, ls_j3):
        rep = pairwise_report(enumerate_superimposed(ls_j3), 5.0)
        assert rep.pair_count == 64 * 63 // 2

    def test_matches_bruteforce(self):
        cb = random_codebook_set(3, seed=7)
        c = enumerate_superimposed(cb)
        rep = pairwise_report(c, 5.0)
        ds = [
            red(c.points[i], c.points[j], 5.0)
            for i in range(64)
            for j in range(i + 1, 64)
        ]
        assert abs(rep.d_min - min(ds)) < 1e-12
        assert abs(rep.d_max - max(ds)) < 1e-12

    def test_histogram(self, ls_j3):
        rep = pairwise_report(enumerate_superimposed(ls_j3), 5.0, bins=10)
        counts, edges = rep.histogram
        assert counts.sum() == rep.pair_count
        assert len(edges) == 11

    def test_too_many_points(self):
        with pytest.raises(CapacityError):
            pairwise_report(_constellation(np.ones((4097, 4))), 5.0)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_bitwise_equal_reference(self, name):
        c = enumerate_superimposed(load_fixture(name))
        for varsigma2 in (0.0, 1.0, 5.0, 7.3):
            assert_report_equals_reference(c, varsigma2)

    @pytest.mark.parametrize("varsigma2", [np.nan, np.inf, -1.0])
    def test_rejects_bad_varsigma2(self, ls_j3, varsigma2):
        with pytest.raises(DomainError):
            pairwise_report(enumerate_superimposed(ls_j3), varsigma2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_bad_points(self, bad):
        points = np.ones((4, 2))
        points[2, 1] = bad
        with pytest.raises(DomainError):
            pairwise_report(_constellation(points), 5.0)

    def test_rejects_single_point(self):
        with pytest.raises(DomainError):
            pairwise_report(_constellation(np.ones((1, 4))), 5.0)


class TestLogsumexpObjective:
    def test_softmin_brackets_dmin(self, ls_j3):
        sv = stack_codebook_set(ls_j3)
        rep = pairwise_report(enumerate_superimposed(ls_j3), 5.0)
        for beta in (1.0, 10.0, 30.0):
            f = logsumexp_objective(sv, beta, 5.0)
            assert -rep.d_min <= f <= -rep.d_min + np.log(rep.pair_count) / beta

    def test_sharpens_toward_dmin(self, ls_j3):
        sv = stack_codebook_set(ls_j3)
        rep = pairwise_report(enumerate_superimposed(ls_j3), 5.0)
        gaps = [
            logsumexp_objective(sv, beta, 5.0) + rep.d_min for beta in (1.0, 10.0, 30.0)
        ]
        assert gaps[0] > gaps[1] > gaps[2] >= 0

    def test_rejects_bad_beta(self, ls_j3):
        sv = stack_codebook_set(ls_j3)
        with pytest.raises(DomainError):
            logsumexp_objective(sv, 0.0, 5.0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_rejects_non_finite_beta(self, ls_j3, beta):
        sv = stack_codebook_set(ls_j3)
        with pytest.raises(DomainError):
            logsumexp_objective(sv, beta, 5.0)
        with pytest.raises(DomainError):
            logsumexp_gradient(sv, beta, 5.0)

    @pytest.mark.parametrize("varsigma2", [np.nan, np.inf, -1.0])
    def test_rejects_bad_varsigma2(self, ls_j3, varsigma2):
        sv = stack_codebook_set(ls_j3)
        with pytest.raises(DomainError):
            logsumexp_objective(sv, 10.0, varsigma2)
        with pytest.raises(DomainError):
            logsumexp_gradient(sv, 10.0, varsigma2)

    def test_no_overflow_at_large_beta(self, ls_j3):
        sv = stack_codebook_set(ls_j3)
        assert np.isfinite(logsumexp_objective(sv, 1e4, 5.0))


class TestLogsumexpGradient:
    @pytest.mark.parametrize("beta", [1.0, 10.0, 30.0])
    def test_matches_finite_differences(self, beta):
        cb = random_codebook_set(3, seed=11)
        sv = stack_codebook_set(cb)
        g = logsumexp_gradient(sv, beta, 5.0)
        h = 1e-6
        for i in range(0, sv.L.size, 5):
            up, dn = sv.L.copy(), sv.L.copy()
            up[i] += h
            dn[i] -= h
            fd = (
                logsumexp_objective(sv.replace(up), beta, 5.0)
                - logsumexp_objective(sv.replace(dn), beta, 5.0)
            ) / (2 * h)
            assert abs(g[i] - fd) < 1e-5 * max(1.0, abs(fd))

    def test_zero_at_scaled_symmetric_point(self):
        # Doubling all entries changes every distance, so the gradient is
        # nonzero at generic points; sanity-check shape and finiteness only.
        cb = random_codebook_set(4, seed=3)
        sv = stack_codebook_set(cb)
        g = logsumexp_gradient(sv, 10.0, 5.0)
        assert g.shape == sv.L.shape
        assert np.all(np.isfinite(g))


def _old_objective(points, beta, varsigma2):
    """The pairwise objective formula over np.triu_indices pairs."""
    d = _reference_distances(points, varsigma2)
    d_min = d.min()
    return float(np.log(np.sum(np.exp(-beta * (d - d_min)))) / beta - d_min)


def _old_gradient(cb_set, beta, varsigma2):
    """The pairwise gradient: per-point derivatives chained onto L entry by entry."""
    p = cb_set.params
    c = enumerate_superimposed(cb_set)
    points = c.points
    ii, jj = np.triu_indices(len(points), k=1)
    d = _pair_distances(points, varsigma2, ii, jj)
    w = np.exp(-beta * (d - d.min()))
    w /= w.sum()
    g = varsigma2 * points + 1.0
    diff = points[ii] - points[jj]
    gi, gj = g[ii], g[jj]
    root = np.sqrt(gi * gj)
    ddi = 2.0 * diff / root - 0.5 * varsigma2 * diff * diff / (gi * root)
    ddj = -2.0 * diff / root - 0.5 * varsigma2 * diff * diff / (gj * root)
    grad_s = np.zeros_like(points)
    np.add.at(grad_s, ii, -w[:, None] * ddi)
    np.add.at(grad_s, jj, -w[:, None] * ddj)
    grad = np.zeros(p.J * p.N * p.M)
    for j in range(p.J):
        for n, k in enumerate(np.flatnonzero(cb_set.graph.F[:, j])):
            cols = j * p.N * p.M + n * p.M + c.index_tuples[:, j] - 1
            np.add.at(grad, cols, cb_set.gains[j][k] * grad_s[:, k])
    return grad


class TestStructuralKernel:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_distances_bitwise_equal_pairwise(self, name):
        cb = load_fixture(name)
        sv = stack_codebook_set(cb)
        points = enumerate_superimposed(cb).points
        for varsigma2 in (0.0, 1.0, 5.0):
            np.testing.assert_array_equal(sv.distances(varsigma2),
                                          _reference_distances(points, varsigma2))

    @pytest.mark.parametrize("name", ["dr-j3", "ls-j3", "ls-j4", "ls-j5"])
    def test_objective_bitwise_equal_pairwise(self, name):
        cb = load_fixture(name)
        sv = stack_codebook_set(cb)
        points = enumerate_superimposed(cb).points
        for beta in (1.0, 10.0, 30.0):
            for varsigma2 in (0.0, 5.0):
                assert logsumexp_objective(sv, beta, varsigma2) == _old_objective(
                    points, beta, varsigma2
                )

    @pytest.mark.parametrize("name", ["ls-j3", "ls-j4", "ls-j5"])
    @pytest.mark.parametrize("beta", [1.0, 10.0, 30.0])
    def test_gradient_matches_pairwise(self, name, beta):
        cb = load_fixture(name)
        g = logsumexp_gradient(stack_codebook_set(cb), beta, 5.0)
        ref = _old_gradient(cb, beta, 5.0)
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_pair_indices_use_small_dtype(self):
        # On the common Qmax stride: 16^2 entries at J=4, 64^2 at J=6.
        sv = stack_codebook_set(load_fixture("ls-j4"))
        assert all(flat.dtype == np.uint8 for flat in sv.stack.pair_flat)
        sv = stack_codebook_set(load_fixture("ls-j6"))
        assert all(flat.dtype == np.uint16 for flat in sv.stack.pair_flat)

    @pytest.mark.parametrize("varsigma2", [np.nan, np.inf, -1.0])
    def test_distances_reject_bad_varsigma2(self, ls_j3, varsigma2):
        with pytest.raises(DomainError):
            stack_codebook_set(ls_j3).distances(varsigma2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_entries(self, ls_j3, bad):
        sv = stack_codebook_set(ls_j3)
        L = sv.L.copy()
        L[3] = bad
        with pytest.raises(DomainError):
            logsumexp_objective(sv.replace(L), 10.0, 5.0)
        with pytest.raises(DomainError):
            logsumexp_gradient(sv.replace(L), 10.0, 5.0)

    def test_cached_distances_are_read_only(self, ls_j3):
        d = stack_codebook_set(ls_j3).distances(5.0)
        with pytest.raises(ValueError):
            d[0] = 0.0

    def test_cache_does_not_go_stale(self):
        cb = random_codebook_set(4, seed=5)
        sv = stack_codebook_set(cb)
        L2 = sv.L * np.linspace(0.5, 1.0, sv.L.size)
        logsumexp_objective(sv, 10.0, 5.0)
        via_cached = logsumexp_gradient(sv.replace(L2), 10.0, 5.0)
        fresh = logsumexp_gradient(stack_codebook_set(cb).replace(L2.copy()), 10.0, 5.0)
        np.testing.assert_array_equal(via_cached, fresh)
        # A second varsigma2 on the same point is computed, not served stale.
        assert logsumexp_objective(sv, 10.0, 1.0) == _old_objective(
            enumerate_superimposed(cb).points, 10.0, 1.0
        )

    def test_chunked_gather_matches_single_chunk(self, ls_j3, monkeypatch):
        single_d = stack_codebook_set(ls_j3).distances(5.0)
        single_g = logsumexp_gradient(stack_codebook_set(ls_j3), 10.0, 5.0)
        # 2016 pairs in 21 chunks, the last one partial, in both the distance
        # gather and the gradient's bincount.
        monkeypatch.setattr(metrics, "_GATHER_CHUNK", 97)
        monkeypatch.setattr(metrics, "_TAKE_CHUNK", 97)
        sv = stack_codebook_set(ls_j3)
        np.testing.assert_array_equal(sv.distances(5.0), single_d)
        chunked_g = logsumexp_gradient(sv, 10.0, 5.0)
        np.testing.assert_allclose(chunked_g, single_g, rtol=1e-12,
                                   atol=1e-12 * np.abs(single_g).max())


class TestPairWorkspace:
    """Vectors of one structure share distance slots; none reads another's."""

    @pytest.mark.parametrize("name", ["ls-j3", "ls-j4", "ls-j5"])
    def test_no_aliasing_across_candidates(self, name):
        x = stack_codebook_set(load_fixture(name))
        rng = np.random.default_rng(0)
        cands = [x.replace(x.L * rng.uniform(0.9, 1.1, x.L.size)) for _ in range(2)]
        vs2 = 5.0

        def evaluate(v):
            return logsumexp_objective(v, 10.0, vs2), logsumexp_gradient(v, 10.0, vs2)

        f0, g0 = evaluate(x)
        at_cands = [evaluate(c) for c in cands]
        f1, g1 = evaluate(x)
        assert f1 == f0
        np.testing.assert_array_equal(g1, g0)
        # Each candidate got its own distances, not x's or the other's.
        for (f, g), c in zip(at_cands, cands):
            assert f != f0
            assert f == logsumexp_objective(stack_codebook_set(load_fixture(name)).replace(c.L),
                                            10.0, vs2)
        want = reference_distances(reference_stack(load_fixture(name)).replace(x.L), vs2)
        np.testing.assert_array_equal(x.distances(vs2), want)

    def test_shared_by_replace_only(self, ls_j3):
        x = stack_codebook_set(ls_j3)
        assert x.replace(x.L).workspace is x.workspace
        assert stack_codebook_set(ls_j3).workspace is not x.workspace

    @pytest.mark.parametrize("name", ["ls-j3", "ls-j4"])
    @pytest.mark.parametrize("before", ["beta", "varsigma2", "vector", "distances", "same"])
    def test_gradient_after_objective_equals_fresh(self, name, before):
        """The gradient reuses the last objective's exponentials only when they
        were taken at its (point, varsigma2, beta); otherwise it computes them."""
        cb = load_fixture(name)
        x = stack_codebook_set(cb)
        other = x.replace(x.L * np.linspace(0.8, 1.0, x.L.size))
        logsumexp_objective(x, 10.0, 5.0)
        if before == "beta":
            logsumexp_objective(x, 30.0, 5.0)
        elif before == "varsigma2":
            logsumexp_objective(x, 10.0, 1.0)
        elif before == "vector":
            logsumexp_objective(other, 10.0, 5.0)
        elif before == "distances":
            other.distances(5.0)
            x.distances(1.0)
        got = logsumexp_gradient(x, 10.0, 5.0)
        np.testing.assert_array_equal(got, logsumexp_gradient(stack_codebook_set(cb), 10.0, 5.0))
        # The gradient used up the exponentials: a second one computes them.
        np.testing.assert_array_equal(logsumexp_gradient(x, 10.0, 5.0), got)

    def test_slot_holds_table_operands_of_its_vector(self, ls_j3):
        x = stack_codebook_set(ls_j3)
        y = x.replace(x.L * 1.25)
        logsumexp_objective(x, 10.0, 5.0)
        logsumexp_objective(y, 10.0, 5.0)
        logsumexp_objective(x, 10.0, 1.0)  # evicts y's slot, keeps x's at 5.0
        fresh = stack_codebook_set(ls_j3)
        for v in (x, y):
            want = logsumexp_gradient(fresh.replace(v.L.copy()), 10.0, 5.0)
            np.testing.assert_array_equal(logsumexp_gradient(v, 10.0, 5.0), want)


class TestReferenceKernel:
    """Distances, objective and gradient equal the per-resource reference kernel
    (tests/kernel_reference.py) bit for bit."""

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("varsigma2", [0.0, 1.0, 5.0])
    def test_bitwise_equal(self, name, varsigma2):
        cb = load_fixture(name)
        sv, ref = stack_codebook_set(cb), reference_stack(cb)
        np.testing.assert_array_equal(sv.distances(varsigma2),
                                      reference_distances(ref, varsigma2))
        for beta in (1.0, 10.0, 30.0):
            assert logsumexp_objective(sv, beta, varsigma2) == reference_objective(
                ref, beta, varsigma2)
            np.testing.assert_array_equal(logsumexp_gradient(sv, beta, varsigma2),
                                          reference_gradient(ref, beta, varsigma2))

    @pytest.mark.parametrize("J, K", [(3, 4), (5, 5), (2, 5)])
    def test_bitwise_equal_random_sets(self, J, K):
        # Resource degrees (2, 2, 1, 1), (4, 2, 2, 1, 1) and (2, 1, 1, 0, 0):
        # narrow and empty resources padded next to wider ones.
        cb = random_codebook_set(J, seed=J + K, K=K)
        sv, ref = stack_codebook_set(cb), reference_stack(cb)
        for beta in (1.0, 30.0):
            assert logsumexp_objective(sv, beta, 5.0) == reference_objective(ref, beta, 5.0)
            np.testing.assert_array_equal(logsumexp_gradient(sv, beta, 5.0),
                                          reference_gradient(ref, beta, 5.0))


class TestEpdEllipses:
    def test_axes_from_variances(self, ls_j3):
        p = ls_j3.params
        book = ls_j3.books[0]
        ellipses = epd_ellipses(book, p.sigma2, p.varsigma2)
        assert len(ellipses) == p.M
        for m, e in enumerate(ellipses):
            np.testing.assert_array_equal(e.center, book.C[:, m])
            var = p.varsigma2 * p.sigma2 * e.center + p.sigma2
            np.testing.assert_allclose(e.semi_axes, np.sqrt(CHI2_2_Q95 * var))
            np.testing.assert_array_equal(e.axis_directions, np.eye(2))

    def test_awgn_circles(self, ls_j3):
        ellipses = epd_ellipses(ls_j3.books[0], 0.01, 0.0)
        for e in ellipses:
            assert abs(e.semi_axes[0] - e.semi_axes[1]) < 1e-15

    def test_confidence_quantile(self, ls_j3):
        e95 = epd_ellipses(ls_j3.books[0], 0.01, 5.0, confidence=0.95)[0]
        e50 = epd_ellipses(ls_j3.books[0], 0.01, 5.0, confidence=0.5)[0]
        ratio = (e95.semi_axes[0] / e50.semi_axes[0]) ** 2
        assert abs(ratio - CHI2_2_Q95 / (-2 * np.log(0.5))) < 1e-3

    def test_requires_2d(self):
        from scma_vlc.model import Codebook

        book = Codebook(C=np.ones((3, 4)), user_index=1)
        with pytest.raises(UnsupportedError):
            epd_ellipses(book, 0.01, 5.0)

    def test_bad_confidence(self, ls_j3):
        with pytest.raises(DomainError):
            epd_ellipses(ls_j3.books[0], 0.01, 5.0, confidence=1.0)

    @pytest.mark.parametrize("sigma2, varsigma2", [
        (np.nan, 1.0), (-1.0, 1.0), (0.0, 1.0), (np.inf, 1.0),
        (1.0, -5.0), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_rejects_bad_noise_params(self, ls_j3, sigma2, varsigma2):
        with pytest.raises(DomainError):
            epd_ellipses(ls_j3.books[0], sigma2, varsigma2)
