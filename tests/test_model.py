from dataclasses import replace

import numpy as np
import pytest

from scma_vlc import (
    FactorGraph,
    SystemParams,
    TrialStream,
    add_idgn,
    build_factor_graph,
    codeword,
    enumerate_superimposed,
    fixture_names,
    load_fixture,
    mapping_from_graph,
    power,
    scale_codebook_set,
    simulate_ber,
    simulator,
)
from scma_vlc.decoder import _build_tables
from scma_vlc.errors import CapacityError, DimensionError, DomainError
from scma_vlc.model import Codebook, bit_label, label_table, resource_layout

from conftest import random_codebook_set


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams(J=3)
        assert (p.K, p.M, p.N) == (4, 4, 2)
        assert p.bits_per_symbol == 2

    def test_too_many_users(self):
        with pytest.raises(DimensionError):
            SystemParams(J=7)

    def test_n_larger_than_k(self):
        with pytest.raises(DimensionError):
            SystemParams(J=1, K=2, N=3)

    @pytest.mark.parametrize("M", [1, 3, 6, 4.0, True])
    def test_codebook_size_must_be_power_of_two(self, M):
        with pytest.raises(DomainError):
            SystemParams(J=3, M=M)

    @pytest.mark.parametrize("field,value", [("J", 2.5), ("J", True), ("K", 4.0), ("N", True)])
    def test_dimensions_must_be_integers(self, field, value):
        with pytest.raises(DimensionError, match=field):
            SystemParams(**{"J": 3, field: value})

    def test_nonpositive_noise(self):
        with pytest.raises(DomainError):
            SystemParams(J=3, sigma2=0.0)
        with pytest.raises(DomainError):
            SystemParams(J=3, varsigma2=-1.0)
        with pytest.raises(DomainError):
            SystemParams(J=3, Pe=0.0)

    @pytest.mark.parametrize("field", ["sigma2", "varsigma2", "Pe"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_and_power(self, field, bad):
        with pytest.raises(DomainError):
            SystemParams(J=3, **{field: bad})


class TestFactorGraph:
    def test_reference_4x6(self):
        g = build_factor_graph(4, 6, 2)
        expected = np.array(
            [
                [0, 1, 1, 0, 1, 0],
                [1, 0, 1, 0, 0, 1],
                [0, 1, 0, 1, 0, 1],
                [1, 0, 0, 1, 1, 0],
            ]
        )
        assert np.array_equal(g.F, expected)
        assert g.df_per_rn == (3, 3, 3, 3)

    def test_subgraph_nesting(self):
        g3 = build_factor_graph(4, 3, 2)
        g6 = build_factor_graph(4, 6, 2)
        assert np.array_equal(g3.F, g6.F[:, :3])

    def test_column_sums(self):
        for J in range(1, 7):
            g = build_factor_graph(4, J, 2)
            assert np.all(g.F.sum(axis=0) == 2)

    def test_overcapacity(self):
        with pytest.raises(DimensionError):
            build_factor_graph(4, 7, 2)

    def test_neighbor_sets_consistent(self):
        g = build_factor_graph(4, 6, 2)
        for k in range(4):
            assert g.rn_neighbors[k] == tuple(
                j + 1 for j in np.flatnonzero(g.F[k])
            )
        for j in range(6):
            assert g.vn_neighbors[j] == tuple(
                k + 1 for k in np.flatnonzero(g.F[:, j])
            )

    @pytest.mark.parametrize("F", [[[1, 0], [2, 1]], [[1, 0], [-1, 1]],
                                   [[0.5, 1.0], [1.0, 0.0]], [1, 0, 1]])
    def test_rejects_non_binary_matrix(self, F):
        with pytest.raises(DimensionError):
            FactorGraph(F=np.array(F))

    @pytest.mark.parametrize("F", [[[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1]],
                                   [[1, 0], [1, 0]]])
    def test_rejects_repeated_or_empty_column(self, F):
        with pytest.raises(DimensionError, match="support of its own"):
            FactorGraph(F=np.array(F))

    def test_neighbor_sets_derived_from_matrix(self):
        g = FactorGraph(F=np.array([[1, 0, 1], [0, 1, 1]]))
        assert g.rn_neighbors == ((1, 3), (2, 3))
        assert g.vn_neighbors == ((1,), (2,), (1, 2))
        assert g.df_per_rn == (2, 2)


class TestMapping:
    def test_selects_support_rows(self):
        g = build_factor_graph(4, 3, 2)
        for j in range(1, 4):
            V = mapping_from_graph(g, j)
            assert V.shape == (4, 2)
            assert np.array_equal(np.diag(V @ V.T), g.F[:, j - 1])

    def test_out_of_range(self):
        g = build_factor_graph(4, 3, 2)
        with pytest.raises(IndexError):
            mapping_from_graph(g, 4)


class TestCodeword:
    def test_known_value(self, ls_j3):
        # User 1 occupies resources 2 and 4.
        np.testing.assert_allclose(
            codeword(ls_j3, 1, 1), [0.0, 2.7712, 0.0, 4.4089]
        )

    def test_index_validation(self, ls_j3):
        with pytest.raises(IndexError):
            codeword(ls_j3, 0, 1)
        with pytest.raises(IndexError):
            codeword(ls_j3, 1, 5)


class TestBitLabels:
    def test_natural_binary(self):
        assert [list(bit_label(m, 2)) for m in (1, 2, 3, 4)] == [
            [0, 0],
            [0, 1],
            [1, 0],
            [1, 1],
        ]

    def test_msb_first(self):
        assert list(bit_label(3, 3)) == [0, 1, 0]


class TestEnumerate:
    def test_count_and_order(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        assert c.points.shape == (64, 4)
        # Mixed-radix counter, user 1 most significant.
        assert tuple(c.index_tuples[0]) == (1, 1, 1)
        assert tuple(c.index_tuples[1]) == (1, 1, 2)
        assert tuple(c.index_tuples[4]) == (1, 2, 1)
        assert tuple(c.index_tuples[-1]) == (4, 4, 4)

    def test_known_point(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        np.testing.assert_allclose(
            c.points[0], [0.0200, 2.7812, 0.0100, 4.4089], atol=1e-12
        )

    def test_points_equal_codeword_sums(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        for i in (0, 17, 42, 63):
            manual = sum(
                codeword(ls_j3, j + 1, int(c.index_tuples[i, j])) for j in range(3)
            )
            np.testing.assert_allclose(c.points[i], manual)

    def test_covariances(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        p = ls_j3.params
        np.testing.assert_allclose(
            c.covariances, p.varsigma2 * p.sigma2 * c.points + p.sigma2
        )

    def test_bit_labels_concatenate(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        i = 27  # tuple (2, 3, 4) -> labels 01 10 11
        assert tuple(c.index_tuples[i]) == (2, 3, 4)
        assert list(c.bit_labels[i]) == [0, 1, 1, 0, 1, 1]

    def test_capacity_guard(self):
        # 4^7 = 16384 points, above the 4096-point limit.
        with pytest.raises(CapacityError):
            enumerate_superimposed(random_codebook_set(7, seed=0, K=5))


class TestPowerAndScaling:
    def test_all_fixtures_within_budget(self):
        for name in fixture_names():
            cb = load_fixture(name)
            for book in cb.books:
                # Entries are printed to 4 decimals, so the power budget can
                # be exceeded by rounding alone (up to a few 1e-3).
                assert power(book) <= 30.0 + 5e-3
                assert np.all(book.C >= 0)

    def test_dr_reference_power(self, dr_j3):
        # Largest per-user average power of the distance-range baseline.
        assert abs(max(power(b) for b in dr_j3.books) - 29.93) < 0.01

    def test_scale_hits_target(self, ls_j3):
        scaled = scale_codebook_set(ls_j3, 10.0)
        assert abs(max(power(b) for b in scaled.books) - 10.0) < 1e-9
        assert scaled.params.Pe == 10.0

    def test_scale_is_linear(self, ls_j3):
        scaled = scale_codebook_set(ls_j3, 7.5)
        alpha = scaled.books[0].C[0, 0] / ls_j3.books[0].C[0, 0]
        for b_old, b_new in zip(ls_j3.books, scaled.books):
            np.testing.assert_allclose(b_new.C, alpha * b_old.C)

    def test_scale_rejects_nonpositive(self, ls_j3):
        with pytest.raises(DomainError):
            scale_codebook_set(ls_j3, 0.0)

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_scale_rejects_non_finite(self, ls_j3, target):
        with pytest.raises(DomainError, match="target_Pe"):
            scale_codebook_set(ls_j3, target)


class TestFixtures:
    def test_names(self):
        assert fixture_names() == ["dr-j3", "ls-j3", "ls-j4", "ls-j5", "ls-j6"]

    def test_sizes(self):
        for name, J in [("dr-j3", 3), ("ls-j3", 3), ("ls-j4", 4), ("ls-j5", 5), ("ls-j6", 6)]:
            assert load_fixture(name).params.J == J

    def test_unknown_name(self):
        from scma_vlc.errors import ConfigError

        with pytest.raises(ConfigError):
            load_fixture("nope")


class TestCodebookEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_rejects_non_finite_or_negative_entry(self, bad):
        C = np.ones((2, 4))
        C[1, 2] = bad
        with pytest.raises(DomainError):
            Codebook(C=C)

    def test_keeps_a_read_only_copy(self):
        C = np.ones((2, 4))
        book = Codebook(C=C)
        C[0, 0] = -1.0
        np.testing.assert_array_equal(book.C, np.ones((2, 4)))
        with pytest.raises(ValueError):
            book.C[0, 0] = np.nan


class TestCodebookSetChecks:
    def test_too_few_books(self, ls_j3):
        with pytest.raises(DimensionError):
            replace(ls_j3, books=ls_j3.books[:2])

    def test_too_many_books(self, ls_j3):
        extra = Codebook(C=np.ones((2, 4)))
        with pytest.raises(DimensionError):
            replace(ls_j3, books=ls_j3.books + (extra,))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3)])
    def test_book_shape(self, ls_j3, shape):
        books = (Codebook(C=np.ones(shape)),) + ls_j3.books[1:]
        with pytest.raises(DimensionError):
            replace(ls_j3, books=books)

    def test_graph_shape(self, ls_j3):
        with pytest.raises(DimensionError):
            replace(ls_j3, graph=build_factor_graph(4, 4, 2))

    @pytest.mark.parametrize("gains", [
        [np.ones(4)] * 2,
        [np.ones(4)] * 4,
        [np.ones(3)] * 3,
        [np.ones((4, 1))] * 3,
    ])
    def test_gain_shapes(self, ls_j3, gains):
        with pytest.raises(DimensionError):
            replace(ls_j3, gains=tuple(gains))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_gain_values(self, ls_j3, bad):
        g = np.ones(4)
        g[2] = bad
        with pytest.raises(DomainError):
            replace(ls_j3, gains=(np.ones(4), g, np.ones(4)))

    def test_gains_stored_as_float_arrays(self, ls_j3):
        cb = replace(ls_j3, gains=([1, 0, 2, 1],) * 3)
        assert all(g.dtype == float and g.shape == (4,) for g in cb.gains)
        assert all(np.array_equal(g, ls_j3.gains[0]) for g in replace(ls_j3).gains)


def _decoder_combo_sums(cb_set):
    """Reference combination sums, built per resource by neighbour position
    as the decoder built them before the shared layout."""
    from itertools import product

    p = cb_set.params
    sums = []
    for k in range(p.K):
        js = [j - 1 for j in cb_set.graph.rn_neighbors[k]]
        combo = np.array(list(product(range(p.M), repeat=len(js))), dtype=np.int64)
        combo = combo.reshape(p.M ** len(js), len(js))
        total = np.zeros(len(combo))
        for pos, j in enumerate(js):
            n = cb_set.graph.vn_neighbors[j].index(k + 1)
            total += (cb_set.gains[j][k] * cb_set.books[j].C[n, :])[combo[:, pos]]
        sums.append(total)
    return sums


def _user_table_superposition(cb_set, syms):
    """Reference superposition: per-user (M, K) codeword tables summed over users."""
    p = cb_set.params
    s = np.zeros((len(syms), p.K))
    for j in range(p.J):
        V = mapping_from_graph(cb_set.graph, j + 1)
        table = (np.diag(cb_set.gains[j]) @ V @ cb_set.books[j].C).T
        s += table[syms[:, j]]
    return s


def _layout_set(name, gains):
    cb = load_fixture(name)
    if gains is None:
        return cb
    return replace(cb, gains=tuple(np.array(gains) for _ in range(cb.params.J)))


_LAYOUT_CASES = [(name, gains) for name in fixture_names()
                 for gains in (None, (0.5, 1.0, 2.0, 1.0))]


class TestSharedLayout:
    @pytest.mark.parametrize("name,gains", _LAYOUT_CASES)
    def test_resource_values_match_decoder_combination_sums(self, name, gains):
        cb = _layout_set(name, gains)
        L, layout = resource_layout(cb)
        tables = _build_tables(cb)
        for k, (r, ref) in enumerate(zip(layout, _decoder_combo_sums(cb))):
            assert r.users == tuple(j - 1 for j in cb.graph.rn_neighbors[k])
            np.testing.assert_array_equal(r.values(L), ref)
            np.testing.assert_array_equal(tables.values[k], ref)

    @pytest.mark.parametrize("name,gains", _LAYOUT_CASES)
    def test_points_match_user_table_superposition(self, name, gains):
        cb = _layout_set(name, gains)
        p = cb.params
        c = enumerate_superimposed(cb)
        digits = c.index_tuples - 1
        np.testing.assert_array_equal(c.points, _user_table_superposition(cb, digits))
        idx = np.arange(p.M**p.J)
        for j in range(p.J):
            np.testing.assert_array_equal(digits[:, j], (idx // p.M ** (p.J - 1 - j)) % p.M)
        sym_labels = np.stack([bit_label(m, p.bits_per_symbol) for m in range(1, p.M + 1)])
        np.testing.assert_array_equal(
            c.bit_labels, np.hstack([sym_labels[digits[:, j]] for j in range(p.J)]))
        # Point combinations from the digits equal the former per-user radix walk.
        _, layout = resource_layout(cb)
        for r, users in zip(layout, cb.graph.rn_neighbors):
            combo = np.zeros(len(digits), dtype=np.int64)
            for j in users:
                combo = combo * p.M + c.index_tuples[:, j - 1] - 1
            np.testing.assert_array_equal(r.combos(digits), combo)

    @pytest.mark.parametrize("name,gains", _LAYOUT_CASES)
    def test_simulated_frames_match_user_table_superposition(self, name, gains, monkeypatch):
        cb = _layout_set(name, gains)
        p = cb.params
        sent = []

        def spy(s, *args, **kwargs):
            sent.append(s.copy())
            return add_idgn(s, *args, **kwargs)

        monkeypatch.setattr(simulator, "add_idgn", spy)
        simulate_ber(cb, min_bit_errors=None, max_frames=500, seed=9,
                     compute_analytical=False)
        syms = TrialStream(seed=9).generator().integers(0, p.M, size=(500, p.J))
        np.testing.assert_array_equal(sent[0], _user_table_superposition(cb, syms))

    def test_label_table_is_natural_binary(self):
        for bits in (1, 2, 3):
            table = label_table(1 << bits)
            assert table.dtype == np.uint8
            for m in range(1, (1 << bits) + 1):
                assert int("".join(str(v) for v in table[m - 1]), 2) == m - 1
