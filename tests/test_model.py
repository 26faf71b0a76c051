import numpy as np
import pytest

from scma_vlc import (
    SystemParams,
    build_factor_graph,
    codeword,
    enumerate_superimposed,
    fixture_names,
    load_fixture,
    mapping_from_graph,
    power,
    scale_codebook_set,
)
from scma_vlc.errors import CapacityError, DimensionError, DomainError
from scma_vlc.model import Codebook, bit_label


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

    @pytest.mark.parametrize("M", [1, 3, 6])
    def test_codebook_size_must_be_power_of_two(self, M):
        with pytest.raises(DomainError):
            SystemParams(J=3, M=M)

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


class TestMapping:
    def test_selects_support_rows(self):
        g = build_factor_graph(4, 3, 2)
        for j in range(1, 4):
            V = mapping_from_graph(g, j).V
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

    def test_capacity_guard(self, ls_j3):
        with pytest.raises(CapacityError):
            enumerate_superimposed(ls_j3, max_points=63)


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
            Codebook(C=C, user_index=1)
