from dataclasses import replace

import numpy as np
import pytest

from scma_vlc import (
    SystemParams,
    TrialStream,
    add_idgn,
    analytical_ber,
    enumerate_superimposed,
    load_fixture,
    pep_idgn,
    qfunc,
    scale_codebook_set,
    simulate_ber,
    simulator,
    sweep,
)
from scma_vlc.errors import CapacityError, ConfigError, DomainError
from scma_vlc.model import codebook_set_from_constellations
from scma_vlc.simulator import _popcount

from conftest import random_codebook_set


def _chunked_union_bound(cb_set):
    """The union bound over 128-row chunks of explicit point differences and
    bit-label Hamming distances: the formula analytical_ber replaced."""
    p = cb_set.params
    constellation = enumerate_superimposed(cb_set)
    s = constellation.points
    bits = constellation.bit_labels.astype(np.int64)
    nu = constellation.covariances
    P = len(s)
    total = 0.0
    for lo in range(0, P, 128):
        hi = min(lo + 128, P)
        diff = s[lo:hi, None, :] - s[None, :, :]
        args = np.sqrt(np.sum(diff * diff / (2.0 * nu[lo:hi, None, :]), axis=2))
        pep = qfunc(args)
        hd = np.sum(bits[lo:hi, None, :] != bits[None, :, :], axis=2)
        block = pep * hd
        idx = np.arange(lo, hi)
        block[idx - lo, idx] = 0.0  # exclude i' == i
        total += float(block.sum())
    n_bits = p.J * p.bits_per_symbol
    return total / (n_bits * P)


def _at(cb_set, varsigma2, pe):
    """cb_set rescaled to power pe, with shot-noise factor varsigma2."""
    scaled = scale_codebook_set(cb_set, pe)
    return replace(scaled, params=replace(scaled.params, varsigma2=varsigma2))


class TestQfunc:
    def test_reference_values(self):
        assert qfunc(0.0) == 0.5
        assert abs(qfunc(1.6448536269514722) - 0.05) < 1e-12
        np.testing.assert_allclose(qfunc([0.0, 0.0]), [0.5, 0.5])

    def test_symmetry(self):
        assert abs(qfunc(1.3) + qfunc(-1.3) - 1.0) < 1e-15


class TestTrialStream:
    def test_deterministic(self):
        a = TrialStream(seed=1, stream_id=2).generator().standard_normal(8)
        b = TrialStream(seed=1, stream_id=2).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        a = TrialStream(seed=1, stream_id=0).generator().standard_normal(8)
        b = TrialStream(seed=1, stream_id=1).generator().standard_normal(8)
        assert np.any(a != b)


class TestAddIdgn:
    def test_rejects_negative_intensity(self):
        with pytest.raises(DomainError):
            add_idgn(np.array([-1.0]), 0.01, 5.0, TrialStream(seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("varsigma2", [0.0, 1.0])
    def test_rejects_non_finite_intensity(self, bad, varsigma2):
        with pytest.raises(DomainError):
            add_idgn(np.array([bad, 1.0]), 0.01, varsigma2, TrialStream(seed=0))
        with pytest.raises(DomainError):
            add_idgn(np.array([[1.0, 2.0], [3.0, bad]]), 0.01, varsigma2,
                     TrialStream(seed=0))

    def test_mean_and_variance(self):
        # Empirical variance must track sigma2 * (1 + varsigma2 * s).
        sigma2, vs2 = 0.01, 5.0
        for s in (0.0, 1.0, 4.0, 9.0):
            arr = np.full(200_000, s)
            y = add_idgn(arr, sigma2, vs2, TrialStream(seed=int(s)))
            target = sigma2 * (1.0 + vs2 * s)
            assert abs(y.mean() - s) < 4 * np.sqrt(target / len(arr))
            assert abs(y.var() / target - 1.0) < 0.02

    def test_deterministic_per_stream(self):
        s = np.ones(16)
        a = add_idgn(s, 0.01, 5.0, TrialStream(seed=3))
        b = add_idgn(s, 0.01, 5.0, TrialStream(seed=3))
        np.testing.assert_array_equal(a, b)


class TestPep:
    def test_awgn_reduction(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.uniform(0, 5, size=4)
            b = rng.uniform(0, 5, size=4)
            expected = qfunc(np.linalg.norm(a - b) / np.sqrt(2 * 0.01))
            assert abs(pep_idgn(a, b, 0.01, 0.0) - expected) < 1e-12

    def test_asymmetric_in_transmitted_point(self):
        a = np.array([5.0, 0.1, 0.1, 0.1])
        b = np.array([0.1, 5.0, 0.1, 0.1])
        # The brighter transmitted pattern sees more shot noise on its own
        # coordinates; with symmetric points the values coincide.
        assert pep_idgn(a, b, 0.01, 5.0) == pep_idgn(b, a, 0.01, 5.0)
        c = np.array([0.1, 0.1, 0.1, 0.1])
        assert pep_idgn(a, c, 0.01, 5.0) != pep_idgn(c, a, 0.01, 5.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            pep_idgn(np.array([-1.0]), np.array([0.0]), 0.01, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            pep_idgn(np.array([bad, 1.0]), np.array([0.0, 1.0]), 0.01, 1.0)
        with pytest.raises(DomainError):
            pep_idgn(np.array([0.0, 1.0]), np.array([1.0, bad]), 0.01, 1.0)


class TestAnalyticalBer:
    def test_single_user_hand_sum(self):
        # J=1: the union bound is sum_{i,i'} h_d * PEP / (b * M).
        params = SystemParams(J=1, sigma2=0.01, varsigma2=2.0, Pe=30.0)
        cb = codebook_set_from_constellations(
            params, [np.array([[0.5, 1.0, 2.0, 4.0], [4.0, 2.0, 1.0, 0.5]])]
        )
        c = enumerate_superimposed(cb)
        total = 0.0
        for i in range(4):
            for k in range(4):
                if i == k:
                    continue
                hd = int(np.sum(c.bit_labels[i] != c.bit_labels[k]))
                total += hd * pep_idgn(c.points[i], c.points[k], 0.01, 2.0)
        assert abs(analytical_ber(cb) - total / (2 * 4)) < 1e-15

    def test_capacity_guard(self):
        # 4^7 = 16384 points, above the 4096-point limit.
        with pytest.raises(CapacityError):
            analytical_ber(random_codebook_set(7, seed=0, K=5))

    def test_decreases_with_power(self, ls_j3):
        vals = [analytical_ber(scale_codebook_set(ls_j3, pe)) for pe in (5.0, 10.0, 20.0)]
        assert vals[0] > vals[1] > vals[2]


class TestStructuralBound:
    """analytical_ber against the chunked pairwise formula it replaced."""

    @pytest.mark.parametrize("name", ["dr-j3", "ls-j3", "ls-j4", "ls-j5"])
    @pytest.mark.parametrize("varsigma2", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("pe", [3.0, 20.0, 30.0])
    def test_matches_chunked_formula(self, name, varsigma2, pe):
        cb = _at(load_fixture(name), varsigma2, pe)
        want = _chunked_union_bound(cb)
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want

    # The chunked formula takes seconds at P=4096, so ls-j6 runs one power
    # level per shot-noise factor, covering each value of both.
    @pytest.mark.parametrize("varsigma2, pe", [(0.0, 3.0), (1.0, 20.0), (5.0, 30.0)])
    def test_matches_chunked_formula_j6(self, varsigma2, pe):
        cb = _at(load_fixture("ls-j6"), varsigma2, pe)
        want = _chunked_union_bound(cb)
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want

    def test_non_unit_gains(self):
        cb = load_fixture("ls-j4")
        gains = tuple(np.array([0.5, 1.0, 2.0, 1.0]) for _ in range(cb.params.J))
        cb = replace(cb, gains=gains)
        want = _chunked_union_bound(cb)
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want
        # The gains reach the bound: without them it is lower.
        assert analytical_ber(load_fixture("ls-j4")) < 0.9 * want

    def test_hamming_distance_is_popcount_of_index_xor(self):
        labels = enumerate_superimposed(load_fixture("ls-j4")).bit_labels
        P = len(labels)
        hd = np.sum(labels[:, None, :] != labels[None, :, :], axis=2)
        i = np.arange(P)
        np.testing.assert_array_equal(hd, _popcount(i[:, None] ^ i[None, :]))


class TestSimulateBer:
    def test_noise_free_error_free(self, ls_j3, monkeypatch):
        monkeypatch.setattr(simulator, "add_idgn", lambda s, *args, **kwargs: s)
        pt = simulate_ber(ls_j3, max_frames=2000, min_bit_errors=None,
                          compute_analytical=False)
        assert pt.bit_errors == 0
        assert pt.ber_sim == 0.0
        assert pt.bits_sent == 2000 * 3 * 2

    def test_deterministic(self, ls_j3):
        cb = scale_codebook_set(ls_j3, 6.0)
        a = simulate_ber(cb, seed=3, max_frames=20_000, compute_analytical=False)
        b = simulate_ber(cb, seed=3, max_frames=20_000, compute_analytical=False)
        assert a.ber_sim == b.ber_sim
        assert a.bit_errors == b.bit_errors

    def test_seed_matters(self, ls_j3):
        cb = scale_codebook_set(ls_j3, 6.0)
        a = simulate_ber(cb, seed=0, max_frames=20_000, compute_analytical=False)
        b = simulate_ber(cb, seed=1, max_frames=20_000, compute_analytical=False)
        assert a.bit_errors != b.bit_errors

    def test_stops_at_error_target(self, ls_j3):
        cb = scale_codebook_set(ls_j3, 5.0)
        pt = simulate_ber(cb, min_bit_errors=50, max_frames=None,
                          compute_analytical=False)
        assert pt.bit_errors >= 50

    def test_needs_some_stop(self, ls_j3):
        with pytest.raises(ConfigError):
            simulate_ber(ls_j3, min_bit_errors=None, max_frames=None)

    def test_reports_fields(self, ls_j3):
        cb = scale_codebook_set(ls_j3, 5.0)
        pt = simulate_ber(cb, min_bit_errors=50, max_frames=100_000)
        assert pt.pe == 5.0
        assert pt.per_user_ber.shape == (3,)
        assert pt.ci95_halfwidth > 0
        assert np.isfinite(pt.ber_analytical)
        # Aggregate BER is the mean of the per-user BERs.
        assert abs(pt.per_user_ber.mean() - pt.ber_sim) < 1e-12


class TestSweep:
    def test_validation(self, ls_j3):
        with pytest.raises(ConfigError):
            sweep([], cb_set=ls_j3)
        with pytest.raises(ConfigError):
            sweep([2.0, 1.0], cb_set=ls_j3)
        with pytest.raises(ConfigError):
            sweep([-1.0, 2.0], cb_set=ls_j3)
        with pytest.raises(ConfigError):
            sweep([1.0, 2.0], cb_set=ls_j3, mode="nope")
        with pytest.raises(ConfigError):
            sweep([1.0, 2.0], mode="scale")
        with pytest.raises(ConfigError):
            sweep([1.0, 2.0], mode="redesign")

    def test_scale_mode_runs(self, ls_j3):
        pts = sweep([4.0, 6.0], cb_set=ls_j3, min_bit_errors=50, max_frames=50_000)
        assert [p.pe for p in pts] == [4.0, 6.0]
        assert pts[0].ber_sim >= pts[1].ber_sim
