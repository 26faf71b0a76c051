import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scma_vlc
from scma_vlc import (
    SystemParams,
    TrialStream,
    add_idgn,
    analytical_ber,
    decoder,
    enumerate_superimposed,
    load_fixture,
    pep_idgn,
    qfunc,
    scale_codebook_set,
    simulate_ber,
    simulator,
    sweep,
)
from scma_vlc.decoder import max_log_mpa_batch
from scma_vlc.errors import CapacityError, ConfigError, DimensionError, DomainError
from scma_vlc.model import Codebook, PairStatePlan, codebook_set_from_constellations
from scma_vlc.model import label_table, resource_layout

from conftest import random_codebook_set

# Set bits of each byte value.
_POPCOUNT8 = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)


def _popcount(x):
    """Number of set bits of each nonnegative integer in x, a byte at a time."""
    out = np.zeros(x.shape, dtype=np.int64)
    while x.any():
        out += _POPCOUNT8[x & 0xFF]
        x = x >> 8
    return out


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


# (sigma2, varsigma2) pairs outside the domain: sigma2 finite and > 0,
# varsigma2 finite and >= 0.
BAD_NOISE = [(np.nan, 1.0), (-1.0, 1.0), (0.0, 1.0), (np.inf, 1.0),
             (1.0, -1.0), (1.0, np.nan), (1.0, np.inf)]


def _at(cb_set, varsigma2, pe):
    """cb_set rescaled to power pe, with shot-noise factor varsigma2."""
    scaled = scale_codebook_set(cb_set, pe)
    return replace(scaled, params=replace(scaled.params, varsigma2=varsigma2))


def _near_coincident(name, eps, varsigma2):
    """Fixture `name` at Pe 30 with user 1's symbol-2 column at its symbol-1 column + eps."""
    cb = _at(load_fixture(name), varsigma2, 30.0)
    C = cb.books[0].C.copy()
    C[:, 1] = C[:, 0] + eps
    return replace(cb, books=(Codebook(C=C, user_index=1), *cb.books[1:]))


@pytest.fixture
def contract_values(monkeypatch):
    """The per-node arrays PairStatePlan.contract returns, in call order."""
    seen = []
    contract = PairStatePlan.contract

    def spy(self, factors, weight):
        out = contract(self, factors, weight)
        seen.append(out)
        return out

    monkeypatch.setattr(PairStatePlan, "contract", spy)
    return seen


class TestQfunc:
    def test_reference_values(self):
        assert qfunc(0.0) == 0.5
        assert abs(qfunc(1.6448536269514722) - 0.05) < 1e-12
        np.testing.assert_allclose(qfunc([0.0, 0.0]), [0.5, 0.5])

    def test_symmetry(self):
        assert abs(qfunc(1.3) + qfunc(-1.3) - 1.0) < 1e-15


class TestColdImport:
    def test_package_import_leaves_scipy_special_unloaded(self):
        # Importing the package and its CLI must not load scipy.special (most
        # of the import time); the first Q-function call loads it and gives
        # the same floats as in this process.
        code = (
            "import json, sys\n"
            "import scma_vlc, scma_vlc.cli\n"
            "cold = 'scipy.special' in sys.modules\n"
            "from scma_vlc import analytical_ber, load_fixture, qfunc\n"
            "print(json.dumps({'loaded_by_import': cold,\n"
            "    'q': float(qfunc(1.6448536269514722)).hex(),\n"
            "    'ber': analytical_ber(load_fixture('ls-j3')).hex()}))\n"
        )
        src = str(Path(scma_vlc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        got = json.loads(out.stdout)
        assert got["loaded_by_import"] is False
        assert got["q"] == float(qfunc(1.6448536269514722)).hex()
        assert got["ber"] == analytical_ber(load_fixture("ls-j3")).hex()

    def test_bound_and_simulation_leave_scipy_special_unloaded(self):
        # The union bound no longer calls erfc, so neither it nor a
        # simulation that computes it loads scipy.special.
        code = (
            "import sys\n"
            "from scma_vlc import analytical_ber, load_fixture, simulate_ber\n"
            "analytical_ber(load_fixture('ls-j6'))\n"
            "simulate_ber(load_fixture('ls-j3'), max_frames=100, min_bit_errors=None,\n"
            "             compute_analytical=True)\n"
            "print('scipy.special' in sys.modules)\n"
        )
        src = str(Path(scma_vlc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"


class TestTrialStream:
    def test_deterministic(self):
        a = TrialStream(seed=1, stream_id=2).generator().standard_normal(8)
        b = TrialStream(seed=1, stream_id=2).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        a = TrialStream(seed=1, stream_id=0).generator().standard_normal(8)
        b = TrialStream(seed=1, stream_id=1).generator().standard_normal(8)
        assert np.any(a != b)

    @pytest.mark.parametrize("name", ["seed", "stream_id"])
    @pytest.mark.parametrize("value", [-1, 1.5, True, False, "3", None, np.float64(2.0)])
    def test_rejects_bad_seeds(self, name, value):
        kw = {"seed": 0, name: value}
        with pytest.raises(ConfigError, match=name):
            TrialStream(**kw)

    def test_accepts_numpy_integers(self):
        a = TrialStream(seed=np.int64(1), stream_id=np.uint32(2)).generator().standard_normal(8)
        b = TrialStream(seed=1, stream_id=2).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)


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

    @pytest.mark.parametrize("sigma2, varsigma2", BAD_NOISE)
    def test_rejects_bad_noise_params(self, sigma2, varsigma2):
        with pytest.raises(DomainError):
            add_idgn(np.ones(4), sigma2, varsigma2, TrialStream(seed=0))

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

    @pytest.mark.parametrize("shape", [(7,), (300, 4)])
    @pytest.mark.parametrize("varsigma2", [0.0, 5.0])
    def test_out_matches_allocating_call(self, shape, varsigma2):
        s = np.random.default_rng(2).uniform(0.0, 9.0, size=shape)
        want = add_idgn(s, 0.01, varsigma2, TrialStream(seed=3, stream_id=1))
        # The floats of the formula, from the stream's two draws in order.
        rng = TrialStream(seed=3, stream_id=1).generator()
        z1 = rng.standard_normal(shape) * np.sqrt(varsigma2 * 0.01)
        z0 = rng.standard_normal(shape) * np.sqrt(0.01)
        np.testing.assert_array_equal(want, s + np.sqrt(s) * z1 + z0)
        out = np.full(shape, np.nan)
        got = add_idgn(s, 0.01, varsigma2, TrialStream(seed=3, stream_id=1), out=out)
        assert got is out
        np.testing.assert_array_equal(got, want)
        # A continued generator draws the same way into out.
        rng_a, rng_b = TrialStream(seed=5).generator(), TrialStream(seed=5).generator()
        want = [add_idgn(s, 0.01, varsigma2, None, rng=rng_a) for _ in range(2)]
        got = [add_idgn(s, 0.01, varsigma2, None, rng=rng_b, out=np.empty(shape))
               for _ in range(2)]
        np.testing.assert_array_equal(got, want)

    def test_rejects_bad_out(self):
        s = np.ones((5, 4))
        for out in (np.empty((5, 3)), np.empty(20), s, s[:, :]):
            with pytest.raises(DimensionError):
                add_idgn(s, 0.01, 5.0, TrialStream(seed=0), out=out)


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

    @pytest.mark.parametrize("sigma2, varsigma2", BAD_NOISE)
    def test_rejects_bad_noise_params(self, sigma2, varsigma2):
        with pytest.raises(DomainError):
            pep_idgn(np.array([0.0, 1.0]), np.array([1.0, 0.5]), sigma2, varsigma2)

    @pytest.mark.parametrize("s_i, s_j", [
        (np.ones(4), np.ones(3)), (np.ones(3), np.ones(4)), (np.ones((2, 4)), np.ones(4)),
    ])
    def test_rejects_unequal_lengths(self, s_i, s_j):
        with pytest.raises(DomainError, match="equal length"):
            pep_idgn(s_i, s_j, 0.01, 1.0)


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

    # Other graphs: J=2, and K=5 lexicographic supports with a degree-4 resource.
    @pytest.mark.parametrize("J, K", [(2, 4), (5, 5)])
    def test_matches_chunked_formula_other_graphs(self, J, K):
        cb = random_codebook_set(J, seed=5, K=K)
        want = _chunked_union_bound(cb)
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want

    # One resource (the contraction is a single reduction), and one user per
    # resource (each factor is summed out before the two are multiplied).
    @pytest.mark.parametrize("J, K", [(1, 1), (2, 2)])
    def test_one_row_per_user(self, J, K):
        params = SystemParams(J=J, K=K, N=1, sigma2=0.01, varsigma2=1.0, Pe=30.0)
        books = [np.array([[0.5, 2.0, 4.5, 8.0]]), np.array([[1.0, 3.0, 6.0, 7.5]])]
        cb = codebook_set_from_constellations(params, books[:J])
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

    def test_craig_nodes_match_erfc_per_term(self):
        # Each term Q(sqrt(x)) of the bound, on the node table, against erfc;
        # above x ~ 1e2 the allowance is exp's own conditioning, x * eps.
        c, w = simulator._craig_nodes()
        x = np.logspace(-10, np.log10(1300.0), 500)
        want = qfunc(np.sqrt(x))
        got = np.exp(-np.outer(x, c)) @ w
        assert np.all(np.abs(got - want) <= (1e-13 + 2 * x * 2.2e-16) * want)
        assert np.exp(-0.0 * c) @ w == pytest.approx(0.5, rel=1e-15)

    # Two codewords of user 1 equal or within eps: pairs whose argument is
    # (nearly) zero, where a rule without nodes near theta = 0 is off by up
    # to 1e-6 relative (plain 96-node Gauss-Legendre on [0, pi/2] fails).
    @pytest.mark.parametrize("eps", [0.0, 1e-2, 1e-4, 1e-5])
    @pytest.mark.parametrize("varsigma2", [0.0, 5.0])
    def test_near_coincident_codewords(self, eps, varsigma2):
        cb = _near_coincident("ls-j3", eps, varsigma2)
        want = _chunked_union_bound(cb)
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want

    # ls-j5 runs in several batches of nodes, so the bound can stop after
    # one of them (by the 32-node cap ls-j3 does too; see
    # test_node_cap_lets_small_graphs_stop).
    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    @pytest.mark.parametrize("varsigma2", [0.0, 5.0])
    def test_near_coincident_codewords_multi_batch(self, eps, varsigma2, contract_values):
        cb = _near_coincident("ls-j5", eps, varsigma2)
        want = _chunked_union_bound(cb)
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want
        assert len(contract_values) > 1

    # A one-byte batch budget runs each node as its own batch, so the stop is
    # tested after every node, on graphs whose batches otherwise hold up to
    # 32 nodes.
    @pytest.mark.parametrize("cb", [
        load_fixture("ls-j3"), load_fixture("ls-j4"), random_codebook_set(5, seed=5, K=5),
    ], ids=["ls-j3", "ls-j4", "random-j5-k5"])
    def test_one_node_per_batch(self, cb, monkeypatch, contract_values):
        monkeypatch.setattr(simulator, "_BOUND_BYTES", 1)
        want = _chunked_union_bound(cb)
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want
        assert all(len(v) == 1 for v in contract_values)
        assert len(contract_values) < len(simulator._craig_nodes()[0])

    def test_craig_nodes_ascend(self):
        c, w = simulator._craig_nodes()
        assert len(c) == len(w) == 153
        assert np.all(np.diff(c) > 0)

    # The stop rests on this: along ascending c, no node's value grows. With
    # the stop turned off, every node that is not skipped as all-diagonal runs.
    @pytest.mark.parametrize("cb", [
        load_fixture("ls-j4"), random_codebook_set(5, seed=3, K=5),
    ], ids=["ls-j4", "random-j5-k5"])
    def test_node_values_do_not_grow(self, cb, monkeypatch, contract_values):
        monkeypatch.setattr(simulator, "_BOUND_STOP", -np.inf)
        analytical_ber(cb)
        vals = np.concatenate(contract_values)
        assert len(vals) > 100
        assert np.all(np.diff(vals) <= 0)

    # At J <= 4 the whole node table fits the byte budget; the node cap still
    # splits it, so the bound stops before the last node.
    @pytest.mark.parametrize("name", ["ls-j3", "ls-j4"])
    def test_node_cap_lets_small_graphs_stop(self, name, contract_values):
        cb = _at(load_fixture(name), 5.0, 20.0)
        want = _chunked_union_bound(cb)
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want
        assert len(contract_values) > 1
        assert all(len(v) <= simulator._BOUND_NODES for v in contract_values)
        assert sum(map(len, contract_values)) < len(simulator._craig_nodes()[0])

    def test_high_snr(self):
        # A bound near 1e-196: every term's argument is large, and the
        # contraction must keep the terms that matter above its flush floor.
        cb = _at(load_fixture("ls-j3"), 0.0, 60.0)
        want = _chunked_union_bound(cb)
        assert 1e-197 < want < 1e-194
        assert abs(analytical_ber(cb) - want) <= 1e-12 * want

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

    @pytest.mark.parametrize("min_bit_errors, max_frames", [
        (None, -5), (None, 0), (-1, None), (0, None), (0, 100), (100, 0),
    ])
    def test_rejects_bounds_below_one(self, ls_j3, min_bit_errors, max_frames):
        with pytest.raises(ConfigError):
            simulate_ber(ls_j3, min_bit_errors=min_bit_errors, max_frames=max_frames)

    @pytest.mark.parametrize("min_bit_errors, max_frames", [
        (None, 2.5), (None, True), (2.5, None), (True, None), (100, 10.0), ("5", None),
    ])
    def test_rejects_non_integer_bounds(self, ls_j3, min_bit_errors, max_frames):
        with pytest.raises(ConfigError):
            simulate_ber(ls_j3, min_bit_errors=min_bit_errors, max_frames=max_frames)

    @pytest.mark.parametrize("name, value", [
        ("n_iters", 0), ("n_iters", -1), ("n_iters", 2.5), ("n_iters", True), ("n_iters", None),
        ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "0"),
    ])
    def test_rejects_bad_iters_and_seed(self, ls_j3, monkeypatch, name, value):
        def decode(*args, **kw):
            raise AssertionError("a block ran")

        monkeypatch.setattr(simulator, "max_log_mpa_batch", decode)
        with pytest.raises(ConfigError, match=name):
            simulate_ber(ls_j3, max_frames=10, compute_analytical=False, **{name: value})

    def test_accepts_numpy_integer_iters_and_seed(self, ls_j3):
        a = simulate_ber(ls_j3, max_frames=10, n_iters=np.int64(2), seed=np.int32(4),
                         compute_analytical=False)
        b = simulate_ber(ls_j3, max_frames=10, n_iters=2, seed=4, compute_analytical=False)
        assert a.bit_errors == b.bit_errors

    def test_accepts_numpy_integer_bounds(self, ls_j3):
        pt = simulate_ber(ls_j3, min_bit_errors=None, max_frames=np.int64(10),
                          compute_analytical=False)
        assert pt.bits_sent == 10 * 3 * 2

    def test_reports_fields(self, ls_j3):
        cb = scale_codebook_set(ls_j3, 5.0)
        pt = simulate_ber(cb, min_bit_errors=50, max_frames=100_000)
        assert pt.pe == 5.0
        assert pt.per_user_ber.shape == (3,)
        assert pt.ci95_halfwidth > 0
        assert np.isfinite(pt.ber_analytical)
        # Aggregate BER is the mean of the per-user BERs.
        assert abs(pt.per_user_ber.mean() - pt.ber_sim) < 1e-12


def _fresh_block_ber(cb_set, n_iters=6, min_bit_errors=None, max_frames=None, seed=0):
    """(pe, bits_sent, bit_errors, ber_sim, ci95_halfwidth, per_user_ber) of
    simulate_ber's block loop with fresh arrays per block: the public
    max_log_mpa_batch decodes each block, and its hard bits are compared with
    the labels of the sent symbols."""
    p = cb_set.params
    L, layout = resource_layout(cb_set)
    values = [r.values(L) for r in layout]
    labels = label_table(p.M)
    frames = errors = block_id = 0
    per_user = np.zeros(p.J, dtype=np.int64)
    while not ((max_frames is not None and frames >= max_frames)
               or (min_bit_errors is not None and errors >= min_bit_errors)):
        T = simulator._FRAME_BLOCK
        if max_frames is not None:
            T = min(T, max_frames - frames)
        stream = TrialStream(seed=seed, stream_id=block_id)
        rng = stream.generator()
        syms = rng.integers(0, p.M, size=(T, p.J))
        s = np.empty((T, p.K))
        for k, r in enumerate(layout):
            s[:, k] = values[k][r.combos(syms)]
        y = add_idgn(s, p.sigma2, p.varsigma2, stream, rng=rng)
        bad = max_log_mpa_batch(y, cb_set, n_iters)[2] != labels[syms]
        errors += int(bad.sum())
        per_user += bad.sum(axis=(0, 2))
        frames += T
        block_id += 1
    bits_sent = frames * p.J * p.bits_per_symbol
    ber = errors / bits_sent
    ci = float(1.96 * np.sqrt(max(ber * (1.0 - ber), 0.0) / bits_sent))
    return p.Pe, bits_sent, errors, ber, ci, per_user / (frames * p.bits_per_symbol)


def _fields(point):
    return (point.pe, point.bits_sent, point.bit_errors, point.ber_sim, point.ci95_halfwidth,
            point.per_user_ber)


class TestSimulationWorkspace:
    """simulate_ber's per-run buffers against fresh arrays per block."""

    SETS = {
        "ls-j3": lambda: load_fixture("ls-j3"), "ls-j4": lambda: load_fixture("ls-j4"),
        "ls-j5": lambda: load_fixture("ls-j5"), "ls-j6": lambda: load_fixture("ls-j6"),
        "dr-j3": lambda: load_fixture("dr-j3"),
        "random-j4": lambda: random_codebook_set(4, seed=21),
        "random-j5-k5": lambda: random_codebook_set(5, seed=22, K=5),
    }

    def _assert_same(self, got, want):
        assert _fields(got)[:5] == want[:5]
        np.testing.assert_array_equal(got.per_user_ber, want[5])

    # 2 full blocks and a ragged one; ls-j6's 1024-frame tiles leave a
    # ragged tile in the last block.
    @pytest.mark.parametrize("name", list(SETS))
    def test_ragged_max_frames(self, name):
        cb = scale_codebook_set(self.SETS[name](), 10.0)
        kw = dict(min_bit_errors=None, max_frames=2 * simulator._FRAME_BLOCK + 777, seed=6)
        got = simulate_ber(cb, compute_analytical=False, **kw)
        assert got.bit_errors > 0
        self._assert_same(got, _fresh_block_ber(cb, **kw))

    # Error targets of about three blocks at Pe 8.
    @pytest.mark.parametrize("name, min_bit_errors", [
        ("ls-j3", 50), ("dr-j3", 120), ("ls-j6", 20_000), ("random-j5-k5", 25_000),
    ])
    def test_stops_on_min_bit_errors(self, name, min_bit_errors):
        cb = scale_codebook_set(self.SETS[name](), 8.0)
        kw = dict(min_bit_errors=min_bit_errors, max_frames=None, seed=2, n_iters=4)
        got = simulate_ber(cb, compute_analytical=False, **kw)
        assert got.bits_sent > cb.params.J * cb.params.bits_per_symbol * simulator._FRAME_BLOCK
        self._assert_same(got, _fresh_block_ber(cb, **kw))

    # Tiles of 97 frames, so every block ends on a ragged tile of the reused
    # one-tile messages; the last block is shorter than one tile.
    @pytest.mark.parametrize("name", ["ls-j3", "ls-j6"])
    def test_ragged_tiles(self, name, monkeypatch):
        cb = scale_codebook_set(load_fixture(name), 10.0)
        widest = max(cb.params.M ** d for d in cb.graph.df_per_rn)
        monkeypatch.setattr(decoder, "_TILE_BYTES", 97 * 8 * widest)
        kw = dict(min_bit_errors=None, max_frames=simulator._FRAME_BLOCK + 50, seed=1)
        self._assert_same(simulate_ber(cb, compute_analytical=False, **kw),
                          _fresh_block_ber(cb, **kw))

    def test_one_call_per_block_and_one_workspace_per_run(self, ls_j3, monkeypatch):
        decode, noise, workspace = (simulator.max_log_mpa_batch, simulator.add_idgn,
                                    simulator._Workspace)
        decoded, noised, built = [], [], []

        def decode_spy(y, cb_set, *args, **kwargs):
            decoded.append((len(y), kwargs["tables"]))
            return decode(y, cb_set, *args, **kwargs)

        def noise_spy(s, *args, **kwargs):
            noised.append(len(s))
            return noise(s, *args, **kwargs)

        def workspace_spy(*args, **kwargs):
            built.append(workspace(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(simulator, "max_log_mpa_batch", decode_spy)
        monkeypatch.setattr(simulator, "add_idgn", noise_spy)
        monkeypatch.setattr(simulator, "_Workspace", workspace_spy)
        blocks = [simulator._FRAME_BLOCK] * 2 + [100]
        for run in (1, 2):
            simulate_ber(ls_j3, min_bit_errors=None, max_frames=sum(blocks),
                         compute_analytical=False)
            assert len(built) == run
            assert [n for n, _ in decoded] == noised == blocks
            assert all(tables.work is built[-1] for _, tables in decoded)
            decoded.clear()
            noised.clear()


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
        with pytest.raises(ConfigError):
            sweep([1.0, 2.0], cb_set=ls_j3, max_frames=0, min_bit_errors=None)
        with pytest.raises(ConfigError):
            sweep([1.0, 2.0], mode="redesign", design_params=SystemParams(J=2),
                  min_bit_errors=-1, max_frames=None)

    @pytest.mark.parametrize("min_bit_errors, max_frames", [
        (None, 2.5), (None, True), (2.5, None), (False, 100),
    ])
    def test_rejects_non_integer_bounds(self, ls_j3, min_bit_errors, max_frames):
        with pytest.raises(ConfigError):
            sweep([1.0, 2.0], cb_set=ls_j3, min_bit_errors=min_bit_errors,
                  max_frames=max_frames)

    @pytest.mark.parametrize("name, value", [
        ("n_iters", 0), ("n_iters", 2.5), ("n_iters", True), ("seed", -1), ("seed", 1.5),
        ("seed", False),
    ])
    @pytest.mark.parametrize("mode", ["scale", "redesign"])
    def test_rejects_bad_iters_and_seed(self, ls_j3, monkeypatch, mode, name, value):
        def fail(*args, **kw):
            raise AssertionError("a design or a block ran")

        monkeypatch.setattr(simulator, "design", fail)
        monkeypatch.setattr(simulator, "max_log_mpa_batch", fail)
        with pytest.raises(ConfigError, match=name):
            sweep([1.0, 2.0], cb_set=ls_j3, mode=mode, design_params=SystemParams(J=2),
                  max_frames=10, **{name: value})

    @pytest.mark.parametrize("pe_list", [
        [1.0, 2.0, np.nan], [1.0, 2.0, np.inf], [-np.inf, 1.0], [np.nan], [1.0, 0.0],
    ])
    @pytest.mark.parametrize("mode", ["scale", "redesign"])
    def test_rejects_bad_levels_before_any_run(self, ls_j3, monkeypatch, mode, pe_list):
        def fail(*args, **kw):
            raise AssertionError("a design or a block ran")

        monkeypatch.setattr(simulator, "design", fail)
        monkeypatch.setattr(simulator, "max_log_mpa_batch", fail)
        with pytest.raises(ConfigError, match="power levels"):
            sweep(pe_list, cb_set=ls_j3, mode=mode, design_params=SystemParams(J=2),
                  max_frames=10)

    def test_scale_mode_runs(self, ls_j3):
        pts = sweep([4.0, 6.0], cb_set=ls_j3, min_bit_errors=50, max_frames=50_000)
        assert [p.pe for p in pts] == [4.0, 6.0]
        assert pts[0].ber_sim >= pts[1].ber_sim
