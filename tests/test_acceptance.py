"""Acceptance suite: end-to-end claims with pinned tolerances.

Each test class covers one claim. Two tests document known gaps between the
analytical union bound / published operating points and the measured link
behavior; see the test docstrings for the expected status.
"""

import numpy as np
import pytest

from scma_vlc import (
    DesignConfig,
    SystemParams,
    TrialStream,
    add_idgn,
    design,
    enumerate_superimposed,
    fixture_names,
    load_fixture,
    max_log_mpa,
    op_counts,
    pairwise_report,
    pep_idgn,
    power,
    qfunc,
    red,
    scale_codebook_set,
    simulate_ber,
    stack_codebook_set,
)
from scma_vlc.decoder import loglik_table, max_log_mpa_batch
from scma_vlc.metrics import logsumexp_gradient, logsumexp_objective
from scma_vlc.model import CodebookSet, codebook_set_from_constellations

from conftest import random_codebook_set


def with_params(cb_set, **overrides):
    p = cb_set.params
    fields = dict(J=p.J, K=p.K, M=p.M, N=p.N, sigma2=p.sigma2,
                  varsigma2=p.varsigma2, Pe=p.Pe)
    fields.update(overrides)
    return CodebookSet(params=SystemParams(**fields), graph=cb_set.graph,
                       books=cb_set.books, gains=cb_set.gains)


class TestCriterion1FixtureFidelity:
    def test_all_fixtures_load_positive_and_within_budget(self):
        for name in fixture_names():
            cb = load_fixture(name)
            for book in cb.books:
                assert np.all(book.C >= 0)
                # 4-decimal printed entries can overshoot the budget by
                # rounding alone; allow that much and no more.
                assert power(book) <= 30.0 + 5e-3

    def test_dr_reference_power(self):
        dr = load_fixture("dr-j3")
        p_max = max(power(b) for b in dr.books)
        assert abs(p_max - 29.9283) < 5e-4


class TestCriterion2Degeneracy:
    def test_red_reduces_to_squared_euclidean(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(0, 10, size=4)
            b = rng.uniform(0, 10, size=4)
            assert abs(red(a, b, 0.0) - np.sum((a - b) ** 2)) < 1e-12

    def test_pep_reduces_to_awgn(self):
        rng = np.random.default_rng(1)
        sigma2 = 0.01
        for _ in range(50):
            a = rng.uniform(0, 10, size=4)
            b = rng.uniform(0, 10, size=4)
            awgn = qfunc(np.linalg.norm(a - b) / np.sqrt(2 * sigma2))
            assert abs(pep_idgn(a, b, sigma2, 0.0) - awgn) < 1e-12

    def test_decoder_equals_awgn_specialization_bitwise(self):
        cb = with_params(load_fixture("ls-j3"), varsigma2=0.0)
        c = enumerate_superimposed(cb)
        rng = np.random.default_rng(2)
        Y = c.points[rng.integers(0, 64, size=200)]
        Y = Y + 0.3 * rng.standard_normal(Y.shape)
        full = max_log_mpa_batch(Y, cb)
        awgn = max_log_mpa_batch(Y, cb, force_awgn=True)
        np.testing.assert_array_equal(full[0], awgn[0])
        np.testing.assert_array_equal(full[1], awgn[1])
        np.testing.assert_array_equal(full[2], awgn[2])


class TestCriterion3Gradient:
    @pytest.mark.parametrize("beta", [1.0, 10.0, 30.0])
    def test_analytic_gradient_vs_central_differences(self, beta):
        h = 1e-6
        for seed in range(20):
            cb = random_codebook_set(3, seed=1000 + seed)
            sv = stack_codebook_set(cb)
            g = logsumexp_gradient(sv, beta, 5.0)
            fd = np.empty_like(g)
            for i in range(sv.L.size):
                up, dn = sv.L.copy(), sv.L.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (
                    logsumexp_objective(sv.replace(up), beta, 5.0)
                    - logsumexp_objective(sv.replace(dn), beta, 5.0)
                ) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30)
            assert rel < 1e-5


class TestCriterion4DecoderOracle:
    def test_max_log_matches_joint_map_on_noisy_trials(self):
        cb = scale_codebook_set(load_fixture("ls-j3"), 4.0)
        p = cb.params
        c = enumerate_superimposed(cb)
        rng = TrialStream(seed=123).generator()
        idx = rng.integers(0, 64, size=10_000)
        Y = add_idgn(c.points[idx], p.sigma2, p.varsigma2,
                     TrialStream(seed=123), rng=rng)
        _, _, hard, _, _ = max_log_mpa_batch(Y, cb, include_logdet=True)
        ll, _ = loglik_table(Y, cb)
        order = np.argsort(ll, axis=1)
        best, second = order[:, -1], order[:, -2]
        unique = ll[np.arange(len(Y)), best] - ll[np.arange(len(Y)), second] > 1e-9
        assert unique.sum() > 9000  # ties are rare at this operating point
        expected = c.bit_labels[best[unique]]
        got = hard[unique].reshape(unique.sum(), -1)
        assert np.array_equal(got, expected)


class TestCriterion5NoiseCalibration:
    @pytest.mark.parametrize("s", [0.0, 1.0, 4.0, 9.0])
    def test_empirical_variance(self, s):
        sigma2, vs2 = 0.01, 5.0
        arr = np.full(1_000_000, s)
        y = add_idgn(arr, sigma2, vs2, TrialStream(seed=int(4 * s)))
        target = sigma2 * (1.0 + vs2 * s)
        assert abs(y.var() / target - 1.0) < 0.01


class TestCriterion6OperationCounters:
    def test_instrumented_counters_equal_closed_forms(self):
        cb = load_fixture("ls-j6")
        n_iters = 6
        state = max_log_mpa(np.ones(4), cb, n_iters=n_iters, count_ops=True)
        expected = op_counts(4, 3, 4, n_iters, "max_log")
        assert state.op_counts.exponential == expected.exponential
        assert state.op_counts.multiplication == expected.multiplication
        assert state.op_counts.addition == expected.addition
        assert state.op_counts.comparison == expected.comparison


class TestCriterion7TheorySimulationAgreement:
    @pytest.mark.xfail(
        reason="union bound from the transmitted-variance pairwise error "
        "expression underestimates simulation by ~1 decade; see the test "
        "docstring",
        strict=False,
    )
    def test_union_bound_tracks_simulation_within_half_decade(self):
        """Expected to FAIL: the union bound built from the pairwise error
        expression (transmitted point's variances, argument d/sqrt(2 nu))
        sits a full decade below simulation across the whole window. An
        isolated two-point maximum-likelihood experiment shows the formula
        underestimates the true pairwise error by ~4x at these operating
        points, with the gap growing with SNR, so the half-decade agreement
        target is unattainable for a faithful implementation. The test is
        kept at the stated tolerance rather than widened to match.
        """
        base = load_fixture("ls-j3")
        gaps = []
        for pe in (3.0, 4.0, 5.0, 6.0, 8.0, 10.0):
            cb = scale_codebook_set(base, pe)
            pt = simulate_ber(cb, seed=0, max_frames=1_000_000)
            if 1e-4 <= pt.ber_sim <= 1e-2:
                gaps.append(abs(np.log10(pt.ber_sim) - np.log10(pt.ber_analytical)))
        assert gaps, "no sweep point landed in the BER window"
        assert max(gaps) <= 0.5


TABLE_OPERATING_POINTS = [
    # (J, varsigma2, published power for BER 1e-3)
    (3, 1.0, 3.0),
    (3, 5.0, 5.0),
    pytest.param(
        3, 10.0, 15.0,
        id="3-10.0-15.0",
        marks=pytest.mark.xfail(
            reason="published operating point is ~2-3 power units optimistic: "
            "even the published codebook itself, near-ML decoded, measures "
            "BER 1.4e-3 at the +3 tolerance bound",
            strict=False,
        ),
    ),
    (4, 1.0, 6.5),
]


class TestCriterion8OperatingPoints:
    @pytest.mark.parametrize("J,vs2,pe_table", TABLE_OPERATING_POINTS)
    def test_desk_scale_operating_points(self, J, vs2, pe_table):
        pe = pe_table + 3.0  # published value plus the stated tolerance
        params = SystemParams(J=J, sigma2=0.01, varsigma2=vs2, Pe=pe)
        result = design(params, DesignConfig())
        pt = simulate_ber(result.set, seed=0, max_frames=2_000_000,
                          compute_analytical=False)
        assert pt.ber_sim <= 1e-3

    @pytest.mark.slow
    @pytest.mark.parametrize("J,vs2", [(5, 3.0), (6, 1.0)])
    def test_full_scale_high_load_stays_above_target(self, J, vs2):
        params = SystemParams(J=J, sigma2=0.01, varsigma2=vs2, Pe=50.0)
        result = design(params, DesignConfig())
        pt = simulate_ber(result.set, seed=0, max_frames=500_000,
                          compute_analytical=False)
        assert pt.ber_sim > 1e-3


class TestCriterion9DesignQuality:
    def test_designed_dmin_at_least_095_of_reference(self):
        params = SystemParams(J=3, sigma2=0.01, varsigma2=5.0, Pe=30.0)
        result = design(params, DesignConfig())
        reference = pairwise_report(
            enumerate_superimposed(load_fixture("ls-j3")), 5.0
        ).d_min
        assert result.final_d_min >= 0.95 * reference

    def test_ls_beats_dr_at_high_shot_noise(self):
        points = {}
        for name in ("ls-j3", "dr-j3"):
            cb = with_params(scale_codebook_set(load_fixture(name), 15.0),
                             varsigma2=10.0)
            points[name] = simulate_ber(cb, seed=0, min_bit_errors=400,
                                        max_frames=2_000_000,
                                        compute_analytical=False)
        ls, dr = points["ls-j3"], points["dr-j3"]
        assert ls.ber_sim < dr.ber_sim
        # 95% confidence intervals must not overlap.
        assert ls.ber_sim + ls.ci95_halfwidth < dr.ber_sim - dr.ci95_halfwidth


PE_GRID = (5.0, 10.0, 15.0, 20.0, 30.0)
VS2_GRID = (1.0, 5.0, 10.0)


@pytest.fixture(scope="module")
def grid():
    base = load_fixture("ls-j3")
    out = {}
    for vs2 in VS2_GRID:
        for pe in PE_GRID:
            cb = with_params(scale_codebook_set(base, pe), varsigma2=vs2)
            out[(vs2, pe)] = simulate_ber(cb, seed=0, max_frames=200_000,
                                          compute_analytical=False)
    return out


class TestCriterion10Trends:
    PE_GRID = PE_GRID
    VS2_GRID = VS2_GRID

    def test_ber_non_increasing_in_power(self, grid):
        for vs2 in self.VS2_GRID:
            for lo, hi in zip(self.PE_GRID, self.PE_GRID[1:]):
                a, b = grid[(vs2, lo)], grid[(vs2, hi)]
                slack = a.ci95_halfwidth + b.ci95_halfwidth
                assert b.ber_sim <= a.ber_sim + slack

    def test_ber_non_decreasing_in_shot_noise(self, grid):
        for pe in self.PE_GRID:
            for lo, hi in zip(self.VS2_GRID, self.VS2_GRID[1:]):
                a, b = grid[(lo, pe)], grid[(hi, pe)]
                slack = a.ci95_halfwidth + b.ci95_halfwidth
                assert b.ber_sim >= a.ber_sim - slack
