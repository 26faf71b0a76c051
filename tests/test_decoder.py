from dataclasses import replace

import numpy as np
import pytest

from scma_vlc import (
    SystemParams,
    TrialStream,
    add_idgn,
    decoder,
    enumerate_superimposed,
    joint_map_bruteforce,
    load_fixture,
    max_log_mpa,
    mpa_linear,
    op_counts,
    scale_codebook_set,
    simulate_ber,
    simulator,
)
from scma_vlc.decoder import OpCounts, graph_op_counts, loglik_table, max_log_mpa_batch
from scma_vlc.errors import ConfigError, DimensionError, DomainError

from conftest import random_codebook_set


def with_varsigma2(cb_set, varsigma2):
    from scma_vlc.model import CodebookSet

    p = cb_set.params
    params = SystemParams(J=p.J, K=p.K, M=p.M, N=p.N,
                          sigma2=p.sigma2, varsigma2=varsigma2, Pe=p.Pe)
    return CodebookSet(params=params, graph=cb_set.graph,
                       mappings=cb_set.mappings, books=cb_set.books,
                       gains=cb_set.gains)


class TestNoiseFree:
    def test_recovers_every_tuple(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        _, _, hard, _, _ = max_log_mpa_batch(c.points, ls_j3)
        np.testing.assert_array_equal(
            hard.reshape(64, -1), c.bit_labels
        )

    def test_j6_fixture_spot_checks(self):
        cb = load_fixture("ls-j6")
        c = enumerate_superimposed(cb)
        idx = np.arange(0, 4096, 97)
        _, _, hard, _, _ = max_log_mpa_batch(c.points[idx], cb)
        np.testing.assert_array_equal(hard.reshape(len(idx), -1), c.bit_labels[idx])


class TestInterfaces:
    def test_single_vector_state(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        state = max_log_mpa(c.points[5], ls_j3)
        assert state.beliefs.shape == (3, 4)
        assert state.llrs.shape == (3, 2)
        assert state.hard_bits.shape == (3, 2)
        # Message tables keyed by the factor graph edges (1-based).
        edges = {(k + 1, j) for k in range(4) for j in ls_j3.graph.rn_neighbors[k]}
        assert set(state.rn_to_vn) == edges
        assert set(state.vn_to_rn) == edges

    def test_wrong_length(self, ls_j3):
        with pytest.raises(DimensionError):
            max_log_mpa(np.zeros(3), ls_j3)

    def test_bad_iters(self, ls_j3):
        with pytest.raises(DomainError):
            max_log_mpa(np.zeros(4), ls_j3, n_iters=0)

    @pytest.mark.parametrize("n_iters", [2.5, np.float64(3.0), "3", True, False, None])
    @pytest.mark.parametrize("decode", [max_log_mpa_batch, max_log_mpa, mpa_linear])
    def test_rejects_non_integer_iters(self, ls_j3, decode, n_iters):
        with pytest.raises(DomainError, match="n_iters"):
            decode(np.ones(4), ls_j3, n_iters=n_iters)

    @pytest.mark.parametrize("decode", [max_log_mpa, mpa_linear])
    def test_accepts_numpy_integer_iters(self, ls_j3, decode):
        np.testing.assert_array_equal(decode(np.ones(4), ls_j3, n_iters=np.int64(2)).beliefs,
                                      decode(np.ones(4), ls_j3, n_iters=2).beliefs)

    def test_batch_matches_single(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        rng = np.random.default_rng(1)
        Y = c.points[:6] + 0.05 * rng.standard_normal((6, 4))
        beliefs, llrs, hard, _, _ = max_log_mpa_batch(Y, ls_j3)
        for t in range(6):
            state = max_log_mpa(Y[t], ls_j3)
            np.testing.assert_allclose(state.beliefs, beliefs[t])
            np.testing.assert_allclose(state.llrs, llrs[t])
            np.testing.assert_array_equal(state.hard_bits, hard[t])

    def test_llr_sign_convention(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        state = max_log_mpa(c.points[0], ls_j3)  # tuple (1,1,1), all-zero bits
        assert np.all(state.llrs > 0)
        assert np.all(state.hard_bits == 0)


class TestAwgnSpecialization:
    def test_bitwise_equal_at_zero_shot_noise(self, ls_j3):
        cb0 = with_varsigma2(ls_j3, 0.0)
        rng = np.random.default_rng(3)
        c = enumerate_superimposed(cb0)
        Y = c.points[rng.integers(0, 64, size=50)] + 0.2 * rng.standard_normal((50, 4))
        out_idgn = max_log_mpa_batch(Y, cb0)
        out_awgn = max_log_mpa_batch(Y, cb0, force_awgn=True)
        np.testing.assert_array_equal(out_idgn[0], out_awgn[0])  # beliefs
        np.testing.assert_array_equal(out_idgn[1], out_awgn[1])  # llrs
        np.testing.assert_array_equal(out_idgn[2], out_awgn[2])  # bits


class TestOracleAgreement:
    def test_matches_bruteforce_on_noisy_trials(self, ls_j3):
        cb = scale_codebook_set(ls_j3, 8.0)
        p = cb.params
        c = enumerate_superimposed(cb)
        rng = TrialStream(seed=42).generator()
        idx = rng.integers(0, 64, size=500)
        Y = add_idgn(c.points[idx], p.sigma2, p.varsigma2,
                     TrialStream(seed=7), rng=rng)
        _, _, hard, _, _ = max_log_mpa_batch(Y, cb, include_logdet=True)
        ll, _ = loglik_table(Y, cb)
        best = ll.max(axis=1)
        for t in range(len(Y)):
            ties = np.flatnonzero(ll[t] >= best[t] - 1e-9)
            if len(ties) > 1:
                continue
            np.testing.assert_array_equal(
                hard[t].reshape(-1), c.bit_labels[ties[0]]
            )


class TestLinearMpa:
    def test_exact_marginals_on_tree(self, ls_j3):
        # The J=3 graph is a tree, so sum-product beliefs equal the exact
        # posterior marginals from the full likelihood table.
        cb = scale_codebook_set(ls_j3, 10.0)
        rng = np.random.default_rng(5)
        c = enumerate_superimposed(cb)
        Y = c.points[rng.integers(0, 64, size=20)]
        Y = Y + np.sqrt(c.covariances[0].mean()) * rng.standard_normal(Y.shape)
        Y = np.abs(Y)
        ll, const = loglik_table(Y, cb)
        post = np.exp(ll - ll.max(axis=1, keepdims=True))
        post /= post.sum(axis=1, keepdims=True)
        for t in range(len(Y)):
            state = mpa_linear(Y[t], cb)
            for j in range(3):
                exact = np.zeros(4)
                for m in range(4):
                    exact[m] = post[t][const.index_tuples[:, j] == m + 1].sum()
                np.testing.assert_allclose(np.exp(state.beliefs[j]), exact, atol=1e-12)

    def test_zero_iterations_allowed(self, ls_j3):
        state = mpa_linear(np.ones(4), ls_j3, n_iters=0)
        # Without message passing, beliefs stay uniform.
        np.testing.assert_allclose(np.exp(state.beliefs), 0.25)


class TestJointMap:
    def test_noise_free_exact(self, ls_j3):
        c = enumerate_superimposed(ls_j3)
        for i in (0, 13, 40, 63):
            tup, bits = joint_map_bruteforce(c.points[i], ls_j3)
            assert tup == tuple(c.index_tuples[i])
            np.testing.assert_array_equal(bits, c.bit_labels[i])

    def test_tie_breaks_low_index(self):
        # Duplicate codewords make every received vector an exact tie; the
        # lower tuple index must win.
        params = SystemParams(J=1, sigma2=0.01, varsigma2=0.0, Pe=30.0)
        from scma_vlc.model import codebook_set_from_constellations

        cb = codebook_set_from_constellations(
            params, [np.array([[1.0, 1.0, 3.0, 4.0], [2.0, 2.0, 1.0, 0.5]])]
        )
        c = enumerate_superimposed(cb)
        tup, _ = joint_map_bruteforce(c.points[1], cb)  # same point as index 0
        assert tup == tuple(c.index_tuples[0])


class TestOpCounts:
    def test_closed_forms(self):
        # Regular degree-3 graph, M=4, K=4, 6 iterations.
        base = 4**3 * 4 * 3 * 6
        ml = op_counts(4, 3, 4, 6, "max_log")
        assert ml.exponential == 0
        assert ml.comparison == base
        assert ml.multiplication == 4 * base
        assert ml.addition == 10 * base * 3
        mpa = op_counts(4, 3, 4, 6, "mpa")
        assert mpa.exponential == base
        assert mpa.multiplication == 6 * base
        assert mpa.addition == 8 * base
        assert mpa.comparison == 0

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            op_counts(4, 3, 4, 6, "nope")

    @pytest.mark.parametrize("n_iters", [-1, 2.5, True, "3", None])
    def test_rejects_bad_iters(self, n_iters):
        with pytest.raises(ConfigError, match="n_iters"):
            op_counts(4, 2, 4, n_iters, "mpa")
        with pytest.raises(ConfigError, match="n_iters"):
            graph_op_counts(load_fixture("ls-j3"), n_iters, "max_log")

    @pytest.mark.parametrize("name,args", [
        ("M", (0, 2, 4)), ("M", (4.0, 2, 4)), ("M", (True, 2, 4)),
        ("d_f", (4, -1, 4)), ("d_f", (4, 0, 4)), ("d_f", (4, "2", 4)),
        ("K", (4, 2, 0)), ("K", (4, 2, None)), ("K", (4, 2, False)),
    ])
    def test_rejects_bad_sizes(self, name, args):
        with pytest.raises(ConfigError, match=f"^{name} must"):
            op_counts(*args, 3, "max_log")

    def test_accepts_zero_and_numpy_integer_iters(self):
        assert op_counts(4, 2, 4, 0, "mpa") == OpCounts(0, 0, 0, 0)
        assert graph_op_counts(load_fixture("ls-j3"), np.int64(6), "mpa") == \
            graph_op_counts(load_fixture("ls-j3"), 6, "mpa")

    def test_instrumented_decoder_matches(self):
        cb = load_fixture("ls-j6")
        state = max_log_mpa(np.ones(4), cb, n_iters=2, count_ops=True)
        expected = op_counts(4, 3, 4, 2, "max_log")
        assert state.op_counts.comparison == expected.comparison
        assert state.op_counts.multiplication == expected.multiplication
        assert state.op_counts.addition == expected.addition
        assert state.op_counts.exponential == expected.exponential


def _per_edge_counts(cb_set, n_iters):
    """Max-Log RN-update counts tallied edge by edge, as the kernel once did."""
    M = cb_set.params.M
    counts = OpCounts()
    for _ in range(n_iters):
        for users in cb_set.graph.rn_neighbors:
            d = len(users)
            for _ in users:
                counts.comparison += M**d
                counts.multiplication += 4 * M**d
                counts.addition += (3 * d + 1) * M**d * d
    return counts


class TestIrregularOpCounts:
    @pytest.mark.parametrize("name,degrees", [("ls-j3", (2, 2, 1, 1)),
                                              ("ls-j5", (3, 2, 2, 3))])
    def test_counts_sum_over_resource_degrees(self, name, degrees):
        cb = load_fixture(name)
        assert cb.graph.df_per_rn == degrees
        for n_iters in (1, 2, 6):
            state = max_log_mpa(np.ones(4), cb, n_iters=n_iters, count_ops=True)
            assert state.op_counts == _per_edge_counts(cb, n_iters)
        # ls-j3, 2 iterations: two degree-2 and two degree-1 resources.
        if name == "ls-j3":
            state = max_log_mpa(np.ones(4), cb, n_iters=2, count_ops=True)
            assert state.op_counts == OpCounts(exponential=0, multiplication=576,
                                               addition=1856, comparison=144)


class TestEarlyExit:
    def test_same_answer_with_and_without(self, ls_j3):
        # ls-j3 is cycle-free, so the decoder's schedule computes each
        # message once (6 RN and 6 VN updates); the reference floods all 6
        # iterations.
        rng = np.random.default_rng(9)
        c = enumerate_superimposed(ls_j3)
        Y = c.points[rng.integers(0, 64, size=10)] + 0.1 * rng.standard_normal((10, 4))
        a = max_log_mpa_batch(Y, ls_j3)
        b = _gather_max_log(Y, ls_j3, early_exit=False)
        for i in range(3):  # beliefs, llrs, hard bits
            np.testing.assert_array_equal(a[i], b[i])


class TestHeterogeneousDegrees:
    @pytest.mark.parametrize("J", [1, 2, 5])
    def test_noise_free_all_sizes(self, J):
        cb = random_codebook_set(J, seed=J)
        c = enumerate_superimposed(cb)
        idx = np.arange(0, c.points.shape[0], max(1, c.points.shape[0] // 50))
        _, _, hard, _, _ = max_log_mpa_batch(c.points[idx], cb)
        np.testing.assert_array_equal(hard.reshape(len(idx), -1), c.bit_labels[idx])


def _gather_tables(cb_set):
    """Per-RN tables of the per-edge gather decoder: neighbours, combos, sums, variances."""
    from itertools import product

    p = cb_set.params
    neighbors = [[j - 1 for j in ns] for ns in cb_set.graph.rn_neighbors]
    combos, sums, rho2 = [], [], []
    for k in range(p.K):
        js = neighbors[k]
        combo = np.array(list(product(range(p.M), repeat=len(js))), dtype=np.int64)
        combo = combo.reshape(p.M ** len(js), len(js))
        total = np.zeros(len(combo))
        for pos, j in enumerate(js):
            n = cb_set.graph.vn_neighbors[j].index(k + 1)
            total += (cb_set.gains[j][k] * cb_set.books[j].C[n, :])[combo[:, pos]]
        combos.append(combo)
        sums.append(total)
        rho2.append(p.sigma2 + p.varsigma2 * p.sigma2 * total)
    return neighbors, combos, sums, rho2


def _gather_metrics(Y, cb_set, sums, rho2s, include_logdet, force_awgn):
    p = cb_set.params
    metrics = []
    for k in range(p.K):
        rho2 = np.full_like(rho2s[k], p.sigma2) if force_awgn else rho2s[k]
        m = -((Y[:, k, None] - sums[k][None, :]) ** 2) / (2.0 * rho2[None, :])
        if include_logdet:
            m = m - 0.5 * np.log(2.0 * np.pi * rho2)[None, :]
        metrics.append(m)
    return metrics


def _gather_llrs(beliefs, M):
    T, J, _ = beliefs.shape
    b = M.bit_length() - 1
    masks = np.array([[(m >> (b - 1 - i)) & 1 for m in range(M)] for i in range(b)])
    llrs = np.empty((T, J, b))
    for i in range(b):
        zero = masks[i] == 0
        llrs[:, :, i] = beliefs[:, :, zero].max(axis=2) - beliefs[:, :, ~zero].max(axis=2)
    return llrs, (llrs <= 0).astype(np.uint8)


def _gather_max_log(Y, cb_set, n_iters=6, include_logdet=False, early_exit=True,
                    force_awgn=False):
    """Reference Max-Log decoder: (k, j) dicts of (T, M) messages, per-edge gathers."""
    p = cb_set.params
    neighbors, combos, sums, rho2 = _gather_tables(cb_set)
    vn_resources = [[k - 1 for k in ks] for ks in cb_set.graph.vn_neighbors]
    edges = [(k, j) for k in range(p.K) for j in neighbors[k]]
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    T = Y.shape[0]
    metrics = _gather_metrics(Y, cb_set, sums, rho2, include_logdet, force_awgn)
    log_prior = -np.log(p.M)
    vn = {e: np.full((T, p.M), log_prior) for e in edges}
    rn = {e: np.zeros((T, p.M)) for e in edges}
    for _ in range(n_iters):
        delta = 0.0
        for k, j in edges:
            js = neighbors[k]
            pos_j = js.index(j)
            ext = metrics[k].copy()
            for pos, r in enumerate(js):
                if r != j:
                    ext += vn[(k, r)][:, combos[k][:, pos]]
            shaped = ext.reshape(T, *([p.M] * len(js)))
            axes = tuple(a + 1 for a in range(len(js)) if a != pos_j)
            new = shaped.max(axis=axes) if axes else shaped
            delta = max(delta, float(np.abs(new - rn[(k, j)]).max()))
            rn[(k, j)] = new
        for j in range(p.J):
            ks = vn_resources[j]
            for k in ks:
                msg = np.full((T, p.M), log_prior)
                for d in ks:
                    if d != k:
                        msg += rn[(d, j)]
                delta = max(delta, float(np.abs(msg - vn[(k, j)]).max()))
                vn[(k, j)] = msg
        if early_exit and delta < 1e-12:
            break
    beliefs = np.full((T, p.J, p.M), log_prior)
    for j in range(p.J):
        for k in vn_resources[j]:
            beliefs[:, j, :] += rn[(k, j)]
    llrs, hard = _gather_llrs(beliefs, p.M)
    return beliefs, llrs, hard, (rn, vn), None


def _linear_sum_product(y, cb_set, n_iters=6):
    """Reference sum-product decoder in the linear domain; returns (J, M) log beliefs."""
    p = cb_set.params
    neighbors, combos, sums, rho2 = _gather_tables(cb_set)
    vn_resources = [[k - 1 for k in ks] for ks in cb_set.graph.vn_neighbors]
    edges = [(k, j) for k in range(p.K) for j in neighbors[k]]
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    T = Y.shape[0]
    log_metrics = _gather_metrics(Y, cb_set, sums, rho2, True, False)
    phis = [np.exp(m - m.max(axis=1, keepdims=True)) for m in log_metrics]
    vn = {e: np.full((T, p.M), 1.0 / p.M) for e in edges}
    rn = {e: np.full((T, p.M), 1.0 / p.M) for e in edges}
    for _ in range(n_iters):
        for k, j in edges:
            js = neighbors[k]
            pos_j = js.index(j)
            term = phis[k].copy()
            for pos, r in enumerate(js):
                if r != j:
                    term *= vn[(k, r)][:, combos[k][:, pos]]
            shaped = term.reshape(T, *([p.M] * len(js)))
            axes = tuple(a + 1 for a in range(len(js)) if a != pos_j)
            new = shaped.sum(axis=axes) if axes else shaped
            rn[(k, j)] = new / new.sum(axis=1, keepdims=True)
        for j in range(p.J):
            ks = vn_resources[j]
            for k in ks:
                msg = np.full((T, p.M), 1.0 / p.M)
                for d in ks:
                    if d != k:
                        msg *= rn[(d, j)]
                vn[(k, j)] = msg / msg.sum(axis=1, keepdims=True)
    marg = np.full((T, p.J, p.M), 1.0 / p.M)
    for j in range(p.J):
        for k in vn_resources[j]:
            marg[:, j, :] *= rn[(k, j)]
    with np.errstate(divide="ignore"):
        return np.log(marg / marg.sum(axis=2, keepdims=True))[0]


def _golden_set(name):
    if name.startswith("random-j"):
        J = int(name[len("random-j"):])
        return random_codebook_set(J, seed=J)
    return load_fixture(name)


def _noisy_vectors(cb_set, T, seed):
    c = enumerate_superimposed(cb_set)
    rng = np.random.default_rng(seed)
    Y = c.points[rng.integers(0, len(c.points), size=T)]
    return Y + 0.3 * rng.standard_normal(Y.shape)


class TestGoldenMaxLog:
    @pytest.mark.parametrize("name", ["ls-j3", "ls-j4", "ls-j5", "ls-j6",
                                      "random-j1", "random-j2", "random-j5"])
    def test_bitwise_equal_gather_decoder(self, name):
        cb = _golden_set(name)
        c = enumerate_superimposed(cb)
        Y = np.vstack([_noisy_vectors(cb, 300, seed=11), c.points[:20]])
        for include_logdet in (False, True):
            for force_awgn in (False, True):
                kw = dict(include_logdet=include_logdet, force_awgn=force_awgn)
                got = max_log_mpa_batch(Y, cb, **kw)
                # One decoder matches the reference with its measured fixpoint
                # exit and with all iterations run.
                for early_exit in (False, True):
                    ref = _gather_max_log(Y, cb, early_exit=early_exit, **kw)
                    for i in range(3):  # beliefs, llrs, hard bits
                        np.testing.assert_array_equal(got[i], ref[i])
                    for got_msgs, ref_msgs in zip(got[3], ref[3]):
                        assert set(got_msgs) == set(ref_msgs)
                        for e in ref_msgs:
                            np.testing.assert_array_equal(got_msgs[e], ref_msgs[e])

    @pytest.mark.parametrize("name,pe,frames", [("ls-j3", 8.0, 20_000), ("ls-j6", 20.0, 6_000)])
    def test_simulate_ber_identical(self, name, pe, frames, monkeypatch):
        cb = scale_codebook_set(load_fixture(name), pe)
        kw = dict(min_bit_errors=None, max_frames=frames, seed=4, compute_analytical=False)
        got = simulate_ber(cb, **kw)
        monkeypatch.setattr(simulator, "max_log_mpa_batch",
                            lambda y, cb_set, n_iters, include_logdet, tables:
                            _gather_max_log(y, cb_set, n_iters, include_logdet))
        ref = simulate_ber(cb, **kw)
        assert got.bit_errors > 0
        assert (got.pe, got.bits_sent, got.bit_errors, got.ber_sim, got.ci95_halfwidth) == (
            ref.pe, ref.bits_sent, ref.bit_errors, ref.ber_sim, ref.ci95_halfwidth)
        np.testing.assert_array_equal(got.per_user_ber, ref.per_user_ber)


class TestFrameTiles:
    @pytest.mark.parametrize("name", ["ls-j3", "ls-j5", "ls-j6", "random-j5"])
    def test_ragged_tiles_bitwise_equal_gather_decoder(self, name, monkeypatch):
        cb = _golden_set(name)
        widest = max(cb.params.M ** d for d in cb.graph.df_per_rn)
        # 300 frames in tiles of 97, the last one of 9.
        monkeypatch.setattr(decoder, "_TILE_BYTES", 97 * 8 * widest)
        Y = _noisy_vectors(cb, 300, seed=13)
        for include_logdet in (False, True):
            for force_awgn in (False, True):
                kw = dict(include_logdet=include_logdet, force_awgn=force_awgn)
                got = max_log_mpa_batch(Y, cb, **kw)
                ref = _gather_max_log(Y, cb, early_exit=False, **kw)
                for i in range(3):  # beliefs, llrs, hard bits
                    np.testing.assert_array_equal(got[i], ref[i])
                for got_msgs, ref_msgs in zip(got[3], ref[3]):
                    assert set(got_msgs) == set(ref_msgs)
                    for e in ref_msgs:
                        np.testing.assert_array_equal(got_msgs[e], ref_msgs[e])


class TestWorkspace:
    def test_successive_calls_share_no_memory(self, ls_j3):
        Y = _noisy_vectors(ls_j3, 50, seed=2)
        for kw in ({}, {"tables": decoder._build_tables(ls_j3)}):
            a, b = max_log_mpa_batch(Y, ls_j3, **kw), max_log_mpa_batch(Y, ls_j3, **kw)
            for x, y in zip(a[:3], b[:3]):  # beliefs, llrs, hard bits
                assert not np.shares_memory(x, y)
            for msgs_a, msgs_b in zip(a[3], b[3]):
                for e in msgs_a:
                    assert not np.shares_memory(msgs_a[e], msgs_b[e])
                    assert not np.shares_memory(msgs_a[e], Y)

    # A simulation's workspace (tables.work) for 300 frames with tiles of 97:
    # the hard bits of ragged blocks are those of the public call.
    @pytest.mark.parametrize("name", ["ls-j3", "ls-j5", "ls-j6", "random-j1", "random-j5"])
    def test_workspace_hard_bits(self, name, monkeypatch):
        cb = _golden_set(name)
        widest = max(cb.params.M ** d for d in cb.graph.df_per_rn)
        monkeypatch.setattr(decoder, "_TILE_BYTES", 97 * 8 * widest)
        tables = decoder._build_tables(cb)
        tables.work = decoder._Workspace(tables, 300, keep=False)
        Y = _noisy_vectors(cb, 300, seed=19)
        for T in (300, 200, 5):
            for n_iters in (1, 6):
                got = max_log_mpa_batch(Y[-T:], cb, n_iters, tables=tables)
                want = max_log_mpa_batch(Y[-T:], cb, n_iters)
                assert got[0] is got[1] is got[3] is got[4] is None
                assert np.shares_memory(got[2], tables.work.hard)
                np.testing.assert_array_equal(got[2], want[2])


_CYCLE_FREE = ["ls-j3", "dr-j3", "random-j1", "random-j2"]


def _uncapped(monkeypatch):
    """Make the decoders run every requested iteration, as on a graph with a cycle."""
    build = decoder._build_tables
    monkeypatch.setattr(decoder, "_build_tables",
                        lambda cb_set: replace(build(cb_set), settle=None))


class TestSettleCount:
    @pytest.mark.parametrize("name,settle", [
        ("ls-j3", 3), ("dr-j3", 3), ("random-j1", 1), ("random-j2", 1),
        ("ls-j4", None), ("ls-j5", None), ("ls-j6", None),
    ])
    def test_count_from_graph(self, name, settle):
        assert decoder._build_tables(_golden_set(name)).settle == settle

    @pytest.mark.parametrize("name", _CYCLE_FREE)
    def test_max_log_final_at_settle(self, name, monkeypatch):
        cb = _golden_set(name)
        settle = decoder._build_tables(cb).settle
        Y = _noisy_vectors(cb, 200, seed=5)
        for include_logdet in (False, True):
            for force_awgn in (False, True):
                kw = dict(include_logdet=include_logdet, force_awgn=force_awgn)
                got = max_log_mpa_batch(Y, cb, n_iters=settle, **kw)
                with monkeypatch.context() as m:
                    _uncapped(m)
                    ref = max_log_mpa_batch(Y, cb, n_iters=50, **kw)
                for i in range(3):  # beliefs, llrs, hard bits
                    np.testing.assert_array_equal(got[i], ref[i])
                for got_msgs, ref_msgs in zip(got[3], ref[3]):
                    for e in ref_msgs:
                        np.testing.assert_array_equal(got_msgs[e], ref_msgs[e])

    @pytest.mark.parametrize("name", _CYCLE_FREE)
    def test_sum_product_final_at_settle(self, name, monkeypatch):
        cb = _golden_set(name)
        settle = decoder._build_tables(cb).settle
        for y in _noisy_vectors(cb, 5, seed=6):
            got = mpa_linear(y, cb, n_iters=settle)
            with monkeypatch.context() as m:
                _uncapped(m)
                ref = mpa_linear(y, cb, n_iters=50)
            np.testing.assert_array_equal(got.beliefs, ref.beliefs)
            np.testing.assert_array_equal(got.llrs, ref.llrs)
            for got_msgs, ref_msgs in ((got.rn_to_vn, ref.rn_to_vn),
                                       (got.vn_to_rn, ref.vn_to_rn)):
                for e in ref_msgs:
                    np.testing.assert_array_equal(got_msgs[e], ref_msgs[e])


class TestSchedule:
    # Values before settle are messages the schedule must still get right:
    # at 1 and 2 iterations not every message of ls-j3 is final.
    @pytest.mark.parametrize("name", _CYCLE_FREE)
    def test_bitwise_equal_flooding_at_any_iteration_count(self, name, monkeypatch):
        cb = _golden_set(name)
        settle = decoder._build_tables(cb).settle
        Y = _noisy_vectors(cb, 200, seed=17)
        for n_iters in sorted({1, 2, settle, settle + 2}):
            got = max_log_mpa_batch(Y, cb, n_iters=n_iters)
            ref = _gather_max_log(Y, cb, n_iters, early_exit=False)
            for i in range(3):  # beliefs, llrs, hard bits
                np.testing.assert_array_equal(got[i], ref[i])
            for got_msgs, ref_msgs in zip(got[3], ref[3]):
                assert set(got_msgs) == set(ref_msgs)
                for e in ref_msgs:
                    np.testing.assert_array_equal(got_msgs[e], ref_msgs[e])
            got = mpa_linear(Y[0], cb, n_iters=n_iters)
            with monkeypatch.context() as m:
                _uncapped(m)
                ref = mpa_linear(Y[0], cb, n_iters=n_iters)
            np.testing.assert_array_equal(got.beliefs, ref.beliefs)
            for got_msgs, ref_msgs in ((got.rn_to_vn, ref.rn_to_vn),
                                       (got.vn_to_rn, ref.vn_to_rn)):
                for e in ref_msgs:
                    np.testing.assert_array_equal(got_msgs[e], ref_msgs[e])

    # Flooding makes d (d - 1) / 2 continuation and d - 1 prefix reduces per
    # resource of degree d and iteration: 6 x 4 on ls-j3, 6 x 20 on ls-j6.
    @pytest.mark.parametrize("name,uncapped,per_message,calls", [
        ("ls-j3", False, 1, 4), ("ls-j3", True, 6, 24), ("ls-j6", False, 6, 120),
    ])
    def test_reduce_count(self, name, uncapped, per_message, calls):
        cb = load_fixture(name)
        tables = decoder._build_tables(cb)
        if uncapped:
            tables = replace(tables, settle=None)
        outs = []

        def counting_max(x, axis, out):
            outs.append(out)
            return np.max(x, axis, out=out)

        _, rn, _ = decoder._pass_messages(_noisy_vectors(cb, 50, seed=3), tables, 6,
                                          counting_max)
        # A degree-1 resource's message is its metric, copied without a reduce.
        degrees = [cb.graph.df_per_rn[k] for k, _ in tables.edges]
        writes = [sum(np.shares_memory(out, rn[e]) for out in outs) for e in range(len(degrees))]
        assert writes == [per_message if d > 1 else 0 for d in degrees]
        assert len(outs) == calls

    def test_built_once_per_tables_and_iters(self, ls_j3):
        tables = decoder._build_tables(ls_j3)
        steps = decoder._schedule(tables, 6)
        assert decoder._schedule(tables, 6) is steps
        assert decoder._schedule(tables, 2) is not steps
        assert decoder._schedule(replace(tables, settle=None), 6) != steps


class TestLogDomainSumProduct:
    @pytest.mark.parametrize("name", ["ls-j3", "ls-j4", "ls-j5", "ls-j6"])
    def test_matches_linear_domain_reference(self, name):
        cb = scale_codebook_set(load_fixture(name), 8.0)
        p = cb.params
        c = enumerate_superimposed(cb)
        rng = np.random.default_rng(21)
        Y = add_idgn(c.points[rng.integers(0, len(c.points), size=25)],
                     p.sigma2, p.varsigma2, TrialStream(seed=2), rng=rng)
        for n_iters in (1, 6, 20):
            for y in Y:
                got = mpa_linear(y, cb, n_iters=n_iters)
                ref = _linear_sum_product(y, cb, n_iters=n_iters)
                np.testing.assert_allclose(np.exp(got.beliefs), np.exp(ref),
                                           rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", ["ls-j3", "ls-j6"])
    def test_far_received_vector_keeps_finite_normalized_beliefs(self, name):
        # Every combination is thousands of noise deviations away, so
        # linear-domain messages would underflow to all-zero.
        cb = load_fixture(name)
        for y in ([1e3] * 4, [-1e3, 1e3, -1e3, 1e3], [1e4, 0.0, 0.0, -1e4]):
            beliefs = mpa_linear(np.array(y), cb).beliefs
            assert np.all(np.isfinite(beliefs))
            peak = beliefs.max(axis=1)
            lse = peak + np.log(np.exp(beliefs - peak[:, None]).sum(axis=1))
            np.testing.assert_allclose(lse, 0.0, atol=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_rejects(self, ls_j3, bad):
        y = np.array([1.0, bad, 0.5, 2.0])
        with pytest.raises(DomainError):
            max_log_mpa_batch(np.vstack([np.ones(4), y]), ls_j3)
        with pytest.raises(DomainError):
            max_log_mpa(y, ls_j3)
        with pytest.raises(DomainError):
            mpa_linear(y, ls_j3)
        with pytest.raises(DomainError):
            joint_map_bruteforce(y, ls_j3)


class TestHugeInput:
    def test_every_entry_point_rejects(self, ls_j3):
        # Finite, but (y - s)^2 overflows: the metrics would all be -inf and
        # the LLRs NaN.
        y = np.array([1e200, 1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            max_log_mpa(y, ls_j3)
        with pytest.raises(DomainError):
            max_log_mpa_batch(np.vstack([np.ones(4), y]), ls_j3)
        with pytest.raises(DomainError):
            mpa_linear(y, ls_j3)
        with pytest.raises(DomainError):
            joint_map_bruteforce(y, ls_j3)

    def test_largest_accepted_value_keeps_llrs_finite(self):
        cb = load_fixture("ls-j6")
        y = np.sqrt(2.0 * cb.params.sigma2 * 1e150) * np.array([1.0, -1.0, 1.0, 0.0])
        state = max_log_mpa(y, cb, n_iters=200)
        assert np.all(np.isfinite(state.llrs))
        with pytest.raises(DomainError):
            max_log_mpa(1.001 * y, cb)


class TestLinearMpaShape:
    def test_batch_is_rejected(self, ls_j3):
        points = enumerate_superimposed(ls_j3).points
        with pytest.raises(DimensionError):
            mpa_linear(points[[5, 40, 63]], ls_j3)
        with pytest.raises(DimensionError):
            mpa_linear(points[[5]], ls_j3)
