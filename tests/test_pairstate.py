import numpy as np
import pytest

from scma_vlc import load_fixture
from scma_vlc.model import resource_layout
from scma_vlc.pairstate import pair_state_plan

from conftest import random_codebook_set


class TestPairStatePlan:
    """The pair-state contraction against an explicit sum over all P^2 ordered pairs."""

    @pytest.mark.parametrize("cb", [
        load_fixture("ls-j3"), load_fixture("ls-j4"), random_codebook_set(5, seed=3, K=5),
    ], ids=["ls-j3", "ls-j4", "random-j5-k5"])
    def test_matches_brute_force_pair_sum(self, cb):
        p = cb.params
        users = tuple(r.users for r in resource_layout(cb)[1])
        S, n = p.M * p.M, 2
        rng = np.random.default_rng(11)
        factors = [rng.uniform(0.05, 1.0, size=(n,) + (S,) * len(us)) for us in users]
        weight = rng.uniform(0.1, 2.0, size=S)
        got = pair_state_plan(users, S).contract(factors, weight)

        idx = np.arange(p.M**p.J)
        digits = [(idx // p.M ** (p.J - 1 - u)) % p.M for u in range(p.J)]
        # Pair-state of user u for the ordered pair (i, j): x_u(i) * M + x_u(j).
        states = [d[:, None] * p.M + d[None, :] for d in digits]
        prod = np.ones((n,) + states[0].shape)
        for f, us in zip(factors, users):
            flat = np.zeros(states[0].shape, dtype=np.int64)
            for u in us:
                flat = flat * S + states[u]
            prod *= f.reshape(n, -1)[:, flat]
        want = np.sum(prod * sum(weight[s] for s in states), axis=(1, 2))
        np.testing.assert_allclose(got, want, rtol=1e-13)
