"""The union bound's pair-state contraction: sum-product over per-user pair-states.

An ordered pair of superimposed points is a tuple of per-user pair-states
(x_u, x'_u), one S = M^2 digit per user. pair_states lays a resource's
(Q, Q) table over ordered pairs of its combinations out on those digits,
and pair_state_plan plans, once per graph structure, the pairwise order in
which PairStatePlan.contract sums a product of such factors over all
pair-states: sum-product on the factor graph (Kschischang, Frey and
Loeliger, IEEE T-IT 2001).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def pair_states(table: np.ndarray, M: int, d: int) -> np.ndarray:
    """A (Q, Q) table over ordered pairs of combinations, flattened over pair-states.

    The Q = M^d combinations of d users are read in mixed radix, first user
    most significant. Entry s of the (M^2)^d result, read in mixed radix
    with one M^2 digit per user, takes table[a, b] where user u's digit is
    x_u * M + x'_u, x_u its symbol in a and x'_u its symbol in b.
    """
    axes = [ax for u in range(d) for ax in (u, d + u)]
    return table.reshape((M,) * (2 * d)).transpose(axes).reshape(-1)


# Entries of a pair-state contraction below this are flushed to zero, so that
# every product BLAS forms is a normal float: on a 2-vCPU Xeon with
# OpenBLAS, a matmul whose products underflow into subnormals ran 17-22
# times slower.
PAIR_STATE_FLOOR = 2.0**-511


@dataclass(frozen=True)
class PairStatePlan:
    """Pairwise contraction order over per-user pair-states, fixed per structure.

    users[k] lists the (0-based) users of factor k. A factor has a leading
    node axis and one axis of S pair-states per user, in the order of
    users[k]. path is np.einsum_path's pairwise order; death[u] is the step
    that sums user u out (len(path) for the final sum). node_bytes
    estimates the memory one node takes in contract: the factors, and per
    step its result and the copies of its operands.
    """

    users: tuple[tuple[int, ...], ...]
    S: int
    path: tuple[tuple[int, ...], ...]
    death: dict[int, int]
    node_bytes: int

    def contract(self, factors: list[np.ndarray], weight: np.ndarray) -> np.ndarray:
        """For each node: the sum over pair-states of prod_k F_k * sum_u weight[s_u].

        Every intermediate is carried as a dual (value, weighted), where
        weighted sums value * (the weights of the users summed out so far):
        a user's weight is added at the step that sums it out, and a product
        of two duals has weighted part A'B + AB'. Each step is one or two
        batched matmuls over the node axis. Factor entries and intermediates
        below PAIR_STATE_FLOOR are flushed to zero, so the caller scales the
        factors to keep the terms that matter well above it (and their sums
        below the float maximum). weight must be nonnegative.
        """
        live = [(f * (f >= PAIR_STATE_FLOOR), None, us) for f, us in zip(factors, self.users)]
        for i, step in enumerate(self.path):
            picked = [live[k] for k in step]
            live = [t for k, t in enumerate(live) if k not in step]
            later = {u for _, _, us in live for u in us}
            if len(picked) == 1:
                (v, w, us), = picked
                live.append(_sum_out(v, w, us, [u for u in us if u not in later], weight))
            else:
                flush = i + 1 < len(self.path)
                live.append(_contract_pair(*picked, later, weight, self.death, flush))
        (v, w, us), = live
        return _sum_out(v, w, us, list(us), weight)[1]


def _weight_sum(weight: np.ndarray, m: int) -> np.ndarray:
    """sum_u weight[s_u] over m pair-state axes, flattened to (S^m,)."""
    ws = np.zeros(1)
    for _ in range(m):
        ws = (ws[:, None] + weight).reshape(-1)
    return ws


def _grouped(x: np.ndarray, us: tuple[int, ...], groups: list[list[int]]) -> np.ndarray:
    """x with its user axes permuted into the given groups, one flat axis per group."""
    perm = [0] + [1 + us.index(u) for g in groups for u in g]
    S = x.shape[1] if x.ndim > 1 else 1
    return x.transpose(perm).reshape((len(x),) + tuple(S ** len(g) for g in groups))


def _sum_out(v, w, us, drop, weight):
    """Sum the users in drop out of the dual (v, w, us), adding their weights."""
    if not drop:
        return v, w, us
    keep = [u for u in us if u not in drop]
    v2 = _grouped(v, us, [keep, drop])
    ws = _weight_sum(weight, len(drop))
    if w is None:
        out = v2 @ np.stack([np.ones_like(ws), ws], axis=1)
        v, w = out[..., 0], out[..., 1]
    else:
        w2 = _grouped(w, us, [keep, drop])
        v, w = v2.sum(axis=-1), (w2 + ws * v2).sum(axis=-1)
    shape = (len(v2),) + (len(weight),) * len(keep)
    return v.reshape(shape), w.reshape(shape), tuple(keep)


def _contract_pair(a, b, later, weight, death, flush):
    """Contract two duals over their shared users, summing out those no later factor holds.

    b, the larger operand, is read in place when its layout already holds
    the summed users as one block with every shared kept user before it;
    otherwise it is copied into (shared kept, summed, free) order. The
    result's free users are ordered by the step that sums them out, so that
    the next step's block tends to be contiguous.
    """
    a = _sum_out(*a, [u for u in a[2] if u not in later and u not in b[2]], weight)
    b = _sum_out(*b, [u for u in b[2] if u not in later and u not in a[2]], weight)
    if a[0].size > b[0].size:
        a, b = b, a
    (av, aw, au), (bv, bw, bu) = a, b
    S = len(weight)
    summed = [u for u in bu if u in au and u not in later]
    batch = [u for u in bu if u in au and u in later]
    lo = min((bu.index(u) for u in summed), default=len(bu))
    hi = lo + len(summed)
    if bw is not None and set(bu[lo:hi]) == set(summed) and set(batch) <= set(bu[:lo]):
        pre, mid, post = list(bu[:lo]), list(bu[lo:hi]), list(bu[hi:])
    else:
        pre, mid = batch, summed
        post = sorted((u for u in bu if u not in au), key=death.__getitem__)
        perm = [0] + [1 + bu.index(u) for u in pre + mid + post]
        bv = bv.transpose(perm)
        bw = None if bw is None else bw.transpose(perm)
    fa = sorted((u for u in au if u not in bu), key=death.__getitem__, reverse=True)
    n, Fa, Sm, Fp = len(av), S ** len(fa), S ** len(mid), S ** len(post)
    a_shape = (n,) + tuple(S if u in batch else 1 for u in pre) + (Fa, Sm)
    b_shape = (n,) + (S,) * len(pre) + (Sm, Fp)
    A = _grouped(av, au, [batch, fa, mid]).reshape(a_shape)
    ws = _weight_sum(weight, len(mid))
    A2 = A * ws if aw is None else A * ws + _grouped(aw, au, [batch, fa, mid]).reshape(a_shape)
    out = np.concatenate([A, A2], axis=-2) @ bv.reshape(b_shape)
    v, w = out[..., :Fa, :], out[..., Fa:, :]
    if bw is not None:
        w += A @ bw.reshape(b_shape)
    if flush:
        np.multiply(out, out >= PAIR_STATE_FLOOR, out=out)
    us = tuple(pre + fa + post)
    shape = (n,) + (S,) * len(us)
    return v.reshape(shape), w.reshape(shape), us


@lru_cache(maxsize=32)
def pair_state_plan(users: tuple[tuple[int, ...], ...], S: int) -> PairStatePlan:
    """The contraction order for factors over the given users, planned once per structure.

    np.einsum_path caps intermediates at the largest operand by default,
    which forces the naive path (S^J per node); the raised limit lets its
    greedy search take pairwise steps.
    """
    expr = ",".join("Z" + "".join(chr(ord("a") + u) for u in us) for us in users) + "->Z"
    ops = [np.empty((1,) + (S,) * len(us)) for us in users]
    path = tuple(map(tuple, np.einsum_path(expr, *ops, optimize=("greedy", 1 << 26))[0][1:]))
    live = [set(us) for us in users]
    death = {}
    size = sum(S ** len(us) for us in users)
    for i, step in enumerate(path):
        picked = [live[k] for k in step]
        live = [us for k, us in enumerate(live) if k not in step]
        merged = set().union(*picked)
        kept = merged & set().union(*live)
        death.update((u, i) for u in merged - kept)
        live.append(kept)
        size += 2 * S ** len(kept) + 2 * max(S ** len(us) for us in picked)
    death.update((u, len(path)) for us in live for u in us)
    return PairStatePlan(users=users, S=S, path=path, death=death, node_bytes=8 * size)
