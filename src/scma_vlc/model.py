"""SCMA structural objects: parameters, factor graph, mappings, codebooks.

resource_layout is the one place that derives the per-resource structure
(users, L columns, gains, combination order) that the decoder, the designer's
distance kernel, the union bound and enumerate_superimposed all read.

Users, resources and symbols are indexed 1-based in the public API (as is
conventional for SCMA block descriptions); numpy arrays are 0-based inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations, product
from math import comb, isfinite, log2

import numpy as np

from .errors import CapacityError, DimensionError, DomainError

# Cap on the superimposed-constellation size (4^6).
DEFAULT_MAX_POINTS = 4096

# Column supports (0-based resource rows) of the reference 4x6 factor graph.
# Column j of the graph equals the row support of the j-th mapping matrix.
_SUPPORTS_4x6 = ((1, 3), (0, 2), (0, 1), (2, 3), (0, 3), (1, 2))


@dataclass(frozen=True)
class SystemParams:
    """Block dimensions, noise parameters and the per-user power budget.

    sigma2 is the thermal (electrical) noise variance; varsigma2 scales the
    signal-dependent shot-noise variance relative to sigma2.
    """

    J: int
    K: int = 4
    M: int = 4
    N: int = 2
    sigma2: float = 0.01
    varsigma2: float = 0.0
    Pe: float = 30.0

    def __post_init__(self):
        if not (self.K >= self.N >= 1):
            raise DimensionError(f"need K >= N >= 1, got K={self.K}, N={self.N}")
        if self.J < 1 or self.J > comb(self.K, self.N):
            raise DimensionError(
                f"J={self.J} exceeds the C({self.K},{self.N})={comb(self.K, self.N)} "
                "available support patterns"
            )
        b = log2(self.M)
        if self.M < 2 or b != int(b):
            raise DomainError(f"M must be a power of 2 with M >= 2, got {self.M}")
        for name in ("sigma2", "varsigma2", "Pe"):
            if not isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma2 <= 0:
            raise DomainError("sigma2 must be > 0")
        if self.varsigma2 < 0:
            raise DomainError("varsigma2 must be >= 0")
        if self.Pe <= 0:
            raise DomainError("Pe must be > 0")

    @property
    def bits_per_symbol(self) -> int:
        return int(log2(self.M))


@dataclass(frozen=True)
class FactorGraph:
    """K x J binary factor graph plus the neighbor sets derived from it.

    rn_neighbors[k] lists the users (1-based) served on resource k+1;
    vn_neighbors[j] lists the resources (1-based) carrying user j+1.
    Raises DimensionError unless F is a 2-D matrix of zeros and ones whose
    columns are distinct and nonzero: every user has its own support.
    """

    F: np.ndarray
    rn_neighbors: tuple[tuple[int, ...], ...] = field(init=False)
    vn_neighbors: tuple[tuple[int, ...], ...] = field(init=False)
    df_per_rn: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        F = np.asarray(self.F)
        if F.ndim != 2 or not ((F == 0) | (F == 1)).all():
            raise DimensionError("a factor graph must be a 2-D matrix of zeros and ones")
        vn = tuple(tuple(int(k + 1) for k in np.flatnonzero(col)) for col in F.T)
        if not all(vn) or len(set(vn)) < len(vn):
            raise DimensionError("every user needs a nonempty support of its own")
        rn = tuple(tuple(int(j + 1) for j in np.flatnonzero(row)) for row in F)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "rn_neighbors", rn)
        object.__setattr__(self, "vn_neighbors", vn)
        object.__setattr__(self, "df_per_rn", tuple(len(users) for users in rn))

    @property
    def K(self) -> int:
        return self.F.shape[0]

    @property
    def J(self) -> int:
        return self.F.shape[1]


@dataclass(frozen=True)
class MappingMatrix:
    """K x N binary matrix placing one user's N constellation rows on K resources."""

    V: np.ndarray


@dataclass(frozen=True)
class Codebook:
    """N x M constellation matrix of one user (nonnegative optical intensities)."""

    C: np.ndarray
    user_index: int

    def __post_init__(self):
        if not np.isfinite(self.C).all():
            raise DomainError("codebook entries must be finite")
        if np.any(self.C < 0):
            raise DomainError("codebook entries must be nonnegative")


@dataclass(frozen=True)
class CodebookSet:
    """Full per-user description of one SCMA block: graph, mappings, books, gains.

    gains[j] holds user j+1's gain on each of the K resources (ones by
    default). Raises DimensionError for a shape that does not fit params and
    DomainError for a non-finite or negative gain.
    """

    params: SystemParams
    graph: FactorGraph
    mappings: tuple[MappingMatrix, ...]
    books: tuple[Codebook, ...]
    gains: tuple[np.ndarray, ...] = field(default=None)

    def __post_init__(self):
        p = self.params
        if self.graph.F.shape != (p.K, p.J) or np.any(self.graph.F.sum(axis=0) != p.N):
            raise DimensionError(
                f"the factor graph must be {p.K} x {p.J} with {p.N} ones per column"
            )
        if len(self.mappings) != p.J or len(self.books) != p.J:
            raise DimensionError(f"need one mapping and one book for each of the J={p.J} users")
        for j, book in enumerate(self.books):
            if book.C.shape != (p.N, p.M) or book.user_index != j + 1:
                raise DimensionError(
                    f"book {j + 1} must be {p.N} x {p.M} with user_index {j + 1}"
                )
        if self.gains is None:
            gains = tuple(np.ones(p.K) for _ in range(p.J))
        else:
            gains = tuple(np.asarray(g, dtype=float) for g in self.gains)
        if len(gains) != p.J or any(g.shape != (p.K,) for g in gains):
            raise DimensionError(f"need J={p.J} gain vectors of shape ({p.K},)")
        if not all(np.isfinite(g).all() and (g >= 0).all() for g in gains):
            raise DomainError("channel gains must be finite and nonnegative")
        object.__setattr__(self, "gains", gains)
        # Every consumer reads a user's resources in ascending order, so the
        # mapping must be the one the graph gives, not only the same support.
        for j in range(p.J):
            if not np.array_equal(self.mappings[j].V, mapping_from_graph(self.graph, j + 1).V):
                raise DimensionError(f"mapping of user {j + 1} inconsistent with graph")


@dataclass(frozen=True)
class SuperConstellation:
    """All M^J superimposed codewords with index tuples, bit labels and variances.

    covariances[i, k] is the diagonal IDGN variance varsigma2*sigma2*s_i^k + sigma2.
    """

    points: np.ndarray        # (P, K)
    index_tuples: np.ndarray  # (P, J), 1-based symbol indices
    bit_labels: np.ndarray    # (P, J*b), uint8
    covariances: np.ndarray   # (P, K)


@dataclass(frozen=True)
class ResourceLayout:
    """The d users on one resource (0-based, ascending) and their Q = M^d values.

    Combination q has user u at digit u of q in mixed radix (first user most
    significant), so a (Q,) array reshapes to (M,)*d with one axis per user.
    cols[q, u] indexes the stacked entries L at that user's entry, and
    gains[u] is the user's channel gain here.
    """

    M: int
    users: tuple[int, ...]
    cols: np.ndarray   # (Q, d)
    gains: np.ndarray  # (d,)

    def values(self, L: np.ndarray) -> np.ndarray:
        """The Q resource values, summed in user order."""
        v = np.zeros(len(self.cols))
        for u, gain in enumerate(self.gains):
            v += gain * L[self.cols[:, u]]
        return v

    def combos(self, digits: np.ndarray) -> np.ndarray:
        """Combination index of each row of (T, J) 0-based symbol digits."""
        q = np.zeros(len(digits), dtype=np.int64)
        for j in self.users:
            q = q * self.M + digits[:, j]
        return q

    def pair_states(self, table: np.ndarray) -> np.ndarray:
        """A (Q, Q) table over ordered pairs of combinations, flattened over pair-states.

        Entry s of the (M^2)^d result, read in mixed radix with one M^2
        digit per user, takes table[a, b] where user u's digit is
        x_u * M + x'_u, x_u its symbol in a and x'_u its symbol in b.
        """
        d = len(self.users)
        axes = [ax for u in range(d) for ax in (u, d + u)]
        return table.reshape((self.M,) * (2 * d)).transpose(axes).reshape(-1)


def build_factor_graph(K: int, J: int, N: int) -> FactorGraph:
    """Build the K x J factor graph with N nonzeros per column.

    For (K, N) = (4, 2) the reference 4x6 column order is used, so J < 6
    returns the induced subgraph on users 1..J; other shapes fall back to
    lexicographic N-of-K supports.
    """
    if J > comb(K, N):
        raise DimensionError(
            f"J={J} users exceed the C({K},{N})={comb(K, N)} distinct supports"
        )
    if (K, N) == (4, 2) and J <= len(_SUPPORTS_4x6):
        supports = _SUPPORTS_4x6[:J]
    else:
        supports = tuple(combinations(range(K), N))[:J]
    F = np.zeros((K, J), dtype=np.int64)
    for j, rows in enumerate(supports):
        F[list(rows), j] = 1
    return FactorGraph(F=F)


def mapping_from_graph(graph: FactorGraph, j: int) -> MappingMatrix:
    """Mapping matrix of user j: column n hits the n-th (ascending) resource of user j."""
    if not 1 <= j <= graph.J:
        raise IndexError(f"user index {j} out of range 1..{graph.J}")
    ks = graph.vn_neighbors[j - 1]
    V = np.zeros((graph.K, len(ks)), dtype=np.int64)
    V[np.array(ks, dtype=np.int64) - 1, np.arange(len(ks))] = 1
    return MappingMatrix(V=V)


def codeword(cb_set: CodebookSet, j: int, m: int) -> np.ndarray:
    """K-dimensional codeword V_j c_j^m of user j for symbol m (both 1-based)."""
    if not 1 <= j <= cb_set.params.J:
        raise IndexError(f"user index {j} out of range 1..{cb_set.params.J}")
    if not 1 <= m <= cb_set.params.M:
        raise IndexError(f"symbol index {m} out of range 1..{cb_set.params.M}")
    return cb_set.mappings[j - 1].V @ cb_set.books[j - 1].C[:, m - 1]


def bit_label(m: int, bits: int) -> np.ndarray:
    """Natural binary label of symbol m (1-based): (m-1) on `bits` bits, MSB first."""
    return np.array([(m - 1) >> (bits - 1 - i) & 1 for i in range(bits)], dtype=np.uint8)


def label_table(M: int) -> np.ndarray:
    """(M, b) uint8 natural binary labels of the M symbols; row m-1 labels symbol m."""
    return np.stack([bit_label(m, M.bit_length() - 1) for m in range(1, M + 1)])


def resource_layout(cb_set: CodebookSet) -> tuple[np.ndarray, tuple[ResourceLayout, ...]]:
    """Stacked entries L and the layout of each resource of a codebook set.

    L concatenates vec(C_1), ..., vec(C_J) (row-major N x M blocks).
    """
    p = cb_set.params
    L = np.concatenate([b.C.reshape(-1) for b in cb_set.books])
    layout = []
    for k, ns in enumerate(cb_set.graph.rn_neighbors):
        users = tuple(j - 1 for j in ns)
        combos = np.array(list(product(range(p.M), repeat=len(users))), dtype=np.int64)
        # Row of C_j on resource k: its position among user j's resources.
        rows = [cb_set.graph.vn_neighbors[j].index(k + 1) for j in users]
        offsets = np.array([(j * p.N + n) * p.M for j, n in zip(users, rows)], dtype=np.int64)
        layout.append(ResourceLayout(
            M=p.M, users=users, cols=offsets + combos,
            gains=np.array([cb_set.gains[j][k] for j in users]),
        ))
    return L, tuple(layout)


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


def point_digits(params: SystemParams) -> np.ndarray:
    """(M^J, J) 0-based symbol digits of every superimposed point.

    Point i is i written in base M with user 1 as the most significant
    digit. Raises CapacityError when M^J exceeds DEFAULT_MAX_POINTS.
    """
    M, J = params.M, params.J
    if M**J > DEFAULT_MAX_POINTS:
        raise CapacityError(f"M^J = {M**J} exceeds the limit {DEFAULT_MAX_POINTS}")
    idx = np.arange(M**J)
    return np.stack([(idx // M ** (J - 1 - j)) % M for j in range(J)], axis=1)


def enumerate_superimposed(cb_set: CodebookSet) -> SuperConstellation:
    """Enumerate all M^J superimposed codewords.

    Tuple order is a mixed-radix counter with user 1 as the most significant
    digit; bit labels concatenate each user's natural-binary symbol label in
    user order. Each point is gathered from the resource values.
    """
    p = cb_set.params
    digits = point_digits(p)
    L, layout = resource_layout(cb_set)
    points = np.column_stack([r.values(L)[r.combos(digits)] for r in layout])
    labels = label_table(p.M)[digits].reshape(len(digits), -1)
    cov = p.varsigma2 * p.sigma2 * points + p.sigma2
    return SuperConstellation(
        points=points, index_tuples=digits + 1, bit_labels=labels, covariances=cov
    )


def power(book: Codebook) -> float:
    """Average electrical power Tr(C^T C) / M of one codebook."""
    C = book.C
    return float(np.sum(C * C) / C.shape[1])


def scale_codebook_set(cb_set: CodebookSet, target_Pe: float) -> CodebookSet:
    """Rescale all books so the maximum per-user average power equals target_Pe."""
    if target_Pe <= 0:
        raise DomainError("target_Pe must be > 0")
    p_design = max(power(b) for b in cb_set.books)
    if p_design == 0:
        raise DomainError("cannot rescale an all-zero codebook set")
    alpha = np.sqrt(target_Pe / p_design)
    books = tuple(
        Codebook(C=b.C * alpha, user_index=b.user_index) for b in cb_set.books
    )
    return replace(cb_set, params=replace(cb_set.params, Pe=target_Pe), books=books)


def codebook_set_from_constellations(
    params: SystemParams,
    constellations: list[np.ndarray],
    gains: tuple[np.ndarray, ...] | None = None,
) -> CodebookSet:
    """Assemble a CodebookSet from N x M constellation matrices (default graph)."""
    graph = build_factor_graph(params.K, params.J, params.N)
    mappings = tuple(mapping_from_graph(graph, j) for j in range(1, params.J + 1))
    books = tuple(
        Codebook(C=np.asarray(c, dtype=float), user_index=j + 1)
        for j, c in enumerate(constellations)
    )
    return CodebookSet(
        params=params, graph=graph, mappings=mappings, books=books, gains=gains
    )
