"""SCMA structural objects: parameters, factor graph, mappings, codebooks.

Users, resources and symbols are indexed 1-based in the public API (as is
conventional for SCMA block descriptions); numpy arrays are 0-based inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, isfinite, log2

import numpy as np

from .errors import CapacityError, DimensionError, DomainError

# Default cap on the superimposed-constellation size (4^6).
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
    """K x J binary factor graph plus its neighbor sets.

    rn_neighbors[k] lists the users (1-based) served on resource k+1;
    vn_neighbors[j] lists the resources (1-based) carrying user j+1.
    """

    F: np.ndarray
    rn_neighbors: tuple[tuple[int, ...], ...]
    vn_neighbors: tuple[tuple[int, ...], ...]
    df_per_rn: tuple[int, ...]

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
    """Full per-user description of one SCMA block: graph, mappings, books, gains."""

    params: SystemParams
    graph: FactorGraph
    mappings: tuple[MappingMatrix, ...]
    books: tuple[Codebook, ...]
    gains: tuple[np.ndarray, ...] = field(default=None)

    def __post_init__(self):
        if self.gains is None:
            ones = tuple(np.ones(self.params.K) for _ in range(self.params.J))
            object.__setattr__(self, "gains", ones)
        for j in range(self.params.J):
            col = np.diag(self.mappings[j].V @ self.mappings[j].V.T)
            if not np.array_equal(col, self.graph.F[:, j]):
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
    rn = tuple(tuple(int(j + 1) for j in np.flatnonzero(F[k])) for k in range(K))
    vn = tuple(tuple(int(k + 1) for k in np.flatnonzero(F[:, j])) for j in range(J))
    df = tuple(int(F[k].sum()) for k in range(K))
    return FactorGraph(F=F, rn_neighbors=rn, vn_neighbors=vn, df_per_rn=df)


def mapping_from_graph(graph: FactorGraph, j: int) -> MappingMatrix:
    """Mapping matrix of user j: column n hits the n-th (ascending) resource of user j."""
    if not 1 <= j <= graph.J:
        raise IndexError(f"user index {j} out of range 1..{graph.J}")
    rows = np.flatnonzero(graph.F[:, j - 1])
    V = np.zeros((graph.K, len(rows)), dtype=np.int64)
    for n, k in enumerate(rows):
        V[k, n] = 1
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


def enumerate_superimposed(
    cb_set: CodebookSet, max_points: int = DEFAULT_MAX_POINTS
) -> SuperConstellation:
    """Enumerate all M^J superimposed codewords.

    Tuple order is a mixed-radix counter with user 1 as the most significant
    digit; bit labels concatenate each user's natural-binary symbol label in
    user order.
    """
    p = cb_set.params
    total = p.M**p.J
    if total > max_points:
        raise CapacityError(f"M^J = {total} exceeds the configured limit {max_points}")
    b = p.bits_per_symbol

    idx = np.arange(total)
    tuples = np.empty((total, p.J), dtype=np.int64)
    for j in range(p.J):
        tuples[:, j] = (idx // p.M ** (p.J - 1 - j)) % p.M + 1

    # Per-user codeword tables (M, K), channel gains applied.
    tables = [
        (np.diag(cb_set.gains[j]) @ cb_set.mappings[j].V @ cb_set.books[j].C).T
        for j in range(p.J)
    ]
    points = np.zeros((total, p.K))
    for j in range(p.J):
        points += tables[j][tuples[:, j] - 1]

    labels = np.empty((total, p.J * b), dtype=np.uint8)
    sym_labels = np.stack([bit_label(m, b) for m in range(1, p.M + 1)])
    for j in range(p.J):
        labels[:, j * b : (j + 1) * b] = sym_labels[tuples[:, j] - 1]

    cov = p.varsigma2 * p.sigma2 * points + p.sigma2
    return SuperConstellation(
        points=points, index_tuples=tuples, bit_labels=labels, covariances=cov
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
    old = cb_set.params
    params = SystemParams(
        J=old.J, K=old.K, M=old.M, N=old.N,
        sigma2=old.sigma2, varsigma2=old.varsigma2, Pe=target_Pe,
    )
    return CodebookSet(
        params=params, graph=cb_set.graph, mappings=cb_set.mappings,
        books=books, gains=cb_set.gains,
    )


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
