"""SCMA block structure: parameters, factor graph, codebooks and resource layout.

The factor graph fixes each user's mapping (mapping_from_graph), so a
CodebookSet stores the graph and the books and derives the rest.
resource_layout is the one place that derives the per-resource structure
(users, L columns, gains, combination order) that the decoder, the designer's
distance kernel, the union bound and enumerate_superimposed all read.

Users, resources and symbols are indexed 1-based in the public API (as is
conventional for SCMA block descriptions); numpy arrays are 0-based inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, product
from math import comb, log2

import numpy as np

from .errors import CapacityError, DimensionError, DomainError
from .errors import check_array, check_integer, check_real, check_sequence

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
        for name in ("J", "K", "N"):
            check_integer(name, getattr(self, name), DimensionError, least=1)
        check_integer("M", self.M, DomainError, least=2)
        check_real("sigma2", self.sigma2, DomainError, above=0)
        check_real("varsigma2", self.varsigma2, DomainError, least=0)
        check_real("Pe", self.Pe, DomainError, above=0)
        if self.N > self.K:
            raise DimensionError(f"need K >= N, got K={self.K}, N={self.N}")
        if self.J > comb(self.K, self.N):
            raise DimensionError(
                f"J={self.J} exceeds the C({self.K},{self.N})={comb(self.K, self.N)} "
                "available support patterns"
            )
        if self.M & (self.M - 1):
            raise DomainError(f"M must be a power of 2 with M >= 2, got {self.M}")

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
class Codebook:
    """N x M constellation matrix of one user (nonnegative intensities).

    Stored as a read-only float copy, so no later edit of the caller's array,
    or of C, gets past the checks. Its user is its position in a CodebookSet.
    """

    C: np.ndarray

    def __post_init__(self):
        C = check_array("codebook entries", self.C, DomainError, nonnegative=True)
        if C.ndim != 2:
            raise DimensionError("a codebook must be an N x M matrix")
        C = C.copy()
        C.flags.writeable = False
        object.__setattr__(self, "C", C)


@dataclass(frozen=True)
class CodebookSet:
    """Full per-user description of one SCMA block: graph, books, gains.

    books[j] is user j+1's book, and the graph fixes its mapping
    (mapping_from_graph). gains[j] holds user j+1's gain on each of the K
    resources (ones by default). Raises DimensionError for a shape that does
    not fit params and DomainError for a gain that is not a finite,
    nonnegative number.
    """

    params: SystemParams
    graph: FactorGraph
    books: tuple[Codebook, ...]
    gains: tuple[np.ndarray, ...] = field(default=None)

    def __post_init__(self):
        p = self.params
        if self.graph.F.shape != (p.K, p.J) or np.any(self.graph.F.sum(axis=0) != p.N):
            raise DimensionError(
                f"the factor graph must be {p.K} x {p.J} with {p.N} ones per column"
            )
        if len(self.books) != p.J:
            raise DimensionError(f"need one book for each of the J={p.J} users")
        for j, book in enumerate(self.books):
            if book.C.shape != (p.N, p.M):
                raise DimensionError(f"book {j + 1} must be {p.N} x {p.M}")
        gains = np.ones((p.J, p.K)) if self.gains is None else self.gains
        gains = tuple(check_array("channel gains", g, DomainError, nonnegative=True)
                      for g in check_sequence("gains", gains, DimensionError))
        if len(gains) != p.J or any(g.shape != (p.K,) for g in gains):
            raise DimensionError(f"need J={p.J} gain vectors of shape ({p.K},)")
        object.__setattr__(self, "gains", gains)


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
            q *= self.M
            q += digits[:, j]
        return q


def build_factor_graph(K: int, J: int, N: int) -> FactorGraph:
    """Build the K x J factor graph with N nonzeros per column.

    For (K, N) = (4, 2) the reference 4x6 column order is used, so J < 6
    returns the induced subgraph on users 1..J; other shapes fall back to
    lexicographic N-of-K supports. Raises DimensionError for a bad K, J or N.
    """
    for name, v in (("K", K), ("J", J), ("N", N)):
        check_integer(name, v, DimensionError, least=1)
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


def mapping_from_graph(graph: FactorGraph, j: int) -> np.ndarray:
    """(K, N) mapping matrix V_j: column n hits the n-th (ascending) resource of user j."""
    check_integer("user index", j, IndexError, least=1, most=graph.J)
    ks = graph.vn_neighbors[j - 1]
    V = np.zeros((graph.K, len(ks)), dtype=np.int64)
    V[np.array(ks, dtype=np.int64) - 1, np.arange(len(ks))] = 1
    return V


def codeword(cb_set: CodebookSet, j: int, m: int) -> np.ndarray:
    """K-dimensional codeword V_j c_j^m of user j for symbol m (both 1-based)."""
    check_integer("user index", j, IndexError, least=1, most=cb_set.params.J)
    check_integer("symbol index", m, IndexError, least=1, most=cb_set.params.M)
    return mapping_from_graph(cb_set.graph, j) @ cb_set.books[j - 1].C[:, m - 1]


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
    check_real("target_Pe", target_Pe, DomainError, above=0)
    p_design = max(power(b) for b in cb_set.books)
    if p_design == 0:
        raise DomainError("cannot rescale an all-zero codebook set")
    alpha = np.sqrt(target_Pe / p_design)
    books = tuple(Codebook(C=b.C * alpha) for b in cb_set.books)
    return replace(cb_set, params=replace(cb_set.params, Pe=target_Pe), books=books)


def codebook_set_from_constellations(
    params: SystemParams,
    constellations: list[np.ndarray],
    gains: tuple[np.ndarray, ...] | None = None,
) -> CodebookSet:
    """Assemble a CodebookSet from N x M constellation matrices (default graph)."""
    graph = build_factor_graph(params.K, params.J, params.N)
    books = tuple(Codebook(C=c) for c in constellations)
    return CodebookSet(params=params, graph=graph, books=books, gains=gains)
