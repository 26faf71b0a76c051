"""Distance geometry of the superimposed constellation.

Implements the shot-noise-rotated squared distance between superimposed
codewords, brute-force min/max scans, the smoothed maxi-min objective with
its analytic gradient, and equal-probability-density ellipse analytics.

The objective and gradient use the per-resource structure of the points:
a resource takes only M^d distinct values (d users on it), so every pair
distance is a sum of entries of small per-resource tables, gathered through
pair indices that are built once per codebook structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from math import comb, log

import numpy as np

from .errors import CapacityError, DomainError, UnsupportedError
from .model import (
    DEFAULT_MAX_POINTS,
    Codebook,
    CodebookSet,
    SuperConstellation,
    enumerate_superimposed,
)

# 95% quantile of the chi-square distribution with 2 degrees of freedom,
# as conventionally quoted to 4 significant digits.
CHI2_2_Q95 = 5.991

DEFAULT_PAIR_BUDGET = comb(4096, 2)

# Pair blocks processed at a time in large scans (bounds peak memory).
_PAIR_CHUNK = 500_000

# Pairs per gather and bincount over the static pair indices. numpy widens
# each index block to intp (8 bytes per pair), so this bounds that temporary;
# it holds every pair up to J=5 (523,776), splitting only J=6 (8,386,560).
_GATHER_CHUNK = 1 << 20


@dataclass(frozen=True)
class ResourceStructure:
    """Static structure of one resource: its value combinations and pair indices.

    The d users on the resource (ascending user order) combine into Q = M^d
    distinct resource values; combination q has user u on symbol digit u of q
    in mixed radix (first user most significant, as in the decoder's tables).
    cols[q, u] indexes L at that user's entry, gains[u] is the user's channel
    gain here, point_combo[i] the combination of superimposed point i, and
    pair_flat[p] = a(i) * Q + a(j) for the p-th unordered pair i < j in
    np.triu_indices order, stored in the smallest unsigned dtype. Only the
    designer needs pair_flat: resource_structures leaves it None and
    stack_codebook_set fills it in.
    """

    cols: np.ndarray
    gains: np.ndarray
    point_combo: np.ndarray
    pair_flat: np.ndarray | None = None

    def values(self, L: np.ndarray) -> np.ndarray:
        """The Q resource values, summed in user order."""
        v = np.zeros(len(self.cols))
        for u, gain in enumerate(self.gains):
            v += gain * L[self.cols[:, u]]
        return v

    def table_parts(self, L: np.ndarray, varsigma2: float):
        """(diff, g, root) of the Q x Q distance table diff^2 / root.

        diff[a, b] = v_a - v_b, g = varsigma2 * v + 1 and root[a, b] =
        sqrt(g_a * g_b), the operands of the pairwise rotated distance.
        """
        v = self.values(L)
        g = varsigma2 * v + 1.0
        diff = v[:, None] - v[None, :]
        return diff, g, np.sqrt(g[:, None] * g[None, :])


@dataclass(frozen=True)
class StackedVector:
    """Stacked constellation entries plus the per-resource structure of the points.

    L concatenates vec(C_1), ..., vec(C_J) (row-major N x M blocks). The
    rotated distance of a pair is a sum over resources of a term that depends
    only on the two points' values there, so all pair distances are gathered
    from one small Q x Q table per resource. The distances of the last
    varsigma2 asked for are cached on the instance; L must therefore not be
    changed in place (use replace, which starts with an empty cache).
    """

    L: np.ndarray
    resources: tuple[ResourceStructure, ...]
    n_points: int
    K: int
    _distances: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def points(self) -> np.ndarray:
        return np.column_stack(
            [r.values(self.L)[r.point_combo] for r in self.resources]
        )

    def replace(self, L: np.ndarray) -> "StackedVector":
        return StackedVector(
            L=L, resources=self.resources, n_points=self.n_points, K=self.K
        )

    def distances(self, varsigma2: float) -> np.ndarray:
        """Read-only rotated distances of all unordered point pairs (triu order).

        Terms are added in resource order, which reproduces the row sums of
        the pairwise computation bit for bit.
        """
        d = self._distances.get(varsigma2)
        if d is None:
            tables = []
            for r in self.resources:
                diff, _, root = r.table_parts(self.L, varsigma2)
                tables.append(diff * diff / root)
            parts = []
            for lo in range(0, len(self.resources[0].pair_flat), _GATHER_CHUNK):
                part = None
                for r, table in zip(self.resources, tables):
                    term = np.take(table, r.pair_flat[lo:lo + _GATHER_CHUNK])
                    if part is None:
                        part = term
                    else:
                        part += term
                parts.append(part)
            d = parts[0] if len(parts) == 1 else np.concatenate(parts)
            d.flags.writeable = False
            self._distances.clear()
            self._distances[varsigma2] = d
        return d


@dataclass(frozen=True)
class DistanceReport:
    d_min: float
    d_max: float
    pair_count: int
    histogram: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class EpdEllipse:
    """Coordinate-aligned equal-probability-density ellipse of one 2D point."""

    center: np.ndarray
    semi_axes: np.ndarray
    axis_directions: np.ndarray
    confidence: float


def resource_structures(
    cb_set: CodebookSet, max_points: int = DEFAULT_MAX_POINTS
) -> tuple[np.ndarray, tuple[ResourceStructure, ...]]:
    """The stacked entries L and each resource's structure, without pair indices."""
    p = cb_set.params
    tuples = enumerate_superimposed(cb_set, max_points=max_points).index_tuples - 1
    L = np.concatenate([b.C.reshape(-1) for b in cb_set.books])
    resources = []
    for k in range(p.K):
        users = np.flatnonzero(cb_set.graph.F[k])
        combos = np.array(list(product(range(p.M), repeat=len(users))), dtype=np.int64)
        combos = combos.reshape(p.M ** len(users), len(users))
        rows = [cb_set.graph.vn_neighbors[j].index(k + 1) for j in users]
        offsets = np.array([(j * p.N + n) * p.M for j, n in zip(users, rows)], dtype=np.int64)
        point_combo = np.zeros(len(tuples), dtype=np.int64)
        for j in users:
            point_combo = point_combo * p.M + tuples[:, j]
        resources.append(ResourceStructure(
            cols=offsets + combos,
            gains=np.array([cb_set.gains[j][k] for j in users]),
            point_combo=point_combo,
        ))
    return L, tuple(resources)


def stack_codebook_set(cb_set: CodebookSet) -> StackedVector:
    """Build the StackedVector of a codebook set (L entries and resource structure)."""
    L, layout = resource_structures(cb_set)
    resources = tuple(
        replace(r, pair_flat=_pair_flat(r.point_combo, len(r.cols))) for r in layout
    )
    return StackedVector(
        L=L, resources=resources, n_points=len(resources[0].point_combo),
        K=cb_set.params.K,
    )


def _pair_flat(a: np.ndarray, Q: int) -> np.ndarray:
    """a[i] * Q + a[j] over all pairs i < j, row by row (no P^2 index arrays)."""
    P = len(a)
    out = np.empty(P * (P - 1) // 2, dtype=np.min_scalar_type(Q * Q - 1))
    lo = 0
    for i in range(P - 1):
        hi = lo + P - 1 - i
        out[lo:hi] = a[i] * Q + a[i + 1:]
        lo = hi
    return out


def red(s_i: np.ndarray, s_j: np.ndarray, varsigma2: float) -> float:
    """Rotated squared distance between two superimposed codewords.

    Each squared component difference is divided by the geometric mean of the
    two points' shot-noise factors (varsigma2 * s + 1); varsigma2 = 0 recovers
    the plain squared Euclidean distance.
    """
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    if s_i.shape != s_j.shape:
        raise DomainError("points must have equal length")
    if np.any(s_i < 0) or np.any(s_j < 0):
        raise DomainError("superimposed codewords must be componentwise nonnegative")
    g = np.sqrt((varsigma2 * s_i + 1.0) * (varsigma2 * s_j + 1.0))
    d = s_i - s_j
    return float(np.sum(d * d / g))


def _pair_distances(points: np.ndarray, varsigma2: float,
                    ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    g = varsigma2 * points + 1.0
    diff = points[ii] - points[jj]
    return np.sum(diff * diff / np.sqrt(g[ii] * g[jj]), axis=1)


def pairwise_report(
    constellation: SuperConstellation,
    varsigma2: float,
    bins: int | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> DistanceReport:
    """d_min/d_max of the rotated distance over all unordered point pairs."""
    points = constellation.points
    P = len(points)
    n_pairs = P * (P - 1) // 2
    if n_pairs > pair_budget:
        raise CapacityError(f"{n_pairs} pairs exceed the budget {pair_budget}")
    ii, jj = np.triu_indices(P, k=1)
    d_min, d_max = np.inf, -np.inf
    hist_counts = hist_edges = None
    all_d = [] if bins is not None else None
    for lo in range(0, n_pairs, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, n_pairs)
        d = _pair_distances(points, varsigma2, ii[lo:hi], jj[lo:hi])
        d_min = min(d_min, float(d.min()))
        d_max = max(d_max, float(d.max()))
        if all_d is not None:
            all_d.append(d)
    if all_d is not None:
        hist_counts, hist_edges = np.histogram(np.concatenate(all_d), bins=bins)
    histogram = (hist_counts, hist_edges) if bins is not None else None
    return DistanceReport(d_min=d_min, d_max=d_max, pair_count=n_pairs, histogram=histogram)


def _check_stacked(L: StackedVector, beta: float):
    if beta <= 0:
        raise DomainError("beta must be > 0")
    if np.any(L.L < 0):
        raise DomainError("stacked constellation entries must be nonnegative")


def _shifted_exp(d: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta * (d - min d)) in a single new array."""
    e = d - d.min()
    e *= -beta
    return np.exp(e, out=e)


def logsumexp_objective(L: StackedVector, beta: float, varsigma2: float) -> float:
    """Smoothed soft-minimum of all pairwise rotated distances.

    Returns (1/beta) * ln sum_{i<j} exp(-beta * d_ij); the exponent is shifted
    by the minimum distance before summation so beta * d overflow cannot occur.
    """
    _check_stacked(L, beta)
    d = L.distances(varsigma2)
    return float(np.log(np.sum(_shifted_exp(d, beta))) / beta - d.min())


def logsumexp_gradient(L: StackedVector, beta: float, varsigma2: float) -> np.ndarray:
    """Analytic gradient of logsumexp_objective with respect to the entries of L.

    The softmin pair weights are binned onto each resource's Q x Q table,
    chained through the table's derivative in the resource values, and the
    value gradients are binned onto the entries of L.
    """
    _check_stacked(L, beta)
    w = _shifted_exp(L.distances(varsigma2), beta)
    w /= w.sum()

    cols, weights = [], []
    for r in L.resources:
        Q = len(r.cols)
        W = np.bincount(r.pair_flat[:_GATHER_CHUNK], weights=w[:_GATHER_CHUNK],
                        minlength=Q * Q)
        for lo in range(_GATHER_CHUNK, len(w), _GATHER_CHUNK):
            hi = lo + _GATHER_CHUNK
            W += np.bincount(r.pair_flat[lo:hi], weights=w[lo:hi], minlength=Q * Q)
        W = W.reshape(Q, Q)
        diff, g, root = r.table_parts(L.L, varsigma2)
        # d(table[a, b])/d(v_a); the table is symmetric, so v_a collects the
        # weights of the pairs where it is the first or the second point.
        dt = 2.0 * diff / root - 0.5 * varsigma2 * diff * diff / (g[:, None] * root)
        dv = -np.sum((W + W.T) * dt, axis=1)
        cols.append(r.cols.ravel())
        weights.append((dv[:, None] * r.gains).ravel())
    return np.bincount(
        np.concatenate(cols), weights=np.concatenate(weights), minlength=L.L.size
    )


def epd_ellipses(
    book: Codebook, sigma2: float, varsigma2: float, confidence: float = 0.95
) -> list[EpdEllipse]:
    """Equal-probability-density ellipse of each 2D constellation point.

    The IDGN covariance is diagonal, so the axes are coordinate aligned; the
    semi-axis along dimension n is sqrt(q * (varsigma2*sigma2*c_n + sigma2))
    with q the chi-square(2) quantile at the requested confidence.
    """
    if book.C.shape[0] != 2:
        raise UnsupportedError("EPD ellipses are defined for 2D constellations (N = 2)")
    if not 0 < confidence < 1:
        raise DomainError("confidence must be in (0, 1)")
    q = CHI2_2_Q95 if confidence == 0.95 else -2.0 * log(1.0 - confidence)
    out = []
    for m in range(book.C.shape[1]):
        center = book.C[:, m].copy()
        var = varsigma2 * sigma2 * center + sigma2
        out.append(
            EpdEllipse(
                center=center,
                semi_axes=np.sqrt(q * var),
                axis_directions=np.eye(2),
                confidence=confidence,
            )
        )
    return out
