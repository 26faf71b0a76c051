"""Distance geometry of the superimposed constellation.

Implements the shot-noise-rotated squared distance between superimposed
codewords, its min/max over all point pairs, the smoothed maxi-min objective
with its analytic gradient, and equal-probability-density ellipse analytics.

Every pair distance is a sum over resources of entries of small per-resource
tables: a resource takes only a few distinct values (M^d with d users on it),
so one gather adds the table entries of all pairs through pair indices. The
designer stacks its per-resource structure and pair indices once per codebook
structure, zero-padded to the largest resource, and builds the tables of all
resources in one set of array operations; pairwise_report builds one table
and its pair indices from the distinct values of each column of the points.
The resource layout itself (users, L columns, gains, combination indices)
comes from model.resource_layout, which the decoder and the union bound read
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite, log

import numpy as np

from .errors import CapacityError, DomainError, UnsupportedError
from .model import DEFAULT_MAX_POINTS, Codebook, CodebookSet
from .model import SuperConstellation, point_digits, resource_layout
from .model import enumerate_superimposed  # noqa: F401  (benchmarks/tracing.py wraps this name)

# 95% quantile of the chi-square distribution with 2 degrees of freedom,
# as conventionally quoted to 4 significant digits.
CHI2_2_Q95 = 5.991

# Pairs per bincount of the gradient over the static pair indices. Each index
# block is widened to intp (8 bytes per pair) in the workspace's index buffer,
# so this bounds that buffer; it holds every pair up to J=5 (523,776),
# splitting only J=6 (8,386,560). The block sums are added in order, so the
# gradient's rounding depends on this value.
_GATHER_CHUNK = 1 << 20

# Pairs per step of the distance gather (any value gives the same floats).
# Its per-resource temporaries stay at 128 KiB, small enough to sit in L2 and
# to be reused from the heap: at J=4 (32,640 pairs) full-size temporaries
# made glibc grow and trim the heap on every call, about 27,000 page faults
# per design, against about 500 with this step.
_TAKE_CHUNK = 1 << 14

# Distance slots per structure: the designer's current point and its line
# search candidate alternate over two.
_DISTANCE_SLOTS = 2


@dataclass(frozen=True)
class ResourceStack:
    """The per-resource structure of one codebook structure, stacked over resources.

    Resource k has Q_k = M^d_k values (d_k users); the arrays are padded to
    Qmax rows and dmax users. cols[k, q, u] indexes the stacked entries L at
    user u's entry in combination q, and gains[k, q, u] is that user's gain
    on resource k; padding points at entry 0 with gain 0, so padded values
    are 0. pair_flat[k][p] = a(i) * Qmax + a(j) for the p-th unordered pair
    i < j in np.triu_indices order, where a(i) is the combination (in the
    layout's mixed radix) of superimposed point i on resource k; stored in
    the smallest unsigned dtype.
    """

    cols: np.ndarray   # (K, Qmax, dmax) intp
    gains: np.ndarray  # (K, Qmax, dmax)
    pair_flat: tuple[np.ndarray, ...]
    # (Q, resources with Q < Qmax rows): the gradient sums their table rows
    # over their own Q columns, so that every row sum has the length, and so
    # the summation order, of an unpadded table's row.
    short_rows: tuple[tuple[int, np.ndarray], ...]
    # The unpadded (k, q, u) entries in row-major order: the flat (k, q) row
    # of each, its column of L and its gain.
    entry_rows: np.ndarray
    entry_cols: np.ndarray
    entry_gains: np.ndarray

    def values(self, L: np.ndarray) -> np.ndarray:
        """(K, Qmax) resource values, each summed in user order."""
        terms = L[self.cols]
        terms *= self.gains
        v = np.zeros(terms.shape[:2])
        for u in range(terms.shape[2]):
            v += terms[:, :, u]
        return v


class _Slot:
    """The distances of one (vector, varsigma2) and that vector's table operands."""

    __slots__ = ("key", "varsigma2", "d", "parts")

    def __init__(self, n_pairs: int):
        self.key = self.varsigma2 = self.parts = None
        self.d = np.empty(n_pairs)


class PairWorkspace:
    """Pair-sized buffers shared by the StackedVectors of one structure.

    The objective and gradient need arrays with one entry per point pair:
    the distances, the shifted exponentials (or softmin weights) and the intp
    pair indices that np.bincount reads. At J=4 each is 261 KB, above glibc's
    default 128 KiB mmap threshold, so allocating them per call made the heap
    grow and trim on every call (about 31,000 minor faults per design-j4
    design). The workspace allocates them once, on first use, and reuses them.

    It holds _DISTANCE_SLOTS slots, each tagged with the vector key and
    varsigma2 whose distances it holds, together with that vector's table
    operands (diff, g, root), which the gradient reuses; a miss refills the
    least recently used slot. The exponential buffer is tagged with the
    (key, varsigma2, beta) of the objective that filled it and with their
    sum, so a gradient at the same point reuses them. Not thread-safe:
    vectors that share a workspace must not be evaluated concurrently.
    """

    def __init__(self, n_pairs: int):
        self.n_pairs = n_pairs
        self._slots: list[_Slot] = []  # least recent first
        self._exp: np.ndarray | None = None
        self._exp_tag: tuple | None = None
        self._exp_total = None
        self._index: np.ndarray | None = None

    def slot(self, key: object, varsigma2: float, fill) -> _Slot:
        """The slot of (key, varsigma2); fill(varsigma2, out) fills a missing
        one's distances into out and returns its table operands."""
        for i, s in enumerate(self._slots):
            if s.key is key and s.varsigma2 == varsigma2:
                self._slots.append(self._slots.pop(i))
                return s
        if len(self._slots) < _DISTANCE_SLOTS:
            s = _Slot(self.n_pairs)
        else:
            s = self._slots.pop(0)
        s.parts = fill(varsigma2, s.d)
        s.key, s.varsigma2 = key, varsigma2
        self._slots.append(s)
        return s

    def exp_buffer(self) -> np.ndarray:
        """Scratch for the shifted exponentials and the softmin weights."""
        if self._exp is None:
            self._exp = np.empty(self.n_pairs)
        return self._exp

    def keep_exp(self, tag: tuple, total) -> None:
        """Record that the exponential buffer holds the exponentials of tag, summing to total."""
        self._exp_tag, self._exp_total = tag, total

    def take_exp(self, tag: tuple):
        """The sum of the exponentials of tag if the buffer holds them, else None.

        The caller overwrites the buffer, so it no longer counts as holding any.
        """
        total = self._exp_total if self._exp_tag == tag else None
        self._exp_tag = self._exp_total = None
        return total

    def index_buffer(self) -> np.ndarray:
        """Scratch for one intp block of at most _GATHER_CHUNK pair indices."""
        if self._index is None:
            self._index = np.empty(min(self.n_pairs, _GATHER_CHUNK), dtype=np.intp)
        return self._index


@dataclass(frozen=True)
class StackedVector:
    """Stacked constellation entries plus the per-resource structure of the points.

    L concatenates vec(C_1), ..., vec(C_J) (row-major N x M blocks). The
    rotated distance of a pair is a sum over resources of a term that depends
    only on the two points' values there, so all pair distances are gathered
    from one small Q x Q table per resource. Vectors of one structure (built
    by stack_codebook_set and derived by replace) share one PairWorkspace, in
    which the distances of the last few (vector, varsigma2) evaluated are
    kept; L must therefore not be changed in place (use replace, which gives
    the new vector its own key).
    """

    L: np.ndarray
    stack: ResourceStack
    n_points: int
    workspace: PairWorkspace = field(repr=False, compare=False)
    _key: object = field(default_factory=object, init=False, repr=False, compare=False)

    def replace(self, L: np.ndarray) -> "StackedVector":
        return StackedVector(L=L, stack=self.stack, n_points=self.n_points,
                             workspace=self.workspace)

    def distances(self, varsigma2: float) -> np.ndarray:
        """Read-only rotated distances of all unordered point pairs (triu order).

        The array is a view of a workspace slot. It stays valid until the
        distances of _DISTANCE_SLOTS other (vector, varsigma2) combinations of
        this structure have been computed (distances, logsumexp_objective and
        logsumexp_gradient compute them); copy it to keep it longer. Raises
        DomainError unless varsigma2 is finite and >= 0.
        """
        _check_varsigma2(varsigma2)
        d = self._slot(varsigma2).d.view()
        d.flags.writeable = False
        return d

    def _slot(self, varsigma2: float) -> _Slot:
        return self.workspace.slot(self._key, varsigma2, self._fill)

    def _fill(self, varsigma2: float, out: np.ndarray):
        parts = _table_parts(self.stack.values(self.L), varsigma2)
        _gather_distances(list(_distance_tables(parts)), self.stack.pair_flat, out)
        return parts


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


def stack_codebook_set(cb_set: CodebookSet) -> StackedVector:
    """Build the StackedVector of a codebook set (L entries and resource structure)."""
    L, layout = resource_layout(cb_set)
    digits = point_digits(cb_set.params)
    K = len(layout)
    Qmax = max(len(r.cols) for r in layout)
    dmax = max(len(r.users) for r in layout)
    cols = np.zeros((K, Qmax, dmax), dtype=np.intp)
    gains = np.zeros((K, Qmax, dmax))
    real = np.zeros((K, Qmax, dmax), dtype=bool)
    short: dict[int, list[int]] = {}
    for k, r in enumerate(layout):
        Q, d = r.cols.shape
        cols[k, :Q, :d] = r.cols
        gains[k, :Q, :d] = r.gains
        real[k, :Q, :d] = True
        if Q < Qmax:
            short.setdefault(Q, []).append(k)
    k_of, q_of, _ = np.nonzero(real)
    stack = ResourceStack(
        cols=cols, gains=gains,
        pair_flat=tuple(_pair_flat(r.combos(digits), Qmax) for r in layout),
        short_rows=tuple((Q, np.array(ks)) for Q, ks in short.items()),
        entry_rows=k_of * Qmax + q_of, entry_cols=cols[real], entry_gains=gains[real],
    )
    P = len(digits)
    return StackedVector(L=L, stack=stack, n_points=P,
                         workspace=PairWorkspace(P * (P - 1) // 2))


def _pair_flat(a: np.ndarray, stride: int) -> np.ndarray:
    """a[i] * stride + a[j] over all pairs i < j, row by row (no P^2 index arrays)."""
    P = len(a)
    out = np.empty(P * (P - 1) // 2, dtype=np.min_scalar_type(stride * stride - 1))
    lo = 0
    for i in range(P - 1):
        hi = lo + P - 1 - i
        out[lo:hi] = a[i] * stride + a[i + 1:]
        lo = hi
    return out


def _table_parts(v: np.ndarray, varsigma2: float):
    """(diff, g, root) of the (K, Q, Q) distance tables diff^2 / root of (K, Q) values v.

    diff[k, a, b] = v[k, a] - v[k, b], g = varsigma2 * v + 1 and
    root[k, a, b] = sqrt(g[k, a] * g[k, b]), the operands of the pairwise
    rotated distance.
    """
    g = varsigma2 * v + 1.0
    diff = v[:, :, None] - v[:, None, :]
    return diff, g, np.sqrt(g[:, :, None] * g[:, None, :])


def _distance_tables(parts) -> np.ndarray:
    """(K, Q * Q) flattened distance tables diff^2 / root from their operands."""
    diff, _, root = parts
    return (diff * diff / root).reshape(len(diff), -1)


def _gather_distances(tables, pair_flats, out: np.ndarray) -> np.ndarray:
    """Rotated pair distances from flattened per-resource tables and pair indices, into out.

    Resource k contributes entry pair_flats[k][p] of tables[k]; out is zeroed
    and the terms are added in resource order, which defines the result. The
    gather runs in chunks of pairs.
    """
    out.fill(0.0)
    for lo in range(0, len(out), _TAKE_CHUNK):
        part = out[lo:lo + _TAKE_CHUNK]
        for table, flat in zip(tables, pair_flats):
            part += table.take(flat[lo:lo + _TAKE_CHUNK])
    return out


def _check_varsigma2(varsigma2: float) -> None:
    if not (isfinite(varsigma2) and varsigma2 >= 0):
        raise DomainError(f"varsigma2 must be finite and >= 0, got {varsigma2}")


def _check_noise(sigma2: float, varsigma2: float) -> None:
    """Raise DomainError unless sigma2 is finite and > 0 and varsigma2 finite and >= 0."""
    if not (isfinite(sigma2) and sigma2 > 0):
        raise DomainError(f"sigma2 must be finite and > 0, got {sigma2}")
    _check_varsigma2(varsigma2)


def red(s_i: np.ndarray, s_j: np.ndarray, varsigma2: float) -> float:
    """Rotated squared distance between two superimposed codewords.

    Each squared component difference is divided by the geometric mean of the
    two points' shot-noise factors (varsigma2 * s + 1); varsigma2 = 0 recovers
    the plain squared Euclidean distance.
    """
    _check_varsigma2(varsigma2)
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    if s_i.shape != s_j.shape:
        raise DomainError("points must have equal length")
    if not (np.isfinite(s_i).all() and np.isfinite(s_j).all()):
        raise DomainError("superimposed codewords must be finite")
    if np.any(s_i < 0) or np.any(s_j < 0):
        raise DomainError("superimposed codewords must be componentwise nonnegative")
    g = np.sqrt((varsigma2 * s_i + 1.0) * (varsigma2 * s_j + 1.0))
    d = s_i - s_j
    return float(np.sum(d * d / g))


def pairwise_report(
    constellation: SuperConstellation, varsigma2: float, bins: int | None = None
) -> DistanceReport:
    """d_min/d_max of the rotated distance over all unordered point pairs.

    Each column of the points becomes one table over its distinct values, and
    the pair distances are gathered from those tables as the designer's are.
    Raises CapacityError above DEFAULT_MAX_POINTS points.
    """
    _check_varsigma2(varsigma2)
    points = np.asarray(constellation.points, dtype=float)
    P = len(points)
    if P > DEFAULT_MAX_POINTS:
        raise CapacityError(f"{P} points exceed the limit {DEFAULT_MAX_POINTS}")
    if P < 2:
        raise DomainError("a distance report needs at least two points")
    if not np.isfinite(points).all() or np.any(points < 0):
        raise DomainError("superimposed codewords must be finite and nonnegative")
    tables, pair_flats = [], []
    for column in points.T:
        v, a = np.unique(column, return_inverse=True)
        tables.append(_distance_tables(_table_parts(v[None, :], varsigma2))[0])
        pair_flats.append(_pair_flat(a, len(v)))
    d = _gather_distances(tables, pair_flats, np.empty(P * (P - 1) // 2))
    histogram = np.histogram(d, bins=bins) if bins is not None else None
    return DistanceReport(d_min=float(d.min()), d_max=float(d.max()),
                          pair_count=len(d), histogram=histogram)


def _check_stacked(L: StackedVector, beta: float, varsigma2: float):
    if not (isfinite(beta) and beta > 0):
        raise DomainError(f"beta must be finite and > 0, got {beta}")
    _check_varsigma2(varsigma2)
    # The min is NaN if any entry is; the max catches +inf.
    if not (L.L.min() >= 0 and L.L.max() < inf):
        raise DomainError("stacked constellation entries must be finite and nonnegative")


def _shifted_exp(d: np.ndarray, d_min: float, beta: float, out: np.ndarray) -> np.ndarray:
    """exp(-beta * (d - d_min)), computed in out."""
    np.subtract(d, d_min, out=out)
    out *= -beta
    return np.exp(out, out=out)


def _bin_pairs(flat: np.ndarray, w: np.ndarray, index: np.ndarray, n_bins: int) -> np.ndarray:
    """Sum of the pair weights w per entry of flat, over blocks of len(index) pairs.

    Each block of indices is copied into the intp buffer index, so np.bincount
    reads it without making its own copy; the block sums are added in order.
    """
    W = None
    for lo in range(0, len(w), len(index)):
        block = index[:len(w) - lo]
        np.copyto(block, flat[lo:lo + len(block)])
        part = np.bincount(block, weights=w[lo:lo + len(block)], minlength=n_bins)
        if W is None:
            W = part
        else:
            W += part
    return W


def logsumexp_objective(L: StackedVector, beta: float, varsigma2: float) -> float:
    """Smoothed soft-minimum of all pairwise rotated distances.

    Returns (1/beta) * ln sum_{i<j} exp(-beta * d_ij); the exponent is shifted
    by the minimum distance before summation so beta * d overflow cannot occur.
    The exponentials stay in the workspace for a gradient at the same point.
    """
    _check_stacked(L, beta, varsigma2)
    d = L._slot(varsigma2).d
    d_min = d.min()
    total = _shifted_exp(d, d_min, beta, L.workspace.exp_buffer()).sum()
    L.workspace.keep_exp((L._key, varsigma2, beta), total)
    return float(np.log(total) / beta - d_min)


def logsumexp_gradient(L: StackedVector, beta: float, varsigma2: float) -> np.ndarray:
    """Analytic gradient of logsumexp_objective with respect to the entries of L.

    The softmin pair weights are binned onto each resource's Q x Q table,
    chained through the tables' derivative in the resource values, and the
    value gradients are binned onto the entries of L. The table operands come
    from the distance slot, and the exponentials from the last objective
    when it was evaluated at the same (point, varsigma2, beta).
    """
    _check_stacked(L, beta, varsigma2)
    ws, stack = L.workspace, L.stack
    slot = L._slot(varsigma2)
    w = ws.exp_buffer()
    total = ws.take_exp((L._key, varsigma2, beta))
    if total is None:
        total = _shifted_exp(slot.d, slot.d.min(), beta, w).sum()
    w /= total

    diff, g, root = slot.parts
    K, Q = g.shape
    index = ws.index_buffer()
    W = np.empty((K, Q * Q))
    for k, flat in enumerate(stack.pair_flat):
        W[k] = _bin_pairs(flat, w, index, Q * Q)
    W = W.reshape(K, Q, Q)
    # d(table[k, a, b])/d(v[k, a]); the tables are symmetric, so v[k, a]
    # collects the weights of the pairs where it is the first or the second point.
    dt = 2.0 * diff / root - 0.5 * varsigma2 * diff * diff / (g[:, :, None] * root)
    terms = (W + W.transpose(0, 2, 1)) * dt
    dv = -terms.sum(axis=2)
    for q, ks in stack.short_rows:
        dv[ks, :q] = -terms[ks, :q, :q].sum(axis=2)
    weights = dv.reshape(-1)[stack.entry_rows]
    weights *= stack.entry_gains
    return np.bincount(stack.entry_cols, weights=weights, minlength=L.L.size)


def epd_ellipses(
    book: Codebook, sigma2: float, varsigma2: float, confidence: float = 0.95
) -> list[EpdEllipse]:
    """Equal-probability-density ellipse of each 2D constellation point.

    The IDGN covariance is diagonal, so the axes are coordinate aligned; the
    semi-axis along dimension n is sqrt(q * (varsigma2*sigma2*c_n + sigma2))
    with q the chi-square(2) quantile at the requested confidence.
    """
    _check_noise(sigma2, varsigma2)
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
