"""Distance geometry of the superimposed constellation.

Implements the shot-noise-rotated squared distance between superimposed
codewords, its min/max over all point pairs, the smoothed maxi-min objective
with its analytic gradient, and equal-probability-density ellipse analytics.

Every pair distance is a sum over resources of entries of small per-resource
tables: a resource takes only a few distinct values (M^d with d users on it),
so one gather adds the table entries of all pairs through one pair index. The
tables are laid end to end in one flat array, and row k of the (K, n) pair
index points into table k, so one builder (_pair_index) and one gather
(_gather_tables) serve both callers. The designer stacks its per-resource
structure and pair index once per codebook structure, zero-padded to the
largest resource, and builds the tables of all resources in one set of array
operations; pairwise_report builds one unpadded table per column of the points
from its distinct values. When all K * n (resource, pair) entries fit one
gather step (_TAKE_CHUNK; J=3), a distance fill is one np.take and a gradient
bins its pair weights with one np.bincount; larger structures gather and bin
row by row, the gather in chunks of pairs. Both add the same terms in the same
order, so they give the same floats. Up to J=4 the pair index is intp, so no
call converts it; every gather writes into the PairWorkspace's buffers, as do
the table operands and the gradient's derivative chain, so a warm objective
or gradient allocates nothing pair-sized.
The resource layout itself (users, L columns, gains, combination indices)
comes from model.resource_layout, which the decoder and the union bound read
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, log

import numpy as np

from .errors import CapacityError, DimensionError, DomainError, UnsupportedError
from .errors import check_array, check_integer, check_real
from .model import DEFAULT_MAX_POINTS, Codebook, CodebookSet
from .model import SuperConstellation, point_digits, resource_layout
from .model import enumerate_superimposed  # noqa: F401  (benchmarks/tracing.py wraps this name)

# 95% quantile of the chi-square distribution with 2 degrees of freedom,
# as conventionally quoted to 4 significant digits.
CHI2_2_Q95 = 5.991

# Bound on the entries of an intp pair index. An index whose K * n
# (resource, pair) entries fit it (J <= 4: 130,560 at J=4, about 1 MB) is
# intp, which np.take and np.bincount read in place. Larger ones (J=5: 2.1M)
# keep the smallest unsigned dtype, and the gradient widens each row block by
# block into the workspace's intp index buffer, which holds this many pairs:
# every pair up to J=5 (523,776), splitting only J=6 (8,386,560). The block
# sums are added in order, so the gradient's rounding depends on the block
# length.
_GATHER_CHUNK = 1 << 20

# Pairs per step of the distance gather (any value gives the same floats).
# Each resource's terms of a step are taken into a 128 KiB scratch, small
# enough to sit in L2; at J=4 (32,640 pairs) full-size temporaries made glibc
# grow and trim the heap on every call, about 27,000 page faults per design.
# A pair index whose K * n (resource, pair) entries fit one step is gathered,
# and binned, for all resources at once (_gather_scratch).
_TAKE_CHUNK = 1 << 14


@dataclass(frozen=True)
class ResourceStack:
    """The per-resource structure of one codebook structure, stacked over resources.

    Resource k has Q_k = M^d_k values (d_k users); the arrays are padded to
    Qmax rows and dmax users. cols[k, q, u] indexes the stacked entries L at
    user u's entry in combination q, and gains[k, q, u] is that user's gain
    on resource k; padding points at entry 0 with gain 0, so padded values
    are 0. pairs[k, p] = k * Qmax^2 + a(i) * Qmax + a(j) for the p-th
    unordered pair i < j in np.triu_indices order, where a(i) is the
    combination (in the layout's mixed radix) of superimposed point i on
    resource k: an index into the K flattened Qmax x Qmax tables laid end to
    end (see _pair_index for its dtype).
    """

    cols: np.ndarray   # (K, Qmax, dmax) intp
    gains: np.ndarray  # (K, Qmax, dmax)
    pairs: np.ndarray  # (K, n)
    # (Q, resources with Q < Qmax rows): the gradient sums their table rows
    # over their own Q columns, so that every row sum has the length, and so
    # the summation order, of an unpadded table's row.
    short_rows: tuple[tuple[int, np.ndarray], ...]

    def values(self, L: np.ndarray) -> np.ndarray:
        """(K, Qmax) resource values, each summed in user order."""
        terms = L[self.cols]
        terms *= self.gains
        v = np.zeros(terms.shape[:2])
        for u in range(terms.shape[2]):
            v += terms[:, :, u]
        return v


class PairWorkspace:
    """Buffers shared by the StackedVectors of one structure.

    The objective and gradient need arrays with one entry per point pair:
    the distances d and the shifted exponentials (or softmin weights) exp.
    At J=4 each is 261 KB, above glibc's default 128 KiB mmap threshold, so
    allocating them per call made the heap grow and trim on every call
    (about 31,000 minor faults per design-j4 design). The gather writes into
    one scratch too (_gather_scratch): (K, n) when all K * n terms fit one
    gather step, where it also holds the gradient's broadcast weights, else
    one step of pairs. When the pair index is narrower than intp, an intp
    index block holds the row blocks that np.bincount reads. The (K, Q, Q)
    table operands (diff, g, root) are kept in parts; table holds the
    distance tables in a fill and g * root in a gradient, and dt and wt the
    gradient's derivative tables and its weighted W + W^T. The workspace
    allocates its buffers once with np.empty, which touches no page until a
    buffer is used, and reuses them.

    The designer evaluates the objective at a point and then, if it accepts
    the point, the gradient at that same point, so the workspace records
    only the last evaluation: d_tag = (vector key, varsigma2) of the
    distances in d and of the table operands in parts, and exp_tag = (vector
    key, varsigma2, beta) of the exponentials in exp, with their sum
    exp_total. A tag of None records nothing. Not thread-safe: vectors that
    share a workspace must not be evaluated concurrently.
    """

    def __init__(self, stack: ResourceStack):
        K, Q = stack.gains.shape[:2]
        n = stack.pairs.shape[1]
        self.d = np.empty(n)
        self.exp = np.empty(n)
        self.scratch = _gather_scratch(stack.pairs)
        self.index = None
        if stack.pairs.dtype != np.intp:
            self.index = np.empty(min(n, _GATHER_CHUNK), dtype=np.intp)
        self.parts = (np.empty((K, Q, Q)), np.empty((K, Q)), np.empty((K, Q, Q)))
        self.table, self.dt, self.wt = np.empty((3, K, Q, Q))
        self.d_tag = None
        self.exp_tag = self.exp_total = None


@dataclass(frozen=True)
class StackedVector:
    """Stacked constellation entries plus the per-resource structure of the points.

    L concatenates vec(C_1), ..., vec(C_J) (row-major N x M blocks). The
    rotated distance of a pair is a sum over resources of a term that depends
    only on the two points' values there, so all pair distances are gathered
    from one small Q x Q table per resource. Vectors of one structure (built
    by stack_codebook_set and derived by replace) share one PairWorkspace, in
    which the distances of the last (vector, varsigma2) evaluated are kept;
    L must therefore not be changed in place (use replace, which gives the
    new vector its own key).
    """

    L: np.ndarray
    stack: ResourceStack
    n_points: int
    workspace: PairWorkspace = field(repr=False, compare=False)
    _key: object = field(default_factory=object, init=False, repr=False, compare=False)

    def replace(self, L: np.ndarray) -> "StackedVector":
        """The vector of this structure at entries L, sharing its workspace.

        Integer entries are converted to float. Raises DomainError unless L
        holds integers or floats, and DimensionError unless it has the shape
        of this vector's entries.
        """
        # numpy shares one dtype instance among native float64 arrays, so the
        # designer's candidates pass an identity test; anything else is checked.
        if getattr(L, "dtype", None) is not self.L.dtype:
            L = check_array("L", L, DomainError, finite=False)
        if L.shape != self.L.shape:
            raise DimensionError(f"L must have shape {self.L.shape}, got {L.shape}")
        return StackedVector(L=L, stack=self.stack, n_points=self.n_points,
                             workspace=self.workspace)

    def distances(self, varsigma2: float) -> np.ndarray:
        """Read-only rotated distances of all unordered point pairs (triu order).

        The array is a view of the workspace's distance buffer. It stays
        valid until the distances of another (vector, varsigma2) of this
        structure are computed (distances, logsumexp_objective and
        logsumexp_gradient compute them); copy it to keep it longer. Raises
        DomainError unless varsigma2 is finite and >= 0 and the entries of L
        are finite and nonnegative.
        """
        check_real("varsigma2", varsigma2, DomainError, least=0)
        d = self._fill(varsigma2).d.view()
        d.flags.writeable = False
        return d

    def _fill(self, varsigma2: float) -> PairWorkspace:
        """The workspace, holding this vector's distances and table operands at varsigma2.

        The entries of L are checked once per fill: a vector must not be
        changed in place, so a recorded point was checked when it was filled.
        """
        ws, tag = self.workspace, (self._key, varsigma2)
        if ws.d_tag != tag:
            # The min is NaN if any entry is; the max catches +inf.
            if not (self.L.min() >= 0 and self.L.max() < inf):
                raise DomainError("stacked constellation entries must be finite and nonnegative")
            ws.d_tag = None
            _table_parts(self.stack.values(self.L), varsigma2, ws.parts)
            tables = _distance_tables(ws.parts, ws.table)
            _gather_tables(tables, self.stack.pairs, ws.d, ws.scratch)
            ws.d_tag = tag
        return ws


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
    short: dict[int, list[int]] = {}
    for k, r in enumerate(layout):
        Q, d = r.cols.shape
        cols[k, :Q, :d] = r.cols
        gains[k, :Q, :d] = r.gains
        if Q < Qmax:
            short.setdefault(Q, []).append(k)
    stack = ResourceStack(
        cols=cols, gains=gains,
        pairs=_pair_index([r.combos(digits) for r in layout], [Qmax] * K),
        short_rows=tuple((Q, np.array(ks)) for Q, ks in short.items()),
    )
    return StackedVector(L=L, stack=stack, n_points=len(digits),
                         workspace=PairWorkspace(stack))


def _pair_index(combos, sizes) -> np.ndarray:
    """(K, n) pair index into K flattened sizes[k] x sizes[k] tables laid end to end.

    Row k holds start_k + a(i) * sizes[k] + a(j) for all pairs i < j of the P
    points in np.triu_indices order, where a = combos[k] and start_k is the
    sum of the earlier tables' sizes; it is built row by row, with no P^2
    index arrays. The index is intp when all K * n entries fit _GATHER_CHUNK,
    else in the smallest unsigned dtype that indexes every table entry.
    """
    P = len(combos[0])
    n = P * (P - 1) // 2
    starts = np.cumsum([0] + [Q * Q for Q in sizes]).tolist()
    dtype = np.intp if len(sizes) * n <= _GATHER_CHUNK else np.min_scalar_type(starts[-1] - 1)
    pairs = np.empty((len(sizes), n), dtype=dtype)
    for row, a, Q, start in zip(pairs, combos, sizes, starts):
        lo = 0
        for i in range(P - 1):
            hi = lo + P - 1 - i
            row[lo:hi] = a[i] * Q + start + a[i + 1:]
            lo = hi
    return pairs


def _table_parts(v: np.ndarray, varsigma2: float, out):
    """(diff, g, root) of the (K, Q, Q) distance tables diff^2 / root of (K, Q) values v, into out.

    diff[k, a, b] = v[k, a] - v[k, b], g = varsigma2 * v + 1 and
    root[k, a, b] = sqrt(g[k, a] * g[k, b]), the operands of the pairwise
    rotated distance; out is a (diff, g, root) tuple of buffers.
    """
    diff, g, root = out
    np.multiply(v, varsigma2, out=g)
    g += 1.0
    np.subtract(v[:, :, None], v[:, None, :], out=diff)
    np.multiply(g[:, :, None], g[:, None, :], out=root)
    np.sqrt(root, out=root)
    return out


def _distance_tables(parts, out: np.ndarray) -> np.ndarray:
    """Distance tables diff^2 / root from their operands, into out, flattened end to end."""
    diff, _, root = parts
    np.multiply(diff, diff, out=out)
    out /= root
    return out.reshape(-1)


def _gather_scratch(pairs: np.ndarray) -> np.ndarray:
    """The gather's scratch for a (K, n) pair index: (K, n) if all K * n terms fit one step."""
    # At desk scale (J=3: K * n = 8,064) a call costs per-row call overhead
    # more than arithmetic. Stacking a larger index is slower: at J=4
    # (130,560) a stacked ls-j4 fill took 151-156 us against 142-143 us row
    # by row, and objective plus gradient 488-514 us against 446-458 us
    # (best of 15 rounds over 50 points, 2-core Xeon).
    K, n = pairs.shape
    return np.empty((K, n) if K * n <= _TAKE_CHUNK else min(n, _TAKE_CHUNK))


def _gather_tables(tables: np.ndarray, pairs: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """Rotated pair distances from the flattened tables and a (K, n) pair index, into out.

    Row k of pairs takes resource k's terms, and the terms are added in
    resource order, which defines the result. With a (K, n) scratch one
    np.take fills it with every term and its rows are summed (numpy reduces
    the slow axis row by row); otherwise the gather runs in steps of
    len(scratch) pairs, the first row's terms taken straight into out and
    each later row's into scratch and then added. No term is -0.0, so both
    give the same floats as adding the first row to 0. The indices are in
    range by construction, so every take runs with mode="clip", which writes
    straight into its out (mode="raise" buffers it).
    """
    if scratch.shape == pairs.shape:
        tables.take(pairs, out=scratch, mode="clip")
        return np.add.reduce(scratch, axis=0, out=out)
    step = len(scratch)
    for lo in range(0, len(out), step):
        part = out[lo:lo + step]
        tables.take(pairs[0, lo:lo + step], out=part, mode="clip")
        buf = scratch[:len(part)]
        for row in pairs[1:]:
            tables.take(row[lo:lo + step], out=buf, mode="clip")
            part += buf
    return out


def _codeword_pair(s_i, s_j) -> tuple[np.ndarray, np.ndarray]:
    """Two superimposed codewords as float arrays of finite, nonnegative intensities."""
    s_i, s_j = (check_array("codewords", s, DomainError, nonnegative=True) for s in (s_i, s_j))
    if s_i.shape != s_j.shape:
        raise DomainError("points must have equal length")
    return s_i, s_j


def red(s_i: np.ndarray, s_j: np.ndarray, varsigma2: float) -> float:
    """Rotated squared distance between two superimposed codewords.

    Each squared component difference is divided by the geometric mean of the
    two points' shot-noise factors (varsigma2 * s + 1); varsigma2 = 0 recovers
    the plain squared Euclidean distance.
    """
    check_real("varsigma2", varsigma2, DomainError, least=0)
    s_i, s_j = _codeword_pair(s_i, s_j)
    g = np.sqrt((varsigma2 * s_i + 1.0) * (varsigma2 * s_j + 1.0))
    d = s_i - s_j
    return float(np.sum(d * d / g))


def pairwise_report(
    constellation: SuperConstellation, varsigma2: float, bins: int | None = None
) -> DistanceReport:
    """d_min/d_max of the rotated distance over all unordered point pairs.

    Each column of the points becomes one table over its distinct values, at
    its own size, and the pair distances are gathered from those tables as
    the designer's are.
    bins, None or an integer >= 1, asks for a histogram of the distances.
    Raises CapacityError above DEFAULT_MAX_POINTS points.
    """
    check_real("varsigma2", varsigma2, DomainError, least=0)
    if bins is not None:
        check_integer("bins", bins, DomainError, least=1)
    points = check_array("points", constellation.points, DomainError, nonnegative=True)
    if points.ndim != 2:
        raise DimensionError("the points must be a (P, K) array")
    P = len(points)
    if P > DEFAULT_MAX_POINTS:
        raise CapacityError(f"{P} points exceed the limit {DEFAULT_MAX_POINTS}")
    if P < 2:
        raise DomainError("a distance report needs at least two points")
    d = _column_distances(points, varsigma2)
    histogram = np.histogram(d, bins=bins) if bins is not None else None
    return DistanceReport(d_min=float(d.min()), d_max=float(d.max()),
                          pair_count=len(d), histogram=histogram)


def _column_distances(points: np.ndarray, varsigma2: float) -> np.ndarray:
    """Rotated distances of all unordered pairs of the (P, K) points (triu order).

    Column k's table covers its Q_k distinct values, laid end to end after
    the earlier columns' tables. The pair index, as large as the distances
    or larger, is freed on return, before the caller's histogram.
    """
    columns = [np.unique(column, return_inverse=True) for column in points.T]
    sizes = [len(v) for v, _ in columns]
    pairs = _pair_index([a for _, a in columns], sizes)
    tables = np.empty(sum(Q * Q for Q in sizes))
    start = 0
    for (v, _), Q in zip(columns, sizes):
        table = tables[start:start + Q * Q].reshape(1, Q, Q)
        parts = _table_parts(v[None, :], varsigma2, (table, np.empty((1, Q)), np.empty((1, Q, Q))))
        _distance_tables(parts, table)
        start += Q * Q
    return _gather_tables(tables, pairs, np.empty(pairs.shape[1]), _gather_scratch(pairs))


def _check_smoothing(beta: float, varsigma2: float):
    check_real("beta", beta, DomainError, above=0)
    check_real("varsigma2", varsigma2, DomainError, least=0)


def _shifted_exp(d: np.ndarray, d_min: float, beta: float, out: np.ndarray) -> np.ndarray:
    """exp(-beta * (d - d_min)), computed in out."""
    np.subtract(d, d_min, out=out)
    out *= -beta
    return np.exp(out, out=out)


def _bin_pairs(pairs: np.ndarray, w: np.ndarray, index: np.ndarray | None, n_bins: int) -> np.ndarray:
    """Sum of the pair weights w per entry of a (K, n) pair index, binned row by row.

    An intp index (index None; it fits one _GATHER_CHUNK block) is binned in
    place. A narrower one is copied block by block into the intp buffer
    index, so np.bincount reads it without making its own copy. The row and
    block sums are added in order; a row's bins hold none of the other rows'
    entries, so each bin gets its own row's block sums plus exact zeros.
    """
    W = np.zeros(n_bins)
    step = len(w) if index is None else len(index)
    for row in pairs:
        for lo in range(0, len(w), step):
            block = row[lo:lo + step]
            if index is not None:
                np.copyto(index[:len(block)], block)
                block = index[:len(block)]
            W += np.bincount(block, weights=w[lo:lo + step], minlength=n_bins)
    return W


def logsumexp_objective(L: StackedVector, beta: float, varsigma2: float) -> float:
    """Smoothed soft-minimum of all pairwise rotated distances.

    Returns (1/beta) * ln sum_{i<j} exp(-beta * d_ij); the exponent is shifted
    by the minimum distance before summation so beta * d overflow cannot occur.
    The exponentials stay in the workspace for a gradient at the same point.
    """
    _check_smoothing(beta, varsigma2)
    ws = L._fill(varsigma2)
    d_min = ws.d.min()
    ws.exp_tag = None
    ws.exp_total = _shifted_exp(ws.d, d_min, beta, ws.exp).sum()
    ws.exp_tag = (L._key, varsigma2, beta)
    return float(np.log(ws.exp_total) / beta - d_min)


def logsumexp_gradient(L: StackedVector, beta: float, varsigma2: float) -> np.ndarray:
    """Analytic gradient of logsumexp_objective with respect to the entries of L.

    The softmin pair weights are binned onto each resource's Q x Q table,
    chained through the tables' derivative in the resource values, and the
    value gradients are binned onto the entries of L. The table operands come
    from the workspace's record of the point, and the exponentials from the
    last objective when it was evaluated at the same (point, varsigma2, beta).
    """
    _check_smoothing(beta, varsigma2)
    ws, stack = L._fill(varsigma2), L.stack
    w, total = ws.exp, ws.exp_total
    if ws.exp_tag != (L._key, varsigma2, beta):
        total = _shifted_exp(ws.d, ws.d.min(), beta, w).sum()
    # w becomes the softmin weights, so it no longer holds exponentials.
    ws.exp_tag = None
    w /= total

    diff, g, root = ws.parts
    K, Q = g.shape
    if ws.scratch.shape == stack.pairs.shape:
        # Resource k's bins are offset by k * Q^2, so each bin adds its
        # weights in pair order from 0, as a bincount per resource does.
        np.copyto(ws.scratch, w)
        W = np.bincount(stack.pairs.ravel(), weights=ws.scratch.ravel(), minlength=K * Q * Q)
    else:
        W = _bin_pairs(stack.pairs, w, ws.index, K * Q * Q)
    W = W.reshape(K, Q, Q)
    # d(table[k, a, b])/d(v[k, a]); the tables are symmetric, so v[k, a]
    # collects the weights of the pairs where it is the first or the second point.
    # dt = 2 diff / root - 0.5 varsigma2 diff^2 / (g root), in that order of operations.
    dt = np.multiply(diff, 2.0, out=ws.dt)
    dt /= root
    curv = np.multiply(diff, 0.5 * varsigma2, out=ws.wt)
    curv *= diff
    curv /= np.multiply(g[:, :, None], root, out=ws.table)
    dt -= curv
    terms = np.add(W, W.transpose(0, 2, 1), out=ws.wt)
    terms *= dt
    dv = -terms.sum(axis=2)
    for q, ks in stack.short_rows:
        dv[ks, :q] = -terms[ks, :q, :q].sum(axis=2)
    # Padding has gain 0, so its entries add exact zeros to the sums.
    weights = dv[:, :, None] * stack.gains
    return np.bincount(stack.cols.ravel(), weights=weights.ravel(), minlength=L.L.size)


def epd_ellipses(
    book: Codebook, sigma2: float, varsigma2: float, confidence: float = 0.95
) -> list[EpdEllipse]:
    """Equal-probability-density ellipse of each 2D constellation point.

    The IDGN covariance is diagonal, so the axes are coordinate aligned; the
    semi-axis along dimension n is sqrt(q * (varsigma2*sigma2*c_n + sigma2))
    with q the chi-square(2) quantile at the requested confidence.
    """
    check_real("sigma2", sigma2, DomainError, above=0)
    check_real("varsigma2", varsigma2, DomainError, least=0)
    check_real("confidence", confidence, DomainError, above=0, below=1)
    if book.C.shape[0] != 2:
        raise UnsupportedError("EPD ellipses are defined for 2D constellations (N = 2)")
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
