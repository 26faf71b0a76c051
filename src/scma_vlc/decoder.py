"""Multi-user detection on the SCMA factor graph.

One batched log-domain message-passing kernel serves both detectors, with
input-dependent per-resource noise variance: Max-Log (the marginalizer is
``max``) and sum-product (a max-shifted log-sum-exp). A brute-force joint MAP
oracle sits beside them. Inside the kernel the frame axis is last: each
resource's channel metric is one contiguous (M,)*d + (T,) array, messages are
(M, T) arrays indexed by edge, and a message meets its axis of the metric by
reshape. The public batch function takes frames on axis 0; the single-vector
functions wrap a batch of one. Each resource's users, superimposed values and
combination order come from model.resource_layout, shared with the designer
and the union bound. On a cycle-free graph the kernel stops after the number
of flooding iterations that makes every message final, fixed by the graph.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .model import DEFAULT_MAX_POINTS, CodebookSet, ResourceLayout, enumerate_superimposed
from .model import label_table, resource_layout

DEFAULT_ITERS = 6

# Largest y^2 / (2 sigma2) a received value y may give; while |y| dominates
# the intensities this bounds its channel metric. Max-Log messages are not
# normalized and grow with every iteration (about twofold at degree 3), so
# this leaves room for hundreds of iterations before they overflow to inf
# and the LLRs turn NaN.
_METRIC_LIMIT = 1e150


@dataclass
class OpCounts:
    exponential: int = 0
    multiplication: int = 0
    addition: int = 0
    comparison: int = 0


@dataclass
class DecoderState:
    """Messages, beliefs and decisions for one received vector.

    Message tables are keyed by (k, j) with 1-based resource/user indices and
    exist exactly for the edges of the factor graph. Messages and beliefs are
    in the log domain.
    """

    rn_to_vn: dict[tuple[int, int], np.ndarray]
    vn_to_rn: dict[tuple[int, int], np.ndarray]
    beliefs: np.ndarray   # (J, M) log-domain
    llrs: np.ndarray      # (J, b)
    hard_bits: np.ndarray  # (J, b)
    op_counts: OpCounts | None = None


@dataclass
class _Tables:
    """Per-resource decoder tables of one codebook set, read from its layout."""

    params: object
    layout: tuple[ResourceLayout, ...]
    edges: list[tuple[int, int]]          # (k, j) 0-based, by resource then neighbour position
    rn_edges: list[list[int]]             # per RN, edge ids in neighbour-position order
    vn_edges: list[list[int]]             # per VN, edge ids in resource order
    values: list[np.ndarray]              # per RN, (M^d,) superimposed intensity
    rho2: list[np.ndarray]                # per RN, (M^d,)
    labels: np.ndarray                    # (M, b) natural-binary label of each symbol
    settle: int | None                    # iterations until every message is final


def _build_tables(cb_set: CodebookSet) -> _Tables:
    p = cb_set.params
    L, layout = resource_layout(cb_set)
    edges = [(k, j) for k, r in enumerate(layout) for j in r.users]
    rn_edges = [[e for e, (k, _) in enumerate(edges) if k == rn] for rn in range(p.K)]
    vn_edges = [[e for e, (_, j) in enumerate(edges) if j == vn] for vn in range(p.J)]
    # Combination q of a resource has the symbol at neighbour position 0 as
    # its slowest digit, so (M^d,) reshapes to (M,)*d, one axis per position.
    values = [r.values(L) for r in layout]
    rho2 = [p.sigma2 + p.varsigma2 * p.sigma2 * v for v in values]
    if any(np.any(r2 <= 0) for r2 in rho2):
        raise DomainError("nonpositive per-RN variance; intensities must be >= 0")
    # The flooding iteration after which each message is final, as a message
    # computed from final inputs is the same float in every iteration: an RN
    # message one after the latest of its inputs, a VN message with its latest
    # (a degree-1 VN's prior at 0). On a cycle it stays inf; settle is None.
    rn_t, vn_t = np.full((2, len(edges)), np.inf)
    for _ in range(len(edges) + 1):
        for es in rn_edges:
            rn_t[es] = [1 + max((vn_t[r] for r in es if r != e), default=0) for e in es]
        for es in vn_edges:
            vn_t[es] = [max((rn_t[r] for r in es if r != e), default=0) for e in es]
    settle = int(rn_t.max()) if np.isfinite(rn_t).all() else None
    return _Tables(
        params=p, layout=layout, edges=edges, rn_edges=rn_edges, vn_edges=vn_edges,
        values=values, rho2=rho2, labels=label_table(p.M), settle=settle,
    )


def _received(Y, p) -> np.ndarray:
    """Received vectors as a (T, K) float array.

    Rejects a wrong length, non-finite entries and entries so large that the
    messages would overflow (|y| above sqrt(2 sigma2 _METRIC_LIMIT); every
    per-resource variance is at least sigma2).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[1] != p.K:
        raise DimensionError(f"received vectors must have length K={p.K}")
    limit = np.sqrt(2.0 * p.sigma2 * _METRIC_LIMIT)
    # A NaN maximum fails the comparison too.
    if Y.size and not np.abs(Y).max() <= limit:
        raise DomainError(
            f"received vectors must be finite and at most {limit:.3g} in magnitude"
        )
    return Y


def _rn_metrics(Y: np.ndarray, tables: _Tables, include_logdet: bool,
                force_awgn: bool = False) -> list[np.ndarray]:
    """Per-RN channel metric (M,)*d + (T,): Gaussian log-likelihood of y_k per combo."""
    p = tables.params
    T = Y.shape[0]
    Yt = np.ascontiguousarray(Y.T)
    metrics = []
    for k, es in enumerate(tables.rn_edges):
        rho2 = np.full_like(tables.rho2[k], p.sigma2) if force_awgn else tables.rho2[k]
        # -((y - s)^2) / (2 rho2) [- 0.5 ln(2 pi rho2)], in place in one array.
        m = Yt[None, k] - tables.values[k][:, None]
        np.square(m, out=m)
        np.negative(m, out=m)
        m /= 2.0 * rho2[:, None]
        if include_logdet:
            m -= 0.5 * np.log(2.0 * np.pi * rho2)[:, None]
        metrics.append(m.reshape((p.M,) * len(es) + (T,)))
    return metrics


def _logsumexp_marginal(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Sum-product marginalizer: max-shifted log-sum-exp over axes. Overwrites x.

    The (M, T) result is shifted so that each frame's largest entry is 0;
    without it, log messages on a loopy graph grow with every iteration and
    lose absolute precision.
    """
    peak = x.max(axis=axes, keepdims=True)
    np.subtract(x, peak, out=x)
    np.exp(x, out=x)
    out = np.log(x.sum(axis=axes)) + np.squeeze(peak, axis=axes)
    return out - out.max(axis=0)


def _pass_messages(Y, tables, n_iters, marginalize, include_logdet=False, force_awgn=False):
    """Flooding message passing on (T, K) received vectors, frames last.

    marginalize(x, axes) reduces an extrinsic tensor over the axes of the
    other neighbours and may overwrite x: np.max for Max-Log,
    _logsumexp_marginal for sum-product. Returns beliefs (J, M, T) and the
    RN->VN and VN->RN messages (E, M, T), edge e being tables.edges[e].
    Terms are added in ascending neighbour position, so with the max
    marginalizer the arithmetic is that of the per-edge gather formulation,
    bit for bit. Runs min(n_iters, tables.settle) iterations, which give
    the same result as n_iters.
    """
    p = tables.params
    M, T = p.M, Y.shape[0]
    metrics = _rn_metrics(Y, tables, include_logdet, force_awgn=force_awgn)
    # Two scratch tensors per metric shape: the extrinsic sum and a prefix.
    scratch = {m.shape: (np.empty(m.shape), np.empty(m.shape))
               for m in metrics if m.ndim > 2}
    log_prior = -np.log(M)
    vn = np.full((len(tables.edges), M, T), log_prior)
    rn = np.zeros((len(tables.edges), M, T))
    # Each resource's VN messages as views shaped onto their metric axes; vn is
    # updated in place, so the views stay current.
    axis_views = [
        [vn[r].reshape((1,) * pos + (M,) + (1,) * (len(es) - 1 - pos) + (T,))
         for pos, r in enumerate(es)]
        for es in tables.rn_edges
    ]

    if tables.settle is not None:
        n_iters = min(n_iters, tables.settle)
    for _ in range(n_iters):
        # RN updates from current VN messages. The extrinsic sum for position
        # pos_j is metric + v_0 + ... + v_{d-1} without v_{pos_j}; its terms
        # before pos_j form a prefix shared with the later positions.
        for k, es in enumerate(tables.rn_edges):
            d = len(es)
            views = axis_views[k]
            prefix = metric = metrics[k]
            if d > 1:
                ext_buf, prefix_buf = scratch[metric.shape]
            for pos_j, e in enumerate(es):
                ext = prefix
                for v in views[pos_j + 1:]:
                    ext = np.add(ext, v, out=ext_buf)
                # For d > 1, ext is a scratch tensor the marginalizer may
                # overwrite: the prefix itself only at the last position.
                axes = tuple(a for a in range(d) if a != pos_j)
                new = marginalize(ext, axes) if d > 1 else metric
                if pos_j < d - 1:
                    prefix = np.add(prefix, views[pos_j], out=prefix_buf)
                rn[e] = new
        # VN updates from the just-computed RN messages.
        for es in tables.vn_edges:
            for e in es:
                msg = np.full((M, T), log_prior)
                for r in es:
                    if r != e:
                        msg += rn[r]
                vn[e] = msg

    beliefs = np.full((p.J, M, T), log_prior)
    for j, es in enumerate(tables.vn_edges):
        for e in es:
            beliefs[j] += rn[e]
    return beliefs, rn, vn


def _outputs(beliefs, rn, vn, tables):
    """Frames-first (beliefs, llrs, hard bits, messages) from the kernel's arrays.

    LLR = max belief over bit-0 symbols minus max over bit-1 symbols; an LLR
    tie decides bit 1. Messages are returned as (k, j) -> (T, M) views.
    """
    J, _, T = beliefs.shape
    llrs = np.empty((T, J, tables.labels.shape[1]))
    for i, mask in enumerate(tables.labels.T):
        zero = mask == 0
        llrs[:, :, i] = (beliefs[:, zero].max(axis=1) - beliefs[:, ~zero].max(axis=1)).T
    hard = (llrs <= 0).astype(np.uint8)
    messages = (
        {edge: rn[e].T for e, edge in enumerate(tables.edges)},
        {edge: vn[e].T for e, edge in enumerate(tables.edges)},
    )
    return np.ascontiguousarray(beliefs.transpose(2, 0, 1)), llrs, hard, messages


def max_log_mpa_batch(
    Y: np.ndarray,
    cb_set: CodebookSet,
    n_iters: int = DEFAULT_ITERS,
    include_logdet: bool = False,
    count_ops: bool = False,
    force_awgn: bool = False,
    tables: _Tables | None = None,
):
    """Max-Log message passing over a batch of received vectors.

    Returns (beliefs (T,J,M), llrs (T,J,b), hard bits (T,J,b), messages,
    OpCounts or None): the same result as n_iters flooding iterations, and
    graph_op_counts for n_iters. Raises DomainError on NaN or inf in Y.
    """
    p = cb_set.params
    Y = _received(Y, p)
    if n_iters < 1:
        raise DomainError("n_iters must be >= 1")
    if tables is None:
        tables = _build_tables(cb_set)
    counts = graph_op_counts(cb_set, n_iters, "max_log") if count_ops else None
    beliefs, rn, vn = _pass_messages(Y, tables, n_iters, np.max, include_logdet, force_awgn)
    return (*_outputs(beliefs, rn, vn, tables), counts)


def _single_state(beliefs, llrs, hard, messages, counts) -> DecoderState:
    rn, vn = messages
    return DecoderState(
        rn_to_vn={(k + 1, j + 1): v[0].copy() for (k, j), v in rn.items()},
        vn_to_rn={(k + 1, j + 1): v[0].copy() for (k, j), v in vn.items()},
        beliefs=beliefs[0],
        llrs=llrs[0],
        hard_bits=hard[0],
        op_counts=counts,
    )


def max_log_mpa(
    y: np.ndarray,
    cb_set: CodebookSet,
    n_iters: int = DEFAULT_ITERS,
    include_logdet: bool = False,
    count_ops: bool = False,
    force_awgn: bool = False,
) -> DecoderState:
    """Decode one received vector with Max-Log message passing.

    include_logdet adds the -0.5*ln(2*pi*rho^2) normalizer to the RN channel
    metric, making the metric the exact Gaussian log-likelihood; force_awgn
    replaces every per-RN variance by the thermal variance sigma2.
    """
    out = max_log_mpa_batch(
        np.asarray(y, dtype=float)[None, :], cb_set, n_iters,
        include_logdet=include_logdet, count_ops=count_ops, force_awgn=force_awgn,
    )
    return _single_state(*out)


def mpa_linear(
    y: np.ndarray,
    cb_set: CodebookSet,
    n_iters: int = DEFAULT_ITERS,
) -> DecoderState:
    """Sum-product decoding with the full IDGN Gaussian likelihood.

    Runs the shared log-domain kernel with the log-sum-exp marginalizer and
    Max-Log's schedule: the same result as n_iters iterations (0 leaves the
    beliefs uniform). The beliefs are normalized log posteriors, so no belief
    can underflow to all-zero. Despite the name, it runs in the log domain.
    Takes one received vector; a (T, K) batch raises DimensionError.
    """
    p = cb_set.params
    if np.ndim(y) != 1:
        raise DimensionError("mpa_linear decodes one received vector of shape (K,)")
    Y = _received(y, p)
    if n_iters < 0:
        raise DomainError("n_iters must be >= 0")
    tables = _build_tables(cb_set)
    beliefs, rn, vn = _pass_messages(Y, tables, n_iters, _logsumexp_marginal, include_logdet=True)
    # Shift before normalizing: the largest belief becomes exactly 0, so the
    # log-sum-exp of the result is 0 to rounding even for huge |beliefs|.
    beliefs -= beliefs.max(axis=1, keepdims=True)
    beliefs -= np.log(np.exp(beliefs).sum(axis=1, keepdims=True))
    return _single_state(*_outputs(beliefs, rn, vn, tables), None)


def loglik_table(Y: np.ndarray, cb_set: CodebookSet,
                 max_points: int = DEFAULT_MAX_POINTS) -> tuple[np.ndarray, object]:
    """Exact joint Gaussian log-likelihood of each superimposed point, batched.

    Returns ((T, M^J) log-likelihoods, the enumerated constellation).
    Received vectors are checked as for the message-passing decoders.
    """
    constellation = enumerate_superimposed(cb_set, max_points=max_points)
    Y = _received(Y, cb_set.params)
    s = constellation.points
    nu = constellation.covariances
    diff = Y[:, None, :] - s[None, :, :]
    ll = -0.5 * np.sum(diff * diff / nu[None, :, :] + np.log(2.0 * np.pi * nu)[None, :, :],
                       axis=2)
    return ll, constellation


def joint_map_bruteforce(
    y: np.ndarray, cb_set: CodebookSet, max_points: int = DEFAULT_MAX_POINTS
) -> tuple[tuple[int, ...], np.ndarray]:
    """Exhaustive joint MAP over all M^J tuples under the full IDGN likelihood.

    Ties are broken toward the lowest tuple index. Returns the 1-based symbol
    tuple and the concatenated bit labels.
    """
    ll, constellation = loglik_table(np.asarray(y, dtype=float)[None, :], cb_set, max_points)
    i = int(np.argmax(ll[0]))
    return tuple(int(m) for m in constellation.index_tuples[i]), constellation.bit_labels[i].copy()


def op_counts(M: int, d_f: int, K: int, n_iters: int, variant: str) -> OpCounts:
    """Closed-form RN-update operation counts for a regular degree-d_f graph."""
    if variant not in ("mpa", "max_log"):
        raise ValueError(f"variant must be 'mpa' or 'max_log', got {variant!r}")
    base = M**d_f * K * d_f * n_iters
    if variant == "mpa":
        return OpCounts(
            exponential=base,
            multiplication=(d_f + 3) * base,
            addition=(2 * d_f + 2) * base,
            comparison=0,
        )
    return OpCounts(
        exponential=0,
        multiplication=4 * base,
        addition=(3 * d_f + 1) * base * d_f,
        comparison=base,
    )


def graph_op_counts(cb_set: CodebookSet, n_iters: int, variant: str) -> OpCounts:
    """The decoder's RN-update counts: op_counts summed over the resources' degrees."""
    per_rn = [astuple(op_counts(cb_set.params.M, d, 1, n_iters, variant))
              for d in cb_set.graph.df_per_rn]
    return OpCounts(*map(sum, zip(*per_rn)))
