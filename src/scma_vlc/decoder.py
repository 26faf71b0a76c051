"""Multi-user detection on the SCMA factor graph.

One batched log-domain message-passing kernel serves both detectors, with
input-dependent per-resource noise variance: Max-Log (the marginalizer is
``max``) and sum-product (a max-shifted log-sum-exp). A brute-force joint MAP
oracle sits beside them. Inside the kernel the frame axis is last and the
frames run in tiles sized to stay in cache: each resource's channel metric is
one (M,)*d + (tile,) array, messages are (M, T) arrays indexed by edge, and a
message meets its axis of the metric by reshape. A resource update
marginalizes one neighbour axis at a time, right after adding that
neighbour's message, and shares the reduced prefix between positions; with
``max`` each message is the same float as one joint max over the other axes.
The public batch function takes frames on axis 0; the single-vector
functions wrap a batch of one. Each resource's users, superimposed values and
combination order come from model.resource_layout, shared with the designer
and the union bound. On a cycle-free graph the kernel stops after the number
of flooding iterations that makes every message final, fixed by the graph.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigError, DimensionError, DomainError
from .model import CodebookSet, ResourceLayout, enumerate_superimposed
from .model import label_table, resource_layout

DEFAULT_ITERS = 6

# Largest y^2 / (2 sigma2) a received value y may give; while |y| dominates
# the intensities this bounds its channel metric. Max-Log messages are not
# normalized and grow with every iteration (about twofold at degree 3), so
# this leaves room for hundreds of iterations before they overflow to inf
# and the LLRs turn NaN.
_METRIC_LIMIT = 1e150

# Bytes of the widest resource's (M,)*d + (tile,) channel metric. The kernel
# runs over frame tiles of this size so that a resource's metric and the
# extrinsic sums built from it stay in cache: 1024 frames at 64 combinations
# per resource, 4096 at 16.
_TILE_BYTES = 512 * 1024


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


def _rn_metrics(Yt: np.ndarray, tables: _Tables, include_logdet: bool, force_awgn: bool,
                bufs: list[np.ndarray]) -> list[np.ndarray]:
    """Per-RN channel metric (M,)*d + (t,) of frames Yt (K, t), written into bufs.

    The metric is the Gaussian log-likelihood of y_k per combination; bufs[k]
    is a scratch (M^d, t) array.
    """
    p = tables.params
    metrics = []
    for k, es in enumerate(tables.rn_edges):
        rho2 = np.full_like(tables.rho2[k], p.sigma2) if force_awgn else tables.rho2[k]
        # -((y - s)^2) / (2 rho2) [- 0.5 ln(2 pi rho2)], in place in one array.
        m = np.subtract(Yt[None, k], tables.values[k][:, None], out=bufs[k])
        np.square(m, out=m)
        np.negative(m, out=m)
        m /= 2.0 * rho2[:, None]
        if include_logdet:
            m -= 0.5 * np.log(2.0 * np.pi * rho2)[:, None]
        metrics.append(m.reshape((p.M,) * len(es) + (Yt.shape[1],)))
    return metrics


def _logsumexp_reduce(x: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Sum-product marginalizer: max-shifted log-sum-exp of x over axis, into out.

    Overwrites x. The result is shifted so that each frame's largest entry is
    0; without it, log messages on a loopy graph grow with every iteration and
    lose absolute precision.
    """
    peak = x.max(axis=axis, keepdims=True)
    np.subtract(x, peak, out=x)
    np.exp(x, out=x)
    np.log(x.sum(axis=axis), out=out)
    out += np.squeeze(peak, axis=axis)
    out -= out.max(axis=tuple(range(out.ndim - 1)))
    return out


def _rn_update(metric, views, edges, rn, sums, prefixes, reduce):
    """RN->VN messages of one resource into rn, one neighbour axis at a time.

    metric is (M,)*d + (t,); views[q] is the VN message of neighbour position
    q shaped (M,) + (1,)*(d-1-q) + (t,), so that it meets axis 0 of a tensor
    over positions q..d-1 and axis 1 of one over positions j, q..d-1.
    sums[n] and prefixes[n] are scratch tensors with n symbol axes.
    """
    d = len(edges)
    if d == 1:
        np.copyto(rn[edges[0]], metric)
        return
    # P_0 is the metric and P_{j+1} = reduce_0(P_j + v_j). The message to
    # position j continues from P_j: add v_q and reduce axis 1, q = j+1..d-1.
    # The last prefix is the message to position d-1.
    prefix = metric
    for j, e in enumerate(edges[:-1]):
        x = prefix
        for q in range(j + 1, d):
            n = x.ndim - 1
            x = reduce(np.add(x, views[q], out=sums[n]), 1, rn[e] if n == 2 else sums[n - 1])
        n = prefix.ndim - 1
        prefix = reduce(np.add(prefix, views[j], out=sums[n]), 0,
                        rn[edges[j + 1]] if n == 2 else prefixes[n - 1])


def _pass_messages(Y, tables, n_iters, reduce, include_logdet=False, force_awgn=False):
    """Flooding message passing on (T, K) received vectors, frames last.

    reduce(x, axis, out) marginalizes one axis of x into out and may
    overwrite x: np.max for Max-Log, _logsumexp_reduce for sum-product.
    Returns beliefs (J, M, T) and the RN->VN and VN->RN messages (E, M, T),
    edge e being tables.edges[e]. Runs min(n_iters, tables.settle)
    iterations, which give the same result as n_iters.

    An RN update reduces one neighbour axis right after adding its VN message
    (_rn_update), so the prefix over the first positions is shared by the
    later ones. Rounding is monotone, so max_a(x_a + c) == max_a(x_a) + c
    exactly, and terms are added in ascending neighbour position: with np.max
    every message is the float of the per-edge gather formulation, which adds
    all other messages to the metric and takes one joint max, bit for bit.

    Frames are independent, so the iterations run over frame tiles sized so
    that the widest resource's metric fills _TILE_BYTES; the tile's scratch
    tensors are allocated once per call and reused across tiles and
    iterations.
    """
    p = tables.params
    M, T, E = p.M, Y.shape[0], len(tables.edges)
    if tables.settle is not None:
        n_iters = min(n_iters, tables.settle)
    log_prior = -np.log(M)
    rn_all = np.zeros((E, M, T))
    vn_all = np.full((E, M, T), log_prior)
    tile = max(1, _TILE_BYTES // (8 * max(v.size for v in tables.values)))
    width = min(tile, T)
    d_max = max(len(es) for es in tables.rn_edges)
    Yt = np.ascontiguousarray(Y.T)
    # Scratch tensors for one tile, sliced to each tile's width: the metrics,
    # and per count n of symbol axes an extrinsic sum and a prefix.
    metric_bufs = [np.empty((v.size, width)) for v in tables.values]
    sum_bufs = {n: np.empty((M,) * n + (width,)) for n in range(2, d_max + 1)}
    prefix_bufs = {n: np.empty((M,) * n + (width,)) for n in range(2, d_max)}

    for lo in range(0, T, tile):
        t = min(tile, T - lo)
        rn, vn = rn_all[:, :, lo:lo + t], vn_all[:, :, lo:lo + t]
        metrics = _rn_metrics(Yt[:, lo:lo + t], tables, include_logdet, force_awgn,
                              [b[:, :t] for b in metric_bufs])
        sums = {n: b[..., :t] for n, b in sum_bufs.items()}
        prefixes = {n: b[..., :t] for n, b in prefix_bufs.items()}
        # Each resource's VN messages shaped onto their metric axes; vn is
        # updated in place, so the views stay current.
        views = [
            [vn[e].reshape((M,) + (1,) * (len(es) - 1 - pos) + (t,)) for pos, e in enumerate(es)]
            for es in tables.rn_edges
        ]
        for _ in range(n_iters):
            for k, es in enumerate(tables.rn_edges):
                _rn_update(metrics[k], views[k], es, rn, sums, prefixes, reduce)
            # VN updates from the just-computed RN messages.
            for es in tables.vn_edges:
                for e in es:
                    vn[e].fill(log_prior)
                    for r in es:
                        if r != e:
                            vn[e] += rn[r]

    beliefs = np.full((p.J, M, T), log_prior)
    for j, es in enumerate(tables.vn_edges):
        for e in es:
            beliefs[j] += rn_all[e]
    return beliefs, rn_all, vn_all


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


def _check_iters(n_iters: int, least: int) -> None:
    if isinstance(n_iters, bool) or not isinstance(n_iters, Integral) or n_iters < least:
        raise DomainError(f"n_iters must be an integer >= {least}, got {n_iters!r}")


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
    graph_op_counts for n_iters. Raises DomainError on NaN or inf in Y or
    unless n_iters is an integer >= 1.
    """
    p = cb_set.params
    Y = _received(Y, p)
    _check_iters(n_iters, 1)
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
    _check_iters(n_iters, 0)
    tables = _build_tables(cb_set)
    beliefs, rn, vn = _pass_messages(Y, tables, n_iters, _logsumexp_reduce, include_logdet=True)
    # Shift before normalizing: the largest belief becomes exactly 0, so the
    # log-sum-exp of the result is 0 to rounding even for huge |beliefs|.
    beliefs -= beliefs.max(axis=1, keepdims=True)
    beliefs -= np.log(np.exp(beliefs).sum(axis=1, keepdims=True))
    return _single_state(*_outputs(beliefs, rn, vn, tables), None)


def loglik_table(Y: np.ndarray, cb_set: CodebookSet) -> tuple[np.ndarray, object]:
    """Exact joint Gaussian log-likelihood of each superimposed point, batched.

    Returns ((T, M^J) log-likelihoods, the enumerated constellation).
    Received vectors are checked as for the message-passing decoders.
    """
    constellation = enumerate_superimposed(cb_set)
    Y = _received(Y, cb_set.params)
    s = constellation.points
    nu = constellation.covariances
    diff = Y[:, None, :] - s[None, :, :]
    ll = -0.5 * np.sum(diff * diff / nu[None, :, :] + np.log(2.0 * np.pi * nu)[None, :, :],
                       axis=2)
    return ll, constellation


def joint_map_bruteforce(
    y: np.ndarray, cb_set: CodebookSet
) -> tuple[tuple[int, ...], np.ndarray]:
    """Exhaustive joint MAP over all M^J tuples under the full IDGN likelihood.

    Ties are broken toward the lowest tuple index. Returns the 1-based symbol
    tuple and the concatenated bit labels.
    """
    ll, constellation = loglik_table(np.asarray(y, dtype=float)[None, :], cb_set)
    i = int(np.argmax(ll[0]))
    return tuple(int(m) for m in constellation.index_tuples[i]), constellation.bit_labels[i].copy()


def op_counts(M: int, d_f: int, K: int, n_iters: int, variant: str) -> OpCounts:
    """Closed-form RN-update operation counts for a regular degree-d_f graph.

    Raises ConfigError unless n_iters is an integer >= 0.
    """
    if isinstance(n_iters, bool) or not isinstance(n_iters, Integral) or n_iters < 0:
        raise ConfigError(f"n_iters must be an integer >= 0, got {n_iters!r}")
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
    """The decoder's RN-update counts: op_counts summed over the resources' degrees.

    Raises ConfigError unless n_iters is an integer >= 0.
    """
    per_rn = [astuple(op_counts(cb_set.params.M, d, 1, n_iters, variant))
              for d in cb_set.graph.df_per_rn]
    return OpCounts(*map(sum, zip(*per_rn)))
