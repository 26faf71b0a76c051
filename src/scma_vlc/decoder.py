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
functions wrap a batch of one. A simulation decodes all its blocks in one
workspace, whose messages are one tile wide, and reads only the hard
decisions. Each resource's users, superimposed values and
combination order come from model.resource_layout, shared with the designer
and the union bound.

The kernel gives the result of flooding for the requested iterations, but
runs a static schedule of only the messages that result reads: a message
computed from final inputs is the same float in every later iteration, so
on a cycle-free graph each message is computed about once, in an inward and
an outward sweep (Kschischang, Frey and Loeliger, "Factor graphs and the
sum-product algorithm", IEEE T-IT 2001). On a graph with a cycle no message
is final and every message runs in every iteration.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
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
    neg_2rho2: list[np.ndarray]           # per RN, (M^d, 1) -2 rho2, the metric's divisor
    labels: np.ndarray                    # (M, b) natural-binary label of each symbol
    rn_final: np.ndarray                  # (E,) iteration after which each RN message is final
    vn_final: np.ndarray                  # (E,) the same for each VN message
    settle: int | None                    # iterations until every message is final
    # (n_iters, steps) of the last _schedule call; replace() starts it afresh.
    schedule: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    # A simulation's workspace; with it max_log_mpa_batch returns hard bits only.
    work: _Workspace | None = field(default=None, init=False, repr=False, compare=False)


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
        values=values, rho2=rho2, neg_2rho2=[-2.0 * r2[:, None] for r2 in rho2],
        labels=label_table(p.M), rn_final=rn_t, vn_final=vn_t, settle=settle,
    )


def _schedule(tables: _Tables, n_iters: int) -> list:
    """The messages that n_iters flooding iterations need, iteration by iteration.

    A message's value at iteration i is its value at min(i, its final
    time). The output reads every message at n_iters; working backwards, a
    VN message at i reads the other RN messages of its user at i, and an RN
    message at i the other VN messages of its resource at i - 1 (at 0 the
    prior the arrays start with). Each needed message runs once, at its
    iteration min(i, final time). Run forwards, the arrays then hold every
    input at the value its reader needs, so the result is that of flooding,
    float for float. With settle None, as on a graph with a cycle, no
    message counts as final and every message runs in every iteration.

    Returns one (rn_steps, vn_steps) per iteration: rn_steps holds (k,
    wanted neighbour positions) for each resource with a needed message,
    vn_steps (e, the RN edges its message sums) for each needed VN message.
    The last result is kept on tables, so a caller that decodes many blocks
    with one tables builds it once.
    """
    if tables.schedule[0] == n_iters:
        return tables.schedule[1]
    E = len(tables.edges)
    if tables.settle is None:
        rn_need = vn_need = [set(range(E))] * (n_iters + 1)
    else:
        rn_t, vn_t = tables.rn_final, tables.vn_final
        rn_need = [set() for _ in range(n_iters + 1)]
        vn_need = [set() for _ in range(n_iters + 1)]
        for e in range(E):
            rn_need[int(min(n_iters, rn_t[e]))].add(e)
            vn_need[int(min(n_iters, vn_t[e]))].add(e)
        for i in range(n_iters, 0, -1):
            for e in vn_need[i]:
                for r in tables.vn_edges[tables.edges[e][1]]:
                    if r != e:
                        rn_need[int(min(i, rn_t[r]))].add(r)
            for e in rn_need[i]:
                for r in tables.rn_edges[tables.edges[e][0]]:
                    if r != e:
                        vn_need[int(min(i - 1, vn_t[r]))].add(r)
    steps = []
    for i in range(1, n_iters + 1):
        rn_steps = [(k, tuple(pos for pos, e in enumerate(es) if e in rn_need[i]))
                    for k, es in enumerate(tables.rn_edges)]
        vn_steps = [(e, [r for r in es if r != e])
                    for es in tables.vn_edges for e in es if e in vn_need[i]]
        steps.append(([(k, w) for k, w in rn_steps if w], vn_steps))
    tables.schedule = (n_iters, steps)
    return steps


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
        # (y - s)^2 / (-2 rho2) [- 0.5 ln(2 pi rho2)], in place in one array;
        # a / (-b) is the float -(a / b).
        m = np.subtract(Yt[None, k], tables.values[k][:, None], out=bufs[k])
        np.square(m, out=m)
        m /= -2.0 * p.sigma2 if force_awgn else tables.neg_2rho2[k]
        if include_logdet:
            rho2 = np.full_like(tables.rho2[k], p.sigma2) if force_awgn else tables.rho2[k]
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


def _rn_update(metric, views, edges, wanted, rn, sums, prefixes, reduce):
    """RN->VN messages of one resource into rn, one neighbour axis at a time.

    metric is (M,)*d + (t,); views[q] is the VN message of neighbour position
    q shaped (M,) + (1,)*(d-1-q) + (t,), so that it meets axis 0 of a tensor
    over positions q..d-1 and axis 1 of one over positions j, q..d-1.
    wanted lists, ascending, the positions whose messages are computed; the
    others' rows of rn are left as they are. sums[n] and prefixes[n] are
    scratch tensors with n symbol axes.
    """
    d = len(edges)
    if d == 1:
        np.copyto(rn[edges[0]], metric)
        return
    # P_0 is the metric and P_{j+1} = reduce_0(P_j + v_j). The message to
    # position j continues from P_j: add v_q and reduce axis 1, q = j+1..d-1.
    # The last prefix is the message to position d-1. A wanted message is
    # the same sequence of operations whichever others are wanted.
    prefix = metric
    for j, e in enumerate(edges[:-1]):
        if j in wanted:
            x = prefix
            for q in range(j + 1, d):
                n = x.ndim - 1
                x = reduce(np.add(x, views[q], out=sums[n]), 1, rn[e] if n == 2 else sums[n - 1])
        if j == wanted[-1]:
            return
        n = prefix.ndim - 1
        prefix = reduce(np.add(prefix, views[j], out=sums[n]), 0,
                        rn[edges[j + 1]] if n == 2 else prefixes[n - 1])


class _Workspace:
    """Buffers of the kernel for calls of up to `frames` frames with one tables.

    The scratch is one tile wide: the tile's received values frames last,
    the per-resource metrics and, per count n of symbol axes, an extrinsic
    sum and a prefix. With keep, the messages (E, M, frames) and beliefs
    (J, M, frames) span all frames, as the public decoders return them.
    Without it they are one tile wide and reused from tile to tile, and each
    tile's hard decisions go to hard (frames, J, b): simulate_ber builds one
    such workspace per run and reads only the hard bits.
    """

    def __init__(self, tables: _Tables, frames: int, keep: bool):
        p = tables.params
        M, J, E = p.M, p.J, len(tables.edges)
        self.keep = keep
        self.tile = max(1, _TILE_BYTES // (8 * max(v.size for v in tables.values)))
        width = min(self.tile, frames)
        span = frames if keep else width
        d_max = max(len(es) for es in tables.rn_edges)
        self.yt = np.empty((p.K, width))
        self.metrics = [np.empty((v.size, width)) for v in tables.values]
        self.sums = {n: np.empty((M,) * n + (width,)) for n in range(2, d_max + 1)}
        self.prefixes = {n: np.empty((M,) * n + (width,)) for n in range(2, d_max)}
        # With n_iters >= 1 every RN message is written in every tile before
        # it is read (the output reads each one), so only the n_iters = 0
        # of mpa_linear, which keeps all frames, reads these zeros.
        self.rn = np.zeros((E, M, span))
        self.vn = np.empty((E, M, span))
        self.beliefs = np.empty((J, M, span))
        if not keep:
            b = tables.labels.shape[1]
            self.max0, self.max1 = np.empty((2, J, b, width))
            self.hard = np.empty((frames, J, b), dtype=bool)


def _pass_messages(Y, tables, n_iters, reduce, include_logdet=False, force_awgn=False,
                   work=None):
    """Message passing on (T, K) received vectors, frames last.

    reduce(x, axis, out) marginalizes one axis of x into out and may
    overwrite x: np.max for Max-Log, _logsumexp_reduce for sum-product.
    Returns beliefs (J, M, T) and the RN->VN and VN->RN messages (E, M, T),
    edge e being tables.edges[e]: those of n_iters flooding iterations.
    Only the messages that result reads run, per _schedule(tables,
    n_iters): on ls-j3 each message once (6 RN and 6 VN updates in place
    of 18 and 18 at 3 or more iterations); on a graph with a cycle, every
    message in every iteration.

    An RN update reduces one neighbour axis right after adding its VN message
    (_rn_update), so the prefix over the first positions is shared by the
    later ones. Rounding is monotone, so max_a(x_a + c) == max_a(x_a) + c
    exactly, and terms are added in ascending neighbour position: with np.max
    every message is the float of the per-edge gather formulation, which adds
    all other messages to the metric and takes one joint max, bit for bit.

    Frames are independent, so the iterations run over frame tiles sized so
    that the widest resource's metric fills _TILE_BYTES, with the scratch
    of a _Workspace reused across tiles and iterations: a fresh one that
    keeps all frames, or work, a simulation's, whose messages and beliefs
    are one tile wide. Then each tile's hard decisions go to work.hard, and
    the arrays returned hold the last tile only.
    """
    p = tables.params
    M, T = p.M, Y.shape[0]
    steps = _schedule(tables, n_iters)
    log_prior = -np.log(M)
    if work is None:
        work = _Workspace(tables, T, keep=True)

    for lo in range(0, T, work.tile):
        t = min(work.tile, T - lo)
        frames = slice(lo, lo + t) if work.keep else slice(0, t)
        rn, vn = work.rn[:, :, frames], work.vn[:, :, frames]
        vn.fill(log_prior)
        yt = work.yt[:, :t]
        np.copyto(yt, Y[lo:lo + t].T)
        metrics = _rn_metrics(yt, tables, include_logdet, force_awgn,
                              [b[:, :t] for b in work.metrics])
        sums = {n: b[..., :t] for n, b in work.sums.items()}
        prefixes = {n: b[..., :t] for n, b in work.prefixes.items()}
        # Each resource's VN messages shaped onto their metric axes; vn is
        # updated in place, so the views stay current.
        views = [
            [vn[e].reshape((M,) + (1,) * (len(es) - 1 - pos) + (t,)) for pos, e in enumerate(es)]
            for es in tables.rn_edges
        ]
        for rn_steps, vn_steps in steps:
            for k, wanted in rn_steps:
                _rn_update(metrics[k], views[k], tables.rn_edges[k], wanted, rn, sums, prefixes,
                           reduce)
            # VN updates from the just-computed RN messages.
            for e, others in vn_steps:
                vn[e].fill(log_prior)
                for r in others:
                    vn[e] += rn[r]

        beliefs = work.beliefs[:, :, frames]
        beliefs.fill(log_prior)
        for j, es in enumerate(tables.vn_edges):
            for e in es:
                beliefs[j] += rn[e]
        if not work.keep:
            # max0 <= max1 is llr <= 0, the bit _outputs decides.
            max0, max1 = work.max0[..., :t], work.max1[..., :t]
            _bit_maxima(beliefs, tables.labels, max0, max1)
            np.less_equal(max0, max1, out=work.hard[lo:lo + t].transpose(1, 2, 0))
    return work.beliefs, work.rn, work.vn


def _bit_maxima(beliefs, labels, max0, max1):
    """Per-bit belief maxima of (J, M, t) beliefs into (J, b, t) max0 and max1.

    max0[:, i] is the largest belief over the symbols whose bit i is 0,
    max1[:, i] over those whose bit i is 1: np.maximum over one symbol's
    slice at a time, the same floats as a max over the gathered symbols.
    """
    for i, column in enumerate(labels.T):
        for out, syms in ((max0[:, i], np.flatnonzero(column == 0)),
                          (max1[:, i], np.flatnonzero(column))):
            # The first and last symbols first (the same one if there is one).
            np.maximum(beliefs[:, syms[0]], beliefs[:, syms[-1]], out=out)
            for m in syms[1:-1]:
                np.maximum(out, beliefs[:, m], out=out)


def _outputs(beliefs, rn, vn, tables):
    """Frames-first (beliefs, llrs, hard bits, messages) from the kernel's arrays.

    LLR = max belief over bit-0 symbols minus max over bit-1 symbols; an LLR
    tie decides bit 1. Messages are returned as (k, j) -> (T, M) views.
    """
    J, _, T = beliefs.shape
    b = tables.labels.shape[1]
    max0, max1 = np.empty((2, J, b, T))
    _bit_maxima(beliefs, tables.labels, max0, max1)
    llrs = np.empty((T, J, b))
    np.subtract(max0, max1, out=llrs.transpose(1, 2, 0))
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

    tables, from _build_tables(cb_set), saves rebuilding them per call. A
    simulation's tables carry its workspace (tables.work); then the result
    is (None, None, hard bits, None, counts), the hard bits a bool view of
    the workspace that the next call overwrites.
    """
    p = cb_set.params
    Y = _received(Y, p)
    _check_iters(n_iters, 1)
    if tables is None:
        tables = _build_tables(cb_set)
    counts = graph_op_counts(cb_set, n_iters, "max_log") if count_ops else None
    if tables.work is not None:
        _pass_messages(Y, tables, n_iters, np.max, include_logdet, force_awgn, tables.work)
        return None, None, tables.work.hard[:len(Y)], None, counts
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

    Raises ConfigError unless M, d_f and K are integers >= 1 and n_iters is
    an integer >= 0 (bools are not integers here).
    """
    for name, v, least in (("M", M, 1), ("d_f", d_f, 1), ("K", K, 1), ("n_iters", n_iters, 0)):
        if isinstance(v, bool) or not isinstance(v, Integral) or v < least:
            raise ConfigError(f"{name} must be an integer >= {least}, got {v!r}")
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
    """Flooding RN-update counts: op_counts summed over the resources' degrees.

    The counts follow the paper's flooding formula, every RN message in every
    iteration. They are not the work the decoder does on a cycle-free graph,
    where its schedule computes each message about once (_schedule). A
    resource no user reaches counts nothing. Raises ConfigError unless
    n_iters is an integer >= 0.
    """
    per_rn = [astuple(op_counts(cb_set.params.M, d, 1, n_iters, variant))
              for d in cb_set.graph.df_per_rn if d]
    return OpCounts(*map(sum, zip(*per_rn)))
