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
Each tile ends with its bit decisions (and, for a public call, its LLRs),
so every decode takes the same path. Both detectors share one front end
(_detect): it checks the input, takes the caller's _Workspace or builds one,
and runs the kernel. A workspace holds one codebook set's tables, the
schedule of its iteration count and the kernel's buffers; a simulation
builds one per run, with messages one tile wide, decodes every block in it
and reads only the hard decisions. The public batch functions take frames
on axis 0; the single-vector functions wrap a batch of one. Each resource's
users, superimposed values and combination order come from
model.resource_layout, shared with the designer and the union bound.

The kernel gives the result of flooding for the requested iterations, but
runs a static schedule of only the messages that result reads: a message
computed from final inputs is the same float in every later iteration, so
on a cycle-free graph each message is computed about once, in an inward and
an outward sweep (Kschischang, Frey and Loeliger, "Factor graphs and the
sum-product algorithm", IEEE T-IT 2001). On a graph with a cycle no message
is final and every message runs in every iteration.

At iteration 1 every VN message an RN update reads is still the uniform
prior c = -ln M, a constant. Rounding is monotone, so max_a fl(x_a + c) ==
fl(max_a x_a + c): Max-Log adds such an input after reducing its axis, on a
tensor M times smaller, with every float unchanged (8 of the 48 full-size
adds of a 6-iteration ls-j6 decode). Sum-product's shifted log-sum-exp is
not exact under that move, so it adds every input first.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, check_array, check_integer
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


@dataclass(frozen=True)
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
    bit_syms: tuple                       # per bit, (symbols with it 0, symbols with it 1)
    rn_final: np.ndarray                  # (E,) iteration after which each RN message is final
    vn_final: np.ndarray                  # (E,) the same for each VN message
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
    labels = label_table(p.M)
    bit_syms = tuple((tuple(np.flatnonzero(column == 0)), tuple(np.flatnonzero(column)))
                     for column in labels.T)
    return _Tables(
        params=p, layout=layout, edges=edges, rn_edges=rn_edges, vn_edges=vn_edges,
        values=values, rho2=rho2, neg_2rho2=[-2.0 * r2[:, None] for r2 in rho2],
        labels=labels, bit_syms=bit_syms, rn_final=rn_t, vn_final=vn_t, settle=settle,
    )


def _schedule(tables: _Tables, n_iters: int) -> tuple:
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

    An RN message at iteration i thus reads the other VN messages at
    min(i - 1, their final time); where that is 0 (at i = 1 always, later
    for a one-resource user) the input is the constant prior, which Max-Log
    adds after the reduce (_rn_update).

    Returns (prior, unwritten, steps). prior lists the VN messages needed at
    iteration 0, read as the prior or returned unwritten; unwritten those of
    them that no later iteration writes, the only ones Max-Log must fill.
    steps holds one (rn_steps, vn_steps) per iteration: rn_steps holds (k,
    wanted neighbour positions, positions read at iteration 0) for each
    resource with a needed message, vn_steps (e, the RN edges its message
    sums) for each needed VN message. A _Workspace builds it once, for all
    the calls it serves.
    """
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
        rn_steps = []
        for k, es in enumerate(tables.rn_edges):
            wanted = tuple(pos for pos, e in enumerate(es) if e in rn_need[i])
            if wanted:
                # Positions some wanted message reads, and reads at 0.
                const = tuple(q for q, e in enumerate(es) if wanted != (q,)
                              and min(i - 1, tables.vn_final[e]) == 0)
                rn_steps.append((k, wanted, const))
        vn_steps = [(e, [r for r in es if r != e])
                    for es in tables.vn_edges for e in es if e in vn_need[i]]
        steps.append((rn_steps, vn_steps))
    written = set().union(*vn_need[1:])
    return sorted(vn_need[0]), sorted(vn_need[0] - written), steps


def _received(Y, p, single: bool = False) -> np.ndarray:
    """Received vectors as (T, K) floats; with single, one (K,) vector as (1, K).

    Rejects more than two dimensions (with single, anything but one vector), a
    wrong length, entries that are not finite integers or floats and entries so
    large that the messages would overflow (|y| above sqrt(2 sigma2
    _METRIC_LIMIT); every per-resource variance is at least sigma2).
    """
    Y = check_array("received vectors", Y, DomainError, finite=False)
    if Y.ndim > 2 or single and Y.ndim != 1:
        raise DimensionError(f"received vectors must be of shape {'(K,)' if single else '(T, K)'}")
    Y = np.atleast_2d(Y)
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


def _rn_update(metric, views, edges, wanted, const, log_prior, rn, sums, prefixes, reduce):
    """RN->VN messages of one resource into rn, one neighbour axis at a time.

    metric is (M,)*d + (t,); views[q] is the VN message of neighbour position
    q shaped (M,) + (1,)*(d-1-q) + (t,), so that it meets axis 0 of a tensor
    over positions q..d-1 and axis 1 of one over positions j, q..d-1.
    wanted lists, ascending, the positions whose messages are computed; the
    others' rows of rn are left as they are. sums[n] and prefixes[n] are
    scratch tensors with n symbol axes.

    The VN messages at the positions in const are the constant log_prior,
    and their views are not read: the axis is reduced straight into the
    output and log_prior added there. With np.max that is the same float
    (max_a fl(x_a + c) == fl(max_a x_a + c)); reduce must leave x intact.
    """
    d = len(edges)
    if d == 1:
        np.copyto(rn[edges[0]], metric)
        return

    def absorb(x, q, axis, out):  # reduce(x + v_q) over axis into out
        if q in const:
            out = reduce(x, axis, out)
            out += log_prior
            return out
        return reduce(np.add(x, views[q], out=sums[x.ndim - 1]), axis, out)

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
                x = absorb(x, q, 1, rn[e] if n == 2 else sums[n - 1])
        if j == wanted[-1]:
            return
        n = prefix.ndim - 1
        prefix = absorb(prefix, j, 0, rn[edges[j + 1]] if n == 2 else prefixes[n - 1])


def _page_aligned(shape) -> np.ndarray:
    """An uninitialized float array of shape whose data starts on a 4096-byte page.

    The tile scratch is allocated per buffer this way so that the buffers'
    offsets, and with them the cache sets they share, do not depend on what
    the process allocated before.
    """
    n = 8 * int(np.prod(shape))
    raw = np.empty(n + 4096, dtype=np.uint8)
    start = -raw.ctypes.data % 4096
    return raw[start:start + n].view(np.float64).reshape(shape)


class _Workspace:
    """Tables, schedule and buffers of the kernel for calls of up to `frames` frames.

    It keeps tables and their _schedule for n_iters, built once here for
    every call it serves. The scratch is one tile wide and page-aligned: the
    tile's received values frames last, the per-resource metrics and, per
    count n of symbol axes, an extrinsic sum and a prefix. The tile's per-bit belief maxima reuse the
    widest metric's scratch where its rows suffice (on ls-j3, 2 J b = 12 of
    16). Each tile's hard decisions go to hard (frames, J, b). With keep, the
    messages (E, M, frames), beliefs (J, M, frames) and LLRs (frames, J, b)
    span all frames, as the public decoders return them. Without it the
    messages and beliefs are one tile wide and reused from tile to tile and
    no LLRs are kept: simulate_ber builds one such workspace per run, passes
    it to max_log_mpa_batch for every block and reads only the hard bits.

    A tile sets up its messages in one pass: it fills with the log prior
    only the VN messages that the schedule returns unwritten and, for
    sum-product, those it reads at iteration 0, and every VN message and
    belief that sums RN messages starts with one np.add of the first of
    them and the prior (_add_messages), in place of a fill and an add.
    """

    def __init__(self, tables: _Tables, n_iters: int, frames: int, keep: bool):
        p = tables.params
        M, J, E = p.M, p.J, len(tables.edges)
        b = tables.labels.shape[1]
        self.tables, self.n_iters, self.frames, self.keep = tables, n_iters, frames, keep
        self.schedule = _schedule(tables, n_iters)
        self.tile = max(1, _TILE_BYTES // (8 * max(v.size for v in tables.values)))
        width = min(self.tile, frames)
        span = frames if keep else width
        d_max = max(len(es) for es in tables.rn_edges)
        self.yt = _page_aligned((p.K, width))
        self.metrics = [_page_aligned((v.size, width)) for v in tables.values]
        self.sums = {n: _page_aligned((M,) * n + (width,)) for n in range(2, d_max + 1)}
        self.prefixes = {n: _page_aligned((M,) * n + (width,)) for n in range(2, d_max)}
        # With n_iters >= 1 every RN message is written in every tile before
        # it is read (the output reads each one), so only a sum-product
        # decode at n_iters = 0, which keeps all frames, reads these zeros.
        self.rn = np.zeros((E, M, span))
        self.vn = np.empty((E, M, span))
        self.beliefs = np.empty((J, M, span))
        # A tile's per-bit maxima are written after its last read of the
        # metrics, so they take the widest metric's rows where those suffice.
        widest = max(self.metrics, key=len)
        maxima = widest[:2 * J * b] if len(widest) >= 2 * J * b else np.empty((2 * J * b, width))
        self.max0, self.max1 = maxima.reshape(2, J, b, width)
        self.hard = np.empty((frames, J, b), dtype=bool)
        self.llrs = np.empty((frames, J, b)) if keep else None


def _pass_messages(Y, work, reduce, include_logdet=False, force_awgn=False):
    """Message passing on (T, K) received vectors in work, frames last.

    reduce(x, axis, out) marginalizes one axis of x into out and may
    overwrite x: np.max for Max-Log, _logsumexp_reduce for sum-product.
    Returns beliefs (J, M, T) and the RN->VN and VN->RN messages (E, M, T),
    edge e being work.tables.edges[e]: those of work.n_iters flooding
    iterations. Only the messages that result reads run, per work.schedule:
    on ls-j3 each message once (6 RN and 6 VN updates in place of 18 and 18
    at 3 or more iterations); on a graph with a cycle, every message in
    every iteration.

    An RN update reduces one neighbour axis right after adding its VN message
    (_rn_update), so the prefix over the first positions is shared by the
    later ones. Rounding is monotone, so max_a(x_a + c) == max_a(x_a) + c
    exactly, and terms are added in ascending neighbour position: with np.max
    every message is the float of the per-edge gather formulation, which adds
    all other messages to the metric and takes one joint max, bit for bit.
    By the same identity Max-Log (any reduce but _logsumexp_reduce) adds an
    input that is still the prior after reducing its axis, so it reads no
    VN row at iteration 0 and a tile fills only the rows returned unwritten.

    Frames are independent, so the iterations run over frame tiles sized so
    that the widest resource's metric fills _TILE_BYTES, with the scratch
    of work reused across tiles and iterations. Every tile ends alike: its
    beliefs are summed (and, for sum-product, normalized per frame), its
    hard decisions go to work.hard and, when work keeps all frames, its LLRs
    to work.llrs. A simulation's work keeps one tile, and the arrays
    returned hold the last tile only.
    """
    tables = work.tables
    M, T = tables.params.M, Y.shape[0]
    prior, unwritten, steps = work.schedule
    log_prior = -np.log(M)
    exact_prior = reduce is not _logsumexp_reduce
    if exact_prior:
        prior = unwritten

    for lo in range(0, T, work.tile):
        t = min(work.tile, T - lo)
        frames = slice(lo, lo + t) if work.keep else slice(0, t)
        rn, vn = work.rn[:, :, frames], work.vn[:, :, frames]
        for e in prior:
            vn[e].fill(log_prior)
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
            for k, wanted, const in rn_steps:
                _rn_update(metrics[k], views[k], tables.rn_edges[k], wanted,
                           const if exact_prior else (), log_prior, rn, sums, prefixes, reduce)
            # VN updates from the just-computed RN messages.
            for e, others in vn_steps:
                _add_messages(vn[e], log_prior, rn, others)

        beliefs = work.beliefs[:, :, frames]
        for j, es in enumerate(tables.vn_edges):
            _add_messages(beliefs[j], log_prior, rn, es)
        if reduce is _logsumexp_reduce:
            # Normalized log posteriors. Shift first: the largest belief
            # becomes exactly 0, so the log-sum-exp of the result is 0 to
            # rounding even for huge |beliefs|.
            beliefs -= beliefs.max(axis=1, keepdims=True)
            beliefs -= np.log(np.exp(beliefs).sum(axis=1, keepdims=True))
        # LLR = max0 - max1, and a tie (max0 <= max1, llr <= 0) decides bit 1.
        max0, max1 = work.max0[..., :t], work.max1[..., :t]
        _bit_maxima(beliefs, tables.bit_syms, max0, max1)
        np.less_equal(max0, max1, out=work.hard[lo:lo + t].transpose(1, 2, 0))
        if work.keep:
            np.subtract(max0, max1, out=work.llrs[lo:lo + t].transpose(1, 2, 0))
    return work.beliefs, work.rn, work.vn


def _add_messages(out, log_prior, rn, edges):
    """out = log_prior + rn[edges[0]] + rn[edges[1]] + ..., added in that order.

    The first sum is one np.add into out, the same float as a fill with
    log_prior and then +=, since IEEE addition is commutative; with no
    edges out is the prior.
    """
    if not edges:
        out.fill(log_prior)
        return
    np.add(rn[edges[0]], log_prior, out=out)
    for e in edges[1:]:
        out += rn[e]


def _bit_maxima(beliefs, bit_syms, max0, max1):
    """Per-bit belief maxima of (J, M, t) beliefs into (J, b, t) max0 and max1.

    max0[:, i] is the largest belief over the symbols bit_syms[i][0], whose
    bit i is 0, max1[:, i] over bit_syms[i][1], those whose bit i is 1:
    np.maximum over one symbol's slice at a time, the same floats as a max
    over the gathered symbols.
    """
    for i, sides in enumerate(bit_syms):
        for out, syms in zip((max0[:, i], max1[:, i]), sides):
            # The first and last symbols first (the same one if there is one).
            np.maximum(beliefs[:, syms[0]], beliefs[:, syms[-1]], out=out)
            for m in syms[1:-1]:
                np.maximum(out, beliefs[:, m], out=out)


def _detect(Y, cb_set, n_iters, least, work, reduce, include_logdet, force_awgn=False):
    """The detectors' front end: check, decode in a workspace, return its outputs.

    Y is checked by _received, then n_iters must be an integer >= least
    (DomainError). work, a _Workspace on _build_tables(cb_set), serves as
    given; unless it was built for n_iters and at least len(Y) frames,
    ConfigError is raised before any buffer is written. Without it a
    workspace that keeps all frames is built. Returns frames-first
    (beliefs, llrs, hard bits, messages), the messages as (k, j) -> (T, M)
    views; from a workspace without keep, (None, None, hard bits, None),
    the hard bits a bool view of the workspace that its next call overwrites.
    """
    Y = _received(Y, cb_set.params)
    check_integer("n_iters", n_iters, DomainError, least=least)
    T = len(Y)
    if work is None:
        work = _Workspace(_build_tables(cb_set), n_iters, T, keep=True)
    elif work.n_iters != n_iters or T > work.frames:
        raise ConfigError(f"a workspace for {work.n_iters} iterations and {work.frames} "
                          f"frames cannot decode {T} frames at {n_iters}")
    _pass_messages(Y, work, reduce, include_logdet, force_awgn)
    if not work.keep:
        return None, None, work.hard[:T], None
    edges = work.tables.edges
    messages = (
        {edge: work.rn[e, :, :T].T for e, edge in enumerate(edges)},
        {edge: work.vn[e, :, :T].T for e, edge in enumerate(edges)},
    )
    beliefs = np.ascontiguousarray(work.beliefs[:, :, :T].transpose(2, 0, 1))
    return beliefs, work.llrs[:T], work.hard[:T].view(np.uint8), messages


def max_log_mpa_batch(
    Y: np.ndarray,
    cb_set: CodebookSet,
    n_iters: int = DEFAULT_ITERS,
    include_logdet: bool = False,
    count_ops: bool = False,
    force_awgn: bool = False,
    work: _Workspace | None = None,
):
    """Max-Log message passing over a batch of received vectors.

    Returns (beliefs (T,J,M), llrs (T,J,b), hard bits (T,J,b), messages,
    OpCounts or None): the same result as n_iters flooding iterations, and
    graph_op_counts for n_iters. Y is checked by _received; raises
    DomainError unless n_iters is an integer >= 1.

    work, a _Workspace for n_iters, saves rebuilding the tables, schedule
    and buffers per call (_detect). A simulation's keeps no frames; then
    the result is (None, None, hard bits, None, counts).
    """
    out = _detect(Y, cb_set, n_iters, 1, work, np.max, include_logdet, force_awgn)
    return (*out, graph_op_counts(cb_set, n_iters, "max_log") if count_ops else None)


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
        _received(y, cb_set.params, single=True), cb_set, n_iters,
        include_logdet=include_logdet, count_ops=count_ops, force_awgn=force_awgn,
    )
    return _single_state(*out)


def mpa_linear_batch(Y: np.ndarray, cb_set: CodebookSet, n_iters: int):
    """Sum-product decoding of a batch with the full IDGN Gaussian likelihood.

    Runs the shared log-domain kernel with the log-sum-exp marginalizer and
    Max-Log's schedule: the same result as n_iters iterations (0 leaves the
    beliefs uniform). The beliefs are normalized log posteriors, so no belief
    can underflow to all-zero. Returns max_log_mpa_batch's (beliefs, llrs,
    hard bits, messages, None); each frame's result is that of mpa_linear.
    Y is checked by _received; raises DomainError unless n_iters is an
    integer >= 0.
    """
    return (*_detect(Y, cb_set, n_iters, 0, None, _logsumexp_reduce, True), None)


def mpa_linear(
    y: np.ndarray,
    cb_set: CodebookSet,
    n_iters: int = DEFAULT_ITERS,
) -> DecoderState:
    """Decode one received vector with sum-product message passing (mpa_linear_batch).

    Despite the name, it runs in the log domain. Takes one received vector;
    a (T, K) batch raises DimensionError.
    """
    Y = _received(y, cb_set.params, single=True)
    return _single_state(*mpa_linear_batch(Y, cb_set, n_iters))


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
    ll, constellation = loglik_table(_received(y, cb_set.params, single=True), cb_set)
    i = int(np.argmax(ll[0]))
    return tuple(int(m) for m in constellation.index_tuples[i]), constellation.bit_labels[i].copy()


def op_counts(M: int, d_f: int, K: int, n_iters: int, variant: str) -> OpCounts:
    """Closed-form RN-update operation counts for a regular degree-d_f graph.

    Raises ConfigError unless M, d_f and K are integers >= 1, n_iters is an
    integer >= 0 (bools are not integers here) and variant is 'mpa' or 'max_log'.
    """
    for name, v, least in (("M", M, 1), ("d_f", d_f, 1), ("K", K, 1), ("n_iters", n_iters, 0)):
        check_integer(name, v, ConfigError, least=least)
    if variant not in ("mpa", "max_log"):
        raise ConfigError(f"variant must be 'mpa' or 'max_log', got {variant!r}")
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
