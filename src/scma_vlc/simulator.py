"""IDGN channel sampling, Monte Carlo BER estimation and the union-bound BER."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import isfinite
from numbers import Integral

import numpy as np

from .decoder import DEFAULT_ITERS, _build_tables, _Workspace, max_log_mpa_batch
from .designer import DesignConfig, design
from .errors import CapacityError, ConfigError, DimensionError, DomainError
from .metrics import _check_noise
from .model import DEFAULT_MAX_POINTS, CodebookSet, SystemParams, scale_codebook_set
from .model import label_table, pair_state_plan, resource_layout
from .model import enumerate_superimposed  # noqa: F401  (benchmarks/tracing.py wraps this name)

DEFAULT_MIN_BIT_ERRORS = 200
DEFAULT_MAX_FRAMES = 1_000_000
_FRAME_BLOCK = 4096

# Memory budget of one batch of quadrature nodes in the union bound (at
# J=6 a node takes about 2.4 MB, so a batch holds 3 nodes), and the most
# nodes a batch holds, so that on the J <= 4 fixtures, where all 153 fit
# the budget, the bound can still stop after a batch (_BOUND_STOP).
_BOUND_BYTES = 8 * 1024 * 1024
_BOUND_NODES = 32

# The bound's factors are exp(_SHIFT / K - c T_k) over the K resources that
# carry users, so every product is e^_SHIFT times the true one. The
# all-diagonal product is then e^640: sums over P^2 <= 2^24 pairs times a
# Hamming weight of at most 12 bits stay below the float maximum (e^709).
# A term survives the contraction's flush to zero (at 2^-511 = e^-354.2)
# while c arg^2 <= 640 / K + 354 (514 at K = 4). On the 4-resource graphs
# that keeps every term within e^-37 of the largest while the nearest pair
# has arg^2 below about 950, a bound above about 1e-205 (on ls-j3 the bound
# still agrees with erfc within 2e-13 at 7e-260).
_SHIFT = 640.0

# The union bound stops after a batch once the nodes not yet run can add at
# most this fraction of the total, far below its rounding error (2^-53).
_BOUND_STOP = 2.0**-60


def _check_integer(name: str, v, least: int) -> None:
    """Raise ConfigError unless v is an integer >= least (a bool is not one here)."""
    if isinstance(v, bool) or not isinstance(v, Integral) or v < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {v!r}")


@dataclass(frozen=True)
class TrialStream:
    """Deterministic normal-deviate stream: (seed, stream_id) fixes the sequence.

    Raises ConfigError unless seed and stream_id are integers >= 0 (a bool
    is not an integer here; numpy integers are).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        _check_integer("seed", self.seed, 0)
        _check_integer("stream_id", self.stream_id, 0)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        )


@dataclass(frozen=True)
class BerPoint:
    pe: float
    bits_sent: int
    bit_errors: int
    ber_sim: float
    ber_analytical: float
    per_user_ber: np.ndarray
    ci95_halfwidth: float


def qfunc(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2)).

    scipy.special is imported here, not with the package: it is most of the
    package's import time, and only qfunc and pep_idgn need it.
    """
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def add_idgn(
    s: np.ndarray,
    sigma2: float,
    varsigma2: float,
    stream: TrialStream,
    rng: np.random.Generator | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sample y = s + sqrt(s)*Z1 + Z0 with Z1 ~ N(0, varsigma2*sigma2), Z0 ~ N(0, sigma2).

    Componentwise: y_k ~ N(s_k, sigma2 * (1 + varsigma2 * s_k)). Pass `rng` to
    continue an already-open generator instead of restarting the stream.
    With `out`, a C-contiguous float array of the shape of s that does not
    overlap it, the samples are written there and out is returned; they are
    the same floats as without it. Raises DomainError for a negative, NaN
    or infinite intensity, a sigma2 that is not finite and > 0 or a
    varsigma2 that is not finite and >= 0, and DimensionError for an out of
    another shape or one that overlaps s.
    """
    _check_noise(sigma2, varsigma2)
    s = np.asarray(s, dtype=float)
    if out is None:
        out = np.empty(s.shape)
    elif out.shape != s.shape or np.may_share_memory(out, s):
        raise DimensionError(f"out must be an array of the shape {s.shape} of s, apart from s")
    # sqrt is NaN for a negative or NaN entry and inf for +inf, so one
    # maximum over the roots checks every entry.
    with np.errstate(invalid="ignore"):
        root = np.sqrt(s)
    if root.size and not root.max() < np.inf:
        raise DomainError("signal intensities must be finite and nonnegative")
    if rng is None:
        rng = stream.generator()
    # s + sqrt(s) Z1 + Z0 in place, the Z0 draw in the roots' array.
    rng.standard_normal(out=out)
    out *= np.sqrt(varsigma2 * sigma2)
    out *= root
    out += s
    z0 = rng.standard_normal(out=root)
    z0 *= np.sqrt(sigma2)
    out += z0
    return out


def pep_idgn(s_i: np.ndarray, s_j: np.ndarray, sigma2: float, varsigma2: float) -> float:
    """Pairwise error probability of deciding s_j when s_i was sent.

    Uses the transmitted point's variances, so the function is intentionally
    asymmetric in its arguments when intensities differ.
    """
    _check_noise(sigma2, varsigma2)
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    if s_i.shape != s_j.shape:
        raise DomainError("points must have equal length")
    if not (np.isfinite(s_i).all() and np.isfinite(s_j).all()):
        raise DomainError("superimposed codewords must be finite")
    if np.any(s_i < 0) or np.any(s_j < 0):
        raise DomainError("superimposed codewords must be nonnegative")
    nu = varsigma2 * sigma2 * s_i + sigma2
    arg = np.sqrt(np.sum((s_i - s_j) ** 2 / (2.0 * nu)))
    return float(qfunc(arg))


@lru_cache(maxsize=1)
def _craig_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_n and weights w_n with Q(sqrt(x)) = sum_n w_n exp(-c_n x).

    Craig's form Q(sqrt(x)) = (1/pi) int_0^{pi/2} exp(-x / (2 sin^2 t)) dt,
    on a fixed 153-node rule: 56 Gauss-Legendre nodes on t in [0.3, pi/2];
    96 in s = ln(0.3 / t) on s in [0, 12], which resolve the integrand's
    edge near t ~ sqrt(x) for small x; and the midpoint of the rest,
    [0, 0.3 e^-12], so that Q(0) = 1/2 exactly. Against erfc the relative
    error is below 2.3e-13 for x in [1e-10, 1300]. The nodes are in order of
    ascending c, so each term exp(-c_n x) does not grow along the table.
    Built on first use, so that importing the package does not load
    numpy.polynomial.
    """
    from numpy.polynomial.legendre import leggauss

    lo, s_max = 0.3, 12.0
    x, w = leggauss(56)
    t_top = (np.pi / 2 - lo) / 2 * (x + 1) + lo
    w_top = (np.pi / 2 - lo) / 2 * w
    x, w = leggauss(96)
    t_low = lo * np.exp(-s_max / 2 * (x + 1))
    w_low = s_max / 2 * w * t_low
    tail = lo * np.exp(-s_max)
    t = np.concatenate([t_top, t_low, [tail / 2]])
    c = 1.0 / (2.0 * np.sin(t) ** 2)
    w = np.concatenate([w_top, w_low, [tail]]) / np.pi
    order = np.argsort(c)
    c, w = c[order], w[order]
    c.flags.writeable = w.flags.writeable = False
    return c, w


def analytical_ber(cb_set: CodebookSet) -> float:
    """Union-bound BER: bit-weighted pairwise error probabilities over all ordered pairs.

    BER = sum_{i != j} hd(i, j) Q(arg(i, j)) / (J b P), where arg(i, j)^2 =
    sum_k T_k(i, j) with T_k = (s_i^k - s_j^k)^2 / (2 nu_i^k) and nu_i^k =
    varsigma2 sigma2 s_i^k + sigma2 taken at the sent point i.

    In Craig's form Q(sqrt(x)) = (1/pi) int_0^{pi/2} exp(-x / (2 sin^2 t)) dt
    (J. W. Craig, MILCOM 1991), the integrand is a product over resources,
    prod_k exp(-c T_k) with c = 1 / (2 sin^2 t). A pair (i, j) is a tuple of
    per-user pair-states (x_u, x'_u), and hd(i, j) is the sum over users of
    the Hamming distance between the labels of x_u and x'_u (zero on the
    diagonal). So at each node of a fixed quadrature rule the bit-weighted
    sum over all P^2 pairs is one pair-state contraction of the factors
    exp(-c_n T_k), and no pair-sized array is built; the factors carry a
    fixed scale e^(_SHIFT / K) (see _SHIFT). The 153-node rule
    (_craig_nodes) is within 2.3e-13 relative of erfc per term for arg^2 in
    [1e-10, 1300] and exact at arg = 0; the bound agrees with the pairwise
    erfc formula within 1e-13 relative on the fixtures.

    How many of the 153 nodes run depends on the book. The nodes run in
    order of ascending c, in batches of at most _BOUND_BYTES and
    _BOUND_NODES nodes. Along that order no factor entry grows, so neither
    does a node's value; a node at which the flush leaves every factor
    diagonal adds exactly 0 and is not run, and the loop stops after a
    batch once the nodes left can add at most _BOUND_STOP of the total (at
    Pe 20 and varsigma2 5, ls-j6 runs 84 nodes and ls-j5 90). Raises
    CapacityError when M^J exceeds DEFAULT_MAX_POINTS.
    """
    p = cb_set.params
    if p.M**p.J > DEFAULT_MAX_POINTS:
        raise CapacityError(f"M^J = {p.M**p.J} exceeds the limit {DEFAULT_MAX_POINTS}")
    L, layout = resource_layout(cb_set)
    # A resource no user reaches has the factor 1.
    layout = [r for r in layout if r.users]
    tables = []
    gap = np.inf  # the least T_k over the a != b entries of any resource
    for r in layout:
        v = r.values(L)
        nu = p.varsigma2 * p.sigma2 * v + p.sigma2
        diff = v[:, None] - v[None, :]
        t = diff * diff / (2.0 * nu[:, None])
        gap = min(gap, t[~np.eye(len(v), dtype=bool)].min())
        tables.append(r.pair_states(t))
    labels = label_table(p.M)
    weight = np.sum(labels[:, None] != labels[None, :], axis=2).reshape(-1).astype(float)
    S = p.M * p.M
    plan = pair_state_plan(tuple(r.users for r in layout), S)
    shift = _SHIFT / len(layout)
    c, w = _craig_nodes()
    # Where c T_k > shift + 360 on every a != b entry, the flush leaves each
    # factor diagonal: every pair with a differing user has product 0, so
    # the node adds exactly 0 and is skipped. c ascends, so the skipped
    # nodes are the table's tail.
    keep = c * gap <= shift + 360.0
    c, w = c[keep], w[keep]
    rest = np.append(np.cumsum(w[::-1])[::-1], 0.0)  # rest[i]: the weight from node i on
    step = max(1, min(_BOUND_NODES, _BOUND_BYTES // plan.node_bytes))
    total = 0.0
    for lo in range(0, len(c), step):
        hi = min(lo + step, len(c))
        cn = c[lo:hi, None]
        # Clamped above exp's slow underflow range; the contraction flushes
        # the clamped entries (e^-400 < 2^-511) to zero.
        factors = [np.exp(np.maximum(shift - cn * t, -400.0)).reshape((-1,) + (S,) * len(r.users))
                   for t, r in zip(tables, layout)]
        vals = plan.contract(factors, weight)
        total += w[lo:hi] @ vals
        # No factor entry grows with c, and the contraction's products, sums
        # and flush are monotone, so no later node's value exceeds vals[-1].
        if vals[-1] * rest[hi] <= _BOUND_STOP * total:
            break
    return float(total * np.exp(-_SHIFT)) / (p.J * p.bits_per_symbol * p.M**p.J)


def _check_run(n_iters: int, min_bit_errors: int | None, max_frames: int | None,
               seed: int) -> None:
    """Raise ConfigError unless n_iters >= 1, seed >= 0 and at least one
    stopping bound is given, each bound >= 1; every one an integer."""
    if min_bit_errors is None and max_frames is None:
        raise ConfigError("need at least one stopping bound (min_bit_errors/max_frames)")
    for name, v, least in (("n_iters", n_iters, 1), ("seed", seed, 0),
                           ("min_bit_errors", min_bit_errors, 1), ("max_frames", max_frames, 1)):
        if v is None and name in ("min_bit_errors", "max_frames"):
            continue
        _check_integer(name, v, least)


def _count_errors(cb_set: CodebookSet, n_iters: int, min_bit_errors: int | None,
                  max_frames: int | None, seed: int) -> tuple[int, int, np.ndarray]:
    """Frames sent, bit errors and per-user bit errors of simulate_ber's blocks.

    Every per-block array lives in buffers built once per run for
    _FRAME_BLOCK frames, a ragged last block using their first rows: the
    superposition, the received values, the sent bits and the errors here,
    and the decoder's in a _Workspace on its tables, from which
    max_log_mpa_batch returns only the hard bits. They are freed on return,
    before simulate_ber computes the union bound.
    """
    p = cb_set.params
    b = p.bits_per_symbol
    tables = _build_tables(cb_set)
    tables.work = _Workspace(tables, _FRAME_BLOCK, keep=False)
    s_all, y_all = np.empty((2, _FRAME_BLOCK, p.K))
    sent_all = np.empty((_FRAME_BLOCK, p.J, b), dtype=tables.labels.dtype)
    bad_all = np.empty((_FRAME_BLOCK, p.J, b), dtype=bool)

    frames = 0
    errors = 0
    per_user_errors = np.zeros(p.J, dtype=np.int64)
    block_id = 0
    while True:
        if max_frames is not None and frames >= max_frames:
            break
        if min_bit_errors is not None and errors >= min_bit_errors:
            break
        T = _FRAME_BLOCK
        if max_frames is not None:
            T = min(T, max_frames - frames)
        stream = TrialStream(seed=seed, stream_id=block_id)
        rng = stream.generator()
        syms = rng.integers(0, p.M, size=(T, p.J))  # 0-based symbols
        # Superposition: each resource's value gathered by its combination.
        s = s_all[:T]
        for k, r in enumerate(tables.layout):
            s[:, k] = tables.values[k][r.combos(syms)]
        y = add_idgn(s, p.sigma2, p.varsigma2, stream, rng=rng, out=y_all[:T])
        _, _, hard, _, _ = max_log_mpa_batch(
            y, cb_set, n_iters, include_logdet=False, tables=tables
        )
        sent_bits = np.take(tables.labels, syms, axis=0, out=sent_all[:T])  # (T, J, b)
        bad = np.not_equal(hard, sent_bits, out=bad_all[:T])
        block_errors = bad.sum(axis=(0, 2))
        errors += int(block_errors.sum())
        per_user_errors += block_errors
        frames += T
        block_id += 1
    return frames, errors, per_user_errors


def simulate_ber(
    cb_set: CodebookSet,
    n_iters: int = DEFAULT_ITERS,
    min_bit_errors: int | None = DEFAULT_MIN_BIT_ERRORS,
    max_frames: int | None = DEFAULT_MAX_FRAMES,
    seed: int = 0,
    compute_analytical: bool = True,
) -> BerPoint:
    """Seeded Monte Carlo BER of Max-Log decoding over the IDGN channel.

    Frames run in blocks with per-block deterministic streams, stopping once
    min_bit_errors errors have accumulated or max_frames frames were sent.
    """
    _check_run(n_iters, min_bit_errors, max_frames, seed)
    p = cb_set.params
    b = p.bits_per_symbol
    frames, errors, per_user_errors = _count_errors(cb_set, n_iters, min_bit_errors,
                                                    max_frames, seed)

    # Both bounds are >= 1, so at least one block ran and bits_sent > 0.
    bits_sent = frames * p.J * b
    ber = errors / bits_sent
    ci = 1.96 * np.sqrt(max(ber * (1.0 - ber), 0.0) / bits_sent)
    ana = analytical_ber(cb_set) if compute_analytical else float("nan")
    return BerPoint(
        pe=p.Pe,
        bits_sent=bits_sent,
        bit_errors=errors,
        ber_sim=ber,
        ber_analytical=ana,
        per_user_ber=per_user_errors / (frames * b),
        ci95_halfwidth=float(ci),
    )


def sweep(
    pe_list,
    cb_set: CodebookSet | None = None,
    design_params: SystemParams | None = None,
    design_config: DesignConfig | None = None,
    mode: str = "scale",
    n_iters: int = DEFAULT_ITERS,
    min_bit_errors: int | None = DEFAULT_MIN_BIT_ERRORS,
    max_frames: int | None = DEFAULT_MAX_FRAMES,
    seed: int = 0,
) -> list[BerPoint]:
    """Simulated + analytical BER across a power sweep.

    mode='scale' rescales cb_set to each power level; mode='redesign' runs the
    designer afresh at each level using design_params/design_config.
    """
    pe_list = list(pe_list)
    if not pe_list:
        raise ConfigError("pe_list must be nonempty")
    if not all(isfinite(pe) and pe > 0 for pe in pe_list):
        raise ConfigError("power levels must be finite and positive")
    if any(b <= a for a, b in zip(pe_list, pe_list[1:])):
        raise ConfigError("pe_list must be strictly increasing")
    if mode not in ("scale", "redesign"):
        raise ConfigError(f"mode must be 'scale' or 'redesign', got {mode!r}")
    if mode == "scale" and cb_set is None:
        raise ConfigError("scale mode needs a codebook set")
    if mode == "redesign" and design_params is None:
        raise ConfigError("redesign mode needs design parameters")
    _check_run(n_iters, min_bit_errors, max_frames, seed)

    points = []
    for pe in pe_list:
        if mode == "scale":
            current = scale_codebook_set(cb_set, pe)
        else:
            params = replace(design_params, Pe=pe)
            current = design(params, design_config or DesignConfig()).set
        points.append(
            simulate_ber(
                current, n_iters=n_iters, min_bit_errors=min_bit_errors,
                max_frames=max_frames, seed=seed,
            )
        )
    return points
