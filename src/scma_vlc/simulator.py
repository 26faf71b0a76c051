"""IDGN channel sampling, Monte Carlo BER estimation and the union-bound BER."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decoder import DEFAULT_ITERS, _build_tables, max_log_mpa_batch
from .designer import DesignConfig, design
from .errors import ConfigError, DomainError
from .metrics import _check_noise
from .model import CodebookSet, SystemParams, scale_codebook_set
from .model import point_digits, resource_layout
from .model import enumerate_superimposed  # noqa: F401  (benchmarks/tracing.py wraps this name)

DEFAULT_MIN_BIT_ERRORS = 200
DEFAULT_MAX_FRAMES = 1_000_000
_FRAME_BLOCK = 4096

# Sent points per block of the union bound, a power of two: a block's
# pairwise-error arguments (1 MB at P=4096) stay in cache from gather to sum.
_BOUND_ROWS = 32

# Set bits of each byte value.
_POPCOUNT8 = np.array([bin(x).count("1") for x in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class TrialStream:
    """Deterministic normal-deviate stream: (seed, stream_id) fixes the sequence."""

    seed: int
    stream_id: int = 0

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
    package's import time, and only the union bound and pep_idgn need it.
    """
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def add_idgn(
    s: np.ndarray,
    sigma2: float,
    varsigma2: float,
    stream: TrialStream,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Sample y = s + sqrt(s)*Z1 + Z0 with Z1 ~ N(0, varsigma2*sigma2), Z0 ~ N(0, sigma2).

    Componentwise: y_k ~ N(s_k, sigma2 * (1 + varsigma2 * s_k)). Pass `rng` to
    continue an already-open generator instead of restarting the stream.
    Raises DomainError for a negative, NaN or infinite intensity, a sigma2
    that is not finite and > 0 or a varsigma2 that is not finite and >= 0.
    """
    _check_noise(sigma2, varsigma2)
    s = np.asarray(s, dtype=float)
    # sqrt is NaN for a negative or NaN entry and inf for +inf, so one
    # maximum over the roots checks every entry.
    with np.errstate(invalid="ignore"):
        root = np.sqrt(s)
    if root.size and not root.max() < np.inf:
        raise DomainError("signal intensities must be finite and nonnegative")
    if rng is None:
        rng = stream.generator()
    z1 = rng.standard_normal(s.shape) * np.sqrt(varsigma2 * sigma2)
    z0 = rng.standard_normal(s.shape) * np.sqrt(sigma2)
    return s + root * z1 + z0


def pep_idgn(s_i: np.ndarray, s_j: np.ndarray, sigma2: float, varsigma2: float) -> float:
    """Pairwise error probability of deciding s_j when s_i was sent.

    Uses the transmitted point's variances, so the function is intentionally
    asymmetric in its arguments when intensities differ.
    """
    _check_noise(sigma2, varsigma2)
    s_i = np.asarray(s_i, dtype=float)
    s_j = np.asarray(s_j, dtype=float)
    if not (np.isfinite(s_i).all() and np.isfinite(s_j).all()):
        raise DomainError("superimposed codewords must be finite")
    if np.any(s_i < 0) or np.any(s_j < 0):
        raise DomainError("superimposed codewords must be nonnegative")
    nu = varsigma2 * sigma2 * s_i + sigma2
    arg = np.sqrt(np.sum((s_i - s_j) ** 2 / (2.0 * nu)))
    return float(qfunc(arg))


def _popcount(x: np.ndarray) -> np.ndarray:
    """Number of set bits of each nonnegative integer in x, a byte at a time."""
    out = np.zeros(x.shape, dtype=np.int64)
    while x.any():
        out += _POPCOUNT8[x & 0xFF]
        x = x >> 8
    return out


def analytical_ber(cb_set: CodebookSet) -> float:
    """Union-bound BER: bit-weighted pairwise error probabilities over all ordered pairs.

    BER = sum_{i != j} hd(i, j) Q(arg(i, j)) / (J b P), where arg(i, j)^2 =
    sum_k (s_i^k - s_j^k)^2 / (2 nu_i^k), with nu_i^k = varsigma2 sigma2 s_i^k
    + sigma2 taken at the sent point i. Resource k takes only M^d values, so
    arg^2 is gathered from one ordered table per resource, the terms added in
    resource order. Labels are natural binary with user 1 as the most
    significant digit, so the label of point i read as a J*b-bit integer is
    i itself and hd(i, j) = popcount(i XOR j). Raises CapacityError when M^J
    exceeds DEFAULT_MAX_POINTS.
    """
    p = cb_set.params
    digits = point_digits(p)
    L, layout = resource_layout(cb_set)
    combos = [r.combos(digits) for r in layout]
    # cols[k][a, j] = (v_a - v_b)^2 / (2 nu_a) with b the value of point j on
    # resource k: each block of sent points gathers whole rows of it.
    cols = []
    for r, a in zip(layout, combos):
        v = r.values(L)
        nu = p.varsigma2 * p.sigma2 * v + p.sigma2
        diff = v[:, None] - v[None, :]
        cols.append(np.take(diff * diff / (2.0 * nu[:, None]), a, axis=1))
    P = len(digits)
    B = min(_BOUND_ROWS, P)
    j = np.arange(P)
    # For a block of rows lo + r with lo a multiple of B, hd splits into a
    # low-bit table shared by every block and a per-column high-bit term.
    low = _popcount(np.arange(B)[:, None] ^ (j & (B - 1))).astype(float)
    total = 0.0
    for lo in range(0, P, B):
        arg2 = np.take(cols[0], combos[0][lo:lo + B], axis=0)
        for c, a in zip(cols[1:], combos[1:]):
            arg2 += np.take(c, a[lo:lo + B], axis=0)
        pep = qfunc(np.sqrt(arg2, out=arg2))
        high = _popcount((lo ^ j) & ~(B - 1))
        # The diagonal needs no masking: hd(i, i) = 0 and Q(0) is finite.
        total += np.vdot(pep, low) + np.dot(pep.sum(axis=0), high)
    n_bits = p.J * p.bits_per_symbol
    return float(total) / (n_bits * P)


def _check_stops(min_bit_errors: int | None, max_frames: int | None) -> None:
    """Raise ConfigError unless at least one stopping bound is given and each is >= 1."""
    if min_bit_errors is None and max_frames is None:
        raise ConfigError("need at least one stopping bound (min_bit_errors/max_frames)")
    for name, v in (("min_bit_errors", min_bit_errors), ("max_frames", max_frames)):
        if v is not None and v < 1:
            raise ConfigError(f"{name} must be >= 1, got {v}")


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
    _check_stops(min_bit_errors, max_frames)
    p = cb_set.params
    b = p.bits_per_symbol
    tables = _build_tables(cb_set)

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
        s = np.empty((T, p.K))
        for k, r in enumerate(tables.layout):
            s[:, k] = tables.values[k][r.combos(syms)]
        y = add_idgn(s, p.sigma2, p.varsigma2, stream, rng=rng)
        _, _, hard, _, _ = max_log_mpa_batch(
            y, cb_set, n_iters, include_logdet=False, tables=tables
        )
        sent_bits = tables.labels[syms]  # (T, J, b)
        bad = hard != sent_bits
        errors += int(bad.sum())
        per_user_errors += bad.sum(axis=(0, 2))
        frames += T
        block_id += 1

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
    if any(pe <= 0 for pe in pe_list):
        raise ConfigError("power levels must be positive")
    if any(b <= a for a, b in zip(pe_list, pe_list[1:])):
        raise ConfigError("pe_list must be strictly increasing")
    if mode not in ("scale", "redesign"):
        raise ConfigError(f"mode must be 'scale' or 'redesign', got {mode!r}")
    if mode == "scale" and cb_set is None:
        raise ConfigError("scale mode needs a codebook set")
    if mode == "redesign" and design_params is None:
        raise ConfigError("redesign mode needs design parameters")
    _check_stops(min_bit_errors, max_frames)

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
