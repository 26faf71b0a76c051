"""Codebook design by beta-continuation of the smoothed maxi-min objective.

The inner solver is projected gradient descent with a backtracking line
search; the feasible set is the entrywise floor intersected with the
per-user average-power balls, both of which project cheaply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isfinite
from numbers import Integral
from typing import ClassVar

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .metrics import (
    StackedVector,
    logsumexp_gradient,
    logsumexp_objective,
    pairwise_report,
    stack_codebook_set,
)
from .model import (
    Codebook,
    CodebookSet,
    SystemParams,
    codebook_set_from_constellations,
    enumerate_superimposed,
    power,
)

_ARMIJO_C = 1e-4
_STEP_GROW = 1.3
_STEP_SHRINK = 0.5
_MAX_BACKTRACKS = 40

# Accepted gradient steps per outer iteration; the stage stop rule compares
# the objective between consecutive outer iterations.
_CHECKPOINT_STEPS = 200


@dataclass(frozen=True)
class DesignConfig:
    beta_schedule: tuple[float, ...] = tuple(float(b) for b in range(1, 31))
    starts: int = 8
    seed: int = 0
    max_inner_iters: int = 500
    # Fixed for every design: the stage stop tolerance and the entry floor.
    inner_tol: ClassVar[float] = 1e-3
    epsilon_floor: ClassVar[float] = 0.01

    def __post_init__(self):
        if not self.beta_schedule:
            raise ValueError("beta_schedule must not be empty")
        if not all(isfinite(b) and b > 0 for b in self.beta_schedule):
            raise ValueError("beta_schedule entries must be finite and > 0")
        if any(b2 <= b1 for b1, b2 in zip(self.beta_schedule, self.beta_schedule[1:])):
            raise ValueError("beta_schedule must be strictly increasing")
        for name, least in (("starts", 1), ("max_inner_iters", 0), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


@dataclass(frozen=True)
class DesignResult:
    set: CodebookSet
    objective_trace: tuple[tuple[int, float, int, float], ...]  # (start, beta, iter, f_v)
    final_d_min: float
    active_constraints: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _block_powers(L: np.ndarray, params: SystemParams) -> np.ndarray:
    """Average power of each user's N*M block of L."""
    blocks = L.reshape(params.J, params.N * params.M)
    return (blocks * blocks).sum(axis=1) / params.M


def project_feasible(L: StackedVector, params: SystemParams) -> StackedVector:
    """Clamp entries to the floor, then rescale any user block over its power cap.

    Raises DomainError for a non-finite entry.
    """
    if not np.isfinite(L.L).all():
        raise DomainError("stacked constellation entries must be finite")
    out = np.maximum(L.L, DesignConfig.epsilon_floor)
    p = _block_powers(out, params)
    blocks = out.reshape(params.J, -1)
    blocks *= np.where(p > params.Pe, np.sqrt(params.Pe / p), 1.0)[:, None]
    return L.replace(out)


def _is_feasible(L: np.ndarray, params: SystemParams) -> bool:
    return bool(np.all(L > 0) and np.all(_block_powers(L, params) <= params.Pe + 1e-7))


def random_init(params: SystemParams, seed: int, template: StackedVector) -> StackedVector:
    """Uniform draw in [floor, sqrt(Pe)] per entry, projected feasible."""
    rng = np.random.default_rng(seed)
    L = rng.uniform(DesignConfig.epsilon_floor, np.sqrt(params.Pe), size=template.L.shape)
    return project_feasible(template.replace(L), params)


def _pgd_step(
    x: StackedVector,
    f: float,
    step: float,
    beta: float,
    params: SystemParams,
    config: DesignConfig,
) -> tuple[StackedVector, float, float, bool]:
    """One projected-gradient step with Armijo backtracking.

    Returns (point, objective, step size, accepted); on rejection the input
    point is returned unchanged. A step size that has underflowed to zero
    rejects, because the projection alone may still move the point.
    """
    vs2 = params.varsigma2
    g = logsumexp_gradient(x, beta, vs2)
    for _ in range(_MAX_BACKTRACKS):
        if step == 0.0:
            break
        cand = project_feasible(x.replace(x.L - step * g), params)
        move = cand.L - x.L
        move_sq = float(np.dot(move, move))
        if move_sq == 0.0:
            break
        f_cand = logsumexp_objective(cand, beta, vs2)
        if f_cand <= f - _ARMIJO_C * move_sq / step:
            return cand, f_cand, step * _STEP_GROW, True
        step *= _STEP_SHRINK
    return x, f, step, False


def inner_solve(
    L0: StackedVector,
    beta: float,
    params: SystemParams,
    config: DesignConfig,
    trace: list | None = None,
    start: int = 0,
) -> tuple[float, StackedVector]:
    """Minimize the smoothed objective at fixed beta by projected gradient descent.

    Outer iterations are checkpoints of _CHECKPOINT_STEPS accepted gradient
    steps; the stage stops once the objective drop between consecutive
    checkpoints falls below inner_tol (or the checkpoint cap is reached).
    Never returns a point with a higher objective than the (projected) start.
    """
    x = project_feasible(L0, params)
    f = logsumexp_objective(x, beta, params.varsigma2)
    step = 1.0
    for outer in range(config.max_inner_iters):
        f_prev = f
        stalled = False
        for _ in range(_CHECKPOINT_STEPS):
            x, f, step, accepted = _pgd_step(x, f, step, beta, params, config)
            if not accepted:
                stalled = True
                break
        if trace is not None:
            trace.append((start, beta, outer, f))
        if stalled or f_prev - f < config.inner_tol:
            break
    return f, x


def design(params: SystemParams, config: DesignConfig = DesignConfig()) -> DesignResult:
    """Best-of-starts beta-continuation design of a full codebook set.

    Each start draws a random feasible point and anneals through the beta
    schedule: one accepted gradient step per intermediate beta (warm-started),
    then a full inner solve at the final beta. Running the early smooth stages
    to convergence instead is counterproductive — their minimizers merge
    superimposed points, and coincident pairs have zero gradient, so later
    sharp stages can never separate them again. Raises ConfigError when Pe is
    below N * epsilon_floor^2, the power of a book with every entry at the floor.
    """
    if params.Pe < params.N * config.epsilon_floor**2:
        raise ConfigError(
            f"Pe={params.Pe:g} is below N * epsilon_floor^2 = "
            f"{params.N * config.epsilon_floor**2:g}; no book meets both the floor and the cap"
        )
    t0 = time.perf_counter()
    # Uniform placeholder books define the structure (graph, map) once.
    placeholder = codebook_set_from_constellations(
        params, [np.ones((params.N, params.M)) for _ in range(params.J)]
    )
    template = stack_codebook_set(placeholder)

    trace: list[tuple[int, float, int, float]] = []
    best_f = np.inf
    best_L: StackedVector | None = None
    for s in range(config.starts):
        x = random_init(params, config.seed + s, template)
        step = 1.0
        for beta in config.beta_schedule[:-1]:
            f = logsumexp_objective(x, beta, params.varsigma2)
            x, f, step, _ = _pgd_step(x, f, step, beta, params, config)
            trace.append((s, beta, 0, f))
        f, x = inner_solve(x, config.beta_schedule[-1], params, config, trace=trace, start=s)
        if f < best_f - 1e-9:
            best_f, best_L = f, x

    if best_L is None:
        raise ConvergenceError("no start reached a finite objective")

    # Repair any sub-floor entries introduced by the final power rescale.
    L = best_L.L.copy()
    for _ in range(100):
        if np.all(L >= config.epsilon_floor - 1e-12) and _is_feasible(L, params):
            break
        L = project_feasible(best_L.replace(L), params).L

    books = [block.reshape(params.N, params.M).copy()
             for block in L.reshape(params.J, -1)]
    cb_set = codebook_set_from_constellations(params, books)

    report = pairwise_report(enumerate_superimposed(cb_set), params.varsigma2)
    tight_power = [
        j + 1 for j, b in enumerate(cb_set.books)
        if abs(power(b) - params.Pe) < 1e-6
    ]
    floor_entries = int(np.sum(np.abs(L - config.epsilon_floor) < 1e-9))
    return DesignResult(
        set=cb_set,
        objective_trace=tuple(trace),
        final_d_min=report.d_min,
        active_constraints={
            "power_tight_users": tight_power,
            "floor_tight_entries": floor_entries,
        },
        wall_time=time.perf_counter() - t0,
    )
