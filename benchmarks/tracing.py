"""Spans around the calls into each layer, recorded from outside the package.

Each traced target is a function looked up by its callers through a module
attribute (``scma_vlc.designer.logsumexp_gradient`` is the name
``_pgd_step`` reads at call time). `Tracer.install` replaces that attribute
with a wrapper that records a span; `Tracer.uninstall` puts the original back.
A target that no longer exists (renamed or fused by a refactor) is listed in
`Tracer.missing` and simply produces no span, so its metrics are absent.

Spans are kept in memory as (name, start, end, parent) rows; a layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


def _pairs(stacked) -> int:
    n = stacked.n_points
    return n * (n - 1) // 2


def _ordered_pairs(cb_set) -> int:
    p = cb_set.params
    n = p.M ** p.J
    return n * (n - 1)


# (module, attribute, span name, work counter on the first argument or None).
# The benchmark itself calls design, simulate_ber, analytical_ber and cli.main
# through these same attributes, so its top-level calls are spans too.
TARGETS = (
    ("scma_vlc.designer", "design", "designer.design", None),
    ("scma_vlc.designer", "logsumexp_objective", "metrics.objective", _pairs),
    ("scma_vlc.designer", "logsumexp_gradient", "metrics.gradient", _pairs),
    ("scma_vlc.designer", "project_feasible", "designer.project", None),
    ("scma_vlc.designer", "pairwise_report", "metrics.pairwise_report", None),
    ("scma_vlc.designer", "enumerate_superimposed", "model.enumerate", None),
    ("scma_vlc.metrics", "enumerate_superimposed", "model.enumerate", None),
    ("scma_vlc.simulator", "enumerate_superimposed", "model.enumerate", None),
    ("scma_vlc.simulator", "simulate_ber", "simulator.simulate", None),
    ("scma_vlc.simulator", "max_log_mpa_batch", "decoder.mpa", len),
    ("scma_vlc.simulator", "add_idgn", "simulator.noise", None),
    ("scma_vlc.simulator", "analytical_ber", "simulator.bound", _ordered_pairs),
    ("scma_vlc.cli", "main", "cli.main", None),
    ("scma_vlc.cli", "design", "designer.design", None),
    ("scma_vlc.cli", "simulate_ber", "simulator.simulate", None),
    ("scma_vlc.cli", "save_codebook_set", "fileio.save", None),
    ("scma_vlc.cli", "load_codebook_set", "fileio.load", None),
)


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.rows: list[tuple[str, float, float, int]] = []
        self.work: list[int] = []
        self.missing: list[str] = []
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        rows, work, stack, clock = self.rows, self.work, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rows)
            rows.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            work.append(counter(args[0]) if counter else 0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rows[idx] = (name, t0, t1, rows[idx][3])

        return traced

    def install(self) -> None:
        self.missing = []
        for mod_name, attr, name, counter in TARGETS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            self.present.add(name)
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span; spans from a mark onwards belong to one pass."""
        return len(self.rows)

    def totals(self, lo: int, hi: int) -> dict[str, SpanTotals]:
        """Per-name call count, inclusive time, self time and work of spans [lo, hi)."""
        child_s = [0.0] * (hi - lo)
        for name, t0, t1, parent in self.rows[lo:hi]:
            if parent >= lo:
                child_s[parent - lo] += t1 - t0
        out: dict[str, SpanTotals] = {}
        for i, (name, t0, t1, _) in enumerate(self.rows[lo:hi]):
            tot = out.setdefault(name, SpanTotals())
            tot.calls += 1
            tot.total_s += t1 - t0
            tot.self_s += t1 - t0 - child_s[i]
            tot.work += self.work[lo + i]
        return out
