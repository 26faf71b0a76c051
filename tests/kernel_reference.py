"""Reference copy of the designer's per-resource distance kernel.

Each resource keeps its own Q x Q table (Q = M^d for its d users) and its own
pair indices a(i) * Q + a(j). The values are summed user by user, the tables
and their derivative are built one resource at a time, the pair distances are
gathered in steps of 2^14 pairs, the softmin weights are binned per resource
in blocks of 2^20 pairs, and nothing is cached between calls. The package's
stacked kernel must agree with it bit for bit; the golden design test runs
design() on it by monkeypatching the designer's names (see patch_designer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scma_vlc import designer
from scma_vlc.metrics import DistanceReport
from scma_vlc.model import ResourceLayout, point_digits, resource_layout

_TAKE_CHUNK = 1 << 14
_GATHER_CHUNK = 1 << 20


@dataclass(frozen=True)
class ReferenceVector:
    L: np.ndarray
    layout: tuple[ResourceLayout, ...]
    pair_flat: tuple[np.ndarray, ...]

    def replace(self, L):
        return ReferenceVector(L=L, layout=self.layout, pair_flat=self.pair_flat)


def _pair_flat(a, Q):
    P = len(a)
    out = np.empty(P * (P - 1) // 2, dtype=np.min_scalar_type(Q * Q - 1))
    lo = 0
    for i in range(P - 1):
        hi = lo + P - 1 - i
        out[lo:hi] = a[i] * Q + a[i + 1:]
        lo = hi
    return out


def reference_stack(cb_set) -> ReferenceVector:
    L, layout = resource_layout(cb_set)
    digits = point_digits(cb_set.params)
    return ReferenceVector(L=L, layout=layout, pair_flat=tuple(
        _pair_flat(r.combos(digits), len(r.cols)) for r in layout))


def _values(r, L):
    v = np.zeros(len(r.cols))
    for u, gain in enumerate(r.gains):
        v += gain * L[r.cols[:, u]]
    return v


def _table_parts(v, varsigma2):
    g = varsigma2 * v + 1.0
    diff = v[:, None] - v[None, :]
    return diff, g, np.sqrt(g[:, None] * g[None, :])


def _gather(values, pair_flats, varsigma2):
    tables = []
    for v in values:
        diff, _, root = _table_parts(v, varsigma2)
        tables.append(diff * diff / root)
    d = np.zeros(len(pair_flats[0]))
    for lo in range(0, len(d), _TAKE_CHUNK):
        part = d[lo:lo + _TAKE_CHUNK]
        for table, flat in zip(tables, pair_flats):
            part += np.take(table, flat[lo:lo + _TAKE_CHUNK])
    return d


def reference_distances(x: ReferenceVector, varsigma2):
    return _gather([_values(r, x.L) for r in x.layout], x.pair_flat, varsigma2)


def _shifted_exp(d, beta):
    out = np.subtract(d, d.min())
    out *= -beta
    return np.exp(out, out=out)


def reference_objective(x, beta, varsigma2, d=None):
    """The objective; d, x's reference distances at varsigma2, saves recomputing them."""
    if d is None:
        d = reference_distances(x, varsigma2)
    return float(np.log(np.sum(_shifted_exp(d, beta))) / beta - d.min())


def _bin_pairs(flat, w, n_bins):
    W = None
    for lo in range(0, len(w), _GATHER_CHUNK):
        part = np.bincount(flat[lo:lo + _GATHER_CHUNK].astype(np.intp),
                           weights=w[lo:lo + _GATHER_CHUNK], minlength=n_bins)
        W = part if W is None else W + part
    return W


def reference_gradient(x, beta, varsigma2, d=None):
    """The gradient; d as for reference_objective."""
    if d is None:
        d = reference_distances(x, varsigma2)
    w = _shifted_exp(d, beta)
    w /= w.sum()
    cols, weights = [], []
    for r, flat in zip(x.layout, x.pair_flat):
        Q = len(r.cols)
        W = _bin_pairs(flat, w, Q * Q).reshape(Q, Q)
        diff, g, root = _table_parts(_values(r, x.L), varsigma2)
        dt = 2.0 * diff / root - 0.5 * varsigma2 * diff * diff / (g[:, None] * root)
        dv = -np.sum((W + W.T) * dt, axis=1)
        cols.append(r.cols.ravel())
        weights.append((dv[:, None] * r.gains).ravel())
    return np.bincount(np.concatenate(cols), weights=np.concatenate(weights),
                       minlength=x.L.size)


def reference_project(x, params):
    """Floor clamp, then a per-user loop that rescales blocks over the power cap."""
    out = np.maximum(x.L, designer.DesignConfig.epsilon_floor)
    size = params.N * params.M
    for j in range(params.J):
        block = out[j * size:(j + 1) * size]
        p = float(np.sum(block * block)) / params.M
        if p > params.Pe:
            block *= np.sqrt(params.Pe / p)
    return x.replace(out)


def reference_report(constellation, varsigma2):
    """d_min and d_max from one table per column of the points."""
    points = np.asarray(constellation.points, dtype=float)
    values, pair_flats = [], []
    for column in points.T:
        v, a = np.unique(column, return_inverse=True)
        values.append(v)
        pair_flats.append(_pair_flat(a, len(v)))
    d = _gather(values, pair_flats, varsigma2)
    return DistanceReport(d_min=float(d.min()), d_max=float(d.max()), pair_count=len(d))


def patch_designer(monkeypatch):
    """Make design() run on the reference kernel, projection and report."""
    for name, fn in (("stack_codebook_set", reference_stack),
                     ("logsumexp_objective", reference_objective),
                     ("logsumexp_gradient", reference_gradient),
                     ("project_feasible", reference_project),
                     ("pairwise_report", reference_report)):
        monkeypatch.setattr(designer, name, fn)
