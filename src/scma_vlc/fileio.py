"""Versioned text format for codebook sets.

Layout: one JSON header line, K rows of the 0/1 factor graph, then each
user's N x M constellation as N whitespace-separated rows. Serialization is
canonical (shortest round-trip float repr), so saving a loaded file is
byte-identical. The format has no field for channel gains, so a set with
non-unit gains is refused rather than saved without them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import Codebook, CodebookSet, FactorGraph, SystemParams, mapping_from_graph

FORMAT_VERSION = 1
LABELING = "natural-binary"

_REQUIRED = object()


def json_field(obj: dict, name: str, kind: type, default=_REQUIRED):
    """obj[name] checked as an int (kind=int) or a number (kind=float).

    An int field takes only a JSON integer; a number field takes an integer
    or a float. Neither takes a bool. A missing field without a default, or a
    value of another type, raises ConfigError.
    """
    if name not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {name!r}")
        return default
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"field {name!r} must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as e:  # an integer too large for a float
        raise ConfigError(f"field {name!r} is out of range: {e}") from e


def dumps_codebook_set(cb_set: CodebookSet) -> str:
    p = cb_set.params
    if any(np.any(g != 1.0) for g in cb_set.gains):
        raise ConfigError(
            f"format version {FORMAT_VERSION} has no channel gains; "
            "cannot save a set with non-unit gains"
        )
    header = {
        "version": FORMAT_VERSION,
        "K": p.K, "J": p.J, "M": p.M, "N": p.N,
        "sigma2": p.sigma2, "varsigma2": p.varsigma2, "Pe": p.Pe,
        "labeling": LABELING,
    }
    lines = [json.dumps(header)]
    for k in range(p.K):
        lines.append(" ".join(str(int(v)) for v in cb_set.graph.F[k]))
    for book in cb_set.books:
        for row in book.C:
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def loads_codebook_set(text: str) -> CodebookSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("empty codebook file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed codebook header: {e}") from e
    if not isinstance(header, dict):
        raise ConfigError("the codebook header must be a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported codebook format version {header.get('version')}")
    if header.get("labeling") != LABELING:
        raise ConfigError(f"unsupported bit labeling {header.get('labeling')!r}")
    params = SystemParams(
        **{name: json_field(header, name, int) for name in ("J", "K", "M", "N")},
        **{name: json_field(header, name, float) for name in ("sigma2", "varsigma2", "Pe")},
    )

    expected = 1 + params.K + params.J * params.N
    if len(lines) != expected:
        raise ConfigError(f"expected {expected} lines, found {len(lines)}")

    # A non-integer graph entry, a non-numeric entry or a ragged row.
    try:
        F = np.array(
            [[int(v) for v in lines[1 + k].split()] for k in range(params.K)], dtype=np.int64
        )
        books = [np.array([[float(v) for v in ln.split()] for ln in lines[pos:pos + params.N]])
                 for pos in range(1 + params.K, expected, params.N)]
    except ValueError as e:
        raise ConfigError(f"malformed codebook entries: {e}") from e
    if F.shape != (params.K, params.J):
        raise ConfigError("factor graph block has wrong shape")
    graph = FactorGraph(F=F)
    if np.any(F.sum(axis=0) != params.N):
        raise ConfigError("every factor graph column must have exactly N ones")
    if any(C.shape != (params.N, params.M) for C in books):
        raise ConfigError("constellation block has wrong shape")

    mappings = tuple(mapping_from_graph(graph, j) for j in range(1, params.J + 1))
    return CodebookSet(
        params=params, graph=graph, mappings=mappings,
        books=tuple(Codebook(C=c, user_index=j + 1) for j, c in enumerate(books)),
    )


def save_codebook_set(cb_set: CodebookSet, path: str | Path) -> None:
    Path(path).write_text(dumps_codebook_set(cb_set))


def load_codebook_set(path: str | Path) -> CodebookSet:
    return loads_codebook_set(Path(path).read_text())
