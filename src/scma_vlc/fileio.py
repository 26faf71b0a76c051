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
    if header.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported codebook format version {header.get('version')}")
    if header.get("labeling") != LABELING:
        raise ConfigError(f"unsupported bit labeling {header.get('labeling')!r}")
    try:
        params = SystemParams(
            J=int(header["J"]), K=int(header["K"]), M=int(header["M"]),
            N=int(header["N"]), sigma2=float(header["sigma2"]),
            varsigma2=float(header["varsigma2"]), Pe=float(header["Pe"]),
        )
    except KeyError as e:
        raise ConfigError(f"codebook header missing field {e}") from e

    expected = 1 + params.K + params.J * params.N
    if len(lines) != expected:
        raise ConfigError(f"expected {expected} lines, found {len(lines)}")

    F = np.array(
        [[int(v) for v in lines[1 + k].split()] for k in range(params.K)], dtype=np.int64
    )
    if F.shape != (params.K, params.J):
        raise ConfigError("factor graph block has wrong shape")
    if np.any(F.sum(axis=0) != params.N):
        raise ConfigError("every factor graph column must have exactly N ones")

    books = []
    pos = 1 + params.K
    for _ in range(params.J):
        rows = [[float(v) for v in lines[pos + n].split()] for n in range(params.N)]
        C = np.array(rows)
        if C.shape != (params.N, params.M):
            raise ConfigError("constellation block has wrong shape")
        books.append(C)
        pos += params.N

    rn = tuple(tuple(int(j + 1) for j in np.flatnonzero(F[k])) for k in range(params.K))
    vn = tuple(tuple(int(k + 1) for k in np.flatnonzero(F[:, j])) for j in range(params.J))
    graph = FactorGraph(
        F=F, rn_neighbors=rn, vn_neighbors=vn,
        df_per_rn=tuple(int(F[k].sum()) for k in range(params.K)),
    )
    mappings = tuple(mapping_from_graph(graph, j) for j in range(1, params.J + 1))
    return CodebookSet(
        params=params, graph=graph, mappings=mappings,
        books=tuple(Codebook(C=c, user_index=j + 1) for j, c in enumerate(books)),
    )


def save_codebook_set(cb_set: CodebookSet, path: str | Path) -> None:
    Path(path).write_text(dumps_codebook_set(cb_set))


def load_codebook_set(path: str | Path) -> CodebookSet:
    return loads_codebook_set(Path(path).read_text())
