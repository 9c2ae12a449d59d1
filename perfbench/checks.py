"""Output checks: each returns a list of problems, empty when the output is right.

The checks compare what the program returned against the synthesised graph
(or, after writes, against a plain adjacency oracle the benchmark keeps), so
a faster read path that returns wrong rows fails the run instead of winning.
"""

from __future__ import annotations

import numpy as np


class EdgeIndex:
    """Sorted ``src * n + dst`` keys of a graph's edges, for membership tests."""

    def __init__(self, src: np.ndarray, dst: np.ndarray, n_vertices: int) -> None:
        self.n = int(n_vertices)
        self.keys = np.unique(np.asarray(src, np.int64) * self.n + np.asarray(dst, np.int64))
        self.out_degree = np.bincount(np.asarray(src, np.int64), minlength=self.n)

    def contains(self, parents: np.ndarray, children: np.ndarray) -> np.ndarray:
        keys = np.asarray(parents, np.int64) * self.n + np.asarray(children, np.int64)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return self.keys[pos] == keys


def check_children(
    index: EdgeIndex,
    parents: np.ndarray,
    children: np.ndarray,
    pad_mask: np.ndarray,
) -> "list[str]":
    """Every child is an out-neighbour of its parent or a marked self-pad.

    ``children`` and ``pad_mask`` have shape ``(len(parents), fanout)``. A
    pad is allowed only for a parent with no out-edges; the mask must mark
    exactly the entries equal to their parent.
    """
    parents = np.asarray(parents, np.int64)
    children = np.asarray(children, np.int64)
    pad_mask = np.asarray(pad_mask, bool)
    if children.shape != pad_mask.shape or children.shape[0] != parents.size:
        return [f"children {children.shape} / pad mask {pad_mask.shape} / parents {parents.shape}"]
    rep = np.broadcast_to(parents[:, None], children.shape)
    problems = []
    if not np.array_equal(pad_mask, children == rep):
        problems.append("pad mask does not mark exactly the self entries")
    ok = index.contains(rep, children) | (pad_mask & (index.out_degree[rep] == 0))
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        problems.append(
            f"{int((~ok).sum())} sampled children are not out-neighbours, e.g. "
            f"{int(children[tuple(bad)])} of {int(rep[tuple(bad)])}"
        )
    return problems


def check_attr_rows(
    ids: np.ndarray, rows: "dict[int, np.ndarray]", features: np.ndarray
) -> "list[str]":
    """``rows`` holds exactly ``ids``, each equal to its feature row."""
    ids = np.asarray(ids, np.int64)
    if set(rows) != set(ids.tolist()):
        return [f"attribute batch returned {len(rows)} rows for {ids.size} ids"]
    got = np.stack([rows[v] for v in ids.tolist()])
    if got.shape != (ids.size, features.shape[1]):
        return [f"attribute rows have shape {got.shape}"]
    bad = ~(got == features[ids]).all(axis=1)
    if bad.any():
        return [f"{int(bad.sum())} attribute rows differ, e.g. vertex {int(ids[bad][0])}"]
    return []


def check_embeddings(
    embeddings: np.ndarray, n: int, dim: int, losses: "list[float]"
) -> "list[str]":
    """Finite losses, an ``(n, dim)`` embedding table and unit-norm rows."""
    problems = []
    if not losses or not np.isfinite(np.asarray(losses, dtype=float)).all():
        problems.append(f"losses are not all finite: {losses}")
    if embeddings.shape != (n, dim):
        return problems + [f"embeddings have shape {embeddings.shape}, want {(n, dim)}"]
    norms = np.linalg.norm(embeddings, axis=1)
    if not np.isfinite(norms).all() or np.abs(norms - 1.0).max() > 1e-6:
        problems.append("embedding rows are not unit length")
    return problems


class AdjacencyOracle:
    """Plain per-source adjacency lists for the sources writes touched.

    Mirrors the store's write semantics: an add appends ``dst``, a remove
    drops the first ``dst`` in the row (and is a no-op when there is none).
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.rows: "dict[int, list[int]]" = {}

    def row(self, src: int) -> "list[int]":
        if src not in self.rows:
            self.rows[src] = self.graph.out_neighbors(src).tolist()
        return self.rows[src]

    def apply(self, src: int, dst: int, kind: str) -> None:
        row = self.row(src)
        if kind == "add":
            row.append(dst)
        elif dst in row:
            row.remove(dst)


def check_rows_reflect(
    oracle: AdjacencyOracle, rows: "dict[int, np.ndarray]", sources, issuer: int
) -> "list[str]":
    """Each source's row read by ``issuer`` equals the oracle's row."""
    problems = []
    for src in sources:
        got = rows.get(src)
        want = oracle.row(src)
        if got is None or got.tolist() != want:
            problems.append(
                f"issuer {issuer} reads {None if got is None else got.tolist()} "
                f"for vertex {src}, want {want}"
            )
    return problems
