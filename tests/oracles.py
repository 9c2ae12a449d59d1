"""Per-vertex reference implementations the vectorized kernels are tested against.

``src/`` has one implementation of each sampler, walk, negative and segment
kernel: the vectorized one. The plain loops here are the equivalence
oracles — deliberately naive, one vertex / walk / slot / segment at a time:

* :class:`Reference` wraps a neighborhood sampler and draws every frontier
  vertex with its own scalar call. Deterministic samplers (top-k, full) must
  match the kernels exactly; stochastic ones distributionally (chi-square).
  The uniform oracle consumes the generator exactly like the batched
  kernel, so for it the match is bit-for-bit.
* :func:`store_sample` is the per-vertex store-backed expansion: one
  ``get_neighbors_batch`` of the distinct frontier per hop, then scalar
  draws — the same reads, so the same ledger counts, as the kernel path.
* :func:`random_walks`, :func:`strict_negatives` and the ``segment_*``
  functions (values and vector-Jacobian products) mirror their ``src/``
  counterparts loop by loop.

Importable from tests (``tests`` is a package) and from benchmarks run with
the repository root on ``PYTHONPATH``.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.neighborhood import (
    FullNeighborSampler,
    ImportanceNeighborSampler,
    NeighborhoodSample,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.utils.alias import AliasTable


# --------------------------------------------------------------------- #
# Neighborhood samplers
# --------------------------------------------------------------------- #
def _uniform(sampler, vertex, nbrs, count, rng):
    return nbrs[rng.integers(nbrs.size, size=count)]


def _weighted(sampler, vertex, nbrs, count, rng):
    return nbrs[AliasTable(sampler.current_weights(vertex)).draw_batch(rng, count)]


def _topk(sampler, vertex, nbrs, count, rng):
    order = np.lexsort((nbrs, -sampler.provider.weights(vertex)))
    top = nbrs[order[: min(count, nbrs.size)]]
    return np.tile(top, int(np.ceil(count / top.size)))[:count]


def _importance(sampler, vertex, nbrs, count, rng):
    probs = sampler.inclusion_probability(vertex)
    return nbrs[rng.choice(nbrs.size, size=count, p=probs)]


def _full(sampler, vertex, nbrs, count, rng):
    take = nbrs[: min(sampler.max_fanout, nbrs.size)]
    return np.tile(take, int(np.ceil(count / take.size)))[:count]


_DRAWS = {
    UniformNeighborSampler: _uniform,
    WeightedNeighborSampler: _weighted,
    TopKNeighborSampler: _topk,
    ImportanceNeighborSampler: _importance,
    FullNeighborSampler: _full,
}


class Reference:
    """Per-vertex oracle with a neighborhood sampler's public API.

    Wraps ``sampler`` (for its provider and parameters) and draws each
    frontier vertex separately, reading its neighbors with
    ``provider.neighbors``; an empty neighbor list pads with the vertex.
    """

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self._draw = _DRAWS[type(sampler)]

    def sample_children(self, vertices, count, rng, rows=None):
        """``(children, pad_mask)``; ``rows`` maps vertex -> pre-read neighbors."""
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        children = np.empty((vertices.size, count), dtype=np.int64)
        for i, v in enumerate(vertices.tolist()):
            nbrs = rows[v] if rows is not None else self.sampler.provider.neighbors(v)
            if nbrs.size == 0:
                children[i] = v
            else:
                children[i] = self._draw(self.sampler, v, nbrs, count, rng)
        return children, children == vertices[:, None]

    def sample(self, batch, hop_nums, rng, read_hop=None):
        """Multi-hop expansion; ``read_hop(frontier)`` pre-reads each hop."""
        layers = [np.asarray(batch, dtype=np.int64)]
        pad_masks = []
        for fanout in hop_nums:
            rows = read_hop(layers[-1]) if read_hop is not None else None
            children, pad = self.sample_children(layers[-1], fanout, rng, rows)
            layers.append(children.reshape(-1))
            pad_masks.append(pad.reshape(-1))
        return NeighborhoodSample(
            layers=layers, hop_nums=list(hop_nums), pad_masks=pad_masks
        )


def store_sample(sampler, batch, hop_nums, rng) -> NeighborhoodSample:
    """Per-vertex expansion of a store-backed sampler.

    Each hop reads the distinct frontier with one ``get_neighbors_batch``
    call as the issuing worker, then draws vertex by vertex from those rows.
    """
    provider = sampler.provider

    def read_hop(frontier):
        return provider.store.get_neighbors_batch(
            np.unique(frontier), from_part=provider.from_part
        )

    return Reference(sampler).sample(batch, hop_nums, rng, read_hop=read_hop)


# --------------------------------------------------------------------- #
# Walks and negatives
# --------------------------------------------------------------------- #
def random_walks(graph, starts, length, rng, weighted=False):
    """One walk at a time, one ``rng`` call per step."""
    walks = []
    for start in np.atleast_1d(np.asarray(starts, dtype=np.int64)).tolist():
        walk = [start]
        current = start
        for _ in range(length):
            nbrs = graph.out_neighbors(current)
            if nbrs.size == 0:
                break
            if weighted:
                w = graph.out_weights(current)
                current = int(nbrs[rng.choice(nbrs.size, p=w / w.sum())])
            else:
                current = int(nbrs[rng.integers(nbrs.size)])
            walk.append(current)
        walks.append(np.asarray(walk, dtype=np.int64))
    return walks


def strict_negatives(sampler, anchors, neg_num, rng):
    """Strict-mode negatives by per-slot scalar rejection.

    Same first draw as the sampler; each colliding slot then redraws alone,
    up to ``sampler.max_retries`` times.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    out = sampler._draw(anchors.size * neg_num, rng).reshape(anchors.size, neg_num)
    for i, anchor in enumerate(anchors.tolist()):
        forbidden = set(sampler.graph.out_neighbors(anchor).tolist())
        forbidden.add(anchor)
        for j in range(neg_num):
            tries = 0
            while int(out[i, j]) in forbidden and tries < sampler.max_retries:
                out[i, j] = sampler._draw(1, rng)[0]
                tries += 1
    return out


# --------------------------------------------------------------------- #
# Ragged segment kernels: forward values and vector-Jacobian products
# --------------------------------------------------------------------- #
def _segments(offsets):
    return list(zip(np.asarray(offsets)[:-1].tolist(), np.asarray(offsets)[1:].tolist()))


def segment_sum(x, offsets, g):
    """``(out, grad_x)`` for the per-segment row sum and upstream ``g``."""
    out = np.zeros((len(offsets) - 1, x.shape[1]))
    grad = np.zeros_like(x)
    for b, (lo, hi) in enumerate(_segments(offsets)):
        out[b] = x[lo:hi].sum(axis=0)
        grad[lo:hi] = g[b]
    return out, grad


def segment_mean(x, offsets, g):
    """Per-segment row mean; empty segments give zero rows."""
    out = np.zeros((len(offsets) - 1, x.shape[1]))
    grad = np.zeros_like(x)
    for b, (lo, hi) in enumerate(_segments(offsets)):
        if hi > lo:
            out[b] = x[lo:hi].mean(axis=0)
            grad[lo:hi] = g[b] / (hi - lo)
    return out, grad


def segment_max(x, offsets, g):
    """Per-segment column max; the gradient goes to the first maximal row."""
    out = np.zeros((len(offsets) - 1, x.shape[1]))
    grad = np.zeros_like(x)
    for b, (lo, hi) in enumerate(_segments(offsets)):
        if hi == lo:
            continue
        out[b] = x[lo:hi].max(axis=0)
        for col, row in enumerate(x[lo:hi].argmax(axis=0).tolist()):
            grad[lo + row, col] += g[b, col]
    return out, grad


def segment_softmax(x, offsets, g):
    """Column-wise softmax inside each segment; output has ``x``'s shape."""
    out = np.zeros_like(x)
    grad = np.zeros_like(x)
    for lo, hi in _segments(offsets):
        if hi == lo:
            continue
        e = np.exp(x[lo:hi] - x[lo:hi].max(axis=0, keepdims=True))
        s = e / e.sum(axis=0, keepdims=True)
        out[lo:hi] = s
        grad[lo:hi] = s * (g[lo:hi] - (g[lo:hi] * s).sum(axis=0, keepdims=True))
    return out, grad
