"""NEIGHBORHOOD samplers: per-vertex context generation (paper §3.3).

A neighborhood sampler expands a batch of vertices hop by hop with aligned
fan-outs (``hop_nums``), producing the context the AGGREGATE/COMBINE
operators consume. Variants reproduce the sampling strategies of the GNNs in
the paper's Table 1:

* :class:`UniformNeighborSampler` — GraphSAGE's node-wise uniform sampling;
* :class:`WeightedNeighborSampler` — edge-weight proportional draws through
  alias tables, with *dynamic weights*: ``backward`` nudges per-edge sampling
  weights like a gradient step (the paper's trainable sampler);
* :class:`TopKNeighborSampler` — deterministic heaviest-k (AHEP-style
  importance pruning);
* :class:`ImportanceNeighborSampler` — degree-proportional importance
  sampling in the FastGCN/AS-GCN family, with inclusion-probability
  weights exposed for variance correction;
* :class:`FullNeighborSampler` — no sampling (exact GCN), with a fan-out cap
  as a safety valve on power-law hubs.

Every sampler has one :meth:`_ExpandingSampler.sample_children`
implementation: per hop it asks the provider for the frontier's adjacency —
a :class:`~repro.sampling.kernels.CsrAdjacency` plus each frontier slot's row
— and draws the whole hop with one vectorized kernel (uniform draws are a
broadcast ``rng.integers``; weighted/importance draws go through one
:class:`~repro.utils.alias.GroupedAliasTable` spanning every row). In-memory
providers return the same global snapshot hop after hop, so derived alias
tables are built once and reused until the snapshot changes; the store
provider returns the rows it just read for the hop, so store-backed draws
always see the store's current adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SamplingError
from repro.sampling.base import NeighborProvider, Sampler
from repro.sampling.kernels import CsrAdjacency
from repro.utils.alias import GroupedAliasTable


@dataclass
class NeighborhoodSample:
    """Multi-hop context of a vertex batch.

    ``layers[0]`` is the seed batch; ``layers[k]`` holds the hop-k context,
    flattened so that the ``hop_nums[k-1]`` samples for ``layers[k-1][i]``
    sit at ``layers[k][i * hop_nums[k-1] : (i+1) * hop_nums[k-1]]``.

    ``pad_masks[k-1]`` (aligned with ``layers[k]``) records the *self-loop
    contract*: an entry is True exactly when the sampled child equals its
    parent vertex. Vertices with no neighbors are padded by repeating
    themselves, so all their entries are True — but a genuine self-loop
    edge draw is marked True as well. The mask therefore answers "does this
    slot aggregate the parent's own features?", not "was this slot
    synthesized?"; downstream consumers (e.g. mean aggregation that wants
    to discount padding) treat the two cases identically.
    """

    layers: list[np.ndarray]
    hop_nums: list[int]
    pad_masks: list[np.ndarray] = field(default_factory=list)

    @property
    def batch_size(self) -> int:
        """Seed batch size."""
        return int(self.layers[0].size)

    @property
    def n_hops(self) -> int:
        """Number of expanded hops."""
        return len(self.layers) - 1

    def hop(self, k: int) -> np.ndarray:
        """Hop-k layer reshaped to ``(len(layers[k-1]), hop_nums[k-1])``."""
        if not 1 <= k <= self.n_hops:
            raise SamplingError(f"hop {k} out of range [1, {self.n_hops}]")
        return self.layers[k].reshape(self.layers[k - 1].size, self.hop_nums[k - 1])

    def all_vertices(self) -> np.ndarray:
        """Unique vertex ids appearing anywhere in the sample."""
        return np.unique(np.concatenate(self.layers))


class _ExpandingSampler(Sampler):
    """Shared multi-hop expansion; subclasses supply the frontier draw."""

    def __init__(self, provider: NeighborProvider) -> None:
        super().__init__()
        self.provider = provider

    def _draw(
        self,
        csr: CsrAdjacency,
        rows: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``(len(rows), count)`` neighbor ids drawn from ``csr``'s ``rows``."""
        raise NotImplementedError

    def sample_children(
        self, vertices: np.ndarray, count: int, rng: np.random.Generator
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Draw ``count`` children for every frontier vertex — one call.

        Returns ``(children, pad_mask)``, both of shape
        ``(len(vertices), count)``. Vertices without neighbors are padded
        with themselves; ``pad_mask`` marks entries equal to their parent
        (the self-loop contract of :class:`NeighborhoodSample`). The
        frontier's adjacency is read from the provider once.
        """
        if count < 1:
            raise SamplingError(f"fan-out must be positive, got {count}")
        vertices = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
        csr, rows = self.provider.adjacency(vertices)
        children = self._draw(csr, rows, count, rng)
        return children, children == vertices[:, None]

    def sample(
        self,
        batch: np.ndarray,
        hop_nums: "list[int]",
        rng: np.random.Generator,
    ) -> NeighborhoodSample:
        """Expand ``batch`` by ``hop_nums`` fan-outs per hop."""
        batch = np.asarray(batch, dtype=np.int64)
        if batch.size == 0:
            raise SamplingError("cannot expand an empty batch")
        if not hop_nums or any(h < 1 for h in hop_nums):
            raise SamplingError(f"hop_nums must be positive, got {hop_nums}")
        layers = [batch]
        pad_masks: list[np.ndarray] = []
        for fanout in hop_nums:
            children, pad = self.sample_children(layers[-1], fanout, rng)
            layers.append(children.reshape(-1))
            pad_masks.append(pad.reshape(-1))
        return NeighborhoodSample(layers=layers, hop_nums=list(hop_nums), pad_masks=pad_masks)


class UniformNeighborSampler(_ExpandingSampler):
    """GraphSAGE-style uniform with-replacement neighbor sampling."""

    name = "neighborhood_uniform"

    def _draw(
        self,
        csr: CsrAdjacency,
        rows: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return csr.sample_uniform(rows, count, rng)


class _AliasSampler(_ExpandingSampler):
    """Draws through a grouped alias table over the provider's rows.

    The table is cached for the adjacency it was built over: reused while
    the provider keeps returning the same snapshot, rebuilt for a new one
    (every store-read frontier, every dynamic-graph advance).
    """

    def __init__(self, provider: NeighborProvider) -> None:
        super().__init__(provider)
        self._table: GroupedAliasTable | None = None
        self._table_csr: CsrAdjacency | None = None

    def _slot_weights(self, csr: CsrAdjacency) -> np.ndarray:
        """Unnormalized draw weight of every adjacency slot of ``csr``."""
        raise NotImplementedError

    def _table_for(self, csr: CsrAdjacency) -> GroupedAliasTable:
        if csr is not self._table_csr:
            self._table = GroupedAliasTable(self._slot_weights(csr), csr.indptr)
            self._table_csr = csr
        return self._table

    def _draw(
        self,
        csr: CsrAdjacency,
        rows: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return csr.sample_alias(rows, count, rng, self._table_for(csr))


class WeightedNeighborSampler(_AliasSampler):
    """Edge-weight proportional sampling with dynamic (trainable) weights.

    ``backward`` adjusts a vertex's weights — the paper's "register a
    gradient function for the sampler" mechanism. Overrides are applied to
    whichever adjacency the provider returns; a cached global table is
    patched in place (only the touched vertex's slots are rebuilt).
    """

    name = "neighborhood_weighted"

    def __init__(self, provider: NeighborProvider) -> None:
        super().__init__(provider)
        self._weights: dict[int, np.ndarray] = {}
        self.register_update_fn(self._apply_weight_update)

    def current_weights(self, vertex: int) -> np.ndarray:
        """The (possibly updated) sampling weights of ``vertex``'s edges."""
        if vertex not in self._weights:
            self._weights[vertex] = np.array(
                self.provider.weights(vertex), dtype=np.float64
            )
        return self._weights[vertex]

    def _apply_weight_update(
        self, vertex: int, grads: np.ndarray, lr: float = 0.1
    ) -> None:
        """Gradient-like multiplicative update of ``vertex``'s edge weights."""
        weights = self.current_weights(vertex)
        grads = np.asarray(grads, dtype=np.float64)
        if grads.shape != weights.shape:
            raise SamplingError(
                f"gradient shape {grads.shape} does not match the "
                f"{weights.shape} weights of vertex {vertex}"
            )
        updated = np.maximum(weights * np.exp(lr * grads), 1e-12)
        self._weights[vertex] = updated
        if self._table_csr is not None and self._table_csr.ids is None:
            self._table.update_group(vertex, updated)  # global: row == vertex

    def _slot_weights(self, csr: CsrAdjacency) -> np.ndarray:
        weights = csr.weights.copy()
        if self._weights:
            ids = np.arange(csr.n_vertices) if csr.ids is None else csr.ids
            for row in np.flatnonzero(np.isin(ids, list(self._weights))).tolist():
                override = self._weights[int(ids[row])]
                start, end = csr.indptr[row], csr.indptr[row + 1]
                if override.size == end - start:
                    weights[start:end] = override
        return weights


class TopKNeighborSampler(_ExpandingSampler):
    """Deterministic heaviest-``count`` neighbors (ties by id).

    Repeats the heaviest neighbors cyclically when the fan-out exceeds the
    degree so output stays aligned; the kernel gathers through the
    adjacency's cached per-row weight ranking.
    """

    name = "neighborhood_topk"

    def _draw(
        self,
        csr: CsrAdjacency,
        rows: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return csr.sample_ranked(rows, count)


class ImportanceNeighborSampler(_AliasSampler):
    """Degree-proportional importance sampling (FastGCN/AS-GCN family).

    Samples neighbor ``u`` of ``v`` with probability proportional to
    ``deg(u)^beta`` (``beta=1`` emphasizes hubs; FastGCN's q(u) ∝ deg).
    ``inclusion_probability`` exposes the per-draw probabilities so callers
    can build unbiased (importance-weighted) aggregations. The alias table
    packs ``deg^beta`` scores for every adjacency slot.
    """

    name = "neighborhood_importance"

    def __init__(
        self,
        provider: NeighborProvider,
        degrees: np.ndarray,
        beta: float = 1.0,
    ):
        super().__init__(provider)
        degrees = np.asarray(degrees, dtype=np.float64)
        if degrees.ndim != 1:
            raise SamplingError("degrees must be a 1-D vector")
        self.beta = beta
        self._scores = np.power(np.maximum(degrees, 1.0), beta)

    def inclusion_probability(self, vertex: int) -> np.ndarray:
        """p(u | v) over ``v``'s neighbor list (sums to 1)."""
        nbrs = self.provider.neighbors(vertex)
        if nbrs.size == 0:
            return np.zeros(0, dtype=np.float64)
        scores = self._scores[nbrs]
        return scores / scores.sum()

    def _slot_weights(self, csr: CsrAdjacency) -> np.ndarray:
        return self._scores[csr.indices]


class FullNeighborSampler(_ExpandingSampler):
    """No sampling: the full neighbor set, cyclically padded to ``count``.

    ``max_fanout`` caps hub explosion; pass the graph's max degree as the
    fan-out to make the expansion exact.
    """

    name = "neighborhood_full"

    def __init__(self, provider: NeighborProvider, max_fanout: int = 512) -> None:
        super().__init__(provider)
        if max_fanout < 1:
            raise SamplingError("max_fanout must be positive")
        self.max_fanout = max_fanout

    def _draw(
        self,
        csr: CsrAdjacency,
        rows: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return csr.sample_leading(rows, count, max_take=self.max_fanout)
