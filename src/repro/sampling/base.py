"""Sampler plugin interface and neighbor providers.

Samplers are plugins (paper: "we treat all samplers as plugins. Each of them
can be implemented independently") with two halves:

* ``sample(...)`` — the forward computation;
* ``backward(feedback)`` — the update path. The paper implements dynamic
  sampling weights "in a sampler's backward computation, just like gradient
  back propagation of an operator": callers register an update function and
  feed it feedback; weighted samplers use it to adjust their distributions.

Neighborhood samplers read adjacency through a :class:`NeighborProvider`, so
the same sampler runs against a plain in-memory :class:`Graph` or against the
distributed store (with local/cache/remote accounting), matching the paper's
"one-hop neighbors from local storage, multi-hop from local cache, else a
call to a remote graph server". A provider hands the sampler one hop's
adjacency at a time as a :class:`~repro.sampling.kernels.CsrAdjacency`: the
in-memory providers return their zero-copy global snapshot, the store
provider the rows it just read for the hop's frontier.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SamplingError
from repro.graph.graph import Graph
from repro.sampling.kernels import CsrAdjacency


class Sampler:
    """Base class for all samplers (TRAVERSE / NEIGHBORHOOD / NEGATIVE)."""

    name = "abstract"

    def __init__(self) -> None:
        self._update_fn: Callable[..., None] | None = None

    def register_update_fn(self, fn: Callable[..., None]) -> None:
        """Register the backward (weight update) function of this sampler."""
        self._update_fn = fn

    def backward(self, *args: object, **kwargs: object) -> None:
        """Run the registered update function (no-op when none registered).

        Synchronous vs asynchronous application is the training loop's
        choice (paper: "the updating mode ... is due to the training
        algorithm"); here backward applies immediately when called.
        """
        if self._update_fn is not None:
            self._update_fn(*args, **kwargs)


class NeighborProvider:
    """Adjacency access abstraction consumed by neighborhood samplers."""

    def neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbor ids of ``vertex``."""
        raise NotImplementedError

    def weights(self, vertex: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        raise NotImplementedError

    def adjacency(
        self, frontier: np.ndarray
    ) -> "tuple[CsrAdjacency, np.ndarray]":
        """Adjacency rows covering ``frontier`` plus each frontier slot's row.

        Returns ``(csr, rows)`` where ``csr.neighbors(rows[i])`` is the
        out-neighbor list of ``frontier[i]``. Samplers call this once per hop
        and draw the whole hop from the returned rows.
        """
        raise NotImplementedError

    @property
    def n_vertices(self) -> int:
        """Total vertices addressable through this provider."""
        raise NotImplementedError


class GraphProvider(NeighborProvider):
    """Direct in-memory adjacency access (single-machine path).

    :meth:`adjacency` returns one zero-copy CSR snapshot of the graph, keyed
    by :attr:`version`, so samplers reuse it (and tables derived from it)
    across hops and batches.
    """

    #: Bumped whenever :attr:`graph` is replaced; the snapshot is rebuilt
    #: on the next :meth:`adjacency` call after it moves.
    version = 0

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._csr: CsrAdjacency | None = None
        self._csr_version = -1

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.graph.out_neighbors(vertex)

    def weights(self, vertex: int) -> np.ndarray:
        return self.graph.out_weights(vertex)

    def adjacency(
        self, frontier: np.ndarray
    ) -> "tuple[CsrAdjacency, np.ndarray]":
        if self._csr is None or self._csr_version != self.version:
            self._csr = CsrAdjacency.from_graph(self.graph)
            self._csr_version = self.version
        return self._csr, frontier

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices


class SnapshotProvider(GraphProvider):
    """Adjacency over one timestamp of a :class:`DynamicGraph`.

    :meth:`advance` moves to another snapshot and bumps :attr:`version`, so
    the next :meth:`adjacency` call rebuilds the CSR and samplers drop the
    tables derived from the old one — the "refresh on dynamic-graph
    updates" contract without the sampler knowing about dynamic graphs.
    """

    def __init__(self, dynamic_graph: "object", t: int = 0) -> None:
        self.dynamic_graph = dynamic_graph
        self.t = int(t)
        super().__init__(dynamic_graph.snapshot(self.t))

    def advance(self, t: int) -> "SnapshotProvider":
        """Rebind to snapshot ``t`` (no-op when already there)."""
        t = int(t)
        if t != self.t:
            self.graph = self.dynamic_graph.snapshot(t)
            self.t = t
            self.version += 1
        return self


class StoreProvider(NeighborProvider):
    """Adjacency access through the distributed store, as one worker.

    Every read is routed (and priced) by the store: local shard, neighbor
    cache, or remote RPC. ``from_part`` identifies the issuing worker.
    Weights are uniform — shipping weight vectors is a cost the paper's
    samplers avoid by using cached/dynamic local weights.

    Nothing is buffered between calls, so every read observes the store's
    writes. :meth:`adjacency` reads a hop's frontier once: with
    ``batched=True`` (the default) through ``store.get_neighbors_batch`` on
    the distinct frontier vertices — one deduplicated RPC per destination
    server via the runtime; with ``batched=False`` through
    ``store.neighbors`` once per frontier slot, in frontier order, duplicates
    included (the unbatched-transport baseline).
    """

    def __init__(self, store: "object", from_part: int, batched: bool = True) -> None:
        # Typed loosely to avoid a circular import with repro.storage.
        self.store = store
        self.from_part = from_part
        self.batched = batched

    def adjacency(
        self, frontier: np.ndarray
    ) -> "tuple[CsrAdjacency, np.ndarray]":
        if not self.batched:
            rows = [self.neighbors(v) for v in frontier.tolist()]
            return CsrAdjacency.from_rows(rows, frontier), np.arange(frontier.size)
        ids = np.unique(frontier)
        fetched = self.store.get_neighbors_batch(ids, from_part=self.from_part)
        rows = [fetched[v] for v in ids.tolist()]
        return CsrAdjacency.from_rows(rows, ids), np.searchsorted(ids, frontier)

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.store.neighbors(vertex, from_part=self.from_part)

    def weights(self, vertex: int) -> np.ndarray:
        return np.ones(self.neighbors(vertex).size, dtype=np.float64)

    @property
    def n_vertices(self) -> int:
        return self.store.graph.n_vertices


def check_batch_size(batch_size: int) -> None:
    """Shared validation for sampler batch sizes."""
    if batch_size < 1:
        raise SamplingError(f"batch size must be positive, got {batch_size}")
