"""Vectorized frontier-sampling kernels over CSR-shaped adjacency.

The paper's sampling layer runs "many millions of times per epoch" (§3.3),
which is why it is engineered around O(1) alias draws — but O(1) per draw
still loses to array-shaped expansion when every draw carries Python
dispatch. Adjacency therefore travels in one data shape, a
:class:`CsrAdjacency` (row ids + offsets + flat neighbor/weight rows), and a
whole frontier expands in a handful of numpy kernel calls:

* uniform fan-out: one broadcast ``rng.integers`` over per-row degrees;
* weighted / importance fan-out: one
  :class:`~repro.utils.alias.GroupedAliasTable` draw spanning every row;
* top-k / full fan-out: one gather through a per-row weight ranking.

Neighbor providers (:mod:`repro.sampling.base`) hand samplers the rows a
frontier needs: an in-memory graph returns its zero-copy global CSR (row
``v`` is vertex ``v``), the distributed store returns the hop's freshly
read rows, one row per distinct frontier vertex, with their vertex ``ids``.
Every kernel takes *row* positions and pads empty rows with the row's
vertex id, so both shapes run through the same code.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError


class CsrAdjacency:
    """Immutable CSR adjacency: row ids + offsets + flat rows.

    ``indices[indptr[r]:indptr[r+1]]`` are row ``r``'s out-neighbors and
    ``weights`` the aligned edge weights. ``ids[r]`` is the vertex row ``r``
    belongs to; ``ids=None`` means row ``r`` is vertex ``r`` (a global
    snapshot). The per-row descending-weight ranking used by the
    deterministic samplers is built lazily and cached.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        ids: "np.ndarray | None" = None,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise SamplingError("CSR indptr must be a non-empty 1-D array")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise SamplingError("CSR indptr must be monotone from 0")
        if indices.shape != weights.shape or indices.ndim != 1:
            raise SamplingError("CSR indices/weights must be aligned 1-D arrays")
        if indptr[-1] != indices.size:
            raise SamplingError("CSR indptr does not cover the indices array")
        if ids is not None:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (indptr.size - 1,):
                raise SamplingError("CSR ids must name every row exactly once")
        self._bind(indptr, indices, weights, ids)

    def _bind(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        ids: "np.ndarray | None",
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.ids = ids
        self.degrees = indptr[1:] - indptr[:-1]
        self._ranked: np.ndarray | None = None

    @classmethod
    def from_graph(cls, graph: "object") -> "CsrAdjacency":
        """Zero-copy snapshot of an in-memory :class:`Graph`'s out-CSR."""
        indptr, indices, weights = graph.csr_arrays()
        return cls(indptr, indices, weights)

    @classmethod
    def from_rows(
        cls, rows: "list[np.ndarray]", ids: np.ndarray
    ) -> "CsrAdjacency":
        """Unit-weight adjacency of per-row neighbor arrays; row ``r`` is ``ids[r]``.

        Valid by construction, so the per-hop path skips the checks of
        ``__init__``: a hop's adjacency costs a few numpy calls.
        """
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.array([row.size for row in rows], dtype=np.int64), out=indptr[1:])
        indices = np.concatenate(rows or [np.zeros(0, dtype=np.int64)])
        indices = indices.astype(np.int64, copy=False)
        csr = cls.__new__(cls)
        csr._bind(indptr, indices, np.ones(indices.size), np.asarray(ids, dtype=np.int64))
        return csr

    @property
    def n_vertices(self) -> int:
        """Rows in the adjacency."""
        return int(self.indptr.size - 1)

    @property
    def n_slots(self) -> int:
        """Total packed adjacency entries."""
        return int(self.indices.size)

    def neighbors(self, v: int) -> np.ndarray:
        """Row ``v``'s packed neighbor slice (a view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def weights_of(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` (a view)."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def ranked(self) -> np.ndarray:
        """Flat permutation ranking each row by (-weight, neighbor id).

        ``indices[ranked()[indptr[v] + t]]`` is vertex ``v``'s ``t``-th
        heaviest neighbor (ties broken by ascending id) — the gather order
        of the deterministic top-k sampler. Built once, cached.
        """
        if self._ranked is None:
            gids = np.repeat(
                np.arange(self.n_vertices, dtype=np.int64), self.degrees
            )
            self._ranked = np.lexsort((self.indices, -self.weights, gids))
        return self._ranked

    # ------------------------------------------------------------------ #
    # Batched draw kernels: ``rows`` are row positions, one per output row
    # ------------------------------------------------------------------ #
    def _pad_empty(
        self, rows: np.ndarray, count: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Self-padded output scaffold + the non-empty row mask."""
        ids = rows if self.ids is None else self.ids[rows]
        out = np.repeat(ids[:, None], count, axis=1)
        return out, self.degrees[rows] > 0

    def sample_uniform(
        self, rows: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform with-replacement fan-out: ``(len(rows), count)`` ids.

        Zero-degree rows pad with the row's vertex (self-loop semantics) and
        consume no randomness, so the stream matches a per-vertex loop of
        ``nbrs[rng.integers(nbrs.size, size=count)]`` draw for draw.
        """
        out, nz = self._pad_empty(rows, count)
        if nz.any():
            rs = rows[nz]
            slot = rng.integers(0, self.degrees[rs][:, None], size=(rs.size, count))
            out[nz] = self.indices[self.indptr[rs][:, None] + slot]
        return out

    def sample_alias(
        self,
        rows: np.ndarray,
        count: int,
        rng: np.random.Generator,
        table: "object",
    ) -> np.ndarray:
        """Weighted fan-out through a grouped alias ``table`` over these rows."""
        out, nz = self._pad_empty(rows, count)
        if nz.any():
            flat = table.draw_for_groups(rows[nz], count, rng)
            out[nz] = self.indices[flat]
        return out

    def sample_ranked(
        self, rows: np.ndarray, count: int, max_take: "int | None" = None
    ) -> np.ndarray:
        """Deterministic heaviest-``count`` fan-out, cyclically tiled.

        Each row yields its ``min(count, deg, max_take)`` top-ranked
        neighbors repeated cyclically to ``count`` (the top-k sampler's
        ``np.tile`` contract).
        """
        return self._gather_cyclic(self.ranked(), rows, count, max_take)

    def sample_leading(
        self, rows: np.ndarray, count: int, max_take: "int | None" = None
    ) -> np.ndarray:
        """Like :meth:`sample_ranked` but in raw CSR order (full sampler)."""
        return self._gather_cyclic(None, rows, count, max_take)

    def _gather_cyclic(
        self,
        perm: "np.ndarray | None",
        rows: np.ndarray,
        count: int,
        max_take: "int | None",
    ) -> np.ndarray:
        out, nz = self._pad_empty(rows, count)
        if nz.any():
            rs = rows[nz]
            take = self.degrees[rs]
            if max_take is not None:
                take = np.minimum(take, max_take)
            pos = np.arange(count, dtype=np.int64)[None, :] % take[:, None]
            flat = self.indptr[rs][:, None] + pos
            if perm is not None:
                flat = perm[flat]
            out[nz] = self.indices[flat]
        return out
