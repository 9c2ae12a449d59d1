"""Batched frontier-sampling kernels: CSR adjacency, grouped alias tables,
equivalence with the per-vertex oracles, determinism, and dynamic refresh."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import dynamic_taobao
from repro.errors import SamplingError
from repro.graph import Graph
from repro.sampling import (
    CsrAdjacency,
    FullNeighborSampler,
    GraphProvider,
    ImportanceNeighborSampler,
    SnapshotProvider,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.sampling.negative import DegreeBiasedNegativeSampler, UniformNegativeSampler
from repro.sampling.randomwalk import random_walks
from repro.utils.alias import AliasTable, GroupedAliasTable, build_alias_arrays
from repro.utils.rng import make_rng
from repro.utils.stats import (
    ZipfSampler,
    chi_square_gof,
    chi_square_homogeneity,
    zipf_probs,
)
from tests import oracles

P_FLOOR = 1e-4  # equivalence tests: H0 true, so p is uniform on [0, 1]


def _sampler(kind: str, graph: Graph):
    provider = GraphProvider(graph)
    if kind == "uniform":
        return UniformNeighborSampler(provider)
    if kind == "weighted":
        return WeightedNeighborSampler(provider)
    if kind == "topk":
        return TopKNeighborSampler(provider)
    if kind == "importance":
        return ImportanceNeighborSampler(provider, graph.out_degrees())
    return FullNeighborSampler(provider)


def _store(graph: Graph, n_workers: int = 2):
    from repro.runtime import RpcRuntime
    from repro.storage.cluster import make_store

    store = make_store(graph, n_workers, seed=0)
    store.attach_runtime(RpcRuntime(store))
    return store


ALL_KINDS = ["uniform", "weighted", "topk", "importance", "full"]


# --------------------------------------------------------------------- #
# CsrAdjacency
# --------------------------------------------------------------------- #
class TestCsrAdjacency:
    def test_from_graph_matches_adjacency(self, tiny_graph):
        csr = CsrAdjacency.from_graph(tiny_graph)
        assert csr.n_vertices == tiny_graph.n_vertices
        for v in range(tiny_graph.n_vertices):
            assert np.array_equal(csr.neighbors(v), tiny_graph.out_neighbors(v))
            assert np.array_equal(csr.weights_of(v), tiny_graph.out_weights(v))
        assert np.array_equal(csr.degrees, tiny_graph.out_degrees())
        assert csr.n_slots == int(tiny_graph.out_degrees().sum())

    def test_from_provider_scan_equals_from_graph(self, tiny_graph):
        # A store provider's adjacency for every vertex holds the graph's
        # rows, batched (one row per distinct vertex) or not (one per slot).
        from repro.sampling import StoreProvider

        a = CsrAdjacency.from_graph(tiny_graph)
        frontier = np.array([5, 0, 1, 2, 3, 4, 0], dtype=np.int64)
        for batched, n_rows in ((True, 6), (False, 7)):
            provider = StoreProvider(_store(tiny_graph), 0, batched=batched)
            b, rows = provider.adjacency(frontier)
            assert b.n_vertices == n_rows
            assert np.array_equal(b.ids[rows], frontier)
            for v, r in zip(frontier, rows):
                assert np.array_equal(b.neighbors(r), a.neighbors(v))
                assert np.all(b.weights_of(r) == 1.0)

    def test_row_ids_pad_empty_rows(self, rng):
        csr = CsrAdjacency.from_rows(
            [np.zeros(0, dtype=np.int64), np.array([3, 4])], ids=np.array([7, 9])
        )
        out = csr.sample_uniform(np.array([0, 1, 0]), 4, rng)
        assert np.all(out[0] == 7) and np.all(out[2] == 7)
        assert set(out[1].tolist()) <= {3, 4}

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(SamplingError):
            CsrAdjacency(np.array([1, 2]), np.array([0, 1]), np.ones(2))
        with pytest.raises(SamplingError):
            CsrAdjacency(np.array([0, 3]), np.array([0, 1]), np.ones(2))
        with pytest.raises(SamplingError):
            CsrAdjacency(np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))
        with pytest.raises(SamplingError):  # one id per row
            CsrAdjacency(np.array([0, 2]), np.array([0, 1]), np.ones(2), np.arange(2))

    def test_ranked_orders_by_weight_then_id(self, tiny_graph):
        csr = CsrAdjacency.from_graph(tiny_graph)
        perm = csr.ranked()
        # vertex 4 has neighbors 0 (w=6) and 5 (w=7) -> heaviest first is 5.
        start = csr.indptr[4]
        assert csr.indices[perm[start]] == 5
        assert csr.indices[perm[start + 1]] == 0

    def test_uniform_kernel_stays_in_neighbor_set(self, tiny_graph, rng):
        csr = CsrAdjacency.from_graph(tiny_graph)
        vs = np.array([0, 2, 4], dtype=np.int64)
        out = csr.sample_uniform(vs, 16, rng)
        for row, v in zip(out, vs):
            assert set(row) <= set(int(u) for u in tiny_graph.out_neighbors(v))

    def test_zero_degree_rows_self_pad(self, tiny_graph, rng):
        csr = CsrAdjacency.from_graph(tiny_graph)
        out = csr.sample_uniform(np.array([5]), 4, rng)  # 5 is a sink
        assert np.array_equal(out, np.full((1, 4), 5))


# --------------------------------------------------------------------- #
# Grouped alias tables
# --------------------------------------------------------------------- #
class TestGroupedAlias:
    def test_implied_probabilities_exact(self, small_powerlaw):
        csr = CsrAdjacency.from_graph(small_powerlaw)
        table = GroupedAliasTable(csr.weights, csr.indptr)
        implied = table.probabilities()
        for v in range(csr.n_vertices):
            w = csr.weights_of(v)
            if w.size == 0:
                continue
            got = implied[csr.indptr[v] : csr.indptr[v + 1]]
            assert np.allclose(got, w / w.sum(), atol=1e-12)

    def test_matches_per_list_alias_tables(self, rng):
        # Same distribution as independently built per-list AliasTables,
        # checked exactly (implied probs) and empirically (chi-square).
        weights = np.array([1.0, 3.0, 6.0, 2.0, 2.0, 5.0, 1.0])
        indptr = np.array([0, 3, 3, 7])
        grouped = GroupedAliasTable(weights, indptr)
        for g, (s, e) in enumerate(zip(indptr[:-1], indptr[1:])):
            if e == s:
                continue
            w = weights[s:e]
            single = AliasTable(w)
            sp, sa = single._prob, single._alias
            implied = sp.copy()
            np.add.at(implied, sa, 1.0 - sp)
            implied /= w.size
            got = grouped.probabilities()[s:e]
            assert np.allclose(got, implied, atol=1e-12)
            draws = grouped.draw_group(g, 4000, rng) - s
            counts = np.bincount(draws, minlength=w.size)
            _, p = chi_square_gof(counts, w / w.sum())
            assert p > P_FLOOR

    def test_update_group_redirects_mass(self, rng):
        weights = np.array([1.0, 1.0, 1.0, 1.0, 9.0])
        indptr = np.array([0, 2, 5])
        table = GroupedAliasTable(weights, indptr)
        table.update_group(1, np.array([0.0, 0.0, 1.0]))
        draws = table.draw_for_groups(np.array([1]), 500, rng)
        assert np.all(draws == 4)  # flat slot of the only surviving weight
        # group 0 untouched
        assert np.allclose(table.probabilities()[:2], 0.5)

    def test_empty_group_draw_rejected(self, rng):
        table = GroupedAliasTable(np.array([1.0, 2.0]), np.array([0, 2, 2]))
        with pytest.raises(SamplingError):
            table.draw_for_groups(np.array([1]), 3, rng)

    def test_build_rejects_all_zero_group(self):
        with pytest.raises(SamplingError):
            build_alias_arrays(np.array([0.0, 0.0]), np.array([0, 2]))

    def test_build_handles_empty_and_singleton_groups(self):
        prob, alias = build_alias_arrays(
            np.array([2.0, 1.0, 1.0]), np.array([0, 1, 1, 3])
        )
        assert prob[0] == 1.0 and alias[0] == 0
        assert np.allclose(prob[1:], 1.0)


# --------------------------------------------------------------------- #
# sample_children: public batched API
# --------------------------------------------------------------------- #
class TestSampleChildren:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shapes_and_membership(self, small_powerlaw, rng, kind):
        sampler = _sampler(kind, small_powerlaw)
        vs = np.array([0, 5, 17, 300], dtype=np.int64)
        children, pad = sampler.sample_children(vs, 7, rng)
        assert children.shape == pad.shape == (4, 7)
        for row, prow, v in zip(children, pad, vs):
            nbrs = set(int(u) for u in small_powerlaw.out_neighbors(v))
            allowed = nbrs | {int(v)} if not nbrs else nbrs | (
                {int(v)} if int(v) in nbrs else set()
            )
            if not nbrs:
                assert np.all(row == v) and np.all(prow)
            else:
                assert set(int(c) for c in row) <= allowed
            assert np.array_equal(prow, row == v)

    @pytest.mark.parametrize("kind", ["topk", "full"])
    def test_deterministic_kinds_match_reference_exactly(
        self, small_powerlaw, rng, kind
    ):
        vs = np.arange(small_powerlaw.n_vertices, dtype=np.int64)
        sampler = _sampler(kind, small_powerlaw)
        got, gp = sampler.sample_children(vs, 6, rng)
        want, wp = oracles.Reference(sampler).sample_children(vs, 6, rng)
        assert np.array_equal(got, want)
        assert np.array_equal(gp, wp)

    @pytest.mark.parametrize("kind", ["uniform", "weighted", "importance"])
    def test_stochastic_kinds_chi_square_equivalent(self, small_powerlaw, kind):
        degrees = small_powerlaw.out_degrees()
        parents = np.argsort(degrees)[-12:].astype(np.int64)
        counts = {}
        sampler = _sampler(kind, small_powerlaw)
        for seed, impl in ((1, sampler), (2, oracles.Reference(sampler))):
            rng = make_rng(seed)
            acc = np.zeros(
                (parents.size, small_powerlaw.n_vertices), dtype=np.int64
            )
            for _ in range(300):
                children, _ = impl.sample_children(parents, 8, rng)
                for i, kids in enumerate(children):
                    acc[i] += np.bincount(
                        kids, minlength=small_powerlaw.n_vertices
                    )
            counts[seed] = acc.ravel()
        _, p = chi_square_homogeneity(counts[1], counts[2])
        assert p > P_FLOOR, f"{kind} kernel diverges from the oracle (p={p:.2e})"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_seed_determinism(self, small_powerlaw, kind):
        vs = np.array([3, 14, 15, 92, 653], dtype=np.int64)
        a, _ = _sampler(kind, small_powerlaw).sample_children(vs, 9, make_rng(99))
        b, _ = _sampler(kind, small_powerlaw).sample_children(vs, 9, make_rng(99))
        assert np.array_equal(a, b)

    def test_multi_hop_sample_uses_batched_kernels(self, small_powerlaw):
        sampler = _sampler("uniform", small_powerlaw)
        out = sampler.sample(np.array([1, 2, 3]), [4, 2], make_rng(0))
        assert out.layers[1].size == 12 and out.layers[2].size == 24
        assert len(out.pad_masks) == 2

    def test_genuine_self_loop_marks_pad(self):
        # Vertex 0's only edge is a self-loop: every draw equals the parent
        # and is flagged by the pad mask (the documented contract).
        g = Graph(
            2,
            np.array([0, 1]),
            np.array([0, 0]),
            weights=np.array([1.0, 1.0]),
            directed=True,
        )
        sampler = UniformNeighborSampler(GraphProvider(g))
        children, pad = sampler.sample_children(
            np.array([0, 1]), 3, make_rng(0)
        )
        assert np.all(children[0] == 0) and np.all(pad[0])
        assert np.all(children[1] == 0) and not np.any(pad[1])

    def test_weight_update_moves_batched_distribution(self, tiny_graph):
        sampler = WeightedNeighborSampler(GraphProvider(tiny_graph))
        rng = make_rng(5)
        sampler.sample_children(np.array([0]), 4, rng)  # builds the table
        # Push vertex 0's mass almost entirely onto neighbor 2.
        sampler.backward(0, np.array([-40.0, 40.0]), lr=1.0)
        children, _ = sampler.sample_children(np.array([0]), 400, rng)
        assert np.mean(children == 2) > 0.97

    def test_weight_update_applies_to_store_adjacency(self, tiny_graph):
        from repro.sampling import StoreProvider

        sampler = WeightedNeighborSampler(StoreProvider(_store(tiny_graph), 1))
        rng = make_rng(5)
        frontier = np.array([4, 0, 0], dtype=np.int64)
        sampler.sample_children(frontier, 4, rng)
        # Each hop rebuilds the table over fresh store rows, overrides applied.
        sampler.backward(0, np.array([-5.0, 5.0]), lr=1.0)
        children, _ = sampler.sample_children(frontier, 400, rng)
        assert np.mean(children[1:] == 2) > 0.97
        assert 0.35 < np.mean(children[0] == 5) < 0.65  # untouched: uniform


# --------------------------------------------------------------------- #
# Dynamic-graph refresh
# --------------------------------------------------------------------- #
class TestDynamicRefresh:
    def test_advance_rebuilds_csr_and_stays_deterministic(self):
        dyn = dynamic_taobao(n_vertices=300, n_timestamps=3, seed=11)

        def run():
            provider = dyn.provider(0)
            sampler = UniformNeighborSampler(provider)
            seeds = np.arange(48, dtype=np.int64)
            before = sampler.sample(seeds, [6, 3], make_rng(3))
            provider.advance(2)
            after = sampler.sample(seeds, [6, 3], make_rng(3))
            return before, after

        (b1, a1), (b2, a2) = run(), run()
        for x, y in zip(b1.layers + a1.layers, b2.layers + a2.layers):
            assert np.array_equal(x, y)
        # And the refreshed draws respect the *new* snapshot's adjacency.
        g2 = dyn.snapshot(2)
        kids = a1.hop(1)
        for v, row in zip(np.arange(48), kids):
            nbrs = set(int(u) for u in g2.out_neighbors(int(v)))
            for c in row:
                assert int(c) in nbrs or int(c) == int(v)

    def test_refresh_csr_forces_rebuild(self, tiny_graph):
        provider = GraphProvider(tiny_graph)
        first, rows = provider.adjacency(np.array([4, 1]))
        assert np.array_equal(rows, [4, 1])  # global snapshot: row == vertex
        assert provider.adjacency(np.array([0]))[0] is first  # cached
        provider.version += 1
        assert provider.adjacency(np.array([0]))[0] is not first

    def test_alias_table_follows_snapshot(self):
        dyn = dynamic_taobao(n_vertices=200, n_timestamps=3, seed=1)
        provider = dyn.provider(0)
        sampler = WeightedNeighborSampler(provider)
        seeds = np.arange(32, dtype=np.int64)
        sampler.sample_children(seeds, 4, make_rng(0))
        table = sampler._table
        sampler.sample_children(seeds, 4, make_rng(0))
        assert sampler._table is table  # same snapshot: table reused
        provider.advance(2)
        kids, _ = sampler.sample_children(seeds, 4, make_rng(0))
        assert sampler._table is not table
        g2 = dyn.snapshot(2)
        for v, row in zip(seeds, kids):
            nbrs = set(g2.out_neighbors(int(v)).tolist()) or {int(v)}
            assert set(row.tolist()) <= nbrs


# --------------------------------------------------------------------- #
# Batched negatives and walks
# --------------------------------------------------------------------- #
class TestBatchedNegativesAndWalks:
    def test_strict_negatives_avoid_true_edges(self, small_powerlaw):
        anchors = np.argsort(small_powerlaw.out_degrees())[-8:].astype(np.int64)
        sampler = UniformNegativeSampler(small_powerlaw, strict=True)
        out = sampler.sample(anchors, 32, make_rng(2))
        for anchor, row in zip(anchors, out):
            forbidden = set(
                int(u) for u in small_powerlaw.out_neighbors(int(anchor))
            )
            forbidden.add(int(anchor))
            hits = sum(1 for c in row if int(c) in forbidden)
            # max_retries rounds make a surviving collision overwhelmingly
            # unlikely on a 1000-vertex pool.
            assert hits == 0

    def test_strict_backends_distributionally_equivalent(self, small_powerlaw):
        anchors = np.array([3, 14, 15], dtype=np.int64)
        counts = {}
        sampler = DegreeBiasedNegativeSampler(small_powerlaw, strict=True)
        draws = {
            4: sampler.sample,
            5: lambda a, k, r: oracles.strict_negatives(sampler, a, k, r),
        }
        for seed, draw in draws.items():
            acc = np.zeros(small_powerlaw.n_vertices, dtype=np.int64)
            rng = make_rng(seed)
            for _ in range(60):
                acc += np.bincount(
                    draw(anchors, 40, rng).ravel(),
                    minlength=small_powerlaw.n_vertices,
                )
            counts[seed] = acc
        _, p = chi_square_homogeneity(counts[4], counts[5])
        assert p > P_FLOOR

    def test_batched_walks_follow_edges_and_truncate(self, tiny_graph):
        walks = random_walks(tiny_graph, np.array([0, 1, 5]), 6, make_rng(1))
        assert len(walks) == 3
        assert walks[2].tolist() == [5]  # sink start: truncated immediately
        for walk in walks:
            for a, b in zip(walk[:-1], walk[1:]):
                assert int(b) in set(
                    int(u) for u in tiny_graph.out_neighbors(int(a))
                )

    def test_batched_walks_deterministic_and_weighted(self, tiny_graph):
        a = random_walks(tiny_graph, np.array([0, 1]), 8, make_rng(6))
        b = random_walks(tiny_graph, np.array([0, 1]), 8, make_rng(6))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        # Weighted first step from 0: neighbor 2 (w=2) vs 1 (w=1).
        firsts = [
            int(
                random_walks(
                    tiny_graph,
                    np.array([0]),
                    1,
                    make_rng(seed),
                    weighted=True,
                )[0][1]
            )
            for seed in range(300)
        ]
        frac2 = np.mean(np.asarray(firsts) == 2)
        assert 0.55 < frac2 < 0.8  # expected 2/3

    def test_walk_backends_step_distribution_match(self, small_powerlaw):
        start = int(np.argmax(small_powerlaw.out_degrees()))
        counts = {}
        for seed, walker in ((8, random_walks), (9, oracles.random_walks)):
            rng = make_rng(seed)
            acc = np.zeros(small_powerlaw.n_vertices, dtype=np.int64)
            for _ in range(800):
                walk = walker(small_powerlaw, np.array([start]), 1, rng)[0]
                if walk.size > 1:
                    acc[int(walk[1])] += 1
            counts[seed] = acc
        _, p = chi_square_homogeneity(counts[8], counts[9])
        assert p > P_FLOOR


# --------------------------------------------------------------------- #
# Providers and statistics helpers
# --------------------------------------------------------------------- #
class TestBackendSelection:
    def test_zipf_probs_normalized_and_monotone(self):
        probs = zipf_probs(50, exponent=1.2)
        assert probs.shape == (50,)
        assert np.isclose(probs.sum(), 1.0)
        assert np.all(np.diff(probs) < 0)  # strictly rank-decreasing
        # exponent 0 degenerates to uniform.
        assert np.allclose(zipf_probs(8, exponent=0.0), 1.0 / 8)

    def test_zipf_sampler_chi_square_matches_law(self):
        n = 40
        sampler = ZipfSampler(n, exponent=1.1)
        draws = sampler.sample(30_000, make_rng(13))
        counts = np.bincount(draws, minlength=n)
        _, p = chi_square_gof(counts, zipf_probs(n, exponent=1.1))
        assert p > P_FLOOR, f"Zipf draws diverge from the law (p={p:.2e})"

    def test_zipf_sampler_population_and_determinism(self):
        population = np.array([7, 99, 3, 42], dtype=np.int64)
        sampler = ZipfSampler(population, exponent=1.5)
        a = sampler.sample(64, make_rng(5))
        b = ZipfSampler(population, exponent=1.5).sample(64, make_rng(5))
        assert np.array_equal(a, b)
        assert set(a.tolist()) <= set(population.tolist())
        # Rank 1 (value 7) must dominate under a strong exponent.
        assert np.mean(a == 7) > np.mean(a == 42)

    def test_zipf_validation(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            zipf_probs(0)
        with pytest.raises(ReproError):
            zipf_probs(4, exponent=-0.5)
        with pytest.raises(ReproError):
            ZipfSampler(np.array([], dtype=np.int64))

    def test_snapshot_provider_exposes_versioned_csr(self):
        dyn = dynamic_taobao(n_vertices=200, n_timestamps=3, seed=1)
        provider = SnapshotProvider(dyn, 0)
        assert provider.version == 0
        first, _ = provider.adjacency(np.array([0]))
        provider.advance(1)
        assert provider.version == 1
        second, _ = provider.adjacency(np.array([0]))
        assert second is not first
        provider.advance(1)  # no-op
        assert provider.version == 1
        assert provider.adjacency(np.array([0]))[0] is second
