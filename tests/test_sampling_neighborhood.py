"""NEIGHBORHOOD samplers: alignment, padding, weighting, dynamic updates."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import (
    FullNeighborSampler,
    GraphProvider,
    ImportanceNeighborSampler,
    StoreProvider,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.utils.rng import make_rng


def test_layer_shapes(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0, 1, 4]), [3, 2], rng)
    assert [l.size for l in out.layers] == [3, 9, 18]
    assert out.batch_size == 3
    assert out.n_hops == 2
    assert out.hop(1).shape == (3, 3)
    assert out.hop(2).shape == (9, 2)


def test_samples_are_neighbors(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0]), [5], rng)
    assert set(out.layers[1].tolist()) <= set(tiny_graph.out_neighbors(0).tolist())


def test_isolated_vertex_pads_self(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([5]), [4], rng)  # 5 has no out-edges
    assert set(out.layers[1].tolist()) == {5}
    assert out.pad_masks[0].all()


def test_pad_mask_false_for_real_neighbors(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0]), [4], rng)
    assert not out.pad_masks[0].any()


def test_all_vertices_collects_unique(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0, 0]), [2], rng)
    vs = out.all_vertices()
    assert np.unique(vs).size == vs.size


def test_hop_bounds(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0]), [2], rng)
    with pytest.raises(SamplingError):
        out.hop(2)


def test_empty_batch_rejected(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    with pytest.raises(SamplingError):
        sampler.sample(np.array([], dtype=np.int64), [2], rng)
    with pytest.raises(SamplingError):
        sampler.sample(np.array([0]), [], rng)
    with pytest.raises(SamplingError):
        sampler.sample(np.array([0]), [0], rng)


def test_weighted_respects_weights(tiny_graph):
    # Vertex 0: neighbors 1 (w=1), 2 (w=2).
    sampler = WeightedNeighborSampler(GraphProvider(tiny_graph))
    rng = make_rng(0)
    out = sampler.sample(np.array([0] * 3000), [1], rng)
    frac2 = np.mean(out.layers[1] == 2)
    assert abs(frac2 - 2.0 / 3.0) < 0.03


def test_dynamic_weight_update_shifts_distribution(tiny_graph):
    sampler = WeightedNeighborSampler(GraphProvider(tiny_graph))
    rng = make_rng(1)
    # Push all weight toward neighbor index 0 (vertex 1).
    sampler.backward(0, np.array([50.0, -50.0]), lr=0.1)
    out = sampler.sample(np.array([0] * 500), [1], rng)
    assert np.mean(out.layers[1] == 1) > 0.95


def test_dynamic_update_shape_checked(tiny_graph):
    sampler = WeightedNeighborSampler(GraphProvider(tiny_graph))
    with pytest.raises(SamplingError):
        sampler.backward(0, np.array([1.0, 2.0, 3.0]))


def test_topk_deterministic(tiny_graph, rng):
    sampler = TopKNeighborSampler(GraphProvider(tiny_graph))
    # Vertex 0: weights 1->1, 2->2; top-1 must be vertex 2.
    out = sampler.sample(np.array([0]), [1], rng)
    assert out.layers[1].tolist() == [2]


def test_topk_cycles_when_fanout_exceeds_degree(tiny_graph, rng):
    sampler = TopKNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([1]), [3], rng)  # degree 1
    assert out.layers[1].tolist() == [2, 2, 2]


def test_importance_sampler_prefers_high_degree(small_powerlaw):
    provider = GraphProvider(small_powerlaw)
    degrees = small_powerlaw.out_degrees()
    sampler = ImportanceNeighborSampler(provider, degrees, beta=1.0)
    rng = make_rng(2)
    hub_parent = int(np.argmax(degrees))
    probs = sampler.inclusion_probability(hub_parent)
    nbrs = provider.neighbors(hub_parent)
    # Probability must be degree-ranked.
    order = np.argsort(degrees[nbrs])
    assert probs[order[-1]] >= probs[order[0]]
    np.testing.assert_allclose(probs.sum(), 1.0)


def test_full_sampler_covers_neighbors(tiny_graph, rng):
    sampler = FullNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0]), [2], rng)
    assert set(out.layers[1].tolist()) == {1, 2}


def test_full_sampler_max_fanout_validation(tiny_graph):
    with pytest.raises(SamplingError):
        FullNeighborSampler(GraphProvider(tiny_graph), max_fanout=0)


def test_store_provider_accounts(small_powerlaw):
    from repro.storage.cluster import make_store
    from repro.storage.costmodel import EV_LOCAL_READ, EV_REMOTE_RPC

    store = make_store(small_powerlaw, 4, seed=0)
    provider = StoreProvider(store, from_part=0)
    sampler = UniformNeighborSampler(provider)
    rng = make_rng(3)
    sampler.sample(np.arange(50), [3], rng)
    total = store.ledger.count(EV_LOCAL_READ) + store.ledger.count(EV_REMOTE_RPC)
    assert total > 0
    assert provider.n_vertices == small_powerlaw.n_vertices


def _store_with_runtime(graph):
    from repro.runtime import RpcRuntime
    from repro.storage.cluster import make_store

    store = make_store(graph, 4, seed=0)
    store.attach_runtime(RpcRuntime(store))
    return store


def test_store_sampler_sees_removed_edges(small_powerlaw, rng):
    # Regression: a store-backed sampler once drew from a whole-graph
    # snapshot taken at its first draw, so it kept drawing edges the store
    # had since removed.
    from repro.graph.dynamic import EdgeEvent

    store = _store_with_runtime(small_powerlaw)
    sampler = UniformNeighborSampler(StoreProvider(store, from_part=0))
    v = int(np.argmax(small_powerlaw.out_degrees()))
    before = sampler.sample(np.array([v, v]), [4], rng)
    assert not np.any(before.pad_masks[0])
    store.apply_edge_events(
        [EdgeEvent(0, v, int(u), "remove") for u in small_powerlaw.out_neighbors(v)]
    )
    assert store.neighbors(v, from_part=0).size == 0
    children, pad = sampler.sample_children(np.array([v, v]), 4, rng)
    assert np.all(children == v) and np.all(pad)


def test_store_provider_neighbors_sees_added_edge(small_powerlaw, rng):
    # Regression: after a hop, StoreProvider.neighbors served the hop's
    # buffered row, so a later edge addition was invisible to it.
    from repro.graph.dynamic import EdgeEvent

    store = _store_with_runtime(small_powerlaw)
    provider = StoreProvider(store, from_part=0)
    v = int(np.argmax(small_powerlaw.out_degrees()))
    UniformNeighborSampler(provider).sample(np.array([v]), [3], rng)
    new = next(
        u for u in range(small_powerlaw.n_vertices)
        if u != v and u not in set(small_powerlaw.out_neighbors(v).tolist())
    )
    store.apply_edge_events([EdgeEvent(0, v, new, "add")])
    assert new in provider.neighbors(v).tolist()
    assert new in store.neighbors(v, from_part=0).tolist()


def test_store_provider_weights_uniform(small_powerlaw):
    from repro.storage.cluster import make_store

    store = make_store(small_powerlaw, 2, seed=0)
    provider = StoreProvider(store, from_part=0)
    v = int(np.argmax(small_powerlaw.out_degrees()))
    w = provider.weights(v)
    assert np.all(w == 1.0)
