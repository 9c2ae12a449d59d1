"""Vectorized frontier-sampling kernels vs the per-vertex reference oracles.

Four claims about the sampling kernels, measured on the canonical 2-hop
workload (taobao-small-sim at scale 0.3, fan-outs 10x5, 64-seed batches):

* **Batched expansion wins.** Every neighborhood sampler
  (uniform/weighted/topk/importance/full) runs the same multi-hop
  expansion on its CSR kernels and through the per-vertex oracle of
  ``tests/oracles.py``; min-of-repeats wall-clock throughput is reported per
  sampler. The acceptance bar is >= 3x on the uniform sampler (the hot path
  of the GraphSAGE workload).
* **Determinism survives.** Same seed, same batched output — including
  straight after a dynamic-graph CSR refresh (``SnapshotProvider.advance``
  bumps the provider version and the provider rebuilds its snapshot).
* **Kernels and oracles agree.** Draw frequencies of the stochastic
  samplers are chi-square tested batched-vs-reference over the heaviest
  frontier vertices; the deterministic samplers (topk/full) must match
  exactly.
* **Grouped alias construction is exact.** The vectorized grouped Vose
  build must imply per-slot draw probabilities equal to the normalized
  weights (the distribution per-list ``AliasTable``s sample), and its
  one-shot construction is timed against building per-list tables in a
  Python loop.

Run from the repository root with the root on the import path (the oracles
live in ``tests/``)::

    PYTHONPATH=src:benchmarks:. python benchmarks/bench_sampling_kernels.py [--smoke] [--json]
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import ExperimentReport
from repro.data import dynamic_taobao, make_dataset
from repro.sampling import (
    FullNeighborSampler,
    GraphProvider,
    ImportanceNeighborSampler,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.utils.alias import AliasTable, GroupedAliasTable
from repro.utils.rng import make_rng
from repro.utils.stats import chi_square_homogeneity
from tests.oracles import Reference

from _common import emit, parse_bench_args

HOP_NUMS = [10, 5]
BATCH_SIZE = 64
SEED = 7
STEPS = 24
SMOKE_STEPS = 6
MIN_UNIFORM_SPEEDUP = 3.0
#: Equivalence p-value floor: kernel and oracle draw the same distribution, so
#: under H0 p is uniform — 1e-4 gives a 0.01% false-alarm rate per sampler.
MIN_P_VALUE = 1e-4

_GRAPH = make_dataset("taobao-small-sim", scale=0.3, seed=0)


def _samplers(impl: str) -> "dict[str, object]":
    """Fresh samplers; ``impl="reference"`` wraps each in its oracle."""
    provider = GraphProvider(_GRAPH)
    degrees = _GRAPH.out_degrees()
    samplers = {
        "uniform": UniformNeighborSampler(provider),
        "weighted": WeightedNeighborSampler(provider),
        "topk": TopKNeighborSampler(provider),
        "importance": ImportanceNeighborSampler(provider, degrees),
        "full": FullNeighborSampler(provider),
    }
    if impl == "reference":
        return {name: Reference(s) for name, s in samplers.items()}
    return samplers


def _batches(steps: int) -> "list[np.ndarray]":
    rng = make_rng(SEED)
    return [
        rng.integers(0, _GRAPH.n_vertices, size=BATCH_SIZE).astype(np.int64)
        for _ in range(steps)
    ]


def _time_expansion(sampler, batches: "list[np.ndarray]", repeats: int) -> float:
    """Min wall-clock seconds for one full pass of 2-hop expansions."""
    sampler.sample(batches[0], HOP_NUMS, make_rng(SEED))  # warm-up: CSR + tables
    best = float("inf")
    for _ in range(repeats):
        rng = make_rng(SEED)
        t0 = time.perf_counter()
        for batch in batches:
            sampler.sample(batch, HOP_NUMS, rng)
        best = min(best, time.perf_counter() - t0)
    return best


def _context_rows(steps: int) -> int:
    """Context rows one pass produces (identical across samplers)."""
    per_batch = BATCH_SIZE * (1 + HOP_NUMS[0] + HOP_NUMS[0] * HOP_NUMS[1])
    return steps * per_batch


def _determinism(sampler_factory) -> "tuple[bool, bool]":
    """(same-seed determinism, determinism after a dynamic CSR refresh)."""
    batch = _batches(1)[0]
    a = sampler_factory().sample(batch, HOP_NUMS, make_rng(SEED))
    b = sampler_factory().sample(batch, HOP_NUMS, make_rng(SEED))
    static_ok = all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    dyn = dynamic_taobao(n_vertices=400, n_timestamps=3, seed=SEED)

    def expand_after_refresh():
        provider = dyn.provider(0)
        sampler = UniformNeighborSampler(provider)
        seeds = np.arange(0, 64, dtype=np.int64)
        sampler.sample(seeds, HOP_NUMS, make_rng(SEED))  # builds the t=0 CSR
        provider.advance(1)  # version bump -> snapshot rebuild on next draw
        return sampler.sample(seeds, HOP_NUMS, make_rng(SEED))

    r1, r2 = expand_after_refresh(), expand_after_refresh()
    refresh_ok = all(np.array_equal(x, y) for x, y in zip(r1.layers, r2.layers))
    return static_ok, refresh_ok


def _equivalence_pvalue(name: str, draws: int) -> float:
    """Chi-square p: batched vs reference child frequencies, heavy vertices."""
    degrees = _GRAPH.out_degrees()
    parents = np.argsort(degrees)[-16:].astype(np.int64)
    counts = {}
    for offset, impl in enumerate(("batched", "reference")):
        sampler = _samplers(impl)[name]
        # Distinct seeds: the two must agree as *distributions*, not
        # because they happen to consume the same RNG stream.
        rng = make_rng(SEED + 1 + offset)
        acc = np.zeros((parents.size, _GRAPH.n_vertices), dtype=np.int64)
        for _ in range(draws):
            children, _ = sampler.sample_children(parents, HOP_NUMS[0], rng)
            for row, kids in enumerate(children):
                acc[row] += np.bincount(kids, minlength=_GRAPH.n_vertices)
        counts[impl] = acc.ravel()
    _, p = chi_square_homogeneity(counts["batched"], counts["reference"])
    return float(p)


def _deterministic_match(name: str) -> bool:
    """topk/full: batched output must equal the reference bit-for-bit."""
    batch = _batches(1)[0]
    rng = make_rng(SEED)
    a = _samplers("batched")[name].sample(batch, HOP_NUMS, rng)
    b = _samplers("reference")[name].sample(batch, HOP_NUMS, rng)
    return all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers)) and all(
        np.array_equal(x, y) for x, y in zip(a.pad_masks, b.pad_masks)
    )


def _alias_exactness_and_build(repeats: int) -> "tuple[float, float, float]":
    """(max |implied - normalized weights|, per-list build s, grouped build s)."""
    from repro.sampling import CsrAdjacency

    csr = CsrAdjacency.from_graph(_GRAPH)
    grouped = GroupedAliasTable(csr.weights, csr.indptr)
    implied = grouped.probabilities()
    expected = np.zeros_like(implied)
    for v in range(csr.n_vertices):
        w = csr.weights_of(v)
        if w.size:
            expected[csr.indptr[v] : csr.indptr[v + 1]] = w / w.sum()
    max_diff = float(np.max(np.abs(implied - expected))) if implied.size else 0.0

    nonzero = [v for v in range(csr.n_vertices) if csr.degrees[v] > 0]
    best_ref = best_grp = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for v in nonzero:
            AliasTable(csr.weights_of(v))
        best_ref = min(best_ref, time.perf_counter() - t0)
        t0 = time.perf_counter()
        GroupedAliasTable(csr.weights, csr.indptr)
        best_grp = min(best_grp, time.perf_counter() - t0)
    return max_diff, best_ref, best_grp


def _run(smoke: bool = False) -> ExperimentReport:
    steps = SMOKE_STEPS if smoke else STEPS
    repeats = 2 if smoke else 5
    draws = 60 if smoke else 400
    report = ExperimentReport(
        "sampling_kernels",
        "Batched CSR sampling kernels vs per-vertex reference oracles "
        f"({steps} batches of {BATCH_SIZE} seeds, fan-outs {HOP_NUMS}, "
        f"{_GRAPH.n_vertices} vertices)",
    )

    batches = _batches(steps)
    rows = _context_rows(steps)
    speedups: "dict[str, float]" = {}
    for name, sampler in _samplers("reference").items():
        ref_s = _time_expansion(sampler, batches, repeats)
        bat_s = _time_expansion(_samplers("batched")[name], batches, repeats)
        speedups[name] = ref_s / bat_s if bat_s else 1.0
        report.add(
            f"2-hop expansion: {name}",
            {
                "reference_ms": round(ref_s * 1e3, 2),
                "batched_ms": round(bat_s * 1e3, 2),
                "batched_krows_per_s": round(rows / bat_s / 1e3, 1),
                "speedup": round(speedups[name], 2),
            },
        )

    static_ok, refresh_ok = _determinism(
        lambda: _samplers("batched")["uniform"]
    )
    report.add(
        "same-seed determinism (batched)",
        {"identical": static_ok, "after_dynamic_refresh": refresh_ok},
    )

    pvalues = {
        name: _equivalence_pvalue(name, draws)
        for name in ("uniform", "weighted", "importance")
    }
    exact = {
        name: _deterministic_match(name) for name in ("topk", "full")
    }
    report.add(
        "kernel vs oracle equivalence",
        {
            **{f"chisq_p_{k}": round(v, 4) for k, v in pvalues.items()},
            "topk_exact": exact["topk"],
            "full_exact": exact["full"],
        },
    )

    max_diff, ref_build_s, grp_build_s = _alias_exactness_and_build(repeats)
    report.add(
        "grouped alias construction",
        {
            "max_prob_error": f"{max_diff:.2e}",
            "per_list_build_ms": round(ref_build_s * 1e3, 2),
            "grouped_build_ms": round(grp_build_s * 1e3, 2),
            "build_speedup": round(ref_build_s / max(grp_build_s, 1e-12), 2),
        },
    )

    report.note(
        "expansion timings are wall-clock min-of-repeats over identical "
        "same-seed batch sequences; equivalence rows compare child draw "
        "frequencies on the 16 heaviest vertices"
    )
    report.meta = {
        "speedups": speedups,
        "uniform_speedup": speedups["uniform"],
        "deterministic": static_ok,
        "refresh_deterministic": refresh_ok,
        "pvalues": pvalues,
        "topk_exact": exact["topk"],
        "full_exact": exact["full"],
        "alias_max_prob_error": max_diff,
        "smoke": smoke,
    }
    return report


def _assert_acceptance(report: ExperimentReport) -> None:
    meta = report.meta
    assert meta["uniform_speedup"] >= MIN_UNIFORM_SPEEDUP, (
        f"uniform 2-hop expansion speedup {meta['uniform_speedup']:.2f}x "
        f"under the {MIN_UNIFORM_SPEEDUP}x bar"
    )
    assert meta["deterministic"], "batched kernels are not same-seed deterministic"
    assert meta["refresh_deterministic"], (
        "batched kernels lost determinism after a dynamic CSR refresh"
    )
    for name, p in meta["pvalues"].items():
        assert p >= MIN_P_VALUE, f"{name} oracle equivalence rejected (p={p:.2e})"
    assert meta["topk_exact"] and meta["full_exact"], (
        "deterministic samplers diverged from their oracles"
    )
    assert meta["alias_max_prob_error"] < 1e-9, (
        "grouped alias probabilities drifted from the normalized weights"
    )


def test_sampling_kernels() -> None:
    report = _run(smoke=False)
    emit(report)
    _assert_acceptance(report)


def main(argv: "list[str] | None" = None) -> None:
    args = parse_bench_args(__doc__.splitlines()[0], argv)
    report = _run(smoke=args.smoke)
    emit(report, print_json=args.json)
    if not args.smoke:
        _assert_acceptance(report)


if __name__ == "__main__":
    main()
