"""The three benchmark workloads, driven through the program's public API.

Every workload runs in one process with one caller in a closed loop. A run
has a fixed-length *prefix* (warm-up, and the window the count fingerprint
is taken over, so it is identical for one seed whatever the machine speed)
followed by one or two timed *phases*: one untraced phase, or, in a traced
run, an untraced half and a traced half.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np

from checks import (
    AdjacencyOracle,
    EdgeIndex,
    check_attr_rows,
    check_children,
    check_embeddings,
    check_rows_reflect,
)
from report import Calibration, Meter
from spans import Patches, SpanRecorder, clock, trace_entry_points
from repro.algorithms.framework import GNNFramework
from repro.errors import ReproError
from repro.graph.dynamic import EdgeEvent
from repro.runtime import FaultPlan, RpcRuntime
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    SamplingPipeline,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
)
from repro.serving import ClosedLoopWorkload, ServingConfig, ServingEngine, build_slo_report
from repro.serving.requests import (
    CLASS_CACHED,
    CLASS_FRESH,
    OUTCOME_DEADLINE,
    OUTCOME_SHED,
    OUTCOMES,
)
from repro.storage import ImportanceCachePolicy
from repro.storage.cluster import make_store
from repro.utils.rng import make_rng
from repro.utils.stats import ZipfSampler

N_WORKERS = 4
DROP_RATE = 0.02
HOP_NUMS = [10, 5]
NEG_NUM = 5


class ProbeDone(Exception):
    """Raised when the first operation of a set-up probe has finished."""


class Phase:
    """One timed stretch of a run; traced phases record spans."""

    def __init__(self, seconds: float, traced: bool) -> None:
        self.seconds = seconds
        self.traced = traced
        self.deadline = 0.0
        self.meter = Meter()
        self.spans: "list | None" = None


class Run:
    """The operation timeline of one run: prefix, then phases, then done.

    Workloads bracket every operation with :meth:`start_op` /
    :meth:`end_op` and call :meth:`more` between operations.

    In a timed phase, :meth:`start_op` also measures the machine's speed
    with ``calibration`` once ``Calibration.EVERY_S`` has passed since the
    last measurement, and once more as the phase ends; every operation is
    recorded with the index of the last measurement before it (see
    :class:`report.Calibration` and :meth:`report.Meter.factor`).
    """

    def __init__(
        self,
        prefix_ops: int,
        phases: "list[Phase]",
        calibration: "Calibration | None" = None,
        probe: bool = False,
    ) -> None:
        self.prefix_ops = prefix_ops
        self.calibration = calibration
        self.phases = phases
        self.probe = probe
        self.ops = 0
        self.index = -1
        self.fingerprint: "dict | None" = None
        self._t0 = 0.0
        self._speed_at = float("-inf")
        self._recorder: "SpanRecorder | None" = None
        self._patches: "Patches | None" = None

    @property
    def phase(self) -> "Phase | None":
        return self.phases[self.index] if 0 <= self.index < len(self.phases) else None

    def start_op(self) -> None:
        phase = self.phase
        if phase is not None and time.perf_counter() - self._speed_at >= Calibration.EVERY_S:
            phase.meter.speeds.append(self.calibration.speed())
            self._speed_at = time.perf_counter()
        if self._recorder is not None:
            self._recorder.open_root()
        self._t0 = clock()

    def end_op(self, kind: str, items: int = 0, failed: bool = False) -> float:
        seconds = clock() - self._t0
        phase = self.phase
        if self._recorder is not None:
            self._recorder.close_root(kind, len(phase.meter.speeds) - 1)
        self.ops += 1
        if self.probe:
            raise ProbeDone
        if phase is not None:
            phase.meter.add(kind, seconds, items, failed)
        return seconds

    def more(self, fingerprint, force: bool = False) -> bool:
        """Advance prefix -> phases -> done between operations.

        ``fingerprint()`` is called once, when the prefix is complete.
        ``force`` ends the current phase regardless of its deadline (for
        workloads whose phases are a fixed amount of work).
        """
        if self.index < 0:
            if self.ops < self.prefix_ops:
                return True
            self.fingerprint = fingerprint()
            self._enter(0)
            return True
        if self.phase is None:
            return False
        if not force and time.perf_counter() < self.phase.deadline:
            return True
        self._leave()
        if self.index + 1 < len(self.phases):
            self._enter(self.index + 1)
            return True
        self.index = len(self.phases)
        return False

    def _enter(self, index: int) -> None:
        self.index = index
        phase = self.phases[index]
        if phase.traced:
            self._recorder = SpanRecorder()
            self._patches = Patches()
            trace_entry_points(self._patches, self._recorder)
        phase.deadline = time.perf_counter() + phase.seconds
        self._speed_at = float("-inf")

    def _leave(self) -> None:
        # Brackets the phase's last operations (see report.Meter.factor).
        self.phase.meter.speeds.append(self.calibration.speed())
        if self._recorder is not None:
            self._patches.restore()
            self.phase.spans = self._recorder.spans
            self._recorder = self._patches = None

    def close(self) -> None:
        """Put back any patched entry points (after an error mid-phase)."""
        if self._patches is not None:
            self._patches.restore()


def _ledger_snapshot(store) -> Counter:
    counts = Counter(store.ledger.counts)
    metrics = store.runtime.metrics
    counts["rpc.requests"] = metrics.counter("rpc.requests").value
    counts["rpc.retries"] = metrics.counter("rpc.retries").value
    counts["neighbor_cache.hits"] = sum(s.neighbor_cache.hits for s in store.servers)
    counts["neighbor_cache.misses"] = sum(s.neighbor_cache.misses for s in store.servers)
    return counts


def _store_counts(counts: Counter, store, per: int) -> "dict[str, float]":
    """Per-operation store and runtime counts of one prefix window."""
    attr_reads = counts["attr_cache_hit"] + counts["attr_decode"]
    nbr_reads = counts["neighbor_cache.hits"] + counts["neighbor_cache.misses"]
    return {
        "storage.remote_rpc": counts["remote_rpc"] / per,
        "storage.items_shipped": counts["item_shipped"] / per,
        "storage.modelled_ms": sum(
            store.ledger.costs.get(ev, 0.0) * n for ev, n in counts.items()
        ) / 1e3 / per,
        "runtime.requests": counts["rpc.requests"] / per,
        "runtime.retries": counts["rpc.retries"] / per,
        "storage.cache_hit_rate": counts["neighbor_cache.hits"] / nbr_reads if nbr_reads else 0.0,
        "storage.attr_cache_hit_rate": counts["attr_cache_hit"] / attr_reads if attr_reads else 0.0,
    }


def _fingerprint_counts(counts: Counter) -> "dict[str, int]":
    return {k: int(v) for k, v in sorted(counts.items()) if v}


def build_store(graph, seed: int):
    """The store every store-backed workload reads: 4 workers, 10% importance
    cache, attribute rows on their owning servers, 2% seeded RPC drops."""
    store = make_store(
        graph,
        N_WORKERS,
        cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.1,
        seed=seed,
    )
    for server in store.servers:
        for v in server.owned.tolist():
            server.ingest_vertex_attr(v, graph.vertex_features[v])
    store.attach_runtime(RpcRuntime(store, faults=FaultPlan(drop_rate=DROP_RATE, seed=seed)))
    return store


class SampleStore:
    """The trainer's input step over the distributed store."""

    name = "sample-store"
    batch_size = 256
    prefix_ops = 20

    def __init__(self, graph, seed: int) -> None:
        self.graph = graph
        self.store = build_store(graph, seed)
        self.pipeline = SamplingPipeline(
            traverse=VertexTraverseSampler(graph, vertex_type="user"),
            neighborhood=UniformNeighborSampler(StoreProvider(self.store, from_part=0)),
            negative=DegreeBiasedNegativeSampler(graph),
            hop_nums=HOP_NUMS,
            neg_num=NEG_NUM,
        )
        self.rng = make_rng(seed)
        self.problems: "list[str]" = []
        self._index: "EdgeIndex | None" = None

    def measure(self, run: Run) -> None:
        while run.more(self.fingerprint):
            self.step(run)

    def step(self, run: Run) -> None:
        run.start_op()
        try:
            batch = self.pipeline.sample(self.batch_size, self.rng)
            ids = np.unique(np.concatenate(batch.context.layers + [batch.negatives.reshape(-1)]))
            rows = self.store.get_attrs_batch(ids, from_part=0)
        except ReproError:
            run.end_op("step", failed=True)
            return
        run.end_op("step", items=self.batch_size)
        self.check(batch, ids, rows)

    def check(self, batch, ids, rows) -> None:
        if self._index is None:
            src, dst, _ = self.graph.edge_array()
            self._index = EdgeIndex(src, dst, self.graph.n_vertices)
        ctx = batch.context
        for k, fanout in enumerate(ctx.hop_nums):
            self.problems += check_children(
                self._index,
                ctx.layers[k],
                ctx.layers[k + 1].reshape(-1, fanout),
                ctx.pad_masks[k].reshape(-1, fanout),
            )
        if batch.negatives.shape != (self.batch_size, NEG_NUM):
            self.problems.append(f"negatives have shape {batch.negatives.shape}")
        self.problems += check_attr_rows(ids, rows, self.graph.vertex_features)

    def fingerprint(self) -> dict:
        counts = _ledger_snapshot(self.store)
        self.counts = _store_counts(counts, self.store, self.prefix_ops)
        return {"steps": self.prefix_ops, "ledger": _fingerprint_counts(counts)}


class _FitClock:
    """Passed to the fit loop as ``timeseries=``: ``poll()`` ends one step."""

    def __init__(self, run: Run, batch_size: int) -> None:
        self.run = run
        self.batch_size = batch_size
        self.first = True
        self.steps: "list[float]" = []

    def poll(self) -> None:
        # The first interval of a fit also holds the fit's own preamble.
        kind = "fit-start" if self.first else "step"
        seconds = self.run.end_op(kind, items=self.batch_size)
        if not self.first:
            self.steps.append(seconds)
        self.first = False
        self.run.start_op()


class TrainMinibatch:
    """Minibatch GraphSAGE-style training on k-hop blocks, in memory."""

    name = "train-minibatch"
    dim = 64
    batch_size = 512
    steps_per_epoch = 40
    prefix_ops = steps_per_epoch
    #: Step samples a timed fit yields at least (its first step is not
    #: one), so the reported tail is always p95 with 10 samples beyond it.
    min_steps = 200

    def __init__(self, graph, seed: int) -> None:
        self.graph = graph
        self.seed = seed
        self.problems: "list[str]" = []

    def fit(self, run: Run, epochs: int) -> _FitClock:
        timer = _FitClock(run, self.batch_size)
        model = GNNFramework(
            dim=self.dim,
            kmax=2,
            fanout=8,
            aggregator="mean",
            combiner="concat",
            epochs=epochs,
            batch_size=self.batch_size,
            neg_num=NEG_NUM,
            max_steps_per_epoch=self.steps_per_epoch,
            seed=self.seed,
            timeseries=timer,
            minibatch_blocks=True,
        )
        run.start_op()
        model.fit(self.graph)
        run.end_op("fit-end")
        self.model = model
        self.problems += check_embeddings(
            model.embeddings(), self.graph.n_vertices, self.dim, model.loss_history
        )
        return timer

    def measure(self, run: Run) -> None:
        warm = self.fit(run, epochs=1)
        epoch_s = float(np.median(warm.steps)) * self.steps_per_epoch
        min_epochs = math.ceil((self.min_steps + 1) / self.steps_per_epoch)
        while run.more(self.fingerprint, force=True):
            self.fit(run, epochs=max(min_epochs, round(run.phase.seconds / epoch_s)))

    def fingerprint(self) -> dict:
        stats = dict(self.model.block_stats)
        self.counts = {"sampling.block_rows": stats["total_rows"] / stats["steps"]}
        return {"blocks": stats}


class _Traffic:
    """Wraps the closed-loop load: times each request by its ``on_done``
    callback and applies a write batch after every tenth completion."""

    def __init__(self, owner: "ServeOnline", run: Run, inner: ClosedLoopWorkload) -> None:
        self.owner = owner
        self.run = run
        self.inner = inner
        self.done = 0
        self.stopping = False
        self.outstanding: "set[int]" = set()

    def _issue(self, requests):
        self.outstanding.update(r.req_id for r in requests)
        self.run.start_op()
        return requests

    def initial_arrivals(self):
        return self._issue(self.inner.initial_arrivals())

    def on_done(self, record):
        if record.outcome in (OUTCOME_SHED, OUTCOME_DEADLINE):
            kind = "dropped"
        else:
            kind = "hit" if record.cache_hit else "infer"
        self.run.end_op(kind, items=1, failed=kind == "dropped")
        self.outstanding.discard(record.req_id)
        self.done += 1
        if self.done % 10 == 0:
            self.owner.update(self.run)
        if self.stopping or not self.run.more(self.owner.fingerprint):
            self.stopping = True
            return self._issue([])
        return self._issue(self.inner.on_done(record))


class ServeOnline:
    """Online serving with Zipf users and interleaved edge writes."""

    name = "serve-online"
    prefix_ops = 1000
    events_per_update = 8
    #: Virtual-clock deadline of both request classes. The benchmark times
    #: the serving path, not its SLO policy: with the default deadlines
    #: (2 ms cached, 30 ms fresh) a request can expire in the queue behind
    #: a fresh inference slowed by RPC retries and be dropped unserved, a
    #: few in every 250,000. Waiting 1 s behind at most 7 other requests
    #: would take dozens of dropped RPCs in a row.
    deadline_us = 1e6

    def __init__(self, graph, seed: int) -> None:
        self.graph = graph
        self.seed = seed
        self.store = build_store(graph, seed)
        self.engine = ServingEngine(
            self.store, config=ServingConfig(embed_cache_capacity=512), seed=seed
        )
        self.users = graph.vertices_of_type("user")
        self.items = graph.vertices_of_type("item")
        self.writers = ZipfSampler(self.users, exponent=1.1)
        self.write_rng = make_rng(seed + 1)
        self.oracle = AdjacencyOracle(graph)
        self.problems: "list[str]" = []
        self.updates = 0
        self.writes_ok = True
        # Ledger, RPC and neighbour-cache counts of the benchmark's own
        # check reads, kept out of the program's per-inference counts.
        self.check_reads = Counter()

    def measure(self, run: Run) -> None:
        workload = ClosedLoopWorkload(
            self.users,
            n_clients=8,
            requests_per_client=10**9,
            fresh_fraction=0.3,
            deadlines_us={CLASS_CACHED: self.deadline_us, CLASS_FRESH: self.deadline_us},
            zipf_exponent=1.1,
            seed=self.seed,
        )
        traffic = _Traffic(self, run, workload)
        self.engine.run(traffic)
        run.end_op("idle")
        if traffic.outstanding:
            self.problems.append(f"{len(traffic.outstanding)} requests never finished")
        bad = {r.outcome for r in self.engine.records} - set(OUTCOMES)
        if bad:
            self.problems.append(f"requests ended with unknown outcomes {sorted(bad)}")

    def _events(self) -> "list[EdgeEvent]":
        events = []
        for j, src in enumerate(self.writers.sample(self.events_per_update, self.write_rng).tolist()):
            row = self.oracle.row(src)
            if j % 2 and row:
                kind, dst = "remove", row[int(self.write_rng.integers(len(row)))]
            else:
                kind, dst = "add", int(self.items[self.write_rng.integers(self.items.size)])
            self.oracle.apply(src, dst, kind)
            events.append(EdgeEvent(timestamp=self.updates, src=src, dst=dst, kind=kind))
        return events

    def update(self, run: Run) -> None:
        events = self._events()
        self.updates += 1
        run.start_op()
        try:
            self.store.apply_edge_events(events)
        except ReproError:
            run.end_op("update", failed=True)
            self.writes_ok = False
            return
        run.end_op("update")
        if self.writes_ok:
            self.check_writes(sorted({ev.src for ev in events}))

    def check_writes(self, sources: "list[int]") -> None:
        before = _ledger_snapshot(self.store)
        for issuer in range(self.store.n_workers):
            rows = self.store.get_neighbors_batch(sources, from_part=issuer)
            self.problems += check_rows_reflect(self.oracle, rows, sources, issuer)
        self.check_reads += _ledger_snapshot(self.store) - before

    def fingerprint(self) -> dict:
        records = self.engine.records
        counts = _ledger_snapshot(self.store) - self.check_reads
        inferences = sum(1 for r in records if not r.cache_hit and r.outcome not in (OUTCOME_SHED, OUTCOME_DEADLINE))
        cached = [r for r in records if r.cls == CLASS_CACHED]
        slo = build_slo_report(records)
        p99 = {cls: slo.class_report(cls).p99_us for cls in (CLASS_CACHED, CLASS_FRESH)}
        self.counts = _store_counts(counts, self.store, max(1, inferences))
        self.counts["serving.embed_hit_rate"] = sum(r.cache_hit for r in cached) / max(1, len(cached))
        for cls, value in p99.items():
            self.counts[f"serving.virtual_p99_us.{cls}"] = value
        return {
            "requests": len(records),
            "updates": self.updates,
            "ledger": _fingerprint_counts(counts),
            "outcomes": dict(sorted(Counter(r.outcome for r in records).items())),
            "embed_cache_hits": sum(r.cache_hit for r in records),
            "virtual_p99_us": p99,
        }


WORKLOADS = {w.name: w for w in (SampleStore, TrainMinibatch, ServeOnline)}
