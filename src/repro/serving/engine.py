"""The serving front end: one engine turning queries into answers on time.

:class:`ServingEngine` is the request-serving loop the reproduction was
missing — the piece that turns the stored graph, the sampling kernels and
the RPC runtime into *measured end-to-end latency*. It is an event-driven
simulation on the runtime's :class:`~repro.runtime.rpc.VirtualClock`:

* **cached reads** resolve against a bounded per-user embedding LRU — a
  few microseconds when the user is hot, an escalation to the fresh path
  when not (which then refills the cache, so Zipf-skewed traffic converges
  to a high hit rate);
* **fresh inference** samples the user's k-hop neighborhood through the
  :class:`~repro.storage.cluster.DistributedGraphStore` — one batched
  frontier read per hop, deduplicated RPCs, importance-cache hits, failover;
  everything the read path learned in PRs 1–5 now shows up as serving
  latency — and aggregates base vectors bottom-up (mean + combine +
  normalize, the Algorithm-1 forward shape) into a fresh embedding;
* **admission control** (:mod:`repro.serving.admission`) bounds each
  request class's queue, sheds on overflow and drops expired requests at
  dequeue instead of serving useless answers.

Time accounting per served request: RPC wire time lands on the clock while
the store executes (retry waits included); non-RPC read costs (local reads,
cache hits, shipping) are taken from the cost-ledger delta; compute is
modelled as ``context rows x compute_us_per_row`` — the same constant the
prefetch-overlap bench calibrated against a profiled GNN fit. Every service
draws from one seeded RNG in event order, so a run's **request trace**
(the returned :class:`~repro.serving.requests.ServeRecord` list) is
bit-identical across same-seed runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServingError
from repro.obs.timeseries import NULL_TIMESERIES
from repro.obs.workload import NULL_RECORDER
from repro.runtime.rpc import RpcRuntime
from repro.sampling.base import StoreProvider
from repro.sampling.neighborhood import UniformNeighborSampler
from repro.serving.admission import AdmissionController
from repro.serving.requests import (
    CLASS_CACHED,
    CLASS_FRESH,
    OUTCOME_DEADLINE,
    OUTCOME_LATE,
    OUTCOME_OK,
    OUTCOME_SHED,
    ServeRecord,
    ServeRequest,
)
from repro.utils.lru import LRUCache
from repro.utils.rng import make_rng


@dataclass
class ServingConfig:
    """Knobs of the serving engine (defaults sized to the cost model)."""

    #: Fan-outs of the fresh-inference neighborhood expansion.
    hop_nums: "list[int]" = field(default_factory=lambda: [10, 5])
    #: Cost of answering a cached read from the embedding table.
    cached_lookup_us: float = 5.0
    #: Modelled forward-aggregation cost per sampled context row.
    compute_us_per_row: float = 0.18
    #: Per-class admission queue bounds (cheap tier deep, expensive shallow).
    queue_capacities: "dict[str, int]" = field(
        default_factory=lambda: {CLASS_CACHED: 64, CLASS_FRESH: 16}
    )
    #: Per-user embedding cache entries (0 disables the cached tier: every
    #: cached-class read escalates to a recompute — the cacheless baseline).
    embed_cache_capacity: int = 512
    #: Width of the base/serving embedding vectors.
    embed_dim: int = 16
    #: Whether a recompute installs its result for later cached reads.
    fresh_fills_cache: bool = True

    def __post_init__(self) -> None:
        if not self.hop_nums or any(h < 1 for h in self.hop_nums):
            raise ServingError(f"hop_nums must be positive, got {self.hop_nums}")
        if self.cached_lookup_us < 0 or self.compute_us_per_row < 0:
            raise ServingError("service costs must be >= 0")
        if self.embed_cache_capacity < 0:
            raise ServingError(
                f"cache capacity must be >= 0, got {self.embed_cache_capacity}"
            )


class ServingEngine:
    """Single-station serving loop over a distributed graph store.

    The engine shares the store's attached :class:`RpcRuntime` (creating a
    fault-free one when absent) so serving, sampling and RPC all advance
    one virtual clock and feed one metrics registry. ``base_vectors``
    supplies the per-vertex embeddings the fresh path aggregates — pass a
    trained model's table, or let the engine derive a seeded stand-in.
    """

    def __init__(
        self,
        store: "object",
        config: "ServingConfig | None" = None,
        base_vectors: "np.ndarray | None" = None,
        tracer: "object | None" = None,
        recorder: "object" = NULL_RECORDER,
        timeseries: "object" = NULL_TIMESERIES,
        placement: "object | None" = None,
        seed: int = 0,
    ) -> None:
        self.store = store
        self.config = config or ServingConfig()
        if store.runtime is None:
            store.attach_runtime(RpcRuntime(store))
        self.runtime: RpcRuntime = store.runtime
        self.clock = self.runtime.clock
        self.metrics = self.runtime.metrics
        self.tracer = tracer
        #: Workload-introspection hooks (repro.obs): the recorder sees one
        #: record_request per finished request, the sampler is polled per
        #: request. Null objects by default.
        self.recorder = recorder
        self.timeseries = timeseries
        #: Optional :class:`~repro.storage.placement.PlacementController`
        #: polled once per finished request — adaptation runs between
        #: services, never inside one, so per-request latency stays a pure
        #: read measurement while promotions/migrations still track the
        #: serving traffic on the same clock.
        self.placement = placement
        self.seed = seed
        self._rng = make_rng(seed)
        n = store.graph.n_vertices
        if base_vectors is None:
            raw = self._rng.normal(size=(n, self.config.embed_dim))
            base_vectors = raw / (
                np.linalg.norm(raw, axis=1, keepdims=True) + 1e-12
            )
        base_vectors = np.asarray(base_vectors, dtype=np.float64)
        if base_vectors.shape[0] != n:
            raise ServingError(
                f"base_vectors rows ({base_vectors.shape[0]}) != graph "
                f"vertices ({n})"
            )
        self.base_vectors = base_vectors
        self.sampler = UniformNeighborSampler(
            StoreProvider(store, from_part=0)
        )
        self.embed_cache = LRUCache(self.config.embed_cache_capacity)
        self.admission = AdmissionController(
            self.config.queue_capacities, metrics=self.metrics
        )
        self.records: "list[ServeRecord]" = []

    # ------------------------------------------------------------------ #
    # Fresh inference: sample through the store, aggregate bottom-up
    # ------------------------------------------------------------------ #
    def _aggregate(self, context) -> np.ndarray:
        """Fold a k-hop context into one embedding (mean + combine + L2).

        The minibatch shape of the Algorithm-1 forward: deepest hop first,
        each level's children are mean-pooled per parent, combined with the
        parent's own base vector and re-normalized.
        """
        base = self.base_vectors
        layers = context.layers
        d = base.shape[1]
        vecs = base[layers[-1]]
        for k in range(context.n_hops, 0, -1):
            fanout = context.hop_nums[k - 1]
            parents = layers[k - 1]
            pooled = vecs.reshape(parents.size, fanout, d).mean(axis=1)
            combined = 0.5 * base[parents] + 0.5 * pooled
            norms = np.linalg.norm(combined, axis=1, keepdims=True) + 1e-12
            vecs = combined / norms
        return vecs[0]

    def _recompute(self, user: int) -> "tuple[np.ndarray, float]":
        """Run fresh inference for ``user``; returns ``(vector, cost_us)``.

        RPC time lands on the clock during the store reads; the remaining
        modelled read cost (ledger delta minus what the clock already
        absorbed) plus the per-row compute model is returned for the
        caller to advance.
        """
        ledger_before = self.store.ledger.modelled_micros()
        clock_before = self.clock.now_us
        context = self.sampler.sample(
            np.asarray([user], dtype=np.int64), self.config.hop_nums, self._rng
        )
        rpc_us = self.clock.now_us - clock_before
        ledger_us = self.store.ledger.modelled_micros() - ledger_before
        rows = int(sum(layer.size for layer in context.layers))
        local_us = max(0.0, ledger_us - rpc_us)
        vector = self._aggregate(context)
        return vector, local_us + rows * self.config.compute_us_per_row

    def _serve(self, req: ServeRequest, start_us: float) -> "tuple[float, bool]":
        """Serve ``req`` starting at ``start_us``; returns ``(end, hit)``."""
        self.clock.advance_to(start_us)
        cache_hit = False
        if req.cls == CLASS_CACHED and self.config.embed_cache_capacity > 0:
            if self.embed_cache.get(req.user) is not None:
                cache_hit = True
                self.metrics.counter("serving.embed_cache_hits").inc()
                self.clock.advance(self.config.cached_lookup_us)
            else:
                self.metrics.counter("serving.embed_cache_misses").inc()
        if not cache_hit:
            vector, cost_us = self._recompute(req.user)
            self.clock.advance(cost_us)
            if self.config.fresh_fills_cache and self.config.embed_cache_capacity:
                self.embed_cache.put(req.user, vector)
        return self.clock.now_us, cache_hit

    # ------------------------------------------------------------------ #
    # The event loop
    # ------------------------------------------------------------------ #
    def _record(
        self,
        req: ServeRequest,
        outcome: str,
        end_us: float,
        queue_us: float,
        service_us: float,
        cache_hit: bool = False,
    ) -> ServeRecord:
        rec = ServeRecord(
            req_id=req.req_id,
            user=req.user,
            cls=req.cls,
            outcome=outcome,
            arrival_us=req.arrival_us,
            end_us=end_us,
            queue_us=queue_us,
            service_us=service_us,
            cache_hit=cache_hit,
        )
        self.records.append(rec)
        self.metrics.counter(
            "serving.requests", labels={"class": req.cls}
        ).inc()
        if outcome in (OUTCOME_OK, OUTCOME_LATE):
            self.metrics.counter(
                "serving.completed", labels={"class": req.cls}
            ).inc()
            self.metrics.histogram(
                "serving.latency_us", labels={"class": req.cls}
            ).observe(rec.latency_us)
            self.metrics.histogram(
                "serving.queue_us", labels={"class": req.cls}
            ).observe(queue_us)
        if self.tracer is not None:
            self.tracer.record_span(
                "serve.request",
                req.arrival_us,
                end_us,
                user=req.user,
                request_class=req.cls,
                outcome=outcome,
                cache_hit=cache_hit,
            )
        if self.recorder.enabled:
            self.recorder.record_request(req.user, req.cls, outcome, cache_hit)
        self.timeseries.poll()
        if self.placement is not None:
            self.placement.poll()
        return rec

    def run(self, workload) -> "list[ServeRecord]":
        """Drive ``workload`` to exhaustion; returns the request trace.

        ``workload`` provides ``initial_arrivals()`` and ``on_done(record)``
        (see :mod:`repro.serving.loadgen`). Arrivals and the single service
        station are merged into one deterministic event order: the server
        takes the queued request with the earliest arrival whenever it
        would start no later than the next arrival; otherwise the next
        arrival is admitted (or shed). Closed-loop workloads feed new
        arrivals back through ``on_done`` — pushed times never precede the
        completion that caused them, so heap order is safe.
        """
        heap: "list[tuple[float, int, ServeRequest]]" = []
        seq = 0

        def push(reqs: "list[ServeRequest]") -> None:
            nonlocal seq
            for r in reqs:
                heapq.heappush(heap, (r.arrival_us, seq, r))
                seq += 1

        push(workload.initial_arrivals())
        out_start = len(self.records)
        server_free_us = self.clock.now_us

        def finish(rec: ServeRecord) -> None:
            push(workload.on_done(rec))

        while heap or self.admission.depth:
            next_arrival_us = heap[0][0] if heap else float("inf")
            head = self.admission.next_request()
            if head is not None and (
                max(server_free_us, head.arrival_us) <= next_arrival_us
            ):
                self.admission.take(head)
                start_us = max(server_free_us, head.arrival_us)
                if start_us >= head.deadline_us:
                    # Expired in the queue: drop without serving.
                    self.admission.expire(head)
                    finish(
                        self._record(
                            head,
                            OUTCOME_DEADLINE,
                            end_us=start_us,
                            queue_us=start_us - head.arrival_us,
                            service_us=0.0,
                        )
                    )
                    continue
                end_us, cache_hit = self._serve(head, start_us)
                server_free_us = end_us
                outcome = (
                    OUTCOME_OK if end_us <= head.deadline_us else OUTCOME_LATE
                )
                finish(
                    self._record(
                        head,
                        outcome,
                        end_us=end_us,
                        queue_us=start_us - head.arrival_us,
                        service_us=end_us - start_us,
                        cache_hit=cache_hit,
                    )
                )
                continue
            _, _, req = heapq.heappop(heap)
            if not self.admission.offer(req):
                finish(
                    self._record(
                        req,
                        OUTCOME_SHED,
                        end_us=req.arrival_us,
                        queue_us=0.0,
                        service_us=0.0,
                    )
                )
        return self.records[out_start:]
