"""Per-operation samples and the metrics the benchmark reports from them."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from spans import clock, self_times

#: Tail percentiles considered, highest first.
TAIL_CANDIDATES = (99, 95, 90, 75, 50)
#: Samples a tail percentile must leave beyond it to be reported.
MIN_BEYOND = 10


def _loop_ms() -> float:
    """One timing of a fixed pure-Python loop, in milliseconds."""
    start = clock()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return (clock() - start) * 1e3


class Calibration:
    """A fixed piece of work timed next to a workload's operations.

    On a shared 2-core Intel Xeon virtual machine the CPU was measured to
    alternate between speeds about 1.5x apart for seconds at a time, and
    not every kind of work slows alike. So the work mixes the two kinds the
    program is made of, and every workload uses the same mix: its time is
    the geometric mean of

    * a pure-Python arithmetic loop (interpreter-bound work), and
    * row gathers and a 64x64 matmul over a 13 MB table (numpy-bound work),

    each the best of two timings on :data:`spans.clock`. ``speed()`` is
    ``REFERENCE_MS / ms()``: multiplying a time by it gives the time at the
    speed where the work takes its reference time.
    """

    #: About the typical timing on that virtual machine, so scaled times
    #: read close to wall times there.
    REFERENCE_MS = 1.4
    #: Least time between two measurements in a timed phase. Each one
    #: evicts some of the program's cached data, so the operation after it
    #: runs slower (1.5 ms inferences by about 13%); at this gap that is
    #: about 2% of the inferences, below their p95. A longer gap scales
    #: more operations by factors measured before the CPU changed speed.
    EVERY_S = 0.1

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.normal(size=(26_000, 64))
        self._weights = rng.normal(size=(64, 64))
        self._rows = rng.integers(26_000, size=2_000)

    def _rows_ms(self) -> float:
        start = clock()
        h = self._table[self._rows] @ self._weights
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        return (clock() - start) * 1e3

    def ms(self) -> float:
        loop = min(_loop_ms(), _loop_ms())
        rows = min(self._rows_ms(), self._rows_ms())
        return math.sqrt(loop * rows)

    def speed(self) -> float:
        return self.REFERENCE_MS / self.ms()


class Meter:
    """Samples of one phase, by operation kind.

    ``speeds`` are the speed factors measured during the phase, in time
    order (see :class:`workloads.Run`). Each operation is kept as its
    time (:data:`spans.clock`) and the index of the last measurement before it, and
    is reported scaled by :meth:`factor` of that index: seconds at
    reference speed.
    """

    def __init__(self) -> None:
        self.samples: "dict[str, list[tuple[float, int]]]" = defaultdict(list)
        self.items: "dict[str, int]" = defaultdict(int)
        self.speeds: "list[float]" = []
        self.attempted = 0
        self.failed = 0

    def add(self, kind: str, seconds: float, items: int = 0, failed: bool = False) -> None:
        self.samples[kind].append((seconds, len(self.speeds) - 1))
        self.attempted += 1
        if failed:
            self.failed += 1
        else:
            self.items[kind] += items

    def factor(self, index: int) -> float:
        """Speed factor of an operation between measurements ``index`` and
        ``index + 1``: their geometric mean, so an operation run just
        before the machine changed speed is scaled half-way."""
        if index < 0:
            return 1.0
        following = self.speeds[index + 1] if index + 1 < len(self.speeds) else self.speeds[index]
        return math.sqrt(self.speeds[index] * following)

    def scaled(self, kind: str) -> "list[float]":
        return [seconds * self.factor(index) for seconds, index in self.samples[kind]]


def tail_percentile(n: int, wanted: int) -> int:
    """The highest percentile up to ``wanted`` with ``MIN_BEYOND`` samples past it."""
    for p in TAIL_CANDIDATES:
        if p <= wanted and n * (100 - p) / 100 >= MIN_BEYOND:
            return p
    return 50


#: Most consecutive intervals a tail is taken over.
MAX_TAIL_WINDOWS = 8


def percentile_ms(seconds: "list[float]", p: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, p))


def tail_ms(seconds: "list[float]", p: int) -> "tuple[float, int]":
    """``(median over intervals of the interval's p-th percentile, intervals)``.

    The samples, in time order, are cut into as many consecutive intervals
    (at most ``MAX_TAIL_WINDOWS``) as leave ``MIN_BEYOND`` samples beyond
    the percentile in each. A burst of interference from outside the
    program lands in one or two intervals and does not move the median; a
    slow path the program takes throughout moves every interval.
    """
    n = len(seconds)
    k = max(1, min(MAX_TAIL_WINDOWS, int(n * (100 - p) / 100 // MIN_BEYOND)))
    parts = np.array_split(np.asarray(seconds), k)
    return float(np.median([percentile_ms(part, p) for part in parts])), k


class Spec(NamedTuple):
    """How one workload's samples map onto its named metrics."""

    op: str  # sample kind whose latency is reported
    op_name: str  # its name in the named lines: "step_ms" or "infer_ms"
    rate_name: str  # the throughput's name in the named lines
    rate_kinds: "tuple[str, ...]"  # kinds whose time and items make the throughput
    root_layer: "str | None" = None  # layer a root span's own self time is filed under
    #: Tail percentiles wanted in the named lines (see tail_percentile); the
    #: first is the JSON's ``latency_ms.tail``, the others are printed only.
    tails: "tuple[int, ...]" = (95,)


SPECS = {
    "sample-store": Spec(
        op="step", op_name="step_ms", rate_name="seeds_per_s", rate_kinds=("step",),
    ),
    "train-minibatch": Spec(
        op="step", op_name="step_ms", rate_name="edges_per_s", rate_kinds=("step",),
        root_layer="algorithms.fit",
    ),
    "serve-online": Spec(
        op="infer", op_name="infer_ms", rate_name="req_per_s",
        rate_kinds=("infer", "hit", "dropped", "update"), root_layer="serving",
        tails=(95, 99),
    ),
}


def end_to_end(spec: Spec, meter: Meter, setup_s: float, rss_mb: float):
    """``(json metrics, named lines)`` of one untraced phase.

    Both carry the same values. The JSON metrics use names every workload
    shares; the named lines use each workload's own names
    (``seeds_per_s``, ``step_ms.p95``, ...) and add the further tails of
    ``spec.tails``, ``update_ms.p50`` and ``failed_share``.
    """
    ops = meter.scaled(spec.op)
    if not ops:
        raise RuntimeError(f"no {spec.op} was timed")
    items = sum(meter.items[k] for k in spec.rate_kinds)
    rate = items / sum(sum(meter.scaled(k)) for k in spec.rate_kinds)
    p50 = percentile_ms(ops, 50)
    named = [
        ("setup_s", setup_s, "s", ""),
        (spec.rate_name, rate, "1/s", ""),
        (f"{spec.op_name}.p50", p50, "ms", f"n={len(ops)}"),
    ]
    tails = []
    for wanted in spec.tails:
        tail = tail_percentile(len(ops), wanted)
        p_tail, windows = tail_ms(ops, tail)
        tails.append(p_tail)
        named.append((f"{spec.op_name}.p{tail}", p_tail, "ms",
                      f"n={len(ops)}, median over {windows} interval{'s' * (windows > 1)}"))
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput": (rate, "1/s"),
        "latency_ms.p50": (p50, "ms"),
        "latency_ms.tail": (tails[0], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    updates = meter.scaled("update")
    if updates:
        named.append(("update_ms.p50", percentile_ms(updates, 50), "ms", f"n={len(updates)}"))
    named += [
        ("peak_rss_mb", rss_mb, "MB", ""),
        ("failed_share", meter.failed / max(1, meter.attempted), "ratio",
         f"{meter.failed}/{meter.attempted}"),
    ]
    return metrics, named


#: Per-layer metrics: name -> (unit, root kind, span name, field). Span
#: fields are summed over the phase and divided by the number of roots of
#: that kind; "op" means the workload's reported operation.
SPAN_METRICS = {
    "sampling.sample_children.self_ms": ("ms", "op", "sampling.sample_children", "self_ms"),
    "sampling.traverse.ms": ("ms", "op", "sampling.traverse", "ms"),
    "sampling.negative.ms": ("ms", "op", "sampling.negative", "ms"),
    "sampling.block.self_ms": ("ms", "op", "sampling.block", "self_ms"),
    "storage.neighbors_batch.self_ms": ("ms", "op", "storage.neighbors_batch", "self_ms"),
    "storage.attrs_batch.self_ms": ("ms", "op", "storage.attrs_batch", "self_ms"),
    "storage.apply_edge_events.self_ms": ("ms", "update", "storage.apply_edge_events", "self_ms"),
    "runtime.execute.self_ms": ("ms", "op", "runtime.execute", "self_ms"),
    "ops.aggregate.ms": ("ms", "op", "ops.aggregate", "ms"),
    "ops.combine.ms": ("ms", "op", "ops.combine", "ms"),
    "nn.loss.ms": ("ms", "op", "nn.loss", "ms"),
    "nn.backward.ms": ("ms", "op", "nn.backward", "ms"),
    "nn.optim.ms": ("ms", "op", "nn.optim", "ms"),
    "algorithms.fit.self_ms": ("ms", "op", "algorithms.fit", "self_ms"),
    "serving.self_ms": ("ms", "op", "serving", "self_ms"),
    "sampling.frontier_vertices": ("count", "op", "sampling.sample_children", "size"),
    "storage.scalar_reads": ("count", "op", "storage.neighbors", "calls"),
}

#: Exact per-operation counts taken over the prefix window, with units.
COUNT_METRICS = {
    "sampling.block_rows": "count",
    "storage.remote_rpc": "count",
    "storage.items_shipped": "count",
    "storage.modelled_ms": "ms",
    "storage.cache_hit_rate": "ratio",
    "storage.attr_cache_hit_rate": "ratio",
    "runtime.requests": "count",
    "runtime.retries": "count",
    "serving.embed_hit_rate": "ratio",
    "serving.virtual_p99_us.cached": "us",
    "serving.virtual_p99_us.fresh": "us",
}


def span_table(spans, spec: Spec, factor) -> "dict[str, dict[str, dict[str, float]]]":
    """Per root kind: the number of roots and, per span name, summed fields.

    A root's own self time is filed under ``spec.root_layer``. Total time
    (``ms``) counts only the outermost of nested same-name calls. Times are
    scaled by ``factor(root.calibration)`` (:meth:`Meter.factor` of the
    phase), like the end-to-end times.
    """
    selfs = self_times(spans)
    table: "dict[str, dict]" = {}
    for i, span in enumerate(spans):
        kind = spans[span.root].name
        ms = 1e3 * factor(spans[span.root].calibration)
        rows = table.setdefault(kind, {"roots": 0})
        if span.parent < 0:
            rows["roots"] += 1
            if spec.root_layer is None:
                continue
            name = spec.root_layer
        else:
            name = span.name
        row = rows.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "size": 0})
        row["self_ms"] += selfs[i] * ms
        row["calls"] += 1
        row["size"] += span.size
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            row["ms"] += (span.end - span.start) * ms
    return table


def per_layer(spec: Spec, spans, factor, counts: "dict[str, float]", overhead: float,
              update_p50_ms: float) -> "dict[str, tuple[float, str]]":
    """Every per-layer metric of one traced run (0 where a layer is not used)."""
    table = span_table(spans, spec, factor)
    out = {}
    for name, (unit, kind, span_name, field) in SPAN_METRICS.items():
        rows = table.get(spec.op if kind == "op" else kind, {})
        row = rows.get(span_name)
        out[name] = (row[field] / rows["roots"] if row else 0.0, unit)
    op_rows = table.get(spec.op, {})
    calls = sum(r["calls"] for n, r in op_rows.items() if n.startswith("storage."))
    out["storage.calls"] = (calls / op_rows["roots"] if op_rows else 0.0, "count")
    for name, unit in COUNT_METRICS.items():
        out[name] = (float(counts.get(name, 0.0)), unit)
    out["trace.overhead"] = (overhead, "ratio")
    out["update_ms.p50"] = (update_p50_ms, "ms")
    return out
