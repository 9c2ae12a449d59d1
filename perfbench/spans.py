"""Timed spans recorded around calls into the program's public entry points.

The traced run patches each entry point listed in :data:`ENTRY_POINTS` at
class or module level and restores it afterwards; the program itself is not
modified. A span is recorded only while a root span (one benchmark step,
request or update batch) is open, so work the benchmark does between
operations — its output checks — never lands in the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import time

#: The clock operations, spans and the speed calibration are timed with:
#: the process's CPU time. The benchmark runs one thread that neither
#: sleeps nor waits on I/O while an operation is timed, so this is its wall
#: time minus the time the virtual machine's CPU was given to other guests
#: (``steal`` in ``/proc/stat``), which arrives in bursts that no
#: calibration can follow.
clock = time.process_time


class Span:
    """One timed call: ``parent`` and ``root`` are span indices (-1 = none).

    ``size`` is a work count taken from the call's arguments; a root span's
    ``calibration`` is the index of the speed measurement taken before its
    operation (see :meth:`report.Meter.factor`).
    """

    __slots__ = ("name", "start", "end", "parent", "root", "size", "calibration")
    FIELDS = __slots__

    def __init__(self, name, start, end=None, parent=-1, root=-1, size=0, calibration=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.root = root
        self.size = size
        self.calibration = calibration

    def as_list(self) -> list:
        return [getattr(self, field) for field in self.FIELDS]


class SpanRecorder:
    """Keeps spans in memory; a call nests under the innermost open span."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._stack: "list[int]" = []

    def open_root(self) -> None:
        """Start a root span; its name is given when it closes."""
        if self._stack:
            raise RuntimeError("a root span is already open")
        self.spans.append(Span("", clock(), root=len(self.spans)))
        self._stack.append(len(self.spans) - 1)

    def close_root(self, name: str, calibration: int = 0) -> None:
        """End the open root span and name it after the operation it timed."""
        i = self._stack.pop()
        if self._stack:
            raise RuntimeError("closing a root span with children still open")
        span = self.spans[i]
        span.end = clock()
        span.name = name
        span.calibration = calibration

    def wrap(self, name: str, fn, size_of=None):
        """``fn`` recording a span named ``name`` whenever a root is open."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(
                name,
                clock(),
                parent=parent,
                root=recorder.spans[parent].root,
                size=size_of(args) if size_of is not None else 0,
            )
            recorder.spans.append(span)
            stack.append(len(recorder.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return traced


def self_times(spans: "list[Span]") -> "list[float]":
    """Each span's duration minus the part of its interval its children cover."""
    children: "dict[int, list[int]]" = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        pieces = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _frontier_size(args) -> int:
    return len(args[1])


def _aggregators_and_combiners():
    from repro.ops.base import Aggregator, Combiner

    out = []
    for base, name in ((Aggregator, "ops.aggregate"), (Combiner, "ops.combine")):
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "forward" in vars(cls):
                out.append((name, cls, "forward", None))
    return out


#: (span name, "module:Class" or "module", attribute, size extractor).
ENTRY_POINTS = [
    ("storage.neighbors_batch", "repro.storage.cluster:DistributedGraphStore", "get_neighbors_batch", None),
    ("storage.attrs_batch", "repro.storage.cluster:DistributedGraphStore", "get_attrs_batch", None),
    ("storage.neighbors", "repro.storage.cluster:DistributedGraphStore", "neighbors", None),
    ("storage.apply_edge_events", "repro.storage.cluster:DistributedGraphStore", "apply_edge_events", None),
    ("runtime.execute", "repro.runtime.rpc:RpcRuntime", "execute", None),
    ("sampling.sample_children", "repro.sampling.neighborhood:UniformNeighborSampler", "sample_children", _frontier_size),
    ("sampling.neighborhood", "repro.sampling.neighborhood:UniformNeighborSampler", "sample", None),
    ("sampling.traverse", "repro.sampling.traverse:VertexTraverseSampler", "sample", None),
    ("sampling.traverse", "repro.sampling.traverse:EdgeTraverseSampler", "sample", None),
    ("sampling.negative", "repro.sampling.negative:DegreeBiasedNegativeSampler", "sample", None),
    ("sampling.block", "repro.algorithms.framework", "build_block", None),
    ("nn.loss", "repro.algorithms.framework", "skipgram_negative_loss", None),
    ("nn.backward", "repro.nn.tensor:Tensor", "backward", None),
    ("nn.optim", "repro.nn.optim:Adam", "step", None),
]

#: Entry point a ``--inject LAYER:MS`` delay is added to, per layer.
INJECT_POINTS = {
    "storage": ("repro.storage.cluster:DistributedGraphStore", "get_neighbors_batch"),
    "nn": ("repro.nn.tensor:Tensor", "backward"),
}


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Patches:
    """Replaces attributes of classes or modules and puts the originals back."""

    def __init__(self) -> None:
        self._undo: "list[tuple[object, str, object, bool]]" = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        own = attr in vars(owner)
        saved = vars(owner)[attr] if own else None
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, saved, own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, saved, own = self._undo.pop()
            if own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)


def trace_entry_points(patches: Patches, recorder: SpanRecorder) -> None:
    """Wrap every entry point so its calls record spans into ``recorder``."""
    points = [(n, _resolve(t), a, s) for n, t, a, s in ENTRY_POINTS]
    for name, owner, attr, size_of in points + _aggregators_and_combiners():
        patches.replace(
            owner, attr, lambda fn, name=name, size_of=size_of: recorder.wrap(name, fn, size_of)
        )


def inject_delay(patches: Patches, layer: str, delay_s: float) -> None:
    """Spin for a fixed ``delay_s`` of CPU time before every call of
    ``layer``'s entry point."""
    target, attr = INJECT_POINTS[layer]

    def make(fn):
        @functools.wraps(fn)
        def delayed(*args, **kwargs):
            end = clock() + delay_s
            while clock() < end:
                pass
            return fn(*args, **kwargs)

        return delayed

    patches.replace(_resolve(target), attr, make)
