"""Tests of the benchmark's helpers: span self time, percentile selection,
entry-point patching and the output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest

from checks import (
    AdjacencyOracle,
    EdgeIndex,
    check_attr_rows,
    check_children,
    check_embeddings,
    check_rows_reflect,
)
from report import Meter, Spec, span_table, tail_ms, tail_percentile
from spans import Patches, Span, SpanRecorder, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, parent=-1, root=0),
        Span("a", 1.0, 4.0, parent=0, root=0),
        Span("b", 3.0, 6.0, parent=0, root=0),  # overlaps a: union is [1, 6]
        Span("c", 2.0, 3.0, parent=1, root=0),
        Span("d", 9.0, 12.0, parent=0, root=0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_span_table_counts_outermost_time_root_self_time_and_scales():
    spans = [
        Span("step", 0.0, 0.010, parent=-1, root=0),
        Span("x", 0.001, 0.005, parent=0, root=0),
        Span("x", 0.002, 0.003, parent=1, root=0),  # nested same-name call
        Span("idle", 0.020, 0.030, parent=-1, root=3, calibration=1),
        Span("x", 0.021, 0.022, parent=3, root=3),
    ]
    spec = Spec(op="step", op_name="step_ms", rate_name="r", rate_kinds=("step",),
                root_layer="bench")
    table = span_table(spans, spec, [1.0, 2.0].__getitem__)
    assert table["step"]["roots"] == 1
    assert table["step"]["x"]["ms"] == pytest.approx(4.0)
    assert table["step"]["x"]["self_ms"] == pytest.approx(4.0)
    assert table["step"]["x"]["calls"] == 2
    assert table["step"]["bench"]["self_ms"] == pytest.approx(6.0)
    assert table["idle"]["x"]["calls"] == 1
    assert table["idle"]["x"]["ms"] == pytest.approx(2.0)  # scaled by its root's speed


def test_meter_scales_each_operation_by_the_measurements_around_it():
    meter = Meter()
    meter.speeds.append(1.0)
    meter.add("step", 0.010, items=4)
    meter.speeds.append(4.0)
    meter.add("step", 0.010, items=4)
    meter.add("step", 0.010, failed=True)
    assert meter.scaled("step") == pytest.approx([0.020, 0.040, 0.040])
    assert (meter.attempted, meter.failed, meter.items["step"]) == (3, 1, 8)


@pytest.mark.parametrize(
    "n, wanted, expected",
    [(1000, 99, 99), (999, 99, 95), (200, 95, 95), (199, 95, 90), (100, 95, 90),
     (99, 95, 75), (40, 95, 75), (19, 99, 50), (5000, 95, 95)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, wanted, expected):
    assert tail_percentile(n, wanted) == expected


def test_tail_ignores_a_burst_in_one_interval_but_not_a_steady_slow_path():
    fast = [0.001] * 8000
    burst = fast[:100] + [0.010] * 200 + fast[300:]
    assert np.percentile(burst, 99) == 0.010
    assert tail_ms(burst, 99) == (pytest.approx(1.0), 8)
    steady = [0.010 if i % 50 == 0 else 0.001 for i in range(8000)]  # 2% slow
    assert tail_ms(steady, 99) == (pytest.approx(10.0), 8)
    assert tail_ms(fast[:500], 99)[1] == 1


class _Base:
    def inherited(self):
        return "base"


class _Child(_Base):
    def own(self):
        return "own"


def test_recorder_nests_calls_only_inside_a_root_and_patches_restore():
    recorder = SpanRecorder()
    patches = Patches()
    patches.replace(_Child, "own", lambda fn: recorder.wrap("own", fn))
    patches.replace(_Child, "inherited", lambda fn: recorder.wrap("inherited", fn))
    obj = _Child()
    assert obj.own() == "own"  # no root open: nothing recorded
    assert recorder.spans == []
    recorder.open_root()
    obj.inherited()
    recorder.close_root("step")
    assert [(s.name, s.parent, s.root) for s in recorder.spans] == [
        ("step", -1, 0), ("inherited", 0, 0)
    ]
    patches.restore()
    assert "inherited" not in vars(_Child)
    assert vars(_Child)["own"].__name__ == "own"
    assert not hasattr(vars(_Child)["own"], "__wrapped__")


def _index():
    # 0 -> 1, 0 -> 2, 1 -> 2; vertex 2 has no out-edges.
    return EdgeIndex(np.array([0, 0, 1]), np.array([1, 2, 2]), 3)


def test_check_children_accepts_neighbours_and_pads_of_sinks():
    parents = np.array([0, 1, 2])
    children = np.array([[1, 2], [2, 2], [2, 2]])
    assert check_children(_index(), parents, children, children == parents[:, None]) == []


def test_check_children_flags_non_neighbours_bad_pads_and_masks():
    parents = np.array([0, 1])
    children = np.array([[1, 1], [0, 1]])  # 1 -> 0 is no edge; 1 padding 1 has an edge
    problems = check_children(_index(), parents, children, children == parents[:, None])
    assert len(problems) == 1 and "2 sampled children" in problems[0]
    mask = np.zeros((2, 2), bool)
    problems = check_children(_index(), parents, np.array([[1, 2], [2, 2]]), mask | True)
    assert any("pad mask" in p for p in problems)


def test_check_attr_rows():
    feats = np.arange(12, dtype=np.float32).reshape(4, 3)
    ids = np.array([1, 3])
    assert check_attr_rows(ids, {1: feats[1], 3: feats[3]}, feats) == []
    assert check_attr_rows(ids, {1: feats[1]}, feats)
    assert check_attr_rows(ids, {1: feats[1], 3: feats[2]}, feats)


def test_check_embeddings():
    emb = np.eye(4)[:, :2] + 0.0
    emb[2:] = [0.6, 0.8]
    assert check_embeddings(emb, 4, 2, [1.0, 0.5]) == []
    assert check_embeddings(emb * 2, 4, 2, [1.0])
    assert check_embeddings(emb, 4, 3, [1.0])
    assert check_embeddings(emb, 4, 2, [float("nan")])
    assert check_embeddings(emb, 4, 2, [])


class _Graph:
    def out_neighbors(self, v):
        return np.array({0: [1, 2, 1], 1: []}[v], dtype=np.int64)


def test_oracle_mirrors_store_writes_and_reflection_check():
    oracle = AdjacencyOracle(_Graph())
    oracle.apply(0, 1, "remove")  # drops the first 1 only
    oracle.apply(0, 5, "add")
    oracle.apply(1, 3, "remove")  # nothing to remove
    assert oracle.row(0) == [2, 1, 5] and oracle.row(1) == []
    good = {0: np.array([2, 1, 5]), 1: np.array([], dtype=np.int64)}
    assert check_rows_reflect(oracle, good, [0, 1], issuer=2) == []
    stale = {0: np.array([1, 2, 1]), 1: np.array([], dtype=np.int64)}
    problems = check_rows_reflect(oracle, stale, [0, 1], issuer=2)
    assert len(problems) == 1 and "issuer 2" in problems[0]
    assert check_rows_reflect(oracle, {0: good[0]}, [0, 1], issuer=0)
