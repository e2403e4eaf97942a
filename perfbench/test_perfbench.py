"""Tests for the benchmark's own code: seeded inputs, band selection, span maths."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from inkgraph import graphs, synth  # noqa: E402


def _pool(seed):
    return synth.generate_synthetic(seed, 600, workloads.POOL_MAX_SYMBOLS)


def test_schedule_is_reproducible_and_stratified():
    pool = _pool(3)
    a = workloads.build_schedule(pool, 3)
    assert a == workloads.build_schedule(_pool(3), 3)
    assert a != workloads.build_schedule(_pool(4), 4)
    names = [name for name, _, _ in workloads.BANDS]
    assert [band for _, band in a] == names * workloads.CYCLE_ROUNDS
    for k, band in a:
        assert workloads.band_of(len(pool[k][0].strokes)) == band
    # one cycle reaches below the first and above the third quartile of each band
    for name, _, _ in workloads.BANDS:
        members = sorted(len(e.strokes) for e, _ in pool
                         if workloads.band_of(len(e.strokes)) == name)
        strokes = [len(pool[k][0].strokes) for k, b in a if b == name]
        assert min(strokes) <= members[len(members) // 4]
        assert max(strokes) >= members[3 * len(members) // 4]


def test_recognize_ends_at_the_cycle_boundary_nearest_the_budget():
    # cycles of 7 s against a 40 s budget: stop after 6 (42 s), not 5 (35 s)
    assert not workloads._cycle_ends_run(35.0, 5, 40.0)
    assert workloads._cycle_ends_run(42.0, 6, 40.0)
    # cycles of 9 s: stop after 4 (36 s), nearer than 5 (45 s)
    assert workloads._cycle_ends_run(36.0, 4, 40.0)


def test_van_der_corput_quantiles_are_distinct_and_inside():
    qs = [workloads.van_der_corput(k) for k in range(1, 65)]
    assert qs[:4] == [0.5, 0.25, 0.75, 0.125]
    assert len(set(qs)) == 64 and all(0 < q < 1 for q in qs)


def test_paper_corpus_is_reproducible_and_one_chunk_each():
    a = workloads.paper_corpus(5)
    b = workloads.paper_corpus(5)
    assert [e.id for e, _ in a] == [e.id for e, _ in b]
    for (expr, _), (lo, hi) in zip(a, workloads.PAPER_STROKE_RANGES):
        assert lo <= len(expr.strokes) <= hi


def test_train_setup_is_reproducible(tmp_path):
    def setup():
        run = workloads.Run(workload="train-gate", seed=9, seconds=1, workdir=tmp_path)
        w = workloads.TrainWorkload(run)
        w.setup()
        return w

    a, b = setup(), setup()
    assert len(a.train_items) == len(b.train_items) == 64
    for (ga, la), (gb, lb) in zip(a.train_items, b.train_items):
        assert np.array_equal(ga.adjacency, gb.adjacency)
        assert np.array_equal(ga.edge_features, gb.edge_features)
        assert np.array_equal(la.edge_ids, lb.edge_ids)
    assert a.shapes.values() == b.shapes.values()


def test_self_time_on_hand_built_tree():
    # root 0..100 has children 10..40 and 50..90; the first has a child 15..25
    tree = [(0, 0, 100, -1), (1, 10, 40, 0), (2, 15, 25, 1), (1, 50, 90, 0),
            (0, 200, 230, -1)]
    assert spans.self_times(tree) == [30, 20, 10, 40, 30]
    agg = spans.aggregate(tree, spans.self_times(tree), ["a", "b", "c"], 0, len(tree))
    assert agg == {"a": (2, 60), "b": (2, 60), "c": (1, 10)}
    assert spans.root_time(tree, 0, len(tree)) == 130
    assert spans.root_time(tree, 1, 4) == 0


def test_tail_percentile_keeps_ten_samples_above():
    assert workloads.tail_percentile(20) == 50
    assert workloads.tail_percentile(63) == 84
    for n_min in (20, 21, 63):
        for n in range(n_min, 4 * n_min):
            value, pct = workloads.tail(list(range(n)), n_min)
            assert n - 1 - value >= workloads.TAIL_BEYOND
    with pytest.raises(ValueError):
        workloads.tail_percentile(19)
    with pytest.raises(ValueError):
        workloads.tail(list(range(30)), 63)


def test_tracer_nests_spans_and_restores_the_package():
    expr, _ = synth.generate_synthetic(2, 1, 3)[0]
    original = graphs.line_of_sight
    tracer = spans.Tracer()
    tracer.install()
    try:
        graphs.build_local_graph(expr, graphs.GraphConfig(d_n=16))
    finally:
        tracer.uninstall()
    assert graphs.line_of_sight is original
    names = [tracer.names[s[0]] for s in tracer.spans]
    root = names.index("graphs.build_local_graph")
    assert root == 0 and tracer.spans[root][3] == -1
    los = names.index("graphs.line_of_sight")
    assert tracer.spans[los][3] == root
    hull = names.index("graphs.convex_hull")
    assert tracer.spans[hull][3] == los


def test_benchmark_json_lists_what_the_runs_emit():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        [e for e in workloads.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        workloads.per_layer_specs()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
