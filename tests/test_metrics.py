"""Metrics tests: argmax decoding, primitive and expression-level rates against
a correspondence-enumerating reference, confusion tables, and attention export."""

from dataclasses import replace

import numpy as np
import pytest

from inkgraph.engine import Tensor
from inkgraph.graphs import ModeledGraph, augment_global
from inkgraph.labels import (POSITIONAL_RELATIONS, AlignedLabels, LabelGraph,
                             Vocabulary, decode_labels)
from inkgraph.metrics import (MetricsError, attention_to_csv, build_report,
                              confusion_histograms, evaluate_expression,
                              expression_metrics, predict_aligned,
                              primitive_counts, report_to_csv)
from inkgraph.model import BatchResult, ModelConfig, forward, init_parameters

from oracles import brute_force_expression_metrics, dense_attention


def _aligned(node_ids, edges):
    """AlignedLabels from {(i, j): class} with support exactly on the keys."""
    pairs = sorted(edges)
    return AlignedLabels(node_ids=np.array(node_ids), pairs=np.array(pairs).reshape(-1, 2),
                         edge_ids=np.array([edges[pair] for pair in pairs]))


def _result_for(aligned, node_classes, edge_classes):
    """The forward result of one graph whose argmax reproduces `aligned` exactly."""
    node_logits = 10.0 * np.eye(node_classes)[aligned.node_ids]
    support = aligned.pairs
    edge_logits = 10.0 * np.eye(edge_classes)[aligned.edge_ids]
    return BatchResult(node_logits=Tensor(node_logits), edge_logits=Tensor(edge_logits),
                       supports=[support], node_offsets=np.array([0, len(node_logits)]),
                       edge_offsets=np.array([0, len(support)]), attention=[], _aux=[])


def test_predict_aligned_argmax_and_support_check():
    gold = _aligned([2, 0, 1], {(0, 1): 3, (1, 2): 0})
    res = _result_for(gold, node_classes=4, edge_classes=5)
    pred = predict_aligned(res, gold)
    assert np.array_equal(pred.node_ids, gold.node_ids)
    assert np.array_equal(pred.edge_ids, gold.edge_ids)
    assert np.array_equal(pred.pairs, gold.pairs)

    other = _aligned([2, 0, 1], {(0, 2): 3, (1, 2): 0})
    with pytest.raises(MetricsError, match="support"):
        predict_aligned(res, other)

    # a result over two graphs has no one support to decode on
    two = replace(res, supports=res.supports * 2)
    with pytest.raises(MetricsError, match="one graph, got one of 2 graphs"):
        predict_aligned(two, gold)
    with pytest.raises(MetricsError, match="one graph, got one of 2 graphs"):
        evaluate_expression("two", two, gold, None, Vocabulary.default())


def _counts(res, gold, node_mask=None, edge_mask=None):
    """primitive_counts of a one-graph forward result against AlignedLabels."""
    return primitive_counts(res, gold.node_ids, gold.edge_ids, node_mask, edge_mask)


def test_primitive_accuracy_counts():
    gold = _aligned([1, 2, 3, 4, 0], {(0, 1): 2, (1, 2): 5, (2, 4): 13})
    pred = _aligned([1, 2, 9, 4, 0], {(0, 1): 2, (1, 2): 6, (2, 4): 13})
    res = _result_for(pred, node_classes=10, edge_classes=14)
    assert _counts(res, gold) == (4, 5, 2, 3)
    assert _counts(_result_for(gold, 10, 14), gold) == (5, 5, 3, 3)
    # masked strokes and support pairs leave both the hits and the totals
    node_mask = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
    edge_mask = np.array([1.0, 0.0, 1.0])  # the pair (1, 2)
    assert _counts(res, gold, node_mask, edge_mask) == (4, 4, 2, 2)
    empty = _aligned([1, 2], {})
    assert _counts(_result_for(empty, 10, 14), empty) == (2, 2, 0, 0)


def test_expression_metrics_hand_cases():
    gold = LabelGraph(["1", "+", "+", "2"],
                      {(1, 2, "*"), (0, 1, "Right"), (1, 3, "Right")})
    assert expression_metrics(gold, gold) == {
        "seg": True, "sym": True, "rel": True, "exp": True, "stru": True}

    # same partition and relations, one symbol renamed
    relabeled = LabelGraph(["1", "-", "-", "2"],
                           {(1, 2, "*"), (0, 1, "Right"), (1, 3, "Right")})
    assert expression_metrics(relabeled, gold) == {
        "seg": True, "sym": False, "rel": True, "exp": False, "stru": True}

    # merged segments: partition and anchored triples both move
    merged = LabelGraph(["1", "+", "+", "2"],
                        {(0, 1, "*"), (1, 2, "*"), (1, 3, "Right")})
    got = expression_metrics(merged, gold)
    assert not got["seg"] and not got["sym"] and not got["stru"] and not got["exp"]

    # one relation class flipped
    flipped = LabelGraph(["1", "+", "+", "2"],
                         {(1, 2, "*"), (0, 1, "Sup"), (1, 3, "Right")})
    assert expression_metrics(flipped, gold) == {
        "seg": True, "sym": True, "rel": False, "exp": False, "stru": False}


def _random_label_pair(rng):
    n = int(rng.integers(2, 7))
    segs, i = [], 0
    while i < n:
        size = 2 if (i + 1 < n and rng.random() < 0.35) else 1
        segs.append(list(range(i, i + size)))
        i += size
    alphabet = "abcxyz+=12"
    labels = [""] * n
    edges = set()
    for s in segs:
        lab = alphabet[rng.integers(len(alphabet))]
        for k in s:
            labels[k] = lab
        for u, v in zip(s, s[1:]):
            edges.add((u, v, "*"))
    rels = list(POSITIONAL_RELATIONS)
    for a, b in zip(segs, segs[1:]):
        if rng.random() < 0.8:
            edges.add((a[0], b[0], rels[rng.integers(len(rels))]))
    gold = LabelGraph(labels, edges)

    plabels = list(labels)
    pedges = set(edges)
    if rng.random() < 0.4:
        s = segs[rng.integers(len(segs))]
        for k in s:
            plabels[k] = alphabet[rng.integers(len(alphabet))]
    if rng.random() < 0.4:
        positional = [e for e in pedges if e[2] != "*"]
        if positional:
            victim = positional[rng.integers(len(positional))]
            pedges.discard(victim)
            if rng.random() < 0.5:
                pedges.add((victim[0], victim[1],
                            rels[rng.integers(len(rels))]))
    if rng.random() < 0.3 and n >= 2:
        k = int(rng.integers(n - 1))
        star = (k, k + 1, "*")
        if star in pedges:
            pedges.discard(star)
        else:
            pedges.add(star)
    return LabelGraph(plabels, pedges), gold


def test_expression_metrics_match_enumeration_reference():
    rng = np.random.default_rng(7)
    seen = {k: set() for k in ("seg", "sym", "rel", "exp", "stru")}
    for _ in range(80):
        pred, gold = _random_label_pair(rng)
        got = expression_metrics(pred, gold)
        want = brute_force_expression_metrics(pred, gold)
        assert got == want, (pred, gold)
        for k, v in got.items():
            seen[k].add(v)
    assert all(seen[k] == {True, False} for k in seen), seen


def test_evaluate_expression_rows():
    vocab = Vocabulary.from_symbols(["+", "1", "2"])
    gold_aligned = _aligned(
        [vocab.symbol_id("1"), vocab.symbol_id("+"), vocab.symbol_id("2")],
        {(0, 1): vocab.relation_id("Right"), (1, 2): vocab.relation_id("Right")})
    gold_graph = decode_labels(gold_aligned, vocab)

    res = _result_for(gold_aligned, vocab.num_symbols, vocab.num_edge_classes)
    row = evaluate_expression("ex0", res, gold_aligned, gold_graph, vocab)
    assert (row["node_correct"], row["node_total"]) == (3, 3)
    assert (row["edge_correct"], row["edge_total"]) == (2, 2)
    assert (row["strokes"], row["symbols"]) == (3, 3)
    assert row["seg"] and row["sym"] and row["rel"] and row["exp"] and row["stru"]

    wrong = _aligned(
        [vocab.symbol_id("2"), vocab.symbol_id("+"), vocab.symbol_id("2")],
        {(0, 1): vocab.relation_id("Right"), (1, 2): vocab.relation_id("Right")})
    res2 = _result_for(wrong, vocab.num_symbols, vocab.num_edge_classes)
    row2 = evaluate_expression("ex1", res2, gold_aligned, gold_graph, vocab)
    assert (row2["node_correct"], row2["edge_correct"]) == (2, 2)
    assert row2["seg"] and not row2["sym"] and row2["rel"] and row2["stru"]
    assert not row2["exp"]


def test_build_report_aggregates_counts():
    rows = [
        {"id": "a", "strokes": 2, "symbols": 2, "node_correct": 2, "node_total": 2,
         "edge_correct": 1, "edge_total": 1, "seg": True, "sym": True, "rel": True,
         "exp": True, "stru": True},
        {"id": "b", "strokes": 3, "symbols": 2, "node_correct": 1, "node_total": 3,
         "edge_correct": 0, "edge_total": 2, "seg": True, "sym": False, "rel": False,
         "exp": False, "stru": False},
    ]
    report = build_report(rows, dropped_relations=4)
    assert report.node_acc == pytest.approx(3 / 5)
    assert report.edge_acc == pytest.approx(1 / 3)
    assert report.seg_rate == 1.0
    assert report.sym_rate == 0.5 and report.exp_rate == 0.5 and report.stru_rate == 0.5
    assert report.dropped_relations == 4

    empty = build_report([])
    assert empty.node_acc == 0.0 and empty.per_expression == []

    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0].startswith("id,strokes,symbols,node_correct")
    assert lines[1] == "a,2,2,2,2,1,1,1,1,1,1,1"
    assert lines[2] == "b,3,2,1,3,0,2,1,0,0,0,0"
    assert "node_acc,0.6,,,,,,,,,," in lines
    assert text.endswith("\n")


def test_confusion_histograms_render_rules():
    gold = LabelGraph(["a", "b"], {(0, 1, "Right")})

    relabeled = LabelGraph(["x", "b"], {(0, 1, "Right")})
    missing = LabelGraph(["a", "b"], set())
    flipped = LabelGraph(["a", "b"], {(0, 1, "Sub")})
    resegmented = LabelGraph(["a", "b"], {(0, 1, "*")})

    sym_table, pair_table = confusion_histograms([
        (gold, gold), (relabeled, gold), (missing, gold),
        (flipped, gold), (resegmented, gold), (relabeled, gold),
    ])
    assert sym_table == {"a": {"x": 2}}
    key = "a Right b"
    assert pair_table[key]["xb"] == 2              # label moved, relation kept
    assert pair_table[key]["a∥b"] == 1        # relation disappeared
    assert pair_table[key]["a Sub b"] == 1         # relation class flipped
    # resegmented pred has no matching segments -> no pair entry beyond the above
    assert sum(pair_table[key].values()) == 4


def test_export_attention_matrix():
    rng = np.random.default_rng(8)
    n = 5
    adj = np.triu((rng.random((n, n)) < 0.6).astype(np.int8), 1)
    adj[0, 1] = 1
    adj = adj + adj.T
    g = ModeledGraph(adjacency=adj,
                     node_features=rng.standard_normal((n, 2, 10)),
                     edge_features=rng.standard_normal((n, n, 7))[np.nonzero(adj)])
    gm = augment_global(g)
    cfg = ModelConfig(hidden=8, layers=2, node_classes=5, edge_classes=14,
                      readout_hidden=6, dropout=0.0)
    params = init_parameters(cfg, edge_dim=7, seed=0)

    res = forward(gm, params, cfg)
    assert res.attention[-1].shape == (int(gm.adjacency.sum()),)
    mat = dense_attention(res, gm)[-1]
    assert mat.shape == (n + 1, n + 1)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-5)
    assert np.all(mat[gm.adjacency == 0] == 0.0)

    text = attention_to_csv(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert text == "0.5,0.5\n1,0\n"
