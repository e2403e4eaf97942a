"""Label vocabulary, label-graph, and writing-order alignment tests."""

import numpy as np
import pytest

from inkgraph.labels import (NO_EDGE, POSITIONAL_RELATIONS, SAME_SYMBOL,
                             AlignedLabels, LabelError, LabelGraph, Vocabulary,
                             align_labels, decode_labels, serialize_lg)


def test_default_vocabulary_inventory():
    v = Vocabulary.default()
    assert v.num_symbols == 101
    assert list(v.symbols) == sorted(v.symbols)
    for must in ["0", "9", "a", "z", "A", "+", "-", "=", "(", ")", "\\sqrt",
                 "\\alpha", "\\times", "x"]:
        assert must in v.symbols
    assert v.num_edge_classes == 14


def test_edge_class_layout():
    v = Vocabulary.default()
    names = v.edge_class_names()
    assert len(names) == 14
    assert names[:6] == POSITIONAL_RELATIONS
    assert names[6:12] == tuple("~" + r for r in POSITIONAL_RELATIONS)
    assert names[12] == SAME_SYMBOL and names[13] == NO_EDGE
    assert v.same_symbol_id == 12
    assert v.no_edge_id == 13
    assert v.relation_id("Right") == 0
    assert v.relation_id("Inside") == 5


def test_opposite_is_an_involution_pairing_forward_and_backward():
    v = Vocabulary.default()
    for c in range(12):
        assert v.opposite(v.opposite(c)) == c
        assert v.opposite(c) == (c + 6) % 12
    for c in (12, 13, -1, 14):
        with pytest.raises(LabelError, match="no direction"):
            v.opposite(c)


def test_symbol_lookup_round_trip_and_errors():
    v = Vocabulary.default()
    for lbl in ("0", "x", "\\sqrt"):
        assert v.symbol_label(v.symbol_id(lbl)) == lbl
    with pytest.raises(LabelError, match="unknown symbol"):
        v.symbol_id("not-a-symbol")
    with pytest.raises(LabelError, match="unknown relation"):
        v.relation_id("*")


def test_vocabulary_construction_rules():
    with pytest.raises(LabelError, match="sorted"):
        Vocabulary(symbols=("b", "a"))
    with pytest.raises(LabelError, match="duplicate"):
        Vocabulary(symbols=("a", "a"))
    with pytest.raises(LabelError, match="relations"):
        Vocabulary.from_dict({"symbols": ["a"], "relations": [*POSITIONAL_RELATIONS, "Extra"]})
    v = Vocabulary.from_symbols(["b", "a", "b"])
    assert v.symbols == ("a", "b")
    again = Vocabulary.from_dict(v.to_dict())
    assert again == v


def test_label_graph_validation():
    with pytest.raises(LabelError, match="out of range"):
        LabelGraph(node_labels=["1"], edges={(0, 1, "Right")})
    with pytest.raises(LabelError, match="out of range"):
        LabelGraph(node_labels=["1", "2"], edges={(0, 0, "Right")})
    with pytest.raises(LabelError, match="neither positional"):
        LabelGraph(node_labels=["1", "2"], edges={(0, 1, "NoE")})


def test_segments_are_star_connected_components():
    lg = LabelGraph(node_labels=["a", "a", "a", "b", "c"],
                    edges={(0, 1, SAME_SYMBOL), (2, 1, SAME_SYMBOL)})
    assert lg.segments() == [[0, 1, 2], [3], [4]]
    lone = LabelGraph(node_labels=["a", "b"])
    assert lone.segments() == [[0], [1]]


def test_segment_triples_anchor_relations_to_stroke_sets():
    lg = LabelGraph(
        node_labels=["=", "=", "1"],
        edges={(0, 1, SAME_SYMBOL), (0, 2, "Right"), (1, 2, "Right")},
    )
    assert lg.segment_triples() == {(frozenset({0, 1}), frozenset({2}), "Right")}
    assert lg.segment_labels() == {frozenset({0, 1}): "=", frozenset({2}): "1"}


def test_order_support_is_strict_upper_triangle():
    adj = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    lg = LabelGraph(node_labels=["1", "+", "2"])
    al = align_labels(lg, adj, Vocabulary.default())
    assert al.pairs.dtype == np.int64
    assert al.pairs.tolist() == [[0, 1], [0, 2]]
    assert al.node_mask.dtype == al.edge_mask.dtype == np.float32
    assert al.node_mask.tolist() == [1, 1, 1] and al.edge_mask.tolist() == [1, 1]


def test_aligned_labels_validation():
    ok = dict(node_ids=np.zeros(3, dtype=int), pairs=np.array([[0, 1], [0, 2], [1, 2]]),
              edge_ids=np.array([0, 13, 12]))
    AlignedLabels(**ok)
    AlignedLabels(node_ids=np.zeros(2, dtype=int), pairs=np.zeros((0, 2), dtype=int),
                  edge_ids=np.zeros(0, dtype=int))
    bad_pairs = {
        "sorted row-major": [[0, 2], [0, 1], [1, 2]],
        "without repeats": [[0, 1], [0, 1], [1, 2]],
        "i < j": [[0, 1], [0, 2], [2, 1]],
        "0 <= i < j < n": [[0, 1], [0, 2], [1, 3]],
    }
    for match, pairs in bad_pairs.items():
        with pytest.raises(LabelError, match=match):
            AlignedLabels(**{**ok, "pairs": np.array(pairs)})
    with pytest.raises(LabelError, match="0 <= i < j < n"):
        AlignedLabels(**{**ok, "pairs": np.array([[-1, 1], [0, 2], [1, 2]])})
    with pytest.raises(LabelError, match="i < j"):
        AlignedLabels(**{**ok, "pairs": np.array([[0, 1], [1, 1], [1, 2]])})
    with pytest.raises(LabelError, match=r"pairs \(P, 2\)"):
        AlignedLabels(**{**ok, "pairs": np.array([0, 1, 2])})
    for key, value in [("edge_ids", np.array([0, 13])), ("edge_mask", np.ones(4)),
                       ("node_mask", np.ones(2))]:
        with pytest.raises(LabelError, match="must match the pairs and nodes"):
            AlignedLabels(**{**ok, key: value})
    for key, value in [("edge_ids", np.array([0, -1, 12])), ("node_ids", np.array([0, 0, -1]))]:
        with pytest.raises(LabelError, match="class ids must be >= 0"):
            AlignedLabels(**{**ok, key: value})


def _full(n):
    return np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)


def test_align_basic_forward_relations():
    v = Vocabulary.default()
    lg = LabelGraph(node_labels=["1", "+", "2"],
                    edges={(0, 1, "Right"), (1, 2, "Right")})
    al = align_labels(lg, _full(3), v)
    assert al.node_ids.tolist() == [v.symbol_id("1"), v.symbol_id("+"), v.symbol_id("2")]
    assert al.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert al.edge_ids.tolist() == [v.relation_id("Right"), v.no_edge_id,
                                    v.relation_id("Right")]
    assert al.dropped == 0


def test_align_stores_backward_relations_as_opposites():
    v = Vocabulary.default()
    lg = LabelGraph(node_labels=["2", "1"], edges={(1, 0, "Sup")})
    al = align_labels(lg, _full(2), v)
    assert al.edge_ids.tolist() == [v.opposite(v.relation_id("Sup"))]


def test_align_same_symbol_takes_precedence():
    v = Vocabulary.default()
    lg = LabelGraph(node_labels=["=", "="],
                    edges={(1, 0, SAME_SYMBOL), (0, 1, "Right")})
    al = align_labels(lg, _full(2), v)
    assert al.edge_ids.tolist() == [v.same_symbol_id]


def test_align_counts_relations_dropped_off_support():
    v = Vocabulary.default()
    adj = np.zeros((3, 3), dtype=np.int8)
    adj[0, 1] = adj[1, 0] = 1  # stroke 2 unlinked
    lg = LabelGraph(node_labels=["1", "+", "2"],
                    edges={(0, 1, "Right"), (1, 2, "Right"), (0, 2, "Right")})
    al = align_labels(lg, adj, v)
    assert al.dropped == 2
    assert al.pairs.tolist() == [[0, 1]]
    assert al.edge_ids.tolist() == [v.relation_id("Right")]


def test_align_rejects_conflicting_pair_labels():
    v = Vocabulary.default()
    lg = LabelGraph(node_labels=["1", "2"],
                    edges={(0, 1, "Right"), (1, 0, "Right")})
    with pytest.raises(LabelError, match="conflicting"):
        align_labels(lg, _full(2), v)
    lg = LabelGraph(node_labels=["1", "2"],
                    edges={(0, 1, "Right"), (0, 1, "Sup")})
    with pytest.raises(LabelError, match="conflicting"):
        align_labels(lg, _full(2), v)


def test_align_checks_adjacency_shape():
    v = Vocabulary.default()
    lg = LabelGraph(node_labels=["1", "2"])
    with pytest.raises(LabelError, match="does not match"):
        align_labels(lg, _full(3), v)


def _random_label_graph(rng, vocab):
    """Random segmentation + consistent labels + one relation per segment pair."""
    n = int(rng.integers(2, 9))
    seg_of = np.zeros(n, dtype=int)
    next_seg = 0
    for i in range(n):
        if i == 0 or rng.random() < 0.6:
            seg_of[i] = next_seg
            next_seg += 1
        else:
            seg_of[i] = rng.integers(0, next_seg)
    groups = [np.flatnonzero(seg_of == s) for s in range(next_seg)]
    labels = [None] * n
    for g in groups:
        lbl = vocab.symbols[rng.integers(0, vocab.num_symbols)]
        for i in g:
            labels[i] = lbl
    edges = set()
    for g in groups:
        for a, b in zip(g[:-1], g[1:]):
            edges.add((int(a), int(b), SAME_SYMBOL))
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            if rng.random() < 0.5:
                continue
            rel = POSITIONAL_RELATIONS[rng.integers(0, 6)]
            src = int(groups[a][rng.integers(0, len(groups[a]))])
            dst = int(groups[b][rng.integers(0, len(groups[b]))])
            if rng.random() < 0.5:
                src, dst = dst, src
            edges.add((src, dst, rel))
    return LabelGraph(node_labels=labels, edges=edges)


def test_decode_inverts_align_on_full_support():
    rng = np.random.default_rng(0)
    vocab = Vocabulary.default()
    for _ in range(100):
        lg = _random_label_graph(rng, vocab)
        al = align_labels(lg, _full(lg.num_strokes), vocab)
        assert al.dropped == 0
        back = decode_labels(al, vocab)
        assert back.segments() == lg.segments()
        assert back.segment_labels() == lg.segment_labels()
        assert back.segment_triples() == lg.segment_triples()


def test_decode_majority_vote_breaks_ties_by_writing_order():
    vocab = Vocabulary.default()
    al = AlignedLabels(node_ids=np.array([vocab.symbol_id("7"), vocab.symbol_id("1")]),
                       pairs=np.array([[0, 1]]), edge_ids=np.array([vocab.same_symbol_id]))
    out = decode_labels(al, vocab)
    assert out.node_labels == ["7", "7"]


def test_decode_drops_positional_predictions_inside_a_segment():
    vocab = Vocabulary.default()
    pairs = np.array([[0, 1], [0, 2], [1, 2]])
    right = vocab.relation_id("Right")
    i = vocab.symbol_id("=")
    al = AlignedLabels(node_ids=np.array([i, i, vocab.symbol_id("1")]), pairs=pairs,
                       edge_ids=np.array([vocab.same_symbol_id, right, right]))
    out = decode_labels(al, vocab)
    assert (0, 1, SAME_SYMBOL) in out.edges
    assert out.segment_triples() == {(frozenset({0, 1}), frozenset({2}), "Right")}

    # a positional class inside the segment is discarded
    edge_ids2 = np.array([vocab.same_symbol_id, vocab.relation_id("Sup"), vocab.same_symbol_id])
    al2 = AlignedLabels(node_ids=np.array([i, i, i]), pairs=pairs, edge_ids=edge_ids2)
    out2 = decode_labels(al2, vocab)
    assert out2.segments() == [[0, 1, 2]]
    assert out2.segment_triples() == set()


def test_decode_flips_backward_classes_to_forward_edges():
    vocab = Vocabulary.default()
    al = AlignedLabels(node_ids=np.array([vocab.symbol_id("1"), vocab.symbol_id("-")]),
                       pairs=np.array([[0, 1]]),
                       edge_ids=np.array([vocab.opposite(vocab.relation_id("Above"))]))
    out = decode_labels(al, vocab)
    assert out.edges == {(1, 0, "Above")}


def test_serialize_lg_format():
    lg = LabelGraph(node_labels=["1", "+"], edges={(0, 1, "Right")})
    assert serialize_lg(lg) == "N, s0, 1, 1.0\nN, s1, +, 1.0\nE, s0, s1, Right, 1.0\n"
