"""Stroke-level label graphs, class vocabularies, and writing-order alignment.

A LabelGraph carries per-stroke symbol labels plus directed relation edges;
'*' edges tie strokes of one symbol together. Training targets live on the
upper triangle of the modeled adjacency (one directed slot per stroke pair,
earlier stroke as source), so positional labels pointing backwards in writing
order are stored as their opposite class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

POSITIONAL_RELATIONS = ("Right", "Sup", "Sub", "Above", "Below", "Inside")
SAME_SYMBOL = "*"
NO_EDGE = "NoE"
# edge class ids: the positional relations, their opposites, '*', 'NoE'
SAME_SYMBOL_ID = 2 * len(POSITIONAL_RELATIONS)
NO_EDGE_ID = SAME_SYMBOL_ID + 1


class LabelError(Exception):
    pass


def _default_symbols():
    # competition-style symbol inventory, exactly 101 classes, sorted
    digits = [str(d) for d in range(10)]
    lower = [chr(c) for c in range(ord("a"), ord("z") + 1)]
    upper = list("ABCEFGHILMNPRSTVXY")
    greek = ["\\Delta", "\\alpha", "\\beta", "\\gamma", "\\lambda", "\\mu",
             "\\phi", "\\pi", "\\sigma", "\\theta"]
    ops = ["+", "-", "\\times", "\\div", "/", "=", "\\neq", "\\leq", "\\lt",
           "\\geq", "\\gt", "\\pm", "!", "COMMA", ".", "\\prime", "\\sqrt",
           "\\sum", "\\int", "\\lim", "\\log", "\\sin", "\\cos", "\\tan",
           "\\infty", "\\exists", "\\forall", "\\in", "\\rightarrow",
           "\\ldots", "\\cdot"]
    brackets = ["(", ")", "[", "]", "\\{", "\\}"]
    labels = digits + lower + upper + greek + ops + brackets
    assert len(labels) == 101, len(labels)
    return sorted(labels)


@dataclass(frozen=True)
class Vocabulary:
    """Symbol and relation class tables. Edge classes: positional, opposites, '*', 'NoE'.

    Only the symbols vary; label graphs and chunk masking hard-code the
    relations and the edge class ids."""

    symbols: tuple = ()
    relations = POSITIONAL_RELATIONS
    num_edge_classes = NO_EDGE_ID + 1
    same_symbol_id = SAME_SYMBOL_ID
    no_edge_id = NO_EDGE_ID

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise LabelError("vocabulary: duplicate symbol labels")
        if list(self.symbols) != sorted(self.symbols):
            raise LabelError("vocabulary: symbol labels must be sorted")

    @classmethod
    def default(cls):
        return cls(symbols=tuple(_default_symbols()))

    @classmethod
    def from_symbols(cls, labels):
        return cls(symbols=tuple(sorted(set(labels))))

    @property
    def num_symbols(self):
        return len(self.symbols)

    def symbol_id(self, label):
        try:
            return self.symbols.index(label)
        except ValueError:
            raise LabelError(f"unknown symbol label {label!r}") from None

    def symbol_label(self, idx):
        return self.symbols[idx]

    def edge_class_names(self):
        rev = tuple("~" + r for r in self.relations)
        return self.relations + rev + (SAME_SYMBOL, NO_EDGE)

    def relation_id(self, label):
        try:
            return self.relations.index(label)
        except ValueError:
            raise LabelError(f"unknown relation label {label!r}") from None

    def opposite(self, edge_class):
        """Swap a positional class with its reverse-direction class."""
        k = len(self.relations)
        if 0 <= edge_class < k:
            return edge_class + k
        if k <= edge_class < 2 * k:
            return edge_class - k
        raise LabelError(f"opposite: class {edge_class} has no direction")

    def to_dict(self):
        return {"symbols": list(self.symbols), "relations": list(self.relations)}

    @classmethod
    def from_dict(cls, d):
        relations = tuple(d["relations"])
        if relations != POSITIONAL_RELATIONS:
            raise LabelError(f"vocabulary: relations must be {list(POSITIONAL_RELATIONS)}, "
                             f"got {list(relations)}")
        return cls(symbols=tuple(d["symbols"]))


@dataclass
class LabelGraph:
    """Ground truth over strokes: node labels plus directed (src, dst, relation) edges."""

    node_labels: list
    edges: set = field(default_factory=set)

    def __post_init__(self):
        self.node_labels = list(self.node_labels)
        self.edges = set(self.edges)
        n = len(self.node_labels)
        for src, dst, rel in self.edges:
            if not (0 <= src < n and 0 <= dst < n) or src == dst:
                raise LabelError(f"edge ({src},{dst},{rel!r}) out of range for {n} strokes")
            if rel != SAME_SYMBOL and rel not in POSITIONAL_RELATIONS:
                raise LabelError(f"edge label {rel!r} is neither positional nor {SAME_SYMBOL!r}")

    @property
    def num_strokes(self):
        return len(self.node_labels)

    def segments(self):
        """Partition strokes into symbols: connected components of '*' edges,
        each sorted, ordered by first stroke."""
        star = [(src, dst) for src, dst, rel in self.edges if rel == SAME_SYMBOL]
        return list(_components(self.num_strokes, star).values())

    def segment_triples(self):
        """Segment-anchored relation triples: (frozenset src, frozenset dst, relation)."""
        seg_of = {}
        segs = [frozenset(g) for g in self.segments()]
        for s in segs:
            for i in s:
                seg_of[i] = s
        triples = set()
        for src, dst, rel in self.edges:
            if rel == SAME_SYMBOL:
                continue
            a, b = seg_of[src], seg_of[dst]
            if a != b:
                triples.add((a, b, rel))
        return triples

    def segment_labels(self):
        """Symbol label per segment, keyed by frozen stroke set."""
        return {frozenset(g): self.node_labels[g[0]] for g in self.segments()}


@dataclass
class AlignedLabels:
    """Class targets laid out on the writing-order adjacency support.

    order_adj[i][j] = 1 iff j > i and the modeled adjacency links i and j;
    edge_ids is defined exactly there (-1 elsewhere). dropped counts ground
    truth relations that fell off the support.
    """

    node_ids: np.ndarray
    edge_ids: np.ndarray
    order_adj: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        self.edge_ids = np.asarray(self.edge_ids, dtype=np.int64)
        self.order_adj = np.asarray(self.order_adj, dtype=np.int8)
        n = self.node_ids.shape[0]
        if self.edge_ids.shape != (n, n) or self.order_adj.shape != (n, n):
            raise LabelError("aligned labels: shape mismatch")
        if np.any(np.tril(self.order_adj) != 0):
            raise LabelError("aligned labels: support must be strictly upper triangular")
        if np.any((self.edge_ids >= 0) != (self.order_adj == 1)):
            raise LabelError("aligned labels: edge ids must cover exactly the support")

    @property
    def num_nodes(self):
        return self.node_ids.shape[0]

    def support_pairs(self):
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.order_adj))]


def order_support(adjacency):
    """Upper-triangular view of a symmetric adjacency: one slot per linked pair."""
    a = np.asarray(adjacency)
    return np.triu(a, 1).astype(np.int8)


def align_labels(label_graph, adjacency, vocab):
    """Project a LabelGraph onto the writing-order support of `adjacency`.

    For each linked pair i < j: '*' in either direction wins, then a forward
    positional label, then a backward one stored as its opposite class, else
    'NoE'. Ground-truth relations between unlinked strokes are dropped and
    counted.
    """
    n = label_graph.num_strokes
    a = np.asarray(adjacency)
    if a.shape != (n, n):
        raise LabelError(f"adjacency {a.shape} does not match {n} strokes")
    support = order_support(a)
    node_ids = np.array([vocab.symbol_id(s) for s in label_graph.node_labels], dtype=np.int64)
    fwd = {}
    star = set()
    dropped = 0
    for src, dst, rel in label_graph.edges:
        i, j = min(src, dst), max(src, dst)
        if rel == SAME_SYMBOL:
            if support[i, j]:
                star.add((i, j))
            else:
                dropped += 1
            continue
        if not support[i, j]:
            dropped += 1
            continue
        rid = vocab.relation_id(rel)
        cls = rid if src < dst else vocab.opposite(rid)
        prev = fwd.get((i, j))
        if prev is not None and prev != cls:
            raise LabelError(f"conflicting positional labels on stroke pair ({i},{j})")
        fwd[(i, j)] = cls
    edge_ids = np.full((n, n), -1, dtype=np.int64)
    for i, j in zip(*np.nonzero(support)):
        key = (int(i), int(j))
        if key in star:
            edge_ids[i, j] = vocab.same_symbol_id
        elif key in fwd:
            edge_ids[i, j] = fwd[key]
        else:
            edge_ids[i, j] = vocab.no_edge_id
    return AlignedLabels(node_ids=node_ids, edge_ids=edge_ids, order_adj=support,
                         dropped=dropped)


def _components(n, pairs):
    """Union-find over n items: {smallest member: sorted members} per connected
    component of the undirected pairs, in order of smallest member."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return groups


def decode_labels(aligned, vocab):
    """Inverse of align_labels up to segment-level equivalence.

    Segments are '*'-connected components; each takes its majority node label
    (ties go to the earliest stroke whose label is among the tied). Backward
    positional classes flip to forward edges, intra-segment positional
    predictions are dropped, 'NoE' emits nothing.
    """
    n = aligned.num_nodes
    star_id = vocab.same_symbol_id
    pairs = aligned.support_pairs()
    comps = _components(n, [(i, j) for i, j in pairs if aligned.edge_ids[i, j] == star_id])
    comp_of = {i: root for root, members in comps.items() for i in members}

    node_labels = [None] * n
    for members in comps.values():
        votes = {}
        for i in members:
            lbl = vocab.symbol_label(int(aligned.node_ids[i]))
            votes[lbl] = votes.get(lbl, 0) + 1
        top = max(votes.values())
        tied = {lbl for lbl, c in votes.items() if c == top}
        chosen = next(vocab.symbol_label(int(aligned.node_ids[i]))
                      for i in members
                      if vocab.symbol_label(int(aligned.node_ids[i])) in tied)
        for i in members:
            node_labels[i] = chosen

    edges = set()
    for ms in comps.values():
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                edges.add((ms[a], ms[b], SAME_SYMBOL))
    k = len(vocab.relations)
    for i, j in pairs:
        cls = int(aligned.edge_ids[i, j])
        if cls in (star_id, vocab.no_edge_id):
            continue
        if comp_of[i] == comp_of[j]:
            continue
        if cls < k:
            edges.add((i, j, vocab.relations[cls]))
        else:
            edges.add((j, i, vocab.relations[cls - k]))
    return LabelGraph(node_labels=node_labels, edges=edges)


def serialize_lg(label_graph):
    """Render a LabelGraph in the line format parse_lg reads (LF endings)."""
    lines = []
    for i, lbl in enumerate(label_graph.node_labels):
        lines.append(f"N, s{i}, {lbl}, 1.0")
    for src, dst, rel in sorted(label_graph.edges):
        lines.append(f"E, s{src}, s{dst}, {rel}, 1.0")
    return "\n".join(lines) + "\n"
