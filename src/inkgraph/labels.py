"""Stroke-level label graphs, class vocabularies, and writing-order alignment.

A LabelGraph carries per-stroke symbol labels plus directed relation edges;
'*' edges tie strokes of one symbol together. Training targets live on the
writing-order support of the modeled adjacency (one directed slot per linked
stroke pair, earlier stroke as source), so positional labels pointing
backwards in writing order are stored as their opposite class.
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
    """Training targets of one stroke graph, laid out as forward's supports.

    node_ids holds one symbol class per stroke. pairs is the (P, 2) int64
    writing-order support: the linked stroke pairs (i, j) with i < j, in
    row-major order, exactly what forward returns as supports[g]. edge_ids
    holds one relation class per pair. node_mask (n,) and edge_mask (P,)
    weight the loss and default to ones; a chunk zeroes the strokes cut from
    their symbol and every pair that touches one. dropped counts ground truth
    relations that fell off the support.
    """

    node_ids: np.ndarray
    pairs: np.ndarray
    edge_ids: np.ndarray
    node_mask: np.ndarray = None
    edge_mask: np.ndarray = None
    dropped: int = 0

    def __post_init__(self):
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64)
        self.pairs = np.asarray(self.pairs, dtype=np.int64)
        self.edge_ids = np.asarray(self.edge_ids, dtype=np.int64)
        n, p = len(self.node_ids), len(self.pairs)
        if self.node_mask is None:
            self.node_mask = np.ones(n)
        if self.edge_mask is None:
            self.edge_mask = np.ones(p)
        self.node_mask = np.asarray(self.node_mask, dtype=np.float32)
        self.edge_mask = np.asarray(self.edge_mask, dtype=np.float32)
        if self.node_ids.shape != (n,) or self.pairs.shape != (p, 2):
            raise LabelError("aligned labels: node ids must be (n,) and pairs (P, 2)")
        if (self.edge_ids.shape, self.node_mask.shape, self.edge_mask.shape) != ((p,), (n,), (p,)):
            raise LabelError("aligned labels: edge ids and masks must match the pairs and nodes")
        i, j = self.pairs.T
        if np.any(i < 0) or np.any(i >= j) or np.any(j >= n):
            raise LabelError("aligned labels: every pair must be (i, j) with 0 <= i < j < n")
        if np.any(np.diff(i * n + j) <= 0):
            raise LabelError("aligned labels: pairs must be sorted row-major, without repeats")
        if np.any(self.node_ids < 0) or np.any(self.edge_ids < 0):
            raise LabelError("aligned labels: class ids must be >= 0")

    @property
    def num_nodes(self):
        return self.node_ids.shape[0]


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
    node_ids = np.array([vocab.symbol_id(s) for s in label_graph.node_labels], dtype=np.int64)
    fwd = {}
    star = set()
    dropped = 0
    for src, dst, rel in label_graph.edges:
        i, j = min(src, dst), max(src, dst)
        if rel == SAME_SYMBOL:
            if a[i, j]:
                star.add((i, j))
            else:
                dropped += 1
            continue
        if not a[i, j]:
            dropped += 1
            continue
        rid = vocab.relation_id(rel)
        cls = rid if src < dst else vocab.opposite(rid)
        prev = fwd.get((i, j))
        if prev is not None and prev != cls:
            raise LabelError(f"conflicting positional labels on stroke pair ({i},{j})")
        fwd[(i, j)] = cls
    pairs = np.argwhere(np.triu(a, 1))
    edge_ids = [vocab.same_symbol_id if key in star else fwd.get(key, vocab.no_edge_id)
                for key in map(tuple, pairs.tolist())]
    return AlignedLabels(node_ids=node_ids, pairs=pairs, edge_ids=edge_ids, dropped=dropped)


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
    pairs = list(zip(aligned.pairs.tolist(), aligned.edge_ids.tolist()))
    comps = _components(n, [pair for pair, cls in pairs if cls == star_id])
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
    for (i, j), cls in pairs:
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
