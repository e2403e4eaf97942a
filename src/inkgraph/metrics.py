"""Evaluation: primitive and expression-level rates, confusion tables, attention CSV.

Expression correctness follows the usual label-graph discipline: segmentation
(stroke partition), symbol labels on matching segments, segment-anchored
relation triples, and their conjunctions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .labels import AlignedLabels, decode_labels


class MetricsError(Exception):
    pass


def predict_aligned(result, reference):
    """Argmax decode of the forward result of one graph into AlignedLabels on
    the reference support."""
    if len(result.supports) != 1:
        raise MetricsError(f"expected the forward result of one graph, "
                           f"got one of {len(result.supports)} graphs")
    pairs = result.supports[0]
    if not np.array_equal(pairs, reference.pairs):
        raise MetricsError("prediction support does not match the reference support")
    return AlignedLabels(node_ids=result.node_logits.data.argmax(axis=1), pairs=pairs,
                         edge_ids=result.edge_logits.data.argmax(axis=1))


def primitive_counts(result, node_labels, edge_labels, node_mask=None, edge_mask=None):
    """(node_correct, node_total, edge_correct, edge_total): argmax hits of
    the node and edge logit rows of a forward result against their labels,
    row by row, over the rows whose mask is > 0 (all rows without masks)."""
    def hits(logits, labels, mask):
        hit = logits.data.argmax(axis=1) == labels
        if mask is not None:
            hit = hit[mask > 0]
        return int(hit.sum()), int(hit.size)

    return (*hits(result.node_logits, node_labels, node_mask),
            *hits(result.edge_logits, edge_labels, edge_mask))


# ---------------------------------------------------------------------------
# expression-level rates


def expression_metrics(pred_graph, gold_graph):
    """Boolean Seg/Sym/Rel/Exp/Stru for one expression (predicted vs gold LabelGraph)."""
    pred_segs = {frozenset(g) for g in pred_graph.segments()}
    gold_segs = {frozenset(g) for g in gold_graph.segments()}
    seg = pred_segs == gold_segs
    sym = seg and pred_graph.segment_labels() == gold_graph.segment_labels()
    pred_triples = pred_graph.segment_triples()
    gold_triples = gold_graph.segment_triples()
    rel = pred_triples == gold_triples
    exp = sym and rel
    stru = seg and rel
    return {"seg": seg, "sym": sym, "rel": rel, "exp": exp, "stru": stru}


@dataclass
class MetricsReport:
    """Aggregate rates plus the per-expression rows they were computed from."""

    node_acc: float = 0.0
    edge_acc: float = 0.0
    seg_rate: float = 0.0
    sym_rate: float = 0.0
    rel_rate: float = 0.0
    exp_rate: float = 0.0
    stru_rate: float = 0.0
    per_expression: list = field(default_factory=list)
    dropped_relations: int = 0

    def aggregate_row(self):
        return {
            "node_acc": self.node_acc, "edge_acc": self.edge_acc,
            "seg_rate": self.seg_rate, "sym_rate": self.sym_rate,
            "rel_rate": self.rel_rate, "exp_rate": self.exp_rate,
            "stru_rate": self.stru_rate,
        }


def build_report(rows, dropped_relations=0):
    """rows: per-expression dicts with id, counts and booleans (see evaluate_expression)."""
    report = MetricsReport(per_expression=list(rows), dropped_relations=dropped_relations)
    if not rows:
        return report
    nc = sum(r["node_correct"] for r in rows)
    nt = sum(r["node_total"] for r in rows)
    ec = sum(r["edge_correct"] for r in rows)
    et = sum(r["edge_total"] for r in rows)
    report.node_acc = nc / nt if nt else 0.0
    report.edge_acc = ec / et if et else 0.0
    n = len(rows)
    for key in ("seg", "sym", "rel", "exp", "stru"):
        setattr(report, key + "_rate", sum(1 for r in rows if r[key]) / n)
    return report


def evaluate_expression(expr_id, result, gold_aligned, gold_graph, vocab):
    """One per-expression metrics row from the forward result of one graph
    and its ground truth."""
    pred_graph = decode_labels(predict_aligned(result, gold_aligned), vocab)
    node_correct, node_total, edge_correct, edge_total = primitive_counts(
        result, gold_aligned.node_ids, gold_aligned.edge_ids)
    row = {
        "id": expr_id,
        "strokes": gold_aligned.num_nodes,
        "symbols": len(gold_graph.segments()),
        "node_correct": node_correct,
        "node_total": node_total,
        "edge_correct": edge_correct,
        "edge_total": edge_total,
    }
    row.update(expression_metrics(pred_graph, gold_graph))
    row["pred_graph"] = pred_graph
    return row


def report_to_csv(report):
    header = ("id,strokes,symbols,node_correct,node_total,edge_correct,edge_total,"
              "seg,sym,rel,exp,stru")
    lines = [header]
    for r in report.per_expression:
        lines.append(
            f"{r['id']},{r['strokes']},{r['symbols']},{r['node_correct']},"
            f"{r['node_total']},{r['edge_correct']},{r['edge_total']},"
            f"{int(r['seg'])},{int(r['sym'])},{int(r['rel'])},{int(r['exp'])},{int(r['stru'])}")
    agg = report.aggregate_row()
    lines.append("aggregate,,,,,,,,,,,")
    for key, val in agg.items():
        lines.append(f"{key},{val:.10g},,,,,,,,,,")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# confusion tables

MISSING_RELATION = "∥"  # rendered for a gold relation the prediction lost


def confusion_histograms(expression_pairs):
    """Symbol and symbol-pair confusion tables.

    expression_pairs: [(pred LabelGraph, gold LabelGraph), ...]. Segments
    correspond when their stroke sets match exactly; segmentation errors do
    not produce label-confusion entries. Pair errors render as
    '<left><right>' with the missing-relation mark between them when the gold
    relation disappeared.
    """
    symbol_table = {}
    pair_table = {}
    for pred, gold in expression_pairs:
        pred_labels = pred.segment_labels()
        gold_labels = gold.segment_labels()
        for seg, glabel in gold_labels.items():
            plabel = pred_labels.get(seg)
            if plabel is None or plabel == glabel:
                continue
            bucket = symbol_table.setdefault(glabel, {})
            bucket[plabel] = bucket.get(plabel, 0) + 1
        pred_triples = {(a, b): r for a, b, r in pred.segment_triples()}
        for a, b, rel in gold.segment_triples():
            pa = pred_labels.get(a)
            pb = pred_labels.get(b)
            if pa is None or pb is None:
                continue
            ga, gb = gold_labels[a], gold_labels[b]
            prel = pred_triples.get((a, b))
            if pa == ga and pb == gb and prel == rel:
                continue
            gold_key = f"{ga} {rel} {gb}"
            if prel is None:
                rendered = f"{pa}{MISSING_RELATION}{pb}"
            elif prel != rel:
                rendered = f"{pa} {prel} {pb}"
            else:
                rendered = f"{pa}{pb}"
            bucket = pair_table.setdefault(gold_key, {})
            bucket[rendered] = bucket.get(rendered, 0) + 1
    return symbol_table, pair_table


# ---------------------------------------------------------------------------
# attention export


def attention_to_csv(matrix):
    lines = []
    for row in np.asarray(matrix):
        lines.append(",".join(f"{v:.8g}" for v in row))
    return "\n".join(lines) + "\n"
