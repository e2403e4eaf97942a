"""Online-ink input: InkML and label-graph parsing, resampling, normalization."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from .labels import LabelError, LabelGraph, POSITIONAL_RELATIONS, SAME_SYMBOL


class InkError(Exception):
    pass


@dataclass
class Stroke:
    """One pen-down trace: raw points in capture order."""

    points: np.ndarray
    index: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise InkError(f"stroke {self.index}: points must be (m, 2) with m >= 1")
        if not np.all(np.isfinite(pts)):
            raise InkError(f"stroke {self.index}: non-finite coordinates")
        self.points = pts

    def bbox_diagonal(self):
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.hypot(*(hi - lo)))


@dataclass
class InkExpression:
    """A handwritten expression: strokes in writing order plus optional markup."""

    id: str
    strokes: list
    annotation: str = ""

    def __post_init__(self):
        if not self.strokes:
            raise InkError(f"expression {self.id!r}: no strokes")
        for want, s in enumerate(self.strokes):
            if s.index != want:
                raise InkError(f"expression {self.id!r}: stroke indices must be 0..n-1 in order")

    @property
    def num_strokes(self):
        return len(self.strokes)


@dataclass
class ResampledStroke:
    """Fixed-length stroke: coords shape (2, d). From resample_stroke, its
    samples lie on the input trace at equal arc steps."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != 2 or c.shape[1] < 2:
            raise InkError(f"resampled stroke: coords must be (2, d>=2), got {c.shape}")
        self.coords = c

    @property
    def num_samples(self):
        return self.coords.shape[1]

    def centroid(self):
        return self.coords.mean(axis=1)


# ---------------------------------------------------------------------------
# InkML


def _byte_offset(payload: bytes, line: int, column: int) -> int:
    lines = payload.split(b"\n")
    return sum(len(l) + 1 for l in lines[: line - 1]) + column


def parse_inkml(data) -> InkExpression:
    """Parse the trace subset of InkML: <trace> points 'x y [t]' separated by commas.

    Accepts bytes or str. Time stamps are dropped. Raises InkError with a byte
    offset on malformed XML, and names the offending trace for empty traces.
    """
    if isinstance(data, str):
        payload = data.encode("utf-8")
    else:
        payload = bytes(data)
    try:
        root = ET.fromstring(payload)
    except ET.ParseError as exc:
        line, col = exc.position
        raise InkError(
            f"InkML parse error at byte {_byte_offset(payload, line, col)}: {exc.msg}"
        ) from None

    def local(tag):
        return tag.rsplit("}", 1)[-1]

    expr_id = ""
    annotation = ""
    for node in root.iter():
        if local(node.tag) == "annotation":
            kind = node.get("type", "")
            text = (node.text or "").strip()
            if kind == "UI":
                expr_id = text
            elif kind == "truth" and not annotation:
                annotation = text

    strokes = []
    for node in root.iter():
        if local(node.tag) != "trace":
            continue
        raw = (node.text or "").strip()
        trace_id = node.get("id", str(len(strokes)))
        if not raw:
            raise InkError(f"trace {trace_id!r}: empty trace")
        pts = []
        for chunk in raw.split(","):
            fields = chunk.split()
            if not fields:
                continue
            if len(fields) < 2:
                raise InkError(f"trace {trace_id!r}: malformed point {chunk.strip()!r}")
            try:
                pts.append((float(fields[0]), float(fields[1])))
            except ValueError:
                raise InkError(f"trace {trace_id!r}: malformed point {chunk.strip()!r}") from None
        if not pts:
            raise InkError(f"trace {trace_id!r}: empty trace")
        strokes.append(Stroke(points=np.array(pts), index=len(strokes)))
    if not strokes:
        raise InkError("InkML document contains no traces")
    return InkExpression(id=expr_id, strokes=strokes, annotation=annotation)


# ---------------------------------------------------------------------------
# label-graph text format


def parse_lg(text) -> LabelGraph:
    """Parse 'N, id, label, w' / 'E, id1, id2, label, w' lines; '#' starts a comment.

    Stroke ids map to 0-based writing order by N-line order. Unknown line tags,
    edges naming undeclared strokes, duplicate ids and bad relation labels all
    raise with the line number.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InkError(f"label graph is not UTF-8 text: {exc}") from None
    ids = {}
    node_labels = []
    pending_edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        tag = parts[0]
        if tag == "N":
            if len(parts) != 4:
                raise InkError(f"line {lineno}: N lines take 'N, id, label, weight'")
            _, sid, label, _w = parts
            if sid in ids:
                raise InkError(f"line {lineno}: duplicate stroke id {sid!r}")
            ids[sid] = len(node_labels)
            node_labels.append(label)
        elif tag == "E":
            if len(parts) != 5:
                raise InkError(f"line {lineno}: E lines take 'E, id1, id2, label, weight'")
            _, a, b, label, _w = parts
            pending_edges.append((lineno, a, b, label))
        else:
            raise InkError(f"line {lineno}: unknown line tag {tag!r}")
    edges = set()
    for lineno, a, b, label in pending_edges:
        if a not in ids or b not in ids:
            missing = a if a not in ids else b
            raise InkError(f"line {lineno}: edge references undeclared stroke {missing!r}")
        if label != SAME_SYMBOL and label not in POSITIONAL_RELATIONS:
            raise InkError(f"line {lineno}: unknown relation label {label!r}")
        edges.add((ids[a], ids[b], label))
    try:
        return LabelGraph(node_labels=node_labels, edges=edges)
    except LabelError as exc:
        raise InkError(str(exc)) from None


# ---------------------------------------------------------------------------
# resampling


def resample_stroke(stroke, d) -> ResampledStroke:
    """Resample to d points at equal arc steps along the input trace.

    One pass: every sample lies on the input polyline, the first and last
    are its endpoints, and consecutive samples are equal arc lengths apart
    (their chords are shorter where the trace bends). Zero-length input
    replicates the point.
    """
    d = int(d)
    if d < 2:
        raise InkError(f"resample: d must be >= 2, got {d}")
    if isinstance(stroke, Stroke):
        pts = stroke.points
    elif isinstance(stroke, ResampledStroke):
        pts = stroke.coords.T
    else:
        pts = np.asarray(stroke, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise InkError(f"resample: raw points must be (m, 2) with m >= 1, got {pts.shape}")
    x, y = pts[:, 0], pts[:, 1]
    cum = np.zeros(x.shape[0])
    np.cumsum(np.hypot(x[1:] - x[:-1], y[1:] - y[:-1]), out=cum[1:])
    total = cum[-1]
    if total <= 0:
        x, y = np.full(d, x[0]), np.full(d, y[0])
    else:
        target = np.linspace(0.0, total, d)
        x, y = np.interp(target, cum, x), np.interp(target, cum, y)
    # a transposed (d, 2) array: centroid()'s mean depends on layout
    return ResampledStroke(coords=np.stack([x, y], axis=1).T)


# ---------------------------------------------------------------------------
# normalization


def normalize_expression(expression) -> InkExpression:
    """Center the expression at its point centroid and set the mean stroke
    bounding-box diagonal to 1 (dots count as diagonal 0; all-dots scale is 1).

    Finite coordinates can still overflow float64 on the way (a center, a
    diagonal or a normalized point); that raises InkError naming the expression.
    """
    all_pts = np.concatenate([s.points for s in expression.strokes], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        center = all_pts.mean(axis=0)
        mean_diag = float(np.mean([s.bbox_diagonal() for s in expression.strokes]))
        scl = mean_diag if mean_diag > 0 else 1.0
        points = [(s.points - center) / scl for s in expression.strokes]
    if not (np.isfinite(scl) and all(np.isfinite(p).all() for p in points)):
        raise InkError(f"expression {expression.id!r}: ink extent overflows float64 "
                       f"(center {center.tolist()}, scale {scl:g})")
    strokes = [Stroke(points=p, index=s.index) for p, s in zip(points, expression.strokes)]
    return InkExpression(id=expression.id, strokes=strokes, annotation=expression.annotation)
