"""Stroke graphs: visibility adjacency, directional edge features, splitting.

Strokes become nodes. Adjacency is line-of-sight visibility between convex
hulls, symmetrized, plus temporal edges between consecutive strokes. Edge
features are fuzzy directional memberships and distances from the source
stroke's centroid to downsampled points of the target stroke.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass

import numpy as np

from .ink import ResampledStroke, normalize_expression, resample_stroke


class GraphError(Exception):
    pass


@dataclass
class GraphConfig:
    """Graph-construction knobs: sample counts, chunk size, master node, FC ablation."""

    d_n: int = 150
    d_e: int = 10
    n_max: int = 16
    global_graph: bool = True
    full_connect: bool = False

    def __post_init__(self):
        if self.d_n < 2:
            raise GraphError(f"d_n must be >= 2, got {self.d_n}")
        if self.d_e < 1:
            raise GraphError(f"d_e must be >= 1, got {self.d_e}")
        if self.n_max < 2:
            raise GraphError(f"n_max must be >= 2, got {self.n_max}")

    @property
    def edge_dim(self):
        return 5 * self.d_e

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass
class ModeledGraph:
    """Attributed stroke graph. Masks gate the loss, not message passing."""

    adjacency: np.ndarray
    node_features: np.ndarray
    edge_features: np.ndarray
    node_mask: np.ndarray
    edge_mask: np.ndarray
    has_master: bool = False

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=np.int8)
        self.node_features = np.asarray(self.node_features, dtype=np.float32)
        self.edge_features = np.asarray(self.edge_features, dtype=np.float32)
        self.node_mask = np.asarray(self.node_mask, dtype=np.float32)
        self.edge_mask = np.asarray(self.edge_mask, dtype=np.float32)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise GraphError("adjacency must be square")
        if np.any(np.diag(self.adjacency) != 0):
            raise GraphError("adjacency diagonal must be zero")
        if np.any(self.adjacency != self.adjacency.T):
            raise GraphError("adjacency must be symmetric")
        if self.has_master:
            off = self.adjacency[0].copy()
            off[0] = 1
            if not np.all(off == 1):
                raise GraphError("master row must link to every node")
        if self.node_features.shape[0] != n or self.edge_features.shape[:2] != (n, n):
            raise GraphError("feature shapes disagree with adjacency")
        if self.node_mask.shape != (n,) or self.edge_mask.shape != (n, n):
            raise GraphError("mask shapes disagree with adjacency")
        nonedges = self.adjacency == 0
        if np.any(self.edge_features[nonedges] != 0):
            raise GraphError("edge features must be zero off the adjacency support")

    @property
    def num_nodes(self):
        return self.adjacency.shape[0]

    @property
    def num_strokes(self):
        return self.num_nodes - 1 if self.has_master else self.num_nodes


# ---------------------------------------------------------------------------
# convex hulls and visibility


def convex_hull(points):
    """Andrew monotone chain; returns hull vertices counter-clockwise.

    Degenerate inputs give 1 (point) or 2 (segment) vertices.
    """
    # rows come back sorted by x, then y, with no two equal
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.shape[0] == 1:
        return pts
    # Python floats are IEEE doubles: the chain does the same arithmetic as on
    # NumPy scalars, several times faster
    pts = pts.tolist()
    return np.array(_half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1])


def _half_hull(pts):
    """One monotone chain over sorted pts, popping non-left turns; the two
    ends are the first and last point, so collinear input keeps both."""
    chain = []
    for p in pts:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _polygon_area_centroid(hull):
    x = hull[:, 0]
    y = hull[:, 1]
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    w = x * yn - xn * y
    area = w.sum() / 2.0
    if abs(area) < 1e-12:
        return hull.mean(axis=0)
    cx = ((x + xn) * w).sum() / (6.0 * area)
    cy = ((y + yn) * w).sum() / (6.0 * area)
    return np.array([cx, cy])


def hull_centroid(hull):
    if hull.shape[0] < 3:
        return hull.mean(axis=0)
    return _polygon_area_centroid(hull)


def _ray_crosses_segment(p, q, hull, eps=1e-9):
    """Does ray pq properly cross the segment hull a-b, or overlap it collinearly
    over a positive length?"""
    d = q - p
    if float(np.hypot(*d)) <= eps:
        return False
    a, b = hull
    e = b - a
    cross_pa = d[0] * (a[1] - p[1]) - d[1] * (a[0] - p[0])
    cross_pb = d[0] * (b[1] - p[1]) - d[1] * (b[0] - p[0])
    cross_ap = e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])
    cross_aq = e[0] * (q[1] - a[1]) - e[1] * (q[0] - a[0])
    if cross_pa * cross_pb < -eps and cross_ap * cross_aq < -eps:
        return True  # proper transversal crossing
    # collinear overlap of positive length
    hull_len = float(np.hypot(*e))
    if hull_len <= eps:
        return False
    if abs(cross_ap) <= eps * hull_len and abs(cross_aq) <= eps * hull_len:
        ta = np.dot(p - a, e) / (hull_len * hull_len)
        tb = np.dot(q - a, e) / (hull_len * hull_len)
        lo, hi = min(ta, tb), max(ta, tb)
        return min(hi, 1.0) - max(lo, 0.0) > eps
    return False


def line_of_sight(strokes):
    """Visibility adjacency: i sees j when some ray from hull(i)'s centroid to a
    vertex of hull(j) clears every other stroke's hull. Symmetrized by OR.

    Per source stroke, one Cyrus-Beck pass clips all its rays against the edges
    of every polygon hull at once. A ray is blocked when its parameter interval
    [t0, t1], clipped against the hull's edge half-planes, keeps a length above
    1e-9. Segment hulls (exactly collinear strokes) block by crossing; point
    hulls block nothing.
    """
    n = len(strokes)
    vis = np.zeros((n, n), dtype=np.int8)
    if n < 2:
        return vis
    hulls = [convex_hull(s.coords.T) for s in strokes]
    centers = [hull_centroid(h) for h in hulls]
    vertices = np.concatenate(hulls)
    vertex_owner = np.repeat(np.arange(n), [h.shape[0] for h in hulls])
    polygons = np.array([k for k in range(n) if hulls[k].shape[0] >= 3], dtype=np.int64)
    segments = [k for k in range(n) if hulls[k].shape[0] == 2]
    if polygons.size:
        # every polygon edge a->b in one flat array; inside is left of a->b
        a = np.concatenate([hulls[k] for k in polygons])
        b = np.concatenate([np.roll(hulls[k], -1, axis=0) for k in polygons])
        nx, ny = b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]  # outward normals
        starts = np.cumsum([0] + [hulls[k].shape[0] for k in polygons[:-1]])
    for i in range(n):
        # rays to every vertex of every target not yet known to see i
        rows = (vertex_owner != i) & (vis[i, vertex_owner] == 0)
        if not rows.any():
            continue
        p, q, owner = centers[i], vertices[rows], vertex_owner[rows]
        d = q - p
        blocked = np.zeros(q.shape[0], dtype=bool)
        if polygons.size:
            denom = nx * d[:, :1] + ny * d[:, 1:]  # (rays, edges)
            num = nx * (a[:, 0] - p[0]) + ny * (a[:, 1] - p[1])
            parallel = np.abs(denom) < 1e-15
            with np.errstate(divide="ignore", invalid="ignore"):
                t = num / denom
            # clip [0, 1] against every edge: entering edges raise t0, leaving
            # edges lower t1; min and max are exact, so edge order is moot
            t1 = np.minimum(np.minimum.reduceat(
                np.where(denom >= 1e-15, t, 1.0), starts, axis=1), 1.0)
            t0 = np.maximum(np.maximum.reduceat(
                np.where(denom <= -1e-15, t, 0.0), starts, axis=1), 0.0)
            outside = np.logical_or.reduceat(parallel & (num < 0), starts, axis=1)
            seg_len = np.hypot(d[:, 0], d[:, 1])
            hit = ~outside & ((t1 - t0) * seg_len[:, None] > 1e-9)
            hit &= (polygons != i) & (polygons != owner[:, None])
            blocked = hit.any(axis=1)
        for k in segments:
            if k != i:
                for r in np.nonzero(~blocked & (owner != k))[0]:
                    blocked[r] = _ray_crosses_segment(p, q[r], hulls[k])
        seen = np.unique(owner[~blocked])
        vis[i, seen] = 1
        vis[seen, i] = 1
    return vis


def add_temporal_edges(adjacency):
    """Link consecutive strokes (writing order); idempotent."""
    a = np.array(adjacency, dtype=np.int8, copy=True)
    n = a.shape[0]
    idx = np.arange(n - 1)
    a[idx, idx + 1] = 1
    a[idx + 1, idx] = 1
    np.fill_diagonal(a, 0)
    return a


# ---------------------------------------------------------------------------
# fuzzy directional edge features

_DIRECTIONS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def directional_features(src, dst, d_e):
    """Membership of target samples in four half-plane directions, plus distances.

    From the source centroid O to d_e samples P_k of the target:
    theta = max(0, 1 - (2/pi) * angle(OP_k, direction)), directions right,
    left, up, down; layout [right.., left.., up.., down.., distances..].
    """
    if not isinstance(src, ResampledStroke) or not isinstance(dst, ResampledStroke):
        raise GraphError("directional_features expects resampled strokes")
    d_e = int(d_e)
    return _edge_features(src.centroid()[None], _target_samples(dst, d_e)[None], [0], [0])[0]


def _target_samples(stroke, d_e):
    """The d_e samples, evenly spaced by index, that edge features look at: (d_e, 2)."""
    idx = np.rint(np.linspace(0, stroke.num_samples - 1, d_e)).astype(int)
    return stroke.coords.T[idx]


def _edge_features(origins, samples, src, dst):
    """directional_features for E pairs at once: origins (n, 2) stroke
    centroids, samples (n, d_e, 2) target samples, src/dst (E,) indices.
    Returns (E, 5 * d_e) float32. Each product with a direction is exact (its
    entries are 0 and +-1), so the batch rounds as the one-pair call does."""
    vec = samples[dst] - origins[src][:, None, :]
    dist = np.hypot(vec[..., 0], vec[..., 1])
    safe = np.where(dist > 0, dist, 1.0)
    cosang = (vec @ _DIRECTIONS.T) / safe[..., None]
    cosang = np.clip(cosang, -1.0, 1.0)
    theta = np.maximum(0.0, 1.0 - (2.0 / np.pi) * np.arccos(cosang))
    theta[dist == 0] = 0.0
    theta = theta.transpose(0, 2, 1).reshape(len(vec), 4 * vec.shape[1])
    return np.concatenate([theta, dist], axis=1).astype(np.float32)


# ---------------------------------------------------------------------------
# graph assembly


def build_local_graph(expression, config):
    """Full pipeline for one expression: normalize and resample every stroke,
    visibility + temporal adjacency (or FC), directional edge features on the
    support."""
    strokes = [resample_stroke(s, config.d_n) for s in normalize_expression(expression).strokes]
    n = len(strokes)
    if config.full_connect:
        adj = np.ones((n, n), dtype=np.int8)
        np.fill_diagonal(adj, 0)
    else:
        adj = add_temporal_edges(line_of_sight(strokes))
    node_features = np.stack([s.coords for s in strokes]).astype(np.float32)
    edge_features = np.zeros((n, n, config.edge_dim), dtype=np.float32)
    src, dst = np.nonzero(adj)
    origins = np.array([s.centroid() for s in strokes])
    samples = np.stack([_target_samples(s, config.d_e) for s in strokes])
    edge_features[src, dst] = _edge_features(origins, samples, src, dst)
    return ModeledGraph(
        adjacency=adj,
        node_features=node_features,
        edge_features=edge_features,
        node_mask=np.ones(n, dtype=np.float32),
        edge_mask=np.ones((n, n), dtype=np.float32),
        has_master=False,
    )


def augment_global(graph):
    """Prepend a master node at index 0: linked to every stroke, feature = sum
    of node features, zero edge features, excluded from the loss masks."""
    if graph.has_master:
        raise GraphError("graph already has a master node")
    n = graph.num_nodes
    adj = np.zeros((n + 1, n + 1), dtype=np.int8)
    adj[1:, 1:] = graph.adjacency
    adj[0, 1:] = 1
    adj[1:, 0] = 1
    node_features = np.concatenate(
        [graph.node_features.sum(axis=0, keepdims=True), graph.node_features], axis=0)
    edge_features = np.zeros((n + 1, n + 1) + graph.edge_features.shape[2:], dtype=np.float32)
    edge_features[1:, 1:] = graph.edge_features
    node_mask = np.concatenate([[0.0], graph.node_mask]).astype(np.float32)
    edge_mask = np.zeros((n + 1, n + 1), dtype=np.float32)
    edge_mask[1:, 1:] = graph.edge_mask
    return ModeledGraph(adjacency=adj, node_features=node_features,
                        edge_features=edge_features, node_mask=node_mask,
                        edge_mask=edge_mask, has_master=True)


def split_subexpressions(graph, aligned, config):
    """Cut a local graph into consecutive chunks of at most n_max strokes.

    A chunk is strokes [lo, hi), not padded: its arrays are views of the
    graph's and the labels' arrays, and only its masks are copies. A stroke
    whose same-symbol partner falls outside its chunk keeps its features but
    is dropped from the loss (node and incident edges). With a global config
    each chunk gets a master node linked to its own strokes only. Returns
    list of (graph, aligned) chunks.
    """
    if graph.has_master:
        raise GraphError("split before augmenting, not after")
    from .labels import AlignedLabels  # local import to avoid a cycle at module load

    n = graph.num_nodes
    chunks = []
    for lo in range(0, n, config.n_max):
        hi = min(lo + config.n_max, n)
        sl = slice(lo, hi)
        broken = [b - lo for b in _strokes_with_partner_outside(aligned, lo, hi)]
        node_mask = graph.node_mask[sl].copy()
        node_mask[broken] = 0.0
        edge_mask = graph.edge_mask[sl, sl].copy()
        edge_mask[broken, :] = 0.0
        edge_mask[:, broken] = 0.0
        chunk_graph = ModeledGraph(adjacency=graph.adjacency[sl, sl],
                                   node_features=graph.node_features[sl],
                                   edge_features=graph.edge_features[sl, sl],
                                   node_mask=node_mask, edge_mask=edge_mask)
        if config.global_graph:
            chunk_graph = augment_global(chunk_graph)
        chunk_labels = AlignedLabels(node_ids=aligned.node_ids[sl],
                                     edge_ids=aligned.edge_ids[sl, sl],
                                     order_adj=aligned.order_adj[sl, sl])
        chunks.append((chunk_graph, chunk_labels))
    return chunks


def _strokes_with_partner_outside(aligned, lo, hi):
    """Strokes in [lo, hi) sharing a '*' edge with a stroke outside the window."""
    from .labels import POSITIONAL_RELATIONS

    broken = set()
    star_id = 2 * len(POSITIONAL_RELATIONS)
    for i, j in zip(*np.nonzero(aligned.order_adj)):
        if aligned.edge_ids[i, j] != star_id:
            continue
        ii, jj = int(i), int(j)
        in_i = lo <= ii < hi
        in_j = lo <= jj < hi
        if in_i != in_j:
            broken.add(ii if in_i else jj)
    return broken


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(graph):
    """Self-contained JSON dump: shapes, row-major adjacency/masks, base64
    little-endian float32 feature blobs."""

    def blob(arr):
        return base64.b64encode(
            np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode("ascii")

    doc = {
        "n": graph.num_nodes,
        "has_master": graph.has_master,
        "adjacency": [int(v) for v in graph.adjacency.reshape(-1)],
        "node_mask": [float(v) for v in graph.node_mask],
        "edge_mask": [float(v) for v in graph.edge_mask.reshape(-1)],
        "node_feature_shape": list(graph.node_features.shape),
        "edge_feature_shape": list(graph.edge_features.shape),
        "node_features": blob(graph.node_features),
        "edge_features": blob(graph.edge_features),
    }
    return json.dumps(doc, sort_keys=True)

