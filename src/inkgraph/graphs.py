"""Stroke graphs: visibility adjacency, directional edge features, splitting.

Strokes become nodes. Adjacency is line-of-sight visibility between convex
hulls, symmetrized, plus temporal edges between consecutive strokes. Edge
features are fuzzy directional memberships and distances from the source
stroke's centroid to downsampled points of the target stroke.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .engine import Config
from .ink import ResampledStroke, normalize_expression, resample_stroke
from .labels import SAME_SYMBOL_ID, AlignedLabels

_EPS = np.finfo(np.float64).eps


class GraphError(Exception):
    pass


@dataclass
class GraphConfig(Config):
    """Graph-construction knobs: sample counts, chunk size, master node, FC ablation."""

    error = GraphError

    d_n: int = 150
    d_e: int = 10
    n_max: int = 16
    global_graph: bool = True
    full_connect: bool = False

    def __post_init__(self):
        super().__post_init__()
        for name, low in (("d_n", 2), ("d_e", 1), ("n_max", 2)):
            if getattr(self, name) < low:
                raise GraphError(f"{name} must be >= {low}, got {getattr(self, name)}")

    @property
    def edge_dim(self):
        return 5 * self.d_e


@dataclass
class ModeledGraph:
    """Attributed stroke graph: what the model reads, with one edge_features row
    per directed edge in `edges` order. Targets and masks live on AlignedLabels."""

    adjacency: np.ndarray
    node_features: np.ndarray
    edge_features: np.ndarray
    has_master: bool = False

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=np.int8)
        self.node_features = np.asarray(self.node_features, dtype=np.float32)
        self.edge_features = np.asarray(self.edge_features, dtype=np.float32)
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
        if (self.node_features.shape[0] != n or self.edge_features.ndim != 2
                or self.edge_features.shape[0] != np.count_nonzero(self.adjacency)):
            raise GraphError("feature shapes disagree with adjacency")

    @property
    def edges(self):
        """(src, dst) of the directed edges, row-major: the row order of edge_features."""
        return np.nonzero(self.adjacency)

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

    Degenerate inputs give 1 (point) or 2 (segment) vertices, and no points
    give none.
    """
    # rows sorted by x, then y, each row dropped that equals the one before
    # (as values: -0.0 equals 0.0); the sort is stable, so the first of equal
    # rows in input order stays
    pts = np.asarray(points, dtype=np.float64)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    fresh = np.ones(pts.shape[0], dtype=bool)
    fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[fresh]
    if pts.shape[0] <= 1:
        return pts
    # Python floats are IEEE doubles: the chain does the same arithmetic as on
    # NumPy scalars, several times faster
    pts = pts.tolist()
    return np.array(_half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1])


def _half_hull(pts):
    """One monotone chain over sorted pts, popping non-left turns; the two
    ends are the first and last point, so collinear input keeps both. The
    chain's top point is kept in locals as well as in the list."""
    chain = pts[:1]
    ax, ay = pts[0]
    for p in pts[1:]:
        px, py = p
        while len(chain) >= 2:
            ox, oy = chain[-2]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            chain.pop()
            ax, ay = ox, oy
        chain.append(p)
        ax, ay = px, py
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

    Every ray is built once. Each polygon hull k then clips, by Cyrus-Beck,
    only the rays not yet blocked whose bounding box meets k's bounding box
    grown by a margin. A ray is blocked when its parameter interval [t0, t1],
    clipped against the hull's edge half-planes, keeps a length above 1e-9.
    Segment hulls (exactly collinear strokes) then block by crossing; point
    hulls block nothing.

    The cull drops no hit. Per edge, the rounding of num - t * denom, read as
    a distance from the edge's line, is below h = 32 * eps * S + 1e-15 / l:
    S is the largest coordinate magnitude in the scene, l the hull's
    shortest edge, and the second term is the parallel threshold. So a ray
    the clip counts as a hit has a point inside every edge half-plane pushed
    out by h. Those half-planes meet within h / sin(phi / 2) of the hull,
    phi being its sharpest corner; the margin is four times that. A sliver
    hull (phi near 0) gets no finite margin and so meets every ray. Before
    the full clip, each hull clips its selection against the two edges at
    its sharpest corner alone. That is exact too: fewer edges can only raise
    t1 and lower t0, so a ray those two edges pass is no hit of the hull.
    Segment hulls are not culled: their test compares products of cross
    products with an absolute 1e-9, which has no bound in the scene's scale.
    """
    n = len(strokes)
    vis = np.zeros((n, n), dtype=np.int8)
    if n < 2:
        return vis
    hulls = [convex_hull(s.coords.T) for s in strokes]
    centers = np.array([hull_centroid(h) for h in hulls])
    vertices = np.concatenate(hulls)
    owner = np.repeat(np.arange(n), [h.shape[0] for h in hulls])
    # every ray: from a source centroid p to each vertex q of another hull
    src, row = np.nonzero(owner != np.arange(n)[:, None])
    tgt = owner[row]
    p, q = centers[src].T, vertices[row].T
    d = q - p
    seg_len = np.hypot(d[0], d[1])
    # the rays not yet blocked, and their bounding boxes (lo_x, lo_y, hi_x, hi_y)
    alive = np.arange(src.size)
    box = np.concatenate([np.minimum(p, q), np.maximum(p, q)])
    polygons = [k for k in range(n) if hulls[k].shape[0] >= 3]
    if polygons:
        scale = max(np.abs(vertices).max(), np.abs(centers).max())
        a, nx, ny, spans, corners, bounds = _polygon_edges([hulls[k] for k in polygons], scale)
        # num of every edge against every source centroid, as the clip forms it
        num = nx[:, None] * (a[:, :1] - centers[:, 0]) + ny[:, None] * (a[:, 1:] - centers[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel edges in _clip_hits
        for r, k in enumerate(polygons):
            lo_x, lo_y, hi_x, hi_y = bounds[r]
            near = box[0] <= hi_x
            near &= box[1] <= hi_y
            near &= box[2] >= lo_x
            near &= box[3] >= lo_y
            sel = np.flatnonzero(near)
            ids = alive[sel]
            mine = (src[ids] != k) & (tgt[ids] != k)
            sel, ids = sel[mine], ids[mine]
            # the two edges at the sharpest corner, then all of the hull's edges
            for e in (corners[r], spans[r]):
                if sel.size:
                    hit = _clip_hits(num[e], nx[e], ny[e], src[ids], d[:, ids], seg_len[ids])
                    sel, ids = sel[hit], ids[hit]
            if sel.size:
                live = np.ones(alive.size, dtype=bool)
                live[sel] = False
                alive, box = alive[live], box[:, live]
    for k in range(n):
        if hulls[k].shape[0] == 2:
            ids = alive[(src[alive] != k) & (tgt[alive] != k)]
            hit = _segment_hits(p[:, ids], q[:, ids], d[:, ids], hulls[k])
            alive = np.setdiff1d(alive, ids[hit], assume_unique=True)
    vis[src[alive], tgt[alive]] = 1
    return vis | vis.T


def _polygon_edges(hulls, scale):
    """The edges of CCW polygon hulls, flat: start points a and outward
    normals (nx, ny); then per hull its edge slice, the indices of the two
    edges at its sharpest corner, and its bounding box (lo_x, lo_y, hi_x,
    hi_y) grown by the margin line_of_sight's docstring derives."""
    sizes = np.array([h.shape[0] for h in hulls])
    starts = np.cumsum(sizes) - sizes
    a = np.concatenate(hulls)
    # each edge's successor and predecessor within its own hull
    succ, prev = np.arange(1, a.shape[0] + 1), np.arange(-1, a.shape[0] - 1)
    succ[starts + sizes - 1] -= sizes
    prev[starts] += sizes
    b = a[succ]
    nx, ny = b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]  # inside is left of a->b
    length = np.hypot(nx, ny)
    # |u_prev + u| / 2 = sin(phi / 2) at the corner that edge u leaves
    ux, uy = nx / length, ny / length
    half_sin = np.hypot(ux + ux[prev], uy + uy[prev]) / 2
    sin_lo = np.minimum.reduceat(half_sin, starts) - 1e-15
    h = 32 * _EPS * scale + 1e-15 / np.minimum.reduceat(length, starts)
    with np.errstate(divide="ignore"):
        margin = np.where(sin_lo > 0, 4 * h / sin_lo, np.inf)[:, None]
    spans = [slice(s, s + m) for s, m in zip(starts, sizes)]
    corners = [s.start + int(half_sin[s].argmin()) for s in spans]
    bounds = np.concatenate([np.minimum.reduceat(a, starts) - margin,
                             np.maximum.reduceat(a, starts) + margin], axis=1)
    return a, nx, ny, spans, [[prev[c], c] for c in corners], bounds


def _clip_hits(num, nx, ny, src, d, seg_len):
    """Cyrus-Beck verdicts of rays against edges with outward normals (nx, ny):
    True where the ray keeps a length above 1e-9 inside every edge's
    half-plane. num is (edges, sources), src each ray's source, d (2, rays)
    and seg_len its direction and length. Rays go in blocks of at most 2**16
    (edge, ray) pairs, so memory stays flat on hulls of many edges. min and
    max are exact, so edge order is moot. Parallel edges divide by zero or
    near it; their t is never read, and callers silence the warnings."""
    hit = np.empty(src.size, dtype=bool)
    step = max(1, 2**16 // nx.size)
    for lo in range(0, src.size, step):
        s = slice(lo, lo + step)
        block = num[:, src[s]]
        denom = nx[:, None] * d[0, s] + ny[:, None] * d[1, s]
        parallel = np.abs(denom) < 1e-15
        t = block / denom
        # clip [0, 1]: entering edges raise t0, leaving edges lower t1
        t1 = np.minimum(np.where(denom >= 1e-15, t, 1.0).min(axis=0), 1.0)
        t0 = np.maximum(np.where(denom <= -1e-15, t, 0.0).max(axis=0), 0.0)
        outside = (parallel & (block < 0)).any(axis=0)
        hit[s] = ~outside & ((t1 - t0) * seg_len[s] > 1e-9)
    return hit


def _segment_hits(p, q, d, hull, eps=1e-9):
    """_ray_crosses_segment over (2, rays) arrays, with its float operations.
    The few rays that reach its collinear-overlap branch take the scalar call,
    whose np.dot may round unlike a written-out sum."""
    (ax, ay), (bx, by) = hull
    ex, ey = bx - ax, by - ay
    cross_pa = d[0] * (ay - p[1]) - d[1] * (ax - p[0])
    cross_pb = d[0] * (by - p[1]) - d[1] * (bx - p[0])
    cross_ap = ex * (p[1] - ay) - ey * (p[0] - ax)
    cross_aq = ex * (q[1] - ay) - ey * (q[0] - ax)
    valid = ~(np.hypot(d[0], d[1]) <= eps)
    hit = valid & (cross_pa * cross_pb < -eps) & (cross_ap * cross_aq < -eps)
    hull_len = float(np.hypot(ex, ey))
    if hull_len > eps:
        lim = eps * hull_len
        for r in np.flatnonzero(valid & ~hit & (np.abs(cross_ap) <= lim) & (np.abs(cross_aq) <= lim)):
            hit[r] = _ray_crosses_segment(p[:, r], q[:, r], hull)
    return hit


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
    origins = np.array([s.centroid() for s in strokes])
    samples = np.stack([_target_samples(s, config.d_e) for s in strokes])
    return ModeledGraph(
        adjacency=adj,
        node_features=node_features,
        edge_features=_edge_features(origins, samples, *np.nonzero(adj)),
        has_master=False,
    )


def augment_global(graph):
    """Prepend a master node at index 0: linked to every stroke, feature = sum
    of node features, zero edge features. It has no label, so no loss row."""
    if graph.has_master:
        raise GraphError("graph already has a master node")
    n = graph.num_nodes
    adj = np.zeros((n + 1, n + 1), dtype=np.int8)
    adj[1:, 1:] = graph.adjacency
    adj[0, 1:] = 1
    adj[1:, 0] = 1
    node_features = np.concatenate(
        [graph.node_features.sum(axis=0, keepdims=True), graph.node_features], axis=0)
    rows, cols = np.nonzero(adj)
    edge_features = np.zeros((rows.size, graph.edge_features.shape[1]), dtype=np.float32)
    edge_features[(rows > 0) & (cols > 0)] = graph.edge_features
    return ModeledGraph(adjacency=adj, node_features=node_features,
                        edge_features=edge_features, has_master=True)


def split_subexpressions(graph, aligned, config):
    """Cut a local graph into consecutive chunks of at most n_max strokes.

    A chunk is strokes [lo, hi), not padded: the rows of its strokes and of
    the edges and pairs inside it, whose labels align_labels gives on the
    chunk's own adjacency. A
    stroke whose same-symbol partner falls outside its chunk keeps its
    features but is dropped from the loss: the chunk's masks zero it and
    every pair that touches it. With a global config each chunk gets a master
    node linked to its own strokes only. Returns list of (graph, aligned)
    chunks.
    """
    if graph.has_master:
        raise GraphError("split before augmenting, not after")

    n, k = graph.num_nodes, config.n_max
    chunk_i, chunk_j = aligned.pairs.T // k
    edge_i, edge_j = np.array(graph.edges) // k
    # a '*' pair across a cut breaks both of its strokes
    broken = np.zeros(n, dtype=bool)
    broken[aligned.pairs[(chunk_i != chunk_j) & (aligned.edge_ids == SAME_SYMBOL_ID)]] = True
    node_mask = np.where(broken, 0.0, aligned.node_mask)
    edge_mask = np.where(broken[aligned.pairs].any(axis=1), 0.0, aligned.edge_mask)
    chunks = []
    for lo in range(0, n, k):
        sl = slice(lo, min(lo + k, n))
        inside = (chunk_i == lo // k) & (chunk_j == lo // k)
        chunk_edges = (edge_i == lo // k) & (edge_j == lo // k)
        chunk_graph = ModeledGraph(adjacency=graph.adjacency[sl, sl],
                                   node_features=graph.node_features[sl],
                                   edge_features=graph.edge_features[chunk_edges])
        if config.global_graph:
            chunk_graph = augment_global(chunk_graph)
        chunk_labels = AlignedLabels(node_ids=aligned.node_ids[sl],
                                     pairs=aligned.pairs[inside] - lo,
                                     edge_ids=aligned.edge_ids[inside],
                                     node_mask=node_mask[sl], edge_mask=edge_mask[inside])
        chunks.append((chunk_graph, chunk_labels))
    return chunks


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(graph):
    """Self-contained JSON dump: shapes, row-major adjacency, base64
    little-endian float32 feature blobs."""

    def blob(arr):
        return base64.b64encode(
            np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode("ascii")

    doc = {
        "n": graph.num_nodes,
        "has_master": graph.has_master,
        "adjacency": [int(v) for v in graph.adjacency.reshape(-1)],
        "node_feature_shape": list(graph.node_features.shape),
        "edge_feature_shape": list(graph.edge_features.shape),
        "node_features": blob(graph.node_features),
        "edge_features": blob(graph.edge_features),
    }
    return json.dumps(doc, sort_keys=True)

