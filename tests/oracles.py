"""Independent reference implementations the tests check the library against.

Everything here is written from first principles (loops, sampling, brute
force) rather than reusing library code, so agreement is evidence.
"""

import base64
import itertools
import json

import numpy as np

from inkgraph.graphs import ModeledGraph, _ray_crosses_segment, convex_hull, hull_centroid


def finite_diff_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def naive_conv1d(x, w, stride=1, padding=0, groups=1):
    """Nested-loop 1-D convolution (cross-correlation), grouped."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    bsz, cin, length = x.shape
    cout, cper, k = w.shape
    xp = np.zeros((bsz, cin, length + 2 * padding))
    xp[:, :, padding:padding + length] = x
    lout = (length + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, cout, lout))
    og = cout // groups
    for bi in range(bsz):
        for oc in range(cout):
            gi = oc // og
            for t in range(lout):
                acc = 0.0
                for ic in range(cper):
                    for kk in range(k):
                        acc += xp[bi, gi * cper + ic, t * stride + kk] * w[oc, ic, kk]
                out[bi, oc, t] = acc
    return out


def naive_conv1d_grads(x, w, g, stride=1, padding=0, groups=1):
    """Nested-loop (grad x, grad w) of sum(g * naive_conv1d(x, w, ...))."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    bsz, cin, length = x.shape
    cout, cper, k = w.shape
    xp = np.zeros((bsz, cin, length + 2 * padding))
    xp[:, :, padding:padding + length] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    og = cout // groups
    for bi in range(bsz):
        for oc in range(cout):
            gi = oc // og
            for t in range(g.shape[2]):
                for ic in range(cper):
                    for kk in range(k):
                        pos = t * stride + kk
                        gxp[bi, gi * cper + ic, pos] += g[bi, oc, t] * w[oc, ic, kk]
                        gw[oc, ic, kk] += g[bi, oc, t] * xp[bi, gi * cper + ic, pos]
    return gxp[:, :, padding:padding + length], gw


def unfused_conv_block(x, params, prefix, cin, cout):
    """The encoder's conv block as a chain of single engine ops (conv1d, add,
    reshape, relu), the form the fused sepconv_block replaced."""
    from inkgraph import engine as eg
    from inkgraph.model import ENCODER_KERNEL

    dw = eg.conv1d(x, params[f"{prefix}.dw.w"], stride=1,
                   padding=ENCODER_KERNEL // 2, groups=cin)
    dw = eg.add(dw, eg.reshape(params[f"{prefix}.dw.b"], (1, cin, 1)))
    pw = eg.conv1d(dw, params[f"{prefix}.pw.w"], stride=1, padding=0)
    pw = eg.add(pw, eg.reshape(params[f"{prefix}.pw.b"], (1, cout, 1)))
    act = eg.relu(pw)
    skip = eg.conv1d(x, params[f"{prefix}.proj.w"], stride=1, padding=0)
    skip = eg.add(skip, eg.reshape(params[f"{prefix}.proj.b"], (1, cout, 1)))
    return eg.add(act, skip)


def chained_attention_layer(h, b, edges, params, q, config, train=False, rng=None):
    """model.edge_attention_layer as the chain of single engine ops (matmul,
    gather_rows, concat, leaky_relu, segment_softmax, mul, scatter_rows,
    reshape, tmean, add, dropout) that the fused edge_attention op replaced:
    24 tape nodes per layer. Returns (h', b', attention ndarray)."""
    from inkgraph import engine as eg

    src, dst = edges
    num_nodes, hidden = h.shape
    num_edges = b.shape[0]

    hw = eg.matmul(h, params[f"layer{q}.wh"])
    bw = eg.matmul(b, params[f"layer{q}.wb"])
    hw_dst = eg.gather_rows(hw, dst)
    trip = eg.concat([eg.gather_rows(hw, src), bw, hw_dst], axis=1)
    logits = eg.matmul(trip, params[f"layer{q}.att"])
    alpha = eg.segment_softmax(eg.leaky_relu(logits, config.leaky_slope), src)

    h_msg = eg.scatter_rows(eg.mul(alpha, hw_dst), src, num_nodes)
    b_msg = eg.mul(alpha, bw)

    if config.message_concat:
        # re-widen with the aggregated edge context, then average adjacent
        # feature pairs (nodes) or triples (edges) back to width
        node_cat = eg.concat([h_msg, eg.scatter_rows(b_msg, src, num_nodes)], axis=1)
        h_next = eg.tmean(eg.reshape(node_cat, (num_nodes, hidden, 2)), axis=2)
        edge_cat = eg.concat([eg.gather_rows(h_msg, src), b_msg,
                              eg.gather_rows(h_msg, dst)], axis=1)
        b_next = eg.tmean(eg.reshape(edge_cat, (num_edges, hidden, 3)), axis=2)
    else:
        h_next = h_msg
        b_next = b_msg

    if config.residual:
        h_next = eg.add(h_next, h)
        b_next = eg.add(b_next, b)

    if train and config.dropout > 0:
        h_next = eg.dropout(h_next, config.dropout, rng)
        b_next = eg.dropout(b_next, config.dropout, rng)

    return h_next, b_next, alpha.data[:, 0].copy()


def chained_weighted_loss(logits, labels, weight, denom, gamma=None):
    """One stage's -sum_k weight_k * log p_k / denom over rows, with the focal
    factor (1 - p_k)^gamma when gamma is given; exactly zero without any
    weight: the per-stage loss that train's one-pass stage losses replaced."""
    from inkgraph import engine as eg
    from inkgraph.engine import Tensor
    from inkgraph.train import _onehot

    if logits.shape[0] == 0 or not np.any(weight):
        return Tensor(np.zeros((), dtype=logits.dtype))
    labels = np.asarray(labels, dtype=np.int64)
    logp = eg.log_softmax(logits, axis=1)
    picked = eg.tsum(eg.mul(logp, Tensor(_onehot(labels, logits.shape[1]))), axis=1)
    if gamma is not None:
        focal = eg.pow_scalar(eg.add_const(eg.neg(eg.texp(picked)), 1.0), gamma)
        picked = eg.mul(focal, picked)
    return eg.scale(eg.tsum(eg.mul(picked, Tensor(weight))), -1.0 / denom)


def chained_total_loss(final_node, final_edge, aux_pairs, node_weight=0.5, aux_weight=0.3):
    """node_weight * Ln + (1 - node_weight) * Le plus aux_weight-scaled copies
    of the same blend for every auxiliary stage, folded left to right."""
    from inkgraph import engine as eg

    out = eg.add(eg.scale(final_node, node_weight),
                 eg.scale(final_edge, 1.0 - node_weight))
    for aux_node, aux_edge in aux_pairs:
        stage = eg.add(eg.scale(aux_node, node_weight),
                       eg.scale(aux_edge, 1.0 - node_weight))
        out = eg.add(out, eg.scale(stage, aux_weight))
    return out


def chained_stage_losses(batch, labels, config, per_graph=False):
    """train.graph_losses as one cross-entropy and one focal-loss chain per
    readout stage, blended and folded stage by stage (chained_weighted_loss,
    chained_total_loss): the form before the stages were scored in one pass."""
    from inkgraph.train import _stacked_targets

    nl_cat, nw_cat, el_cat, ew_cat = _stacked_targets(batch, labels, per_graph)
    nw_cat = nw_cat.astype(np.float64)
    ew_cat = ew_cat.astype(np.float64)
    n_denom, e_denom = (1.0, 1.0) if per_graph else (float(nw_cat.sum()), float(ew_cat.sum()))

    def stage_losses(n_logits, e_logits):
        return (chained_weighted_loss(n_logits, nl_cat, nw_cat, n_denom),
                chained_weighted_loss(e_logits, el_cat, ew_cat, e_denom, config.focal_gamma))

    stages = [(batch.node_logits, batch.edge_logits)] + batch.aux
    (final_n, final_e), *aux = [stage_losses(nl, el) for nl, el in stages]
    return chained_total_loss(final_n, final_e, aux,
                              node_weight=config.node_weight, aux_weight=config.aux_weight)


def reduceat_segment_sum(x, ids, num_rows):
    """engine._segment_sum as one reduceat over id-sorted rows for every id
    pattern, the form before distinct ids were placed."""
    out = np.zeros((num_rows,) + x.shape[1:], dtype=x.dtype)
    if ids.size:
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            x, ids = x[order], ids[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        out[ids[starts]] = np.add.reduceat(x, starts, axis=0)
    return out


def whole_array_adam_step(p, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of arrays p, m, v in place, each as one whole-array
    expression (the engine's update before it was blocked)."""
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    update = (m / b1t) / (np.sqrt(v / b2t) + eps)
    p -= (lr * update).astype(p.dtype, copy=False)


def dense_edge_logits(result):
    """(num_strokes, num_strokes, C2) array of the edge logits of a one-graph
    forward result at their support pairs; 0.0 off the support."""
    (support,) = result.supports
    n = result.node_logits.shape[0]
    edge_logits = result.edge_logits.data
    out = np.zeros((n, n, edge_logits.shape[1]), dtype=edge_logits.dtype)
    for k, (i, j) in enumerate(support):
        out[i, j] = edge_logits[k]
    return out


def edge_rows_at(graph, src, dst):
    """The graph's edge feature rows of the directed edges (src, dst), looked
    up through the row-major order of its adjacency."""
    row = np.full(graph.adjacency.shape, -1)
    row[np.nonzero(graph.adjacency)] = np.arange(graph.edge_features.shape[0])
    assert np.all(row[src, dst] >= 0), "not an edge of the graph"
    return graph.edge_features[row[src, dst]]


def dense_attention(result, graph):
    """Per layer, the (num_nodes, num_nodes) matrix of a one-graph forward
    result's attention: each directed edge's weight at (source, target) of
    the graph's adjacency, 0.0 elsewhere."""
    (_,) = result.supports
    rows, cols = np.nonzero(graph.adjacency)
    mats = []
    for alpha in result.attention:
        assert alpha.shape == rows.shape
        mat = np.zeros((graph.num_nodes, graph.num_nodes), dtype=alpha.dtype)
        mat[rows, cols] = alpha
        mats.append(mat)
    return mats


def interleaved_forward(graphs, params, config):
    """(node_logits, edge_logits, aux) of model.forward over a list of graphs,
    with every auxiliary readout run right after its stage: the order forward
    used for all calls before it deferred those readouts outside a tape."""
    from inkgraph import engine as eg
    from inkgraph import model

    src, dst, edge_rows, strokes, sup_edges = [], [], [], [], []
    node_base = edge_base = 0
    for g in graphs:
        off = 1 if g.has_master else 0
        rows, cols = np.nonzero(g.adjacency)
        src.append(rows + node_base)
        dst.append(cols + node_base)
        edge_rows.append(g.edge_features)
        strokes.append(np.arange(node_base + off, node_base + g.num_nodes))
        sup_edges.append(np.flatnonzero((rows >= off) & (cols > rows)) + edge_base)
        node_base += g.num_nodes
        edge_base += rows.size
    edges = (np.concatenate(src), np.concatenate(dst))
    strokes, sup_edges = np.concatenate(strokes), np.concatenate(sup_edges)
    dtype = params["enc.out.w"].dtype
    h0 = model.node_embed(np.concatenate([g.node_features for g in graphs]).astype(dtype), params)
    b0 = model._readout("edge", params, eg.Tensor(np.concatenate(edge_rows).astype(dtype)))
    h0_strokes, b0_support = eg.gather_rows(h0, strokes), eg.gather_rows(b0, sup_edges)

    def readout(prefix, h, b):
        node_in = eg.concat([eg.gather_rows(h, strokes), h0_strokes], axis=1)
        edge_in = eg.concat([eg.gather_rows(b, sup_edges), b0_support], axis=1)
        return (model._readout(f"{prefix}.node", params, node_in),
                model._readout(f"{prefix}.edge", params, edge_in))

    h, b, aux = h0, b0, []
    for q in range(config.layers):
        if config.aux_readouts:
            aux.append(readout(f"read.aux{q}", h, b))
        h, b, _ = model.edge_attention_layer(h, b, edges, params, q, config)
    return (*readout("read.final", h, b), aux)


def graph_from_json(text):
    """The ModeledGraph of a graphs.graph_to_json dump (`build-graph` output)."""
    doc = json.loads(text)

    def unblob(b64, shape):
        raw = base64.b64decode(b64)
        return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)

    n = doc["n"]
    return ModeledGraph(
        adjacency=np.array(doc["adjacency"], dtype=np.int8).reshape(n, n),
        node_features=unblob(doc["node_features"], doc["node_feature_shape"]),
        edge_features=unblob(doc["edge_features"], doc["edge_feature_shape"]),
        has_master=doc["has_master"],
    )


# ---------------------------------------------------------------------------
# geometry


def _hull_of(points):
    """Monotone chain, rewritten here: returns CCW vertices (1 or 2 for
    degenerate inputs)."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return np.array(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2:
        return np.array(hull)
    return np.array(hull)


def _boundary_samples(hull, count):
    """Points spread uniformly along the hull's perimeter."""
    if hull.shape[0] == 1:
        return np.repeat(hull, count, axis=0)
    closed = np.vstack([hull, hull[:1]]) if hull.shape[0] > 2 else hull
    seg = np.diff(closed, axis=0)
    lens = np.hypot(seg[:, 0], seg[:, 1])
    total = lens.sum()
    if total == 0:
        return np.repeat(hull[:1], count, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    targets = np.linspace(0.0, total, count, endpoint=False)
    out = np.empty((count, 2))
    for idx, t in enumerate(targets):
        s = np.searchsorted(cum, t, side="right") - 1
        s = min(s, len(seg) - 1)
        u = (t - cum[s]) / lens[s] if lens[s] > 0 else 0.0
        out[idx] = closed[s] + u * seg[s]
    return out


def _crossing_number_inside(pts, hull):
    """Even-odd interior test for pts (..., 2); boundary points unspecified."""
    a = hull
    b = np.roll(hull, -1, axis=0)
    x = pts[..., 0, None]
    y = pts[..., 1, None]
    dy = b[:, 1] - a[:, 1]
    straddles = (a[:, 1] > y) != (b[:, 1] > y)
    xint = a[:, 0] + (y - a[:, 1]) * (b[:, 0] - a[:, 0]) / np.where(dy == 0, 1.0, dy)
    return (np.sum(straddles & (x < xint), axis=-1) % 2) == 1


def _near_boundary(pts, hull, shrink=1e-9):
    """Points of pts (..., 2) within `shrink` of any hull edge."""
    a = hull
    b = np.roll(hull, -1, axis=0)
    d = b - a
    ln2 = (d * d).sum(axis=1)
    rel = pts[..., None, :] - a
    t = (rel * d).sum(axis=-1) / np.where(ln2 == 0, 1.0, ln2)
    proj = a + t[..., None] * d
    dist = np.linalg.norm(pts[..., None, :] - proj, axis=-1)
    return ((ln2 > 0) & (t >= 0.0) & (t <= 1.0) & (dist < shrink)).any(axis=-1)


def _points_in_polygon(pts, hull, shrink=1e-9):
    """Strict interior test (crossing number) for pts (..., 2); points within
    `shrink` of the boundary do not count. Degenerate hulls have no interior."""
    pts = np.asarray(pts, dtype=np.float64)
    if hull.shape[0] < 3:
        return np.zeros(pts.shape[:-1], dtype=bool)
    inside = _crossing_number_inside(pts, hull)
    if inside.any():
        sel = inside.nonzero()
        inside[sel] &= ~_near_boundary(pts[sel], hull, shrink)
    return inside


def _proper_cross(P, Q, a, b, eps=1e-12):
    """Do open segments P[r]->Q[r] cross segment ab at interior points?"""

    def orient(ox, oy, ux, uy, vx, vy):
        return (ux - ox) * (vy - oy) - (uy - oy) * (vx - ox)

    px, py = P[:, 0], P[:, 1]
    qx, qy = Q[:, 0], Q[:, 1]
    d1 = orient(a[0], a[1], b[0], b[1], px, py)
    d2 = orient(a[0], a[1], b[0], b[1], qx, qy)
    d3 = orient(px, py, qx, qy, np.full_like(px, a[0]), np.full_like(py, a[1]))
    d4 = orient(px, py, qx, qy, np.full_like(px, b[0]), np.full_like(py, b[1]))
    proper = (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & \
             (((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps)))
    # collinear overlap with positive length also blocks a ray
    collinear = (np.abs(d1) <= eps) & (np.abs(d2) <= eps) & \
                (np.abs(d3) <= eps) & (np.abs(d4) <= eps)
    axis = 0 if abs(b[0] - a[0]) >= abs(b[1] - a[1]) else 1
    lo1 = np.minimum(P[:, axis], Q[:, axis])
    hi1 = np.maximum(P[:, axis], Q[:, axis])
    lo2, hi2 = sorted((a[axis], b[axis]))
    overlap = np.minimum(hi1, hi2) - np.maximum(lo1, lo2) > eps
    return proper | (collinear & overlap)


_PROBE_TS = np.linspace(0.02, 0.98, 100)


def _rays_blocked(P, Q, hull, ts=None, interior_samples=None):
    """Which segments P[r]->Q[r] does this hull block?

    A ray is blocked when some probe point along it lies strictly inside the
    hull. The crossing-number test runs on every probe; the boundary-proximity
    exclusion only needs to run until one strictly interior probe is found per
    ray, so it is evaluated lazily (first candidate, then the rest of the ray
    only if that candidate sat on the boundary)."""
    if hull.shape[0] >= 3:
        if ts is None:
            ts = (_PROBE_TS if interior_samples is None
                  else np.linspace(0.02, 0.98, interior_samples))
        probes = P[:, None, :] + ts[None, :, None] * (Q - P)[:, None, :]
        inside = _crossing_number_inside(probes, hull)
        blocked = inside.any(axis=1)
        hit = blocked.nonzero()[0]
        if hit.size:
            first = inside[hit].argmax(axis=1)
            excluded = _near_boundary(probes[hit, first], hull)
            for r in hit[excluded]:
                blocked[r] = _points_in_polygon(probes[r], hull).any()
        return blocked
    if hull.shape[0] == 2:
        return _proper_cross(P, Q, hull[0], hull[1])
    return np.zeros(P.shape[0], dtype=bool)


def _rays_blocked_staged(P, Q, hull):
    """Same predicate as _rays_blocked with the full probe grid, evaluated as a
    coarse pass (every 10th probe) plus a fine pass on the survivors."""
    if hull.shape[0] < 3:
        return _rays_blocked(P, Q, hull)
    coarse = _PROBE_TS[::10]
    fine = np.concatenate([_PROBE_TS[k::10] for k in range(1, 10)])
    blocked = _rays_blocked(P, Q, hull, ts=coarse)
    alive = ~blocked
    if alive.any():
        blocked[alive] = _rays_blocked(P[alive], Q[alive], hull, ts=fine)
    return blocked


def _fan_centroid(hull):
    """Area centroid by fan triangulation (degenerate hulls: vertex mean)."""
    if hull.shape[0] < 3:
        return hull.mean(axis=0)
    a = hull[0]
    centers, weights = [], []
    for k in range(1, hull.shape[0] - 1):
        b, c = hull[k], hull[k + 1]
        w = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])) / 2.0
        centers.append((a + b + c) / 3.0)
        weights.append(w)
    weights = np.array(weights)
    if weights.sum() == 0:
        return hull.mean(axis=0)
    return np.average(np.array(centers), axis=0, weights=weights)


def brute_force_visibility(stroke_coords, rays_per_pair=10000):
    """Sampled-ray visibility oracle over convex hulls of the given strokes.

    stroke_coords: list of (m, 2) arrays. For each ordered pair, casts rays
    from the source hull's area centroid to `rays_per_pair` points spread
    uniformly along the target hull's boundary; a ray is blocked when an
    interior probe lands strictly inside any other hull (degenerate hulls
    block by proper segment crossing). Symmetrized by OR.
    """
    hulls = [_hull_of(c) for c in stroke_coords]
    centers = [_fan_centroid(h) for h in hulls]
    targets = []
    for h in hulls:
        t = _boundary_samples(h, rays_per_pair)
        # stride-ordered so early chunks already cover the whole perimeter
        order = np.concatenate([np.arange(k, t.shape[0], 20) for k in range(20)])
        targets.append(t[order])
    n = len(hulls)
    vis = np.zeros((n, n), dtype=np.int8)
    chunk = max(1, rays_per_pair // 20)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if vis[j, i]:
                vis[i, j] = 1
                continue
            others = [hulls[k] for k in range(n) if k != i and k != j]
            others.sort(key=lambda h: h.shape[0])  # cheap segment tests first
            seen = False
            full = targets[j]
            for s in range(0, full.shape[0], chunk):
                Q = full[s:s + chunk]
                clear = np.ones(Q.shape[0], dtype=bool)
                P = np.broadcast_to(centers[i], Q.shape)
                for h in others:
                    if not clear.any():
                        break
                    clear[clear] &= ~_rays_blocked_staged(P[clear], Q[clear], h)
                if clear.any():
                    seen = True
                    break
            vis[i, j] = 1 if seen else 0
    out = np.maximum(vis, vis.T)
    np.fill_diagonal(out, 0)
    return out


def _scalar_segment_blocked(p, q, hull, eps=1e-9):
    """Does segment pq pass through hull's interior (or properly cross it when
    the hull is a degenerate point/segment)? One edge at a time."""
    d = q - p
    seg_len = float(np.hypot(*d))
    if seg_len <= eps:
        return False
    if hull.shape[0] >= 3:
        # clip the segment parameter interval against each hull edge half-plane
        t0, t1 = 0.0, 1.0
        m = hull.shape[0]
        for k in range(m):
            a = hull[k]
            b = hull[(k + 1) % m]
            # inside is to the left of a->b (hull is CCW)
            nx, ny = b[1] - a[1], a[0] - b[0]  # outward normal
            denom = nx * d[0] + ny * d[1]
            num = nx * (a[0] - p[0]) + ny * (a[1] - p[1])
            if abs(denom) < 1e-15:
                if num < 0:
                    return False  # parallel and fully outside this edge
                continue
            t = num / denom
            if denom > 0:
                t1 = min(t1, t)
            else:
                t0 = max(t0, t)
            if t0 >= t1:
                return False
        return (t1 - t0) * seg_len > eps
    if hull.shape[0] == 2:
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
    return False  # a point blocks nothing


def scalar_line_of_sight(strokes):
    """Exact oracle for graphs.line_of_sight: the same predicate, one
    (source, target, vertex, occluder, hull edge) at a time.

    It shares the library's convex hulls and centroids, so any difference from
    the vectorized pass lies in the clipping itself and must be exactly zero.
    """
    from inkgraph.graphs import convex_hull, hull_centroid

    n = len(strokes)
    hulls = [convex_hull(s.coords.T) for s in strokes]
    centers = [hull_centroid(h) for h in hulls]
    vis = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if vis[j, i]:
                vis[i, j] = 1
                continue
            occluders = [hulls[k] for k in range(n) if k != i and k != j]
            seen = False
            for vtx in hulls[j]:
                if not any(_scalar_segment_blocked(centers[i], vtx, h) for h in occluders):
                    seen = True
                    break
            if seen:
                vis[i, j] = 1
    out = np.maximum(vis, vis.T)
    np.fill_diagonal(out, 0)
    return out


def per_source_line_of_sight(strokes):
    """graphs.line_of_sight as one dense pass per source stroke: an exact
    oracle for the per-occluder culled pass, with the same clip arithmetic.

    Visibility adjacency: i sees j when some ray from hull(i)'s centroid to a
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


# ---------------------------------------------------------------------------
# graph building, one stroke, hull and pair at a time: exact oracles for the
# vectorized forms in inkgraph.ink and inkgraph.graphs


def _arc_resample_once(pts, d):
    seg = np.hypot(*np.diff(pts, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if total <= 0:
        return np.repeat(pts[:1], d, axis=0)
    target = np.linspace(0.0, total, d)
    x = np.interp(target, cum, pts[:, 0])
    y = np.interp(target, cum, pts[:, 1])
    return np.stack([x, y], axis=1)


def loop_resample_stroke(points, d):
    """Equal-chord resampling of raw (m, 2) points to (2, d) coords: each pass
    recomputes arc positions from the points and targets with np.linspace,
    until the chord spread is at most 1e-9 of the mean or 512 passes."""
    out = _arc_resample_once(np.asarray(points, dtype=np.float64), d)
    for _ in range(512):
        seg = np.hypot(*np.diff(out, axis=0).T)
        m = seg.mean()
        if m <= 0 or (seg.max() - seg.min()) <= 1e-9 * m:
            break
        out = _arc_resample_once(out, d)
    return out.T


def numpy_scalar_convex_hull(points):
    """Andrew monotone chain over NumPy float64 rows; CCW vertices, 1 or 2
    for degenerate inputs."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.shape[0] == 1:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    if hull.shape[0] == 0:
        hull = np.array([pts[0], pts[-1]])
    return hull


_DIRECTIONS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def pair_directional_features(src, dst, d_e):
    """Edge features of one ordered pair of resampled strokes, as float32:
    [right.., left.., up.., down.., distances..] over d_e target samples."""
    origin = src.centroid()
    idx = np.rint(np.linspace(0, dst.num_samples - 1, d_e)).astype(int)
    vec = dst.coords.T[idx] - origin
    dist = np.hypot(vec[:, 0], vec[:, 1])
    safe = np.where(dist > 0, dist, 1.0)
    cosang = np.clip((vec @ _DIRECTIONS.T) / safe[:, None], -1.0, 1.0)
    theta = np.maximum(0.0, 1.0 - (2.0 / np.pi) * np.arccos(cosang))
    theta[dist == 0] = 0.0
    return np.concatenate([theta.T.reshape(-1), dist]).astype(np.float32)


def looped_edge_features(strokes, adjacency, d_e):
    """(n, n, 5 * d_e) edge features, one pair_directional_features call per
    support pair; zero elsewhere."""
    n = len(strokes)
    out = np.zeros((n, n, 5 * d_e), dtype=np.float32)
    for i in range(n):
        for j in range(n):
            if i != j and adjacency[i, j]:
                out[i, j] = pair_directional_features(strokes[i], strokes[j], d_e)
    return out


# ---------------------------------------------------------------------------
# expression-level metric oracle


def _segments_brute(lg):
    """Same-symbol partition by exhaustive closure (no union-find)."""
    n = lg.num_strokes
    groups = [{i} for i in range(n)]
    star = [(a, b) for a, b, r in lg.edges if r == "*"]
    changed = True
    while changed:
        changed = False
        for a, b in star:
            ga = next(g for g in groups if a in g)
            gb = next(g for g in groups if b in g)
            if ga is not gb:
                groups.remove(ga)
                groups.remove(gb)
                groups.append(ga | gb)
                changed = True
    return [frozenset(g) for g in groups]


def brute_force_expression_metrics(pred, gold):
    """Seg/Sym/Rel/Exp/Stru via explicit segment-correspondence enumeration."""
    pseg = _segments_brute(pred)
    gseg = _segments_brute(gold)

    def correspondences():
        """All bijections mapping each gold segment to an identical pred stroke set."""
        if len(pseg) != len(gseg):
            return
        for perm in itertools.permutations(range(len(pseg))):
            if all(gseg[k] == pseg[perm[k]] for k in range(len(gseg))):
                yield perm

    seg = any(True for _ in correspondences())

    def seg_label(lg, segs, k):
        return lg.node_labels[min(segs[k])]

    sym = False
    if seg:
        for perm in correspondences():
            if all(seg_label(gold, gseg, k) == seg_label(pred, pseg, perm[k])
                   for k in range(len(gseg))):
                sym = True
                break

    def triples(lg, segs):
        where = {}
        for k, s in enumerate(segs):
            for i in s:
                where[i] = k
        out = set()
        for a, b, r in lg.edges:
            if r == "*":
                continue
            if where[a] != where[b]:
                out.add((segs[where[a]], segs[where[b]], r))
        return out

    rel = triples(pred, pseg) == triples(gold, gseg)
    stru = seg and rel
    exp = sym and rel
    return {"seg": seg, "sym": sym, "rel": rel, "exp": exp, "stru": stru}
