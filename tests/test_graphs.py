"""Stroke-graph construction tests: hulls, visibility, directional edge
features, master-node augmentation, chunking, and JSON serialization."""

import functools
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from inkgraph import graphs as graphs_module
from inkgraph.engine import load_checkpoint, save_checkpoint
from inkgraph.graphs import (GraphConfig, GraphError, ModeledGraph,
                             _edge_features, _target_samples,
                             add_temporal_edges, augment_global,
                             build_local_graph, convex_hull,
                             directional_features, graph_to_json,
                             hull_centroid, line_of_sight,
                             split_subexpressions)
from inkgraph.ink import (InkExpression, ResampledStroke, Stroke, normalize_expression,
                          resample_stroke)
from inkgraph.labels import (POSITIONAL_RELATIONS, SAME_SYMBOL, AlignedLabels, LabelGraph,
                             Vocabulary, align_labels)
from inkgraph.synth import compose, generate_synthetic

from oracles import (arc_resample_stroke, brute_force_visibility, edge_rows_at, graph_from_json,
                     looped_edge_features, numpy_scalar_convex_hull, pair_directional_features,
                     per_source_line_of_sight, scalar_line_of_sight)


def _resampled(expr, d_n):
    """The strokes build_local_graph links: normalized, then resampled to d_n."""
    return [resample_stroke(s, d_n) for s in normalize_expression(expr).strokes]


@functools.lru_cache(maxsize=None)
def _oracle_scene_exprs():
    """The visibility-oracle gate's 200 scenes (3-6 strokes) and the 15-22
    stroke expressions the exactness tests also run at the paper's d_n."""
    pool = generate_synthetic(seed=2, count=640, max_symbols=4)
    scenes = [expr for expr, _ in pool if 3 <= expr.num_strokes <= 6][:200]
    pool = generate_synthetic(0, 1500, 16)
    long = [expr for expr, _ in pool if 15 <= expr.num_strokes <= 22]
    assert len(scenes) == 200 and len(long) > 50
    return scenes, long


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_graph_config_defaults_and_validation():
    cfg = GraphConfig()
    assert (cfg.d_n, cfg.d_e, cfg.n_max) == (150, 10, 16)
    assert cfg.global_graph and not cfg.full_connect
    assert cfg.edge_dim == 50
    assert GraphConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(GraphError, match="d_n"):
        GraphConfig(d_n=1)
    with pytest.raises(GraphError, match="d_e"):
        GraphConfig(d_e=0)
    with pytest.raises(GraphError, match="n_max"):
        GraphConfig(n_max=1)


@pytest.mark.parametrize("field, value, refusal", [
    ("d_n", 32.5, "is 32.5, not int"),
    ("global_graph", "false", "is 'false', not bool"),
    ("full_connect", 0, "is 0, not bool"),
    ("n_max", True, "is True, not int"),
    ("d_n", np.int64(32), None),   # a NumPy int, stored as int
])
def test_graph_config_fields_take_only_their_type(field, value, refusal):
    if refusal:
        with pytest.raises(GraphError, match=f"^{re.escape(f'{field} {refusal}')}$"):
            GraphConfig(**{field: value})
    else:
        stored = getattr(GraphConfig(**{field: value}), field)
        assert stored == value and type(stored) is int


def test_numpy_int_graph_config_saves_and_reloads(tmp_path):
    # a NumPy int64 field once made the checkpoint's JSON header unwritable
    cfg = GraphConfig(d_n=np.int64(32), n_max=np.int32(8))
    save_checkpoint(tmp_path / "c.ckpt", {}, graph_config=cfg.to_dict())
    header = load_checkpoint(tmp_path / "c.ckpt")
    assert header["graph_config"] == {**GraphConfig().to_dict(), "d_n": 32, "n_max": 8}
    assert GraphConfig.from_dict(header["graph_config"]) == cfg


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def test_convex_hull_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = rng.standard_normal((int(rng.integers(1, 40)), 2))
        hull = convex_hull(pts)
        as_set = {tuple(p) for p in np.asarray(pts)}
        for v in hull:
            assert tuple(v) in as_set  # vertices come from the input
        if hull.shape[0] >= 3:
            m = hull.shape[0]
            area2 = sum(_cross(hull[0], hull[k], hull[k + 1]) for k in range(1, m - 1))
            assert area2 > 0  # counter-clockwise
            for k in range(m):  # every input point inside or on the hull
                a, b = hull[k], hull[(k + 1) % m]
                assert np.all([_cross(a, b, p) >= -1e-9 for p in pts])


def test_convex_hull_degenerate_inputs():
    assert convex_hull([[2.0, 3.0], [2.0, 3.0]]).shape == (1, 2)
    seg = convex_hull([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    assert seg.shape == (2, 2)
    assert {tuple(p) for p in seg} == {(0.0, 0.0), (2.0, 2.0)}
    square = convex_hull([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    assert square.shape == (4, 2)


def test_hull_centroid():
    square = convex_hull([[0, 0], [2, 0], [2, 2], [0, 2], [1.7, 0.3]])
    assert np.allclose(hull_centroid(square), [1.0, 1.0])
    assert np.allclose(hull_centroid(np.array([[0.0, 0.0], [4.0, 0.0]])), [2.0, 0.0])
    assert np.allclose(hull_centroid(np.array([[3.0, 5.0]])), [3.0, 5.0])


def _rs(pts, d=24):
    return resample_stroke(Stroke(np.asarray(pts, dtype=float)), d)


def test_line_of_sight_middle_bar_blocks_outer_bars():
    bars = [_rs([[0.0, y], [1.0, y]]) for y in (0.0, 1.0, 2.0)]
    vis = line_of_sight(bars)
    assert vis[0, 1] == vis[1, 0] == 1
    assert vis[1, 2] == vis[2, 1] == 1
    assert vis[0, 2] == vis[2, 0] == 0


def test_line_of_sight_simple_sum_is_fully_visible():
    expr, _ = compose([("sym", "1"), ("sym", "+"), ("sym", "2")], "sum")
    strokes = _resampled(expr, 32)
    assert len(strokes) == 3
    vis = line_of_sight(strokes)
    want = np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8)
    assert np.array_equal(vis, want)


def test_line_of_sight_is_symmetric_with_zero_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        strokes = [_rs(np.cumsum(rng.standard_normal((6, 2)), axis=0)
                       + rng.uniform(-2, 2, 2)) for _ in range(n)]
        vis = line_of_sight(strokes)
        assert np.array_equal(vis, vis.T)
        assert np.all(np.diag(vis) == 0)


def test_line_of_sight_agrees_with_sampled_ray_oracle():
    rng = np.random.default_rng(2)
    agree = total = 0
    for _ in range(20):
        n = int(rng.integers(3, 7))
        strokes = []
        for _k in range(n):
            base = rng.uniform(-3, 3, size=2)
            pts = base + np.cumsum(rng.standard_normal((rng.integers(2, 8), 2)), axis=0) * 0.5
            strokes.append(_rs(pts))
        vis = line_of_sight(strokes)
        want = brute_force_visibility([s.coords.T for s in strokes],
                                      rays_per_pair=2500)
        iu = np.triu_indices(n, 1)
        agree += int(np.sum(vis[iu] == want[iu]))
        total += len(iu[0])
    assert agree / total >= 0.95, f"visibility agreement {agree}/{total}"


def _hand_built_scenes():
    """Small scenes that reach every branch of the clipping test."""
    def bar(x0, x1, y):
        return _rs([[x0, y], [x1, y]])

    def raw(pts):  # vertices as given: resampling would round the corners
        return ResampledStroke(coords=np.array(pts).T)

    wedge = raw([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    tri = [[0.0, 0.0], [1.0, 0.2], [0.4, 1.0]]
    dot = _rs([[2.5, 0.5], [2.5, 0.5]])
    return {
        # a point hull on the ray blocks nothing
        "dot": ([bar(0.0, 1.0, 0.5), dot, bar(4.0, 5.0, 0.5)], {(0, 2): 1}),
        # an exactly straight stroke is a segment hull; it blocks by crossing
        "segment": ([bar(0.0, 1.0, y) for y in (0.0, 1.0, 2.0)], {(0, 2): 0}),
        # the ray from the left bar runs along the middle bar
        "collinear-overlap": ([bar(0.0, 1.0, 0.0), bar(2.0, 3.0, 0.0),
                               bar(4.0, 5.0, 0.0)], {(0, 2): 0}),
        # horizontal rays parallel to the triangle's bottom edge: one passes
        # through it; one runs below it, inside the wedge of the other two edges
        "parallel-edge": ([wedge, bar(-3.0, -2.0, 0.5), bar(3.0, 4.0, 0.5),
                           bar(-3.0, -2.0, -0.5), bar(3.0, 4.0, -0.5)],
                          {(1, 2): 0, (3, 4): 1}),
        # each dot's ray to the other stops one unit short of a triangle's tip
        "ray-ends-short": ([raw([[0.0, 0.0], [0.0, 0.0]]), raw([[2.0, 0.0], [2.0, 0.0]]),
                            raw([[-3.0, -1.0], [-1.0, 0.0], [-3.0, 1.0]]),
                            raw([[5.0, -1.0], [3.0, 0.0], [5.0, 1.0]])], {(0, 1): 1}),
        "identical": ([_rs(tri), _rs(tri), _rs(np.array(tri) + [3.0, 0.0])], {(0, 1): 1}),
        "n=1": ([_rs(tri)], {}),
        "n=2": ([_rs(tri), bar(3.0, 4.0, 0.0)], {(0, 1): 1}),
    }


def test_line_of_sight_matches_scalar_oracle_exactly():
    hand = _hand_built_scenes()
    hulls = {name: [convex_hull(s.coords.T) for s in strokes]
             for name, (strokes, _) in hand.items()}
    assert hulls["dot"][1].shape[0] == 1
    assert [h.shape[0] for h in hulls["segment"]] == [2, 2, 2]
    assert hulls["parallel-edge"][0].shape[0] == 3
    for name, (strokes, want) in hand.items():
        vis = line_of_sight(strokes)
        assert np.array_equal(vis, scalar_line_of_sight(strokes)), name
        for (i, j), v in want.items():
            assert vis[i, j] == vis[j, i] == v, (name, i, j)

    # the acceptance gate's 200 scenes at its d_n, and long expressions at the
    # paper's d_n, where hulls reach ~90 vertices
    scenes, long = _oracle_scene_exprs()
    scenes = [_resampled(expr, 24) for expr in scenes] + [_resampled(expr, 150) for expr in long]
    for k, strokes in enumerate(scenes):
        assert np.array_equal(line_of_sight(strokes), scalar_line_of_sight(strokes)), k


def _arc(cx, cy, r, lo, hi, d=150):
    """A round stroke: the circular arc from angle lo to hi, resampled."""
    t = np.linspace(lo, hi, 64)
    return _rs(np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=1), d=d)


def _round_scene(count, seed):
    """count closed round strokes (hulls of about 150 vertices) on a jittered
    grid, near enough to hide one another."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(count)))
    return [_arc(*(np.array(divmod(k, side)) * 1.1 + rng.uniform(-0.15, 0.15, 2)),
                 rng.uniform(0.3, 0.55), 0.0, 2 * np.pi) for k in range(count)]


def _bars_and_arcs(bars, arcs):
    """Horizontal bars with integer tablet coordinates (segment hulls), with
    open arcs (polygon hulls) in rows of four between them."""
    strokes = [_rs([[0.0, 4.0 * y], [12.0, 4.0 * y]], d=150) for y in range(bars)]
    strokes += [_arc(1.5 + 3.0 * (k % 4), 2.0 + 4.0 * (k // 4), 1.0, 0.3, 2 * np.pi - 0.3)
                for k in range(arcs)]
    return strokes


def _dot(x, y):
    return ResampledStroke(coords=np.array([[x, x], [y, y]]))


def _grazing_scenes():
    """Rays that touch, graze or just miss a unit square's bounding box, so
    the cull's margin decides whether the square clips them at all; and rays
    along the line of slanted straight strokes, whose hulls are slivers."""
    square = ResampledStroke(coords=np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]]))
    scenes = {}
    for delta in (-1e-9, -1e-15, 0.0, 5e-324, 1e-16, 2.3e-16, 1e-15, 1e-13, 1e-9):
        scenes[f"along the top, {delta:g} above"] = [square, _dot(-1.0, 1.0 + delta),
                                                     _dot(2.0, 1.0 + delta)]
        scenes[f"ends {delta:g} short of the side"] = [square, _dot(-2.0, 0.5), _dot(-delta, 0.5)]
        scenes[f"past the corner, {delta:g} out"] = [square, _dot(0.0, 2.0 + delta),
                                                      _dot(2.0, delta)]
    # three slanted straight strokes on one line: slivers, whose clip
    # reads rounding along that line, so they get no finite margin
    scenes["collinear slivers"] = [_rs([[x, 0.3 * x], [x + 1.0, 0.3 * x + 0.3]], d=150)
                                   for x in (0.0, 2.0, 4.0)]
    scenes["collinear slivers and dots"] = scenes["collinear slivers"] + [
        _dot(-1.0, -0.3), _dot(6.0, 1.8), _dot(1.5, 0.45)]
    return scenes


@functools.lru_cache(maxsize=None)
def _long_expression_strokes():
    """A 53-stroke synthetic expression, normalized and resampled at d 150."""
    expr, _ = generate_synthetic(24, 5, 64)[4]
    assert expr.num_strokes == 53
    return _resampled(expr, 150)


def _check_against_oracles(name, strokes):
    vis = line_of_sight(strokes)
    assert np.array_equal(vis, per_source_line_of_sight(strokes)), name
    if len(strokes) <= 8:
        assert np.array_equal(vis, scalar_line_of_sight(strokes)), name
    return vis


def test_line_of_sight_matches_oracles_on_grazing_rays_and_slivers():
    scenes = _grazing_scenes()
    for name, strokes in scenes.items():
        _check_against_oracles(name, strokes)
    # the rays that clearly miss see, the ones that clearly enter are blocked
    for delta, want in ((1e-9, 1), (-1e-9, 0)):
        for where in (f"along the top, {delta:g} above", f"past the corner, {delta:g} out"):
            assert line_of_sight(scenes[where])[1, 2] == want, where
    assert line_of_sight(scenes["ends 1e-09 short of the side"])[1, 2] == 1
    # the straight slanted strokes are polygon hulls with a corner below the
    # margin's resolution, not segments
    hulls = [convex_hull(s.coords.T) for s in scenes["collinear slivers"]]
    assert all(h.shape[0] >= 3 for h in hulls)
    # so the slivers' boxes cover the whole scene, while the square's grows by
    # a margin above zero: the 1e-13 offsets above fall inside it, 1e-9 outside
    square = convex_hull(scenes["along the top, 0 above"][0].coords.T)
    bounds = graphs_module._polygon_edges(hulls + [square], 5.0)[-1]
    assert np.all(np.abs(bounds[:3]) > 100.0), bounds
    margin = (bounds[3] - [0.0, 0.0, 1.0, 1.0]) * [-1, -1, 1, 1]
    assert np.all((margin > 1e-13) & (margin < 1e-12)), margin


def test_line_of_sight_matches_oracles_on_round_strokes_and_bars():
    round_strokes = _round_scene(16, 0)
    assert min(convex_hull(s.coords.T).shape[0] for s in round_strokes) >= 120
    bars = _bars_and_arcs(4, 8)
    assert [convex_hull(s.coords.T).shape[0] for s in bars[:4]] == [2] * 4
    assert min(convex_hull(s.coords.T).shape[0] for s in bars[4:]) >= 60
    for name, strokes in (("16 round", round_strokes), ("4 bars, 8 arcs", bars),
                          ("2 bars, 4 arcs", _bars_and_arcs(2, 4)),
                          ("6 round", _round_scene(6, 1))):
        vis = _check_against_oracles(name, strokes)
        assert 0 < vis.sum() < len(strokes) * (len(strokes) - 1), name  # some hidden


def test_line_of_sight_matches_per_source_oracle_on_the_recognize_pool():
    # a seeded sample of the expressions recognize draws from, redrawn with pen
    # noise, plus one expression of 53 strokes
    pool = generate_synthetic(0, 1500, 16)
    rng = np.random.default_rng(15)
    for k in rng.choice(len(pool), size=40, replace=False):
        expr = pool[k][0]
        strokes = [Stroke(s.points + rng.normal(0.0, 0.01, s.points.shape), index=s.index)
                   for s in expr.strokes]
        strokes = _resampled(InkExpression(id=expr.id, strokes=strokes), 150)
        vis = line_of_sight(strokes)
        assert np.array_equal(vis, per_source_line_of_sight(strokes)), k
        if len(strokes) <= 4:
            assert np.array_equal(vis, scalar_line_of_sight(strokes)), k
    strokes = _long_expression_strokes()
    assert np.array_equal(line_of_sight(strokes), per_source_line_of_sight(strokes))


# traced peak of line_of_sight on the 53-stroke expression: 45.2 MB for the
# per-source dense pass, 12.7 MB for the per-occluder pass (NumPy 2.4, x86-64)
PEAK_BOUND_MB = 20


def test_line_of_sight_memory_stays_below_the_dense_pass():
    # the dense pass held (rays x all edges) arrays; this bound stops them
    # from coming back
    strokes = _long_expression_strokes()
    tracemalloc.start()
    try:
        line_of_sight(strokes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_MB * 2**20, peak / 2**20


def test_resample_and_convex_hull_match_their_oracles_bit_for_bit():
    scenes, long = _oracle_scene_exprs()
    cases = [(expr, d) for expr in scenes for d in (12, 24, 32, 150)]
    cases += [(expr, 150) for expr in long]
    for k, (expr, d) in enumerate(cases):
        for s in normalize_expression(expr).strokes:
            coords = resample_stroke(s, d).coords
            assert _same_bits(coords, arc_resample_stroke(s.points, d)), (k, d, s.index)
            hull = convex_hull(coords.T)
            assert _same_bits(hull, numpy_scalar_convex_hull(coords.T)), (k, d, s.index)


def test_convex_hull_matches_numpy_scalar_oracle_on_hand_built_points():
    rng = np.random.default_rng(6)
    line = np.linspace(0.0, 1.0, 40)
    cases = {
        "dot": [[0.5, 0.5]],
        "repeated dot": [[1.0, 2.0]] * 3,
        "two points": [[0.0, 0.0], [1.0, 2.0]],
        "repeated points": [[0, 0], [1, 0], [1, 0], [0, 1], [0, 0], [1, 1], [0, 1]],
        "collinear": np.stack([line, 2.0 * line], axis=1),
        "collinear, shuffled with repeats": rng.permutation(
            np.concatenate([np.stack([line, -line], axis=1)] * 2)),
        "negative zeros": [[-0.0, 0.0], [0.0, -0.0], [1.0, -0.0], [-0.0, 1.0], [0.5, 0.5]],
        "integer grid": np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), -1).reshape(-1, 2),
        # resampled straight strokes: long runs collinear to within rounding
        "resampled diagonal": _rs([[0.0, 0.0], [1.0, 0.3]], d=150).coords.T,
        "resampled corner": _rs([[0.0, 0.0], [1.0, 0.3], [1.2, 2.0]], d=150).coords.T,
    }
    cases.update({f"random ints {k}": rng.integers(0, 4, size=(30, 2)).astype(float)
                  for k in range(20)})
    for name, pts in cases.items():
        assert _same_bits(convex_hull(pts), numpy_scalar_convex_hull(pts)), name


def _mixed_count_strokes(expr):
    """An expression's strokes resampled to varying sample counts."""
    counts = itertools.cycle((2, 7, 24, 150))
    return [resample_stroke(s, next(counts)) for s in normalize_expression(expr).strokes]


def test_edge_features_match_per_pair_oracle_bit_for_bit():
    scenes, _ = _oracle_scene_exprs()
    stroke_sets = [_mixed_count_strokes(expr) for expr in scenes]
    # a target sitting on the source centroid (zero distances), -0.0 coordinates
    stroke_sets.append([_rs([[-1.0, 0.0], [1.0, 0.0]], d=2),
                        ResampledStroke(coords=np.zeros((2, 3))),
                        ResampledStroke(coords=np.array([[-0.0, -0.0, 1.0], [0.0, -0.0, 2.0]]))])
    for k, strokes in enumerate(stroke_sets):
        n = len(strokes)
        src, dst = np.nonzero(1 - np.eye(n, dtype=np.int8))
        origins = np.array([s.centroid() for s in strokes])
        for d_e in (1, 3, 10):
            want = np.stack([pair_directional_features(strokes[i], strokes[j], d_e)
                             for i, j in zip(src, dst)])
            samples = np.stack([_target_samples(s, d_e) for s in strokes])
            assert _same_bits(_edge_features(origins, samples, src, dst), want), (k, d_e)
            for i, j, row in zip(src, dst, want):
                assert _same_bits(directional_features(strokes[i], strokes[j], d_e), row), (k, i, j)


@pytest.mark.parametrize("config", [dict(d_n=150), dict(d_n=32), dict(d_n=12),
                                    dict(d_n=32, d_e=3, full_connect=True)],
                         ids=["d_n150", "d_n32", "d_n12", "d_n32-fc"])
def test_build_local_graph_matches_oracle_graph_bit_for_bit(config, monkeypatch):
    cfg = GraphConfig(**config)
    scenes, long = _oracle_scene_exprs()
    exprs = scenes + (long if cfg.d_n == 150 else [])
    built = [build_local_graph(expr, cfg) for expr in exprs]
    # the oracle graph: one-pass arc resampling, NumPy-scalar hulls
    # (line_of_sight looks convex_hull up in its module) and one feature call
    # per support pair
    monkeypatch.setattr(graphs_module, "convex_hull", numpy_scalar_convex_hull)
    for k, (expr, g) in enumerate(zip(exprs, built)):
        strokes = [ResampledStroke(coords=arc_resample_stroke(s.points, cfg.d_n))
                   for s in normalize_expression(expr).strokes]
        if cfg.full_connect:
            adj = np.ones_like(g.adjacency) - np.eye(len(strokes), dtype=np.int8)
        else:
            adj = add_temporal_edges(line_of_sight(strokes))
        assert _same_bits(g.adjacency, adj), k
        assert _same_bits(g.node_features, np.stack([s.coords for s in strokes]).astype(np.float32)), k
        want = looped_edge_features(strokes, adj, cfg.d_e)[np.nonzero(adj)]
        assert _same_bits(g.edge_features, want), k


def test_add_temporal_edges_links_consecutive_strokes_idempotently():
    adj = np.zeros((4, 4), dtype=np.int8)
    out = add_temporal_edges(adj)
    idx = np.arange(3)
    assert np.all(out[idx, idx + 1] == 1) and np.all(out[idx + 1, idx] == 1)
    assert out[0, 2] == 0 and out[0, 3] == 0
    assert np.array_equal(add_temporal_edges(out), out)
    full = np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8)
    assert np.array_equal(add_temporal_edges(full), full)


def test_directional_features_hand_fixture_due_right():
    d_e = 4
    src = _rs([[-1.0, 0.0], [1.0, 0.0]], d=8)  # centroid at the origin
    dst = _rs([[2.0, 0.0], [4.0, 0.0]], d=d_e)
    b = directional_features(src, dst, d_e)
    assert b.shape == (5 * d_e,)
    assert b.dtype == np.float32
    assert np.allclose(b[:d_e], 1.0, atol=1e-6)           # right
    assert np.allclose(b[d_e:4 * d_e], 0.0, atol=1e-6)    # left, up, down
    assert np.allclose(b[4 * d_e:], [2.0, 2.0 + 2 / 3, 2.0 + 4 / 3, 4.0], atol=1e-6)


def test_directional_features_diagonal_shares_membership():
    d_e = 2
    src = _rs([[-1.0, 0.0], [1.0, 0.0]], d=4)
    dst = _rs([[3.0, 3.0], [5.0, 5.0]], d=d_e)  # 45 degrees up-right
    b = directional_features(src, dst, d_e)
    right, left, up, down = (b[k * d_e:(k + 1) * d_e] for k in range(4))
    assert np.allclose(right, 0.5, atol=1e-6)
    assert np.allclose(up, 0.5, atol=1e-6)
    assert np.allclose(left, 0.0) and np.allclose(down, 0.0)


def test_directional_features_zero_distance_sample():
    d_e = 3
    src = _rs([[-1.0, 0.0], [1.0, 0.0]], d=2)  # centroid exactly (0, 0)
    dst = _rs([[0.0, 0.0], [0.0, 0.0]], d=d_e)  # sits on the source centroid
    b = directional_features(src, dst, d_e)
    assert np.array_equal(b, np.zeros(5 * d_e, dtype=np.float32))


def test_directional_features_random_invariants():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d_e = int(rng.integers(1, 12))
        src = _rs(rng.standard_normal((5, 2)), d=8)
        dst = _rs(rng.standard_normal((5, 2)) + rng.uniform(-2, 2, 2), d=16)
        b = directional_features(src, dst, d_e)
        assert b.shape == (5 * d_e,)
        theta = b[:4 * d_e].reshape(4, d_e)
        assert np.all(theta >= 0.0) and np.all(theta <= 1.0)
        assert np.all(theta[0] * theta[1] == 0.0)  # right vs left
        assert np.all(theta[2] * theta[3] == 0.0)  # up vs down
        assert np.all(b[4 * d_e:] >= 0.0)


def _expr(rng, n):
    strokes = [Stroke(np.cumsum(rng.standard_normal((6, 2)), axis=0)
                      + rng.uniform(-4, 4, 2), index=k) for k in range(n)]
    return InkExpression(id="e", strokes=strokes)


def test_build_local_graph_shapes_and_zero_features_off_support():
    rng = np.random.default_rng(4)
    cfg = GraphConfig(d_n=16, d_e=3, n_max=8)
    g = build_local_graph(_expr(rng, 5), cfg)
    assert not g.has_master
    assert g.node_features.shape == (5, 2, 16)
    # one row per directed edge, and no row for a pair the graph does not link
    assert g.edge_features.shape == (np.count_nonzero(g.adjacency), 15)
    assert np.all(g.edge_features.any(axis=1))
    idx = np.arange(4)
    assert np.all(g.adjacency[idx, idx + 1] == 1)  # temporal chain present


def test_build_local_graph_full_connect_ablation():
    rng = np.random.default_rng(5)
    g = build_local_graph(_expr(rng, 4), GraphConfig(d_n=16, d_e=3, full_connect=True))
    want = np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8)
    assert np.array_equal(g.adjacency, want)


def test_modeled_graph_validation():
    ok = dict(node_features=np.zeros((2, 2, 4), dtype=np.float32),
              edge_features=np.zeros((2, 5), dtype=np.float32))
    with pytest.raises(GraphError, match="diagonal"):
        ModeledGraph(adjacency=np.eye(2, dtype=np.int8), **ok)
    with pytest.raises(GraphError, match="symmetric"):
        ModeledGraph(adjacency=np.array([[0, 1], [0, 0]], dtype=np.int8), **ok)
    linked = np.array([[0, 1], [1, 0]], dtype=np.int8)
    g = ModeledGraph(adjacency=linked, **ok)
    assert [e.tolist() for e in g.edges] == [[0, 1], [1, 0]]
    # edge features are rows, one per directed edge: not a dense (n, n, F)
    # array, and not more or fewer rows than edges
    for adjacency, edge_features in ((linked, np.zeros((2, 2, 5))),
                                     (np.zeros((2, 2), dtype=np.int8), np.zeros((2, 5))),
                                     (linked, np.zeros((3, 5))), (linked, np.zeros(2))):
        with pytest.raises(GraphError, match="feature shapes"):
            ModeledGraph(adjacency=adjacency, node_features=ok["node_features"],
                         edge_features=edge_features)


def test_augment_global_master_node_contract():
    rng = np.random.default_rng(6)
    g = build_local_graph(_expr(rng, 4), GraphConfig(d_n=16, d_e=3))
    gg = augment_global(g)
    assert gg.has_master and gg.num_nodes == 5 and gg.num_strokes == 4
    assert np.all(gg.adjacency[0, 1:] == 1) and np.all(gg.adjacency[1:, 0] == 1)
    assert gg.adjacency[0, 0] == 0
    assert np.allclose(gg.node_features[0], g.node_features.sum(axis=0))
    assert np.array_equal(gg.node_features[1:], g.node_features)
    # the master's edges get zero rows; the strokes' edges keep their rows in order
    rows, cols = gg.edges
    master = (rows == 0) | (cols == 0)
    assert master.sum() == 8 and np.all(gg.edge_features[master] == 0.0)
    assert np.array_equal(gg.edge_features[~master], g.edge_features)
    with pytest.raises(GraphError, match="already has a master"):
        augment_global(gg)


def _aligned_for(expr, g, vocab, star_pairs=(), rels=()):
    edges = {(i, j, SAME_SYMBOL) for i, j in star_pairs}
    edges |= set(rels)
    labels = ["1"] * expr.num_strokes
    lg = LabelGraph(node_labels=labels, edges=edges)
    return align_labels(lg, g.adjacency, vocab)


def test_split_short_expression_is_one_unpadded_chunk():
    rng = np.random.default_rng(7)
    cfg = GraphConfig(d_n=16, d_e=3, n_max=8, global_graph=False)
    expr = _expr(rng, 5)
    g = build_local_graph(expr, cfg)
    al = _aligned_for(expr, g, Vocabulary.default())
    chunks = split_subexpressions(g, al, cfg)
    assert len(chunks) == 1
    cg, cl = chunks[0]
    assert cg.num_nodes == 5 and not cg.has_master
    assert np.array_equal(cg.adjacency, g.adjacency)
    assert np.array_equal(cg.node_features, g.node_features)
    assert np.array_equal(cg.edge_features, g.edge_features)
    assert cl.num_nodes == 5
    assert cl.node_mask.tolist() == [1, 1, 1, 1, 1]
    assert np.all(cl.edge_mask == 1)
    assert np.array_equal(cl.node_ids, al.node_ids)
    assert np.array_equal(cl.pairs, al.pairs)
    assert np.array_equal(cl.edge_ids, al.edge_ids)


def test_split_two_chunks_preserve_node_features_of_unmasked_strokes():
    rng = np.random.default_rng(8)
    cfg = GraphConfig(d_n=16, d_e=3, n_max=8, global_graph=False)
    expr = _expr(rng, 10)
    g = build_local_graph(expr, cfg)
    al = _aligned_for(expr, g, Vocabulary.default())
    chunks = split_subexpressions(g, al, cfg)
    assert [cg.num_nodes for cg, _ in chunks] == [8, 2]
    rebuilt = np.concatenate(
        [cg.node_features[cl.node_mask == 1.0] for cg, cl in chunks], axis=0)
    assert np.array_equal(rebuilt, g.node_features)
    assert chunks[1][1].node_mask.tolist() == [1, 1]
    for (cg, cl), (lo, hi) in zip(chunks, [(0, 8), (8, 10)]):
        sl = slice(lo, hi)
        assert np.array_equal(cg.adjacency, g.adjacency[sl, sl])
        assert np.array_equal(cg.edge_features, edge_rows_at(g, *(e + lo for e in cg.edges)))
        assert np.array_equal(cl.node_ids, al.node_ids[sl])
        assert np.array_equal(cl.pairs, np.argwhere(np.triu(g.adjacency[sl, sl], 1)))
        assert np.all(cl.edge_ids == Vocabulary.default().no_edge_id)


def test_split_masks_strokes_whose_symbol_crosses_the_cut():
    rng = np.random.default_rng(9)
    cfg = GraphConfig(d_n=16, d_e=3, n_max=8, global_graph=False,
                      full_connect=True)
    expr = _expr(rng, 10)
    g = build_local_graph(expr, cfg)
    al = _aligned_for(expr, g, Vocabulary.default(), star_pairs=[(7, 8)])
    chunks = split_subexpressions(g, al, cfg)
    c0g, c0l = chunks[0]
    c1g, c1l = chunks[1]
    assert c0l.node_mask.tolist() == [1] * 7 + [0]
    # the 28 pairs of 8 strokes; the 7 that touch stroke 7 are masked
    assert c0l.pairs.shape == (28, 2)
    assert c0l.edge_mask.tolist() == [0.0 if 7 in pair else 1.0 for pair in c0l.pairs.tolist()]
    assert c1l.node_mask.tolist() == [0, 1]  # stroke 8 masked
    assert c1l.pairs.tolist() == [[0, 1]] and c1l.edge_mask.tolist() == [0]
    # masking leaves the source labels' masks alone
    assert np.all(al.node_mask == 1.0) and np.all(al.edge_mask == 1.0)
    # features survive even where the loss is masked
    assert np.array_equal(c0g.node_features[7], g.node_features[7])
    assert np.array_equal(c1g.node_features[0], g.node_features[8])


def _random_symbols(rng, n):
    """A LabelGraph over n strokes: symbols of 1 to 3 consecutive strokes,
    each a '*' clique, and one positional relation, in either direction,
    between a stroke of each symbol and one of the next."""
    segments, lo = [], 0
    while lo < n:
        segments.append(list(range(lo, min(lo + int(rng.integers(1, 4)), n))))
        lo = segments[-1][-1] + 1
    edges = {(a, b, SAME_SYMBOL) for seg in segments for a in seg for b in seg if a < b}
    for left, right in zip(segments, segments[1:]):
        a, b = int(rng.choice(left)), int(rng.choice(right))
        rel = str(rng.choice(POSITIONAL_RELATIONS))
        edges.add((a, b, rel) if rng.random() < 0.5 else (b, a, rel))
    return LabelGraph(node_labels=["1"] * n, edges=edges), segments


@pytest.mark.parametrize("full_connect", [False, True], ids=["visibility", "fc"])
def test_split_chunk_labels_are_the_chunks_own_alignment(full_connect):
    vocab = Vocabulary.default()
    cfg = GraphConfig(d_n=16, d_e=3, n_max=4, full_connect=full_connect)
    rng = np.random.default_rng(12)
    for _ in range(12):
        n = int(rng.integers(5, 12))
        expr = _expr(rng, n)
        lg, segments = _random_symbols(rng, n)
        g = build_local_graph(expr, cfg)
        al = align_labels(lg, g.adjacency, vocab)
        chunks = split_subexpressions(g, al, cfg)
        assert len(chunks) == -(-n // 4)
        for k, (cg, cl) in enumerate(chunks):
            lo, hi = 4 * k, min(4 * k + 4, n)
            # the chunk's stroke edges carry the graph's rows; its master's are zero
            rows, cols = cg.edges
            strokes = (rows > 0) & (cols > 0)
            assert np.array_equal(cg.edge_features[strokes],
                                  edge_rows_at(g, rows[strokes] - 1 + lo, cols[strokes] - 1 + lo))
            assert not cg.edge_features[~strokes].any()
            inside = {(s - lo, d - lo, r) for s, d, r in lg.edges if lo <= min(s, d) <= max(s, d) < hi}
            own = align_labels(LabelGraph(lg.node_labels[lo:hi], inside),
                               g.adjacency[lo:hi, lo:hi], vocab)
            assert np.array_equal(cl.node_ids, own.node_ids)
            assert np.array_equal(cl.pairs, own.pairs) and cl.pairs.dtype == np.int64
            assert np.array_equal(cl.edge_ids, own.edge_ids)
            masked = cl.node_mask == 0
            assert cl.edge_mask.tolist() == [0.0 if masked[i] or masked[j] else 1.0
                                             for i, j in cl.pairs.tolist()]
            if full_connect:
                # every '*' pair is on the support: the strokes cut from their
                # symbol are those whose symbol reaches outside the chunk
                cut = [any(not lo <= t < hi for t in seg) for seg in segments for s in seg
                       if lo <= s < hi]
                assert masked.tolist() == cut


def test_split_augments_each_chunk_when_global():
    rng = np.random.default_rng(10)
    cfg = GraphConfig(d_n=16, d_e=3, n_max=8, global_graph=True)
    expr = _expr(rng, 10)
    g = build_local_graph(expr, cfg)
    al = _aligned_for(expr, g, Vocabulary.default())
    chunks = split_subexpressions(g, al, cfg)
    assert len(chunks) == 2
    for (cg, cl), size in zip(chunks, (8, 2)):
        assert cg.has_master and cg.num_nodes == size + 1
        assert np.all(cg.adjacency[0, 1:] == 1)  # master links only real strokes
        assert cl.num_nodes == size  # labels stay stroke-indexed
    assert np.array_equal(chunks[1][0].node_features[0], g.node_features[8:].sum(axis=0))
    with pytest.raises(GraphError, match="split before augmenting"):
        split_subexpressions(chunks[0][0], chunks[0][1], cfg)


def test_graph_json_round_trip_is_exact():
    rng = np.random.default_rng(11)
    cfg = GraphConfig(d_n=16, d_e=3)
    g = augment_global(build_local_graph(_expr(rng, 5), cfg))
    back = graph_from_json(graph_to_json(g))
    assert back.has_master == g.has_master
    assert np.array_equal(back.adjacency, g.adjacency)
    assert np.array_equal(back.node_features, g.node_features)
    assert np.array_equal(back.edge_features, g.edge_features)
    assert graph_to_json(back) == graph_to_json(g)
    assert json.loads(graph_to_json(g))["edge_feature_shape"] == [np.count_nonzero(g.adjacency), 15]
    # the dump holds what the model reads, and no loss masks
    assert sorted(json.loads(graph_to_json(g))) == [
        "adjacency", "edge_feature_shape", "edge_features", "has_master", "n",
        "node_feature_shape", "node_features"]
