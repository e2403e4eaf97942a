"""Ink input tests: InkML parsing, label-graph text format, resampling,
and expression normalization."""

import re

import numpy as np
import pytest

from inkgraph.ink import (InkError, InkExpression, ResampledStroke, Stroke,
                          normalize_expression, parse_inkml, parse_lg,
                          resample_stroke)
from inkgraph.labels import serialize_lg

from oracles import loop_resample_stroke

INKML = """<ink xmlns="http://www.w3.org/2003/InkML">
  <annotation type="UI">2013_expr_042</annotation>
  <annotation type="truth">$1+2$</annotation>
  <trace id="t0">0 0 11, 1 0 12, 2 1 13</trace>
  <trace id="t1">
    3 0, 3 2,
    4 1
  </trace>
</ink>
"""


def test_parse_inkml_namespaced_document():
    expr = parse_inkml(INKML)
    assert expr.id == "2013_expr_042"
    assert expr.annotation == "$1+2$"
    assert expr.num_strokes == 2
    assert np.array_equal(expr.strokes[0].points, [[0, 0], [1, 0], [2, 1]])
    assert np.array_equal(expr.strokes[1].points, [[3, 0], [3, 2], [4, 1]])
    assert [s.index for s in expr.strokes] == [0, 1]

    also = parse_inkml(INKML.encode("utf-8"))
    assert also.id == expr.id
    assert np.array_equal(also.strokes[1].points, expr.strokes[1].points)


def test_parse_inkml_without_identifier_annotation():
    expr = parse_inkml("<ink><trace>0 0, 1 1</trace></ink>")
    assert expr.id == ""
    assert expr.annotation == ""
    assert expr.num_strokes == 1


def test_parse_inkml_malformed_xml_reports_byte_offset():
    payload = b"<ink>\n  <trace>0 0 & 1</trace>\n</ink>"
    with pytest.raises(InkError, match="byte") as exc:
        parse_inkml(payload)
    off = int(re.search(r"byte (\d+)", str(exc.value)).group(1))
    assert 0 <= off <= len(payload)
    assert b"&" in payload[max(0, off - 2):off + 2]


def test_parse_inkml_trace_errors_name_the_trace():
    with pytest.raises(InkError, match="'t7'.*empty trace"):
        parse_inkml('<ink><trace id="t7">   </trace></ink>')
    with pytest.raises(InkError, match="malformed point"):
        parse_inkml("<ink><trace>0 0, banana</trace></ink>")
    with pytest.raises(InkError, match="no traces"):
        parse_inkml("<ink></ink>")


def test_stroke_and_expression_validation():
    with pytest.raises(InkError, match="\\(m, 2\\)"):
        Stroke(np.zeros((3,)))
    with pytest.raises(InkError, match="non-finite"):
        Stroke(np.array([[0.0, np.nan]]))
    with pytest.raises(InkError, match="no strokes"):
        InkExpression(id="e", strokes=[])
    with pytest.raises(InkError, match="0..n-1"):
        InkExpression(id="e", strokes=[Stroke(np.zeros((1, 2)), index=1)])
    s = Stroke(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert s.bbox_diagonal() == 5.0


def test_parse_lg_maps_ids_by_declaration_order():
    text = """# header comment
N, s9, 1, 1.0
N, s1, +, 1.0   # trailing comment

E, s9, s1, Right, 1.0
"""
    lg = parse_lg(text)
    assert lg.node_labels == ["1", "+"]
    assert lg.edges == {(0, 1, "Right")}


def test_parse_lg_round_trips_through_serialize_lg():
    text = ("N, a, x, 1.0\nN, b, 2, 1.0\nN, c, 2, 1.0\n"
            "E, a, b, Sup, 1.0\nE, b, c, *, 1.0\n")
    lg = parse_lg(text)
    again = parse_lg(serialize_lg(lg))
    assert again.node_labels == lg.node_labels
    assert again.edges == lg.edges
    assert serialize_lg(again) == serialize_lg(lg)


def test_parse_lg_errors_carry_line_numbers():
    with pytest.raises(InkError, match="line 2: duplicate stroke id 's0'"):
        parse_lg("N, s0, 1, 1.0\nN, s0, 2, 1.0\n")
    with pytest.raises(InkError, match="line 1: unknown line tag 'Q'"):
        parse_lg("Q, s0, 1, 1.0\n")
    with pytest.raises(InkError, match="line 2: .*undeclared stroke 's5'"):
        parse_lg("N, s0, 1, 1.0\nE, s0, s5, Right, 1.0\n")
    with pytest.raises(InkError, match="line 3: unknown relation label 'Friend'"):
        parse_lg("N, s0, 1, 1.0\nN, s1, 2, 1.0\nE, s0, s1, Friend, 1.0\n")
    with pytest.raises(InkError, match="line 1: N lines take"):
        parse_lg("N, s0, 1\n")
    with pytest.raises(InkError, match="line 1: E lines take"):
        parse_lg("E, s0, s1, Right\n")
    with pytest.raises(InkError, match="label graph is not UTF-8 text"):
        parse_lg(b"N, s0, \xff, 1.0\n")


def _chords(rs):
    return np.hypot(*np.diff(rs.coords, axis=1))


def test_resample_produces_equal_chords_and_keeps_endpoints():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pts = np.cumsum(rng.standard_normal((rng.integers(2, 30), 2)), axis=0)
        rs = resample_stroke(Stroke(pts), 16)
        assert rs.coords.shape == (2, 16)
        seg = _chords(rs)
        assert seg.max() - seg.min() <= 1e-6 * max(seg.mean(), 1e-12)
        assert np.allclose(rs.coords[:, 0], pts[0], atol=1e-9)
        assert np.allclose(rs.coords[:, -1], pts[-1], atol=1e-9)


def test_resample_straight_line_gives_exact_uniform_spacing():
    # irregularly spaced points on x=0 from y=0 to y=10
    y = np.array([0.0, 0.3, 0.35, 4.0, 4.2, 9.0, 10.0])
    pts = np.stack([np.zeros_like(y), y], axis=1)
    rs = resample_stroke(Stroke(pts), 150)
    assert rs.num_samples == 150
    assert np.allclose(rs.coords[0], 0.0)
    assert np.allclose(np.diff(rs.coords[1]), 10.0 / 149.0, atol=1e-9)


def test_resample_is_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pts = np.cumsum(rng.standard_normal((12, 2)), axis=0)
        once = resample_stroke(Stroke(pts), 10)
        twice = resample_stroke(once, 10)
        assert np.max(np.abs(once.coords - twice.coords)) <= 1e-6


def test_resample_zero_length_replicates_the_point():
    rs = resample_stroke(Stroke(np.array([[2.0, -1.0]])), 8)
    assert rs.coords.shape == (2, 8)
    assert np.all(rs.coords[0] == 2.0) and np.all(rs.coords[1] == -1.0)
    rs = resample_stroke(Stroke(np.array([[1.0, 1.0], [1.0, 1.0]])), 4)
    assert np.all(rs.coords == 1.0)


def test_resample_quarter_circle_matches_equal_arc_oracle():
    # on a circle equal chords are equal arcs, so samples sit at equal angles
    theta = np.linspace(0.0, np.pi / 2, 2001)
    pts = np.stack([2.0 * np.cos(theta), 2.0 * np.sin(theta)], axis=1)
    rs = resample_stroke(Stroke(pts), 9)
    want_theta = np.linspace(0.0, np.pi / 2, 9)
    want = np.stack([2.0 * np.cos(want_theta), 2.0 * np.sin(want_theta)])
    assert np.max(np.abs(rs.coords - want)) < 1e-4


def test_resample_matches_loop_oracle_on_hand_built_strokes():
    line = np.linspace(0.0, 3.0, 7)
    cases = {
        "dot": [[0.5, -0.25]],
        "repeated dot": [[1.0, 2.0]] * 4,
        "two points": [[0.0, 0.0], [1.0, 2.0]],
        "repeated points": [[0, 0], [1, 0], [1, 0], [1, 0], [2, 1], [2, 1]],
        "collinear": np.stack([line, 0.5 * line], axis=1),
        "negative zeros": [[-0.0, 0.0], [-0.0, -0.0], [0.0, 1.0], [-0.0, 2.0]],
        "denormal length": [[0.0, 0.0], [5e-324, 0.0]],
        "back and forth": [[0, 0], [2, 0], [1, 0], [3, 1], [0, 0]],
    }
    for name, pts in cases.items():
        pts = np.asarray(pts, dtype=np.float64)
        for d in (2, 3, 12, 150):
            got = resample_stroke(Stroke(pts), d).coords
            want = loop_resample_stroke(pts, d)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, d)
            again = resample_stroke(ResampledStroke(coords=got), d).coords
            assert again.tobytes() == loop_resample_stroke(got.T, d).tobytes(), (name, d)


def test_resample_rejects_tiny_sample_count():
    with pytest.raises(InkError, match="d must be >= 2"):
        resample_stroke(Stroke(np.array([[0.0, 0.0], [1.0, 0.0]])), 1)


def _random_expr(rng, n):
    strokes = [
        Stroke(np.cumsum(rng.standard_normal((5, 2)), axis=0) * rng.uniform(0.5, 3)
               + rng.uniform(-10, 10, size=2), index=k)
        for k in range(n)
    ]
    return InkExpression(id="r", strokes=strokes, annotation="a")


def test_normalize_centers_and_scales():
    rng = np.random.default_rng(2)
    for _ in range(10):
        expr = _random_expr(rng, int(rng.integers(1, 6)))
        norm = normalize_expression(expr)
        assert norm.id == expr.id and norm.annotation == expr.annotation
        pts = np.concatenate([s.points for s in norm.strokes])
        assert np.allclose(pts.mean(axis=0), 0.0, atol=1e-9)
        diag = np.mean([s.bbox_diagonal() for s in norm.strokes])
        assert abs(diag - 1.0) < 1e-9


def test_normalize_is_idempotent_within_tolerance():
    rng = np.random.default_rng(3)
    expr = _random_expr(rng, 4)
    once = normalize_expression(expr)
    twice = normalize_expression(once)
    for a, b in zip(once.strokes, twice.strokes):
        assert np.max(np.abs(a.points - b.points)) <= 1e-6


def test_normalize_invariant_to_translation_and_scale():
    rng = np.random.default_rng(4)
    expr = _random_expr(rng, 3)
    moved = InkExpression(
        id="r",
        strokes=[Stroke(s.points * 7.5 + np.array([100.0, -40.0]), index=s.index)
                 for s in expr.strokes],
        annotation="a",
    )
    a = normalize_expression(expr)
    b = normalize_expression(moved)
    for sa, sb in zip(a.strokes, b.strokes):
        assert np.max(np.abs(sa.points - sb.points)) <= 1e-6


def test_normalize_all_dots_uses_unit_scale():
    expr = InkExpression(
        id="dots",
        strokes=[Stroke(np.array([[1.0, 1.0]]), index=0),
                 Stroke(np.array([[3.0, 1.0]]), index=1)],
    )
    norm = normalize_expression(expr)
    assert np.array_equal(norm.strokes[0].points, [[-1.0, 0.0]])
    assert np.array_equal(norm.strokes[1].points, [[1.0, 0.0]])
