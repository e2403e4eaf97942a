"""Tensor-engine tests: every primitive against central finite differences,
plus optimizer, scheduler, and checkpoint behavior."""

import numpy as np
import pytest

from inkgraph import engine as eg
from inkgraph.engine import (Adam, EngineError, NonFiniteError, PlateauScheduler,
                             ShapeError, Tape, Tensor, backward, load_checkpoint,
                             save_checkpoint)

from oracles import (finite_diff_grad, naive_conv1d, naive_conv1d_grads, reduceat_segment_sum,
                     rel_err, unfused_conv_block, whole_array_adam_step)

TOL = 1e-5
EPS = 1e-6


def _grad_of(build, arrays, wrt):
    """Tape gradient of scalar build(tensors) w.r.t. arrays[wrt]."""
    tensors = {k: Tensor(v.copy(), requires_grad=(k == wrt)) for k, v in arrays.items()}
    with Tape() as tape:
        loss = build(tensors)
        backward(tape, loss)
    return tensors[wrt].grad


def _fd_of(build, arrays, wrt):
    def f(x):
        local = {k: Tensor(v.copy()) for k, v in arrays.items()}
        local[wrt] = Tensor(x.copy())
        return float(build(local).data)

    return finite_diff_grad(f, arrays[wrt], eps=EPS)


def _check(build, arrays):
    for wrt in arrays:
        got = _grad_of(build, arrays, wrt)
        want = _fd_of(build, arrays, wrt)
        err = rel_err(got, want)
        assert err < TOL, f"gradient mismatch for {wrt}: rel err {err:.3g}"


def _weighted(t, rng):
    """Random linear functional so the full Jacobian is exercised."""
    r = Tensor(rng.standard_normal(t.shape))
    return eg.tsum(eg.mul(t, r))


def test_binary_and_unary_primitives_match_finite_differences():
    rng = np.random.default_rng(0)
    for trial in range(5):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        w = {"a": a, "b": b}
        r = rng.standard_normal((3, 4))

        def wsum(t):
            return eg.tsum(eg.mul(t, Tensor(r)))

        _check(lambda t: wsum(eg.add(t["a"], t["b"])), w)
        _check(lambda t: wsum(eg.sub(t["a"], t["b"])), w)
        _check(lambda t: wsum(eg.mul(t["a"], t["b"])), w)
        _check(lambda t: wsum(eg.neg(t["a"])), {"a": a})
        _check(lambda t: wsum(eg.scale(t["a"], -1.7)), {"a": a})
        _check(lambda t: wsum(eg.add_const(t["a"], 0.3)), {"a": a})


def test_matmul_reshape_transpose_broadcast_match_finite_differences():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    r = rng.standard_normal((3, 2))
    _check(lambda t: eg.tsum(eg.mul(eg.matmul(t["a"], t["b"]), Tensor(r))),
           {"a": a, "b": b})

    c = rng.standard_normal((2, 3, 4))
    r2 = rng.standard_normal((4, 6))
    _check(lambda t: eg.tsum(eg.mul(eg.reshape(t["c"], (4, 6)), Tensor(r2))), {"c": c})
    r3 = rng.standard_normal((4, 2, 3))
    _check(lambda t: eg.tsum(eg.mul(eg.transpose(t["c"], (2, 0, 1)), Tensor(r3))),
           {"c": c})
    d = rng.standard_normal((1, 4))
    r4 = rng.standard_normal((3, 4))
    _check(lambda t: eg.tsum(eg.mul(eg.broadcast_to(t["d"], (3, 4)), Tensor(r4))),
           {"d": d})


def test_concat_gather_scatter_match_finite_differences():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 3))
    r = rng.standard_normal((6, 3))
    _check(lambda t: eg.tsum(eg.mul(eg.concat([t["a"], t["b"]], axis=0), Tensor(r))),
           {"a": a, "b": b})

    idx = np.array([3, 0, 3, 1])
    r5 = rng.standard_normal((4, 3))
    _check(lambda t: eg.tsum(eg.mul(eg.gather_rows(t["b"], idx), Tensor(r5))),
           {"b": b})
    r6 = rng.standard_normal((7, 3))
    _check(lambda t: eg.tsum(eg.mul(eg.scatter_rows(t["b"], np.array([6, 0, 2, 6]), 7),
                                    Tensor(r6))), {"b": b})


def test_reductions_and_nonlinearities_match_finite_differences():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4, 2))
    a += np.sign(a) * 0.1  # keep clear of relu/leaky kinks
    r1 = rng.standard_normal((3, 2))
    _check(lambda t: eg.tsum(eg.mul(eg.tsum(t["a"], axis=1), Tensor(r1))), {"a": a})
    r2 = rng.standard_normal((3, 4))
    _check(lambda t: eg.tsum(eg.mul(eg.tmean(t["a"], axis=2), Tensor(r2))), {"a": a})
    _check(lambda t: eg.scale(eg.tmean(t["a"]), 2.5), {"a": a})
    r = rng.standard_normal(a.shape)
    _check(lambda t: eg.tsum(eg.mul(eg.relu(t["a"]), Tensor(r))), {"a": a})
    _check(lambda t: eg.tsum(eg.mul(eg.leaky_relu(t["a"], 0.2), Tensor(r))), {"a": a})
    _check(lambda t: eg.tsum(eg.mul(eg.texp(eg.scale(t["a"], 0.3)), Tensor(r))),
           {"a": a})
    pos = np.abs(a) + 0.5
    _check(lambda t: eg.tsum(eg.mul(eg.tlog(t["p"]), Tensor(r))), {"p": pos})
    _check(lambda t: eg.tsum(eg.mul(eg.pow_scalar(t["p"], 1.5), Tensor(r))), {"p": pos})


def test_tmean_over_short_axes_matches_finite_differences():
    rng = np.random.default_rng(11)
    for shape, axis in (((3, 4, 2), 2), ((3, 4, 3), -1), ((3, 5), 0), ((4, 2, 5), 1)):
        a = rng.standard_normal(shape)
        r = rng.standard_normal(np.delete(np.array(shape), axis))
        _check(lambda t: eg.tsum(eg.mul(eg.tmean(t["a"], axis=axis), Tensor(r))), {"a": a})


def test_tmean_over_short_axes_matches_np_mean_bit_for_bit():
    rng = np.random.default_rng(12)
    for dtype in (np.float32, np.float64):
        for shape, axis in (((41, 16, 2), 2), ((25, 16, 3), 2), ((3, 7), 0),
                            ((5, 2, 4), 1), ((2,), 0), ((1, 3), -1)):
            wide = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
            signed_zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
            for x in (wide, np.full(shape, -0.0), signed_zeros, np.asfortranarray(wide)):
                x = x.astype(dtype)
                got = eg.tmean(Tensor(x), axis=axis).data
                want = np.mean(x, axis=axis)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes(), (dtype, shape, axis)


def test_conv_and_pool_match_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 4, 7))
    w = rng.standard_normal((6, 2, 3))
    r = None

    def build(t):
        out = eg.conv1d(t["x"], t["w"], stride=2, padding=1, groups=2)
        return eg.tsum(eg.mul(out, Tensor(r)))

    r = rng.standard_normal((2, 6, (7 + 2 - 3) // 2 + 1))
    _check(build, {"x": x, "w": w})

    wp = rng.standard_normal((5, 4, 1))
    rp = rng.standard_normal((2, 5, 7))
    _check(lambda t: eg.tsum(eg.mul(eg.conv1d(t["x"], t["wp"]), Tensor(rp))),
           {"x": x, "wp": wp})

    rv = rng.standard_normal((2, 4, 3))
    _check(lambda t: eg.tsum(eg.mul(eg.avg_pool1d(t["x"], 3, 2), Tensor(rv))),
           {"x": x})


def test_softmax_family_matches_finite_differences():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((4, 5))
    mask = rng.random((4, 5)) > 0.4
    mask[0] = False  # fully-masked row stays differentiable (zero everywhere)
    mask[1] = True
    r = rng.standard_normal((4, 5))
    _check(lambda t: eg.tsum(eg.mul(eg.masked_softmax(t["l"], mask, axis=1),
                                    Tensor(r))), {"l": logits})
    _check(lambda t: eg.tsum(eg.mul(eg.log_softmax(t["l"], axis=1), Tensor(r))),
           {"l": logits})


def test_segment_softmax_matches_finite_differences():
    rng = np.random.default_rng(9)
    ids = np.array([0, 0, 0, 2, 2, 5, 6, 6])  # segments 1, 3 and 4 are empty
    logits = rng.standard_normal((8, 2))
    r = rng.standard_normal((8, 2))
    _check(lambda t: eg.tsum(eg.mul(eg.segment_softmax(t["l"], ids), Tensor(r))),
           {"l": logits})


def test_segment_softmax_normalizes_each_run_and_handles_no_rows():
    rng = np.random.default_rng(10)
    ids = np.array([1, 1, 3, 4, 4, 4])
    logits = rng.standard_normal((6, 3)) * 5
    out = eg.segment_softmax(Tensor(logits), ids).data
    for seg in (1, 3, 4):
        rows = ids == seg
        want = np.exp(logits[rows] - logits[rows].max(axis=0))
        assert rel_err(out[rows], want / want.sum(axis=0)) < 1e-12
    assert np.array_equal(out[2], np.ones(3))  # a one-row segment gets weight 1

    # E = 0: no rows, no segments; the gradient is empty too
    t = Tensor(np.zeros((0, 1)), requires_grad=True)
    with Tape() as tape:
        out = eg.segment_softmax(t, np.zeros(0, dtype=np.int64))
        backward(tape, eg.tsum(out))
    assert out.shape == (0, 1) and t.grad.shape == (0, 1)

    with pytest.raises(ShapeError, match="sorted"):
        eg.segment_softmax(Tensor(logits), ids[::-1])
    with pytest.raises(ShapeError, match="one id per row"):
        eg.segment_softmax(Tensor(logits), ids[:5])


def test_scatter_and_gather_match_add_at_on_unsorted_and_empty_indices():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 3))
    for idx in (np.array([4, 0, 4, 2, 0, 4]), np.array([1, 1, 2, 3, 5, 5]),
                np.zeros(0, dtype=np.int64)):
        rows = a[:idx.size]
        want = np.zeros((7, 3))
        np.add.at(want, idx, rows)
        assert rel_err(eg.scatter_rows(Tensor(rows), idx, 7).data, want) < 1e-15

        t = Tensor(a, requires_grad=True)
        g = rng.standard_normal((idx.size, 3))
        with Tape() as tape:
            backward(tape, eg.tsum(eg.mul(eg.gather_rows(t, idx), Tensor(g))))
        want = np.zeros_like(a)
        np.add.at(want, idx, g)
        assert rel_err(t.grad, want) < 1e-15


def test_segment_sum_matches_the_reduceat_path_byte_for_byte():
    # distinct ids are placed, not reduced; the bytes are the reduceat's,
    # signed zeros included
    rng = np.random.default_rng(17)
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((6, 4)).astype(dtype)
        x[1, :2] = -0.0
        x[3] = -0.0
        for ids in ([0, 2, 3, 5, 6, 8], [1, 1, 2, 4, 4, 4], [5, 0, 3, 1, 8, 2],
                    [4, 0, 4, 2, 0, 4], [3], []):
            ids = np.array(ids, dtype=np.int64)
            rows = x[:ids.size]
            for got in (eg._segment_sum(rows, ids, 9), eg._segment_summer(ids, 9)(rows)):
                want = reduceat_segment_sum(rows, ids, 9)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), ids


def test_conv1d_across_group_blocks_matches_naive_oracle_and_finite_differences():
    # the grouped kernel's forward runs one einsum per block of
    # eg._GROUP_BLOCK groups: one channel, a partial block and more groups
    # than one block, depthwise (groups == channels) and with several channels
    # per group. Depthwise at stride 1 takes the banded kernel, so these run at
    # stride 2, which only the grouped kernel serves.
    rng = np.random.default_rng(12)
    block = eg._GROUP_BLOCK
    cases = [(1, 1, 1, 2), (5, 5, 5, 2), (block + 4, block + 4, block + 4, 2),
             (2 * (block + 2), block + 2, block + 2, 2)]
    for cin, cout, groups, stride in cases:
        for padding in (0, 4):
            x = rng.standard_normal((3, cin, 12))
            w = rng.standard_normal((cout, cin // groups, 9))
            for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                got = eg.conv1d(Tensor(x.astype(dtype)), Tensor(w.astype(dtype)),
                                stride=stride, padding=padding, groups=groups)
                want = naive_conv1d(x, w, stride=stride, padding=padding, groups=groups)
                assert got.dtype == dtype and got.shape == want.shape
                assert rel_err(got.data, want) < tol
            r = rng.standard_normal(want.shape)
            _check(lambda t: eg.tsum(eg.mul(eg.conv1d(t["x"], t["w"], stride=stride,
                                                      padding=padding, groups=groups),
                                            Tensor(r))), {"x": x, "w": w})


def test_depthwise_banded_kernel_matches_grouped_kernel_naive_oracle_and_finite_differences():
    # depthwise stride 1 runs on tiles of eg._BAND_TILE outputs: lengths below,
    # at and past one tile, not a multiple of it and the encoder's 150; one
    # stroke and one channel; no, partial and full padding; and a kernel whose
    # K - 1 overlap is wider than the tile
    tile = eg._BAND_TILE
    rng = np.random.default_rng(13)
    cases = [(3, 4, 12, 9, 4), (2, 3, tile, 9, 4), (2, 3, tile + 13, 9, 4),
             (2, 2, 150, 9, 4), (1, 5, 40, 9, 4), (3, 1, 33, 9, 4),
             (2, 3, 20, 3, 0), (2, 3, 20, 3, 2), (2, 2, 50, tile + 8, tile // 2)]
    for bsz, c, length, k, padding in cases:
        x = rng.standard_normal((bsz, c, length))
        w = rng.standard_normal((c, 1, k))
        lout = length + 2 * padding - k + 1
        g = rng.standard_normal((bsz, c, lout))
        want = naive_conv1d(x, w, padding=padding, groups=c)
        want_gx, want_gw = naive_conv1d_grads(x, w, g, padding=padding, groups=c)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            xd, wd = x.astype(dtype), w.astype(dtype)
            out, grads = eg._conv1d_depthwise(xd, wd, 1, padding, c)
            ref, ref_grads = eg._conv1d_grouped(xd, wd, 1, padding, c)
            gx, gw = grads(g.astype(dtype), True, True)
            ref_gx, ref_gw = ref_grads(g.astype(dtype), True, True)
            assert out.dtype == gx.dtype == gw.dtype == dtype
            assert out.shape == want.shape and gx.shape == x.shape and gw.shape == w.shape
            for got, oracle, kernel in ((out, want, ref), (gx, want_gx, ref_gx),
                                        (gw, want_gw, ref_gw)):
                assert rel_err(got, oracle) < tol, (bsz, c, length, k, padding, dtype)
                assert rel_err(got, kernel) < tol, (bsz, c, length, k, padding, dtype)

            t = Tensor(xd, requires_grad=True)
            tw = Tensor(wd, requires_grad=True)
            with Tape() as tape:
                y = eg.conv1d(t, tw, padding=padding, groups=c)
                backward(tape, eg.tsum(eg.mul(y, Tensor(g.astype(dtype)))))
            assert rel_err(y.data, want) < tol
            assert rel_err(t.grad, want_gx) < tol and rel_err(tw.grad, want_gw) < tol
        _check(lambda t: eg.tsum(eg.mul(eg.conv1d(t["x"], t["w"], padding=padding, groups=c),
                                        Tensor(g))), {"x": x, "w": w})


def _block_params(rng, cin, cout, k=9):
    shapes = {"dw.w": (cin, 1, k), "dw.b": (cin,), "pw.w": (cout, cin, 1),
              "pw.b": (cout,), "proj.w": (cout, cin, 1), "proj.b": (cout,)}
    return {f"b.{name}": rng.standard_normal(shape) for name, shape in shapes.items()}


BLOCK_ORDER = ("dw.w", "dw.b", "pw.w", "pw.b", "proj.w", "proj.b")


def test_sepconv_block_matches_the_unfused_op_chain():
    # pooled, it matches the chain followed by a mean over the length axis
    rng = np.random.default_rng(14)
    for bsz, cin, cout, length in ((3, 2, 5, 12), (2, 4, 6, 40), (1, 3, 3, 150)):
        arrays = _block_params(rng, cin, cout)
        arrays["x"] = rng.standard_normal((bsz, cin, length))
        for pool in (False, True):
            g = rng.standard_normal((bsz, cout) if pool else (bsz, cout, length))
            results = []
            for fused in (True, False):
                t = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
                with Tape() as tape:
                    if fused:
                        out = eg.sepconv_block(t["x"], *(t[f"b.{n}"] for n in BLOCK_ORDER),
                                               padding=4, pool=pool)
                    else:
                        out = unfused_conv_block(t["x"], t, "b", cin, cout)
                        if pool:
                            out = eg.tmean(out, axis=2)
                    backward(tape, eg.tsum(eg.mul(out, Tensor(g))))
                assert out.shape == g.shape
                results.append((out.data, {k: v.grad for k, v in t.items()}))
            (out, grads), (ref, ref_grads) = results
            assert rel_err(out, ref) < 1e-12, (length, pool)
            for name in arrays:
                assert rel_err(grads[name], ref_grads[name]) < 1e-12, (length, pool, name)


def test_sepconv_block_matches_finite_differences_and_records_one_node():
    rng = np.random.default_rng(15)
    arrays = _block_params(rng, 3, 4, k=5)
    arrays["x"] = rng.standard_normal((2, 3, 7))
    for pool in (False, True):
        r = rng.standard_normal((2, 4) if pool else (2, 4, 7))

        def build(t):
            out = eg.sepconv_block(t["x"], *(t[f"b.{n}"] for n in BLOCK_ORDER), padding=2,
                                   pool=pool)
            return eg.tsum(eg.mul(out, Tensor(r)))

        _check(build, arrays)
        t = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with Tape() as tape:
            eg.sepconv_block(t["x"], *(t[f"b.{n}"] for n in BLOCK_ORDER), padding=2, pool=pool)
        assert len(tape) == 1
    with pytest.raises(ShapeError, match="sepconv_block"):
        eg.sepconv_block(t["x"], *(t[f"b.{n}"] for n in BLOCK_ORDER), padding=1)


def test_inputs_without_requires_grad_get_none_and_leave_the_rest_bit_identical():
    # matmul, conv1d (both kernels), sepconv_block and edge_attention skip the
    # gradient of an input that needs none; every other input's gradient keeps its bits
    rng = np.random.default_rng(16)
    block = _block_params(rng, 3, 4)
    block["x"] = rng.standard_normal((2, 3, 12))
    cases = [
        (lambda t: eg.matmul(t["a"], t["b"]),
         {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 5))}),
        (lambda t: eg.conv1d(t["x"], t["w"], padding=4, groups=3),
         {"x": rng.standard_normal((2, 3, 12)), "w": rng.standard_normal((3, 1, 9))}),
        (lambda t: eg.conv1d(t["x"], t["w"], stride=2, padding=1, groups=1),
         {"x": rng.standard_normal((2, 3, 12)), "w": rng.standard_normal((4, 3, 3))}),
        (lambda t: eg.sepconv_block(t["x"], *(t[f"b.{n}"] for n in BLOCK_ORDER), padding=4),
         block),
        (lambda t: eg.sepconv_block(t["x"], *(t[f"b.{n}"] for n in BLOCK_ORDER), padding=4,
                                    pool=True), block),
        (lambda t: eg.concat(eg.edge_attention(
            t["h"], t["b"], t["wh"], t["wb"], t["att"], ([0, 0, 1, 2], [1, 2, 0, 1]),
            leaky_slope=0.2, dropout_rate=0.3, rng=4)[:2], axis=0),
         {"h": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 4)),
          "wh": rng.standard_normal((4, 4)), "wb": rng.standard_normal((4, 4)),
          "att": rng.standard_normal((12, 1))}),
    ]
    for build, arrays in cases:
        def grads(frozen):
            t = {k: Tensor(v.astype(np.float32), requires_grad=k != frozen)
                 for k, v in arrays.items()}
            with Tape() as tape:
                out = build(t)
                backward(tape, eg.tsum(eg.mul(out, Tensor(np.ones(out.shape, np.float32)))))
            return {k: v.grad for k, v in t.items()}

        full = grads(None)
        for frozen in arrays:
            part = grads(frozen)
            assert part[frozen] is None
            for k, v in part.items():
                if k != frozen:
                    assert v.tobytes() == full[k].tobytes(), (frozen, k)


def test_dropout_gradient_with_fixed_seed():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 5))
    r = rng.standard_normal((5, 5))
    _check(lambda t: eg.tsum(eg.mul(eg.dropout(t["x"], 0.4, rng=123), Tensor(r))),
           {"x": x})


def test_masked_softmax_examples():
    out = eg.masked_softmax(Tensor(np.array([[5.0, 5.0]])), np.array([[1, 0]]), axis=1)
    assert np.allclose(out.data, [[1.0, 0.0]])

    out = eg.masked_softmax(Tensor(np.full((1, 5), 2.0)),
                            np.array([[1, 1, 0, 1, 0]]), axis=1)
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 0.0, 1 / 3, 0.0]])

    out = eg.masked_softmax(Tensor(np.array([[1.0, 2.0]])), np.array([[0, 0]]), axis=1)
    assert np.array_equal(out.data, [[0.0, 0.0]])


def test_masked_softmax_rows_sum_to_one_and_dead_gradients():
    rng = np.random.default_rng(7)
    for _ in range(20):
        logits = rng.standard_normal((6, 6)) * 5
        mask = rng.random((6, 6)) > 0.3
        t = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            out = eg.masked_softmax(t, mask, axis=1)
            loss = eg.tsum(out)
            backward(tape, loss)
        sums = out.data.sum(axis=1)
        live = mask.any(axis=1)
        assert np.all(np.abs(sums[live] - 1.0) < 1e-6)
        assert np.all(sums[~live] == 0.0)
        assert np.all(out.data[~mask] == 0.0)
        assert np.all(t.grad[~mask] == 0.0)


def test_conv1d_matches_naive_oracle():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 1, 7))
    w = rng.standard_normal((1, 1, 3))
    for stride, padding in [(1, 0), (2, 0), (1, 1), (3, 2)]:
        got = eg.conv1d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        want = naive_conv1d(x, w, stride=stride, padding=padding)
        assert got.shape[2] == (7 + 2 * padding - 3) // stride + 1
        assert rel_err(got.data, want) < 1e-12

    x = rng.standard_normal((3, 6, 11))
    w = rng.standard_normal((9, 2, 4))
    got = eg.conv1d(Tensor(x), Tensor(w), stride=2, padding=3, groups=3)
    want = naive_conv1d(x, w, stride=2, padding=3, groups=3)
    assert rel_err(got.data, want) < 1e-12


def test_shape_errors_name_the_op():
    with pytest.raises(ShapeError, match="matmul"):
        eg.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError, match="conv1d"):
        eg.conv1d(Tensor(np.zeros((1, 4, 5))), Tensor(np.zeros((4, 3, 3))), groups=2)
    with pytest.raises(ShapeError, match="gather_rows"):
        eg.gather_rows(Tensor(np.zeros((3, 2))), np.zeros((2, 2), dtype=np.int64))
    h, b, w = np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((2, 2))
    with pytest.raises(ShapeError, match="edge_attention: shapes"):
        eg.edge_attention(h, b, w, w, np.zeros((4, 1)), ([0, 1], [1, 2]))
    with pytest.raises(ShapeError, match="edge_attention: edges must be sorted"):
        eg.edge_attention(h, b, w, w, np.zeros((6, 1)), ([1, 0], [2, 1]))


def test_non_finite_forward_raises():
    with np.errstate(divide="ignore", over="ignore"):
        with pytest.raises(NonFiniteError):
            eg.tlog(Tensor(np.array([0.0])))
        with pytest.raises(NonFiniteError):
            eg.texp(Tensor(np.array([1000.0])))


def test_nan_in_a_leaf_raises_at_the_first_op_that_computes_on_it():
    leaf = Tensor(np.array([[1.0, np.nan], [2.0, 3.0]]), requires_grad=True)
    # copying ops pass the value on unchecked
    moved = eg.reshape(eg.concat([eg.gather_rows(leaf, [1, 0]), leaf], axis=0), (2, 4))
    assert np.isnan(moved.data).sum() == 2
    with pytest.raises(NonFiniteError, match="^matmul:"):
        eg.matmul(moved, Tensor(np.ones((4, 1))))
    with pytest.raises(NonFiniteError, match="^add:"):
        eg.add(eg.gather_rows(leaf, [0]), Tensor(np.ones((1, 2))))


def test_backward_basics():
    w = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    unused = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = eg.tsum(w)
        grads = backward(tape, loss, params={"w": w, "unused": unused})
    assert np.array_equal(grads["w"], np.ones((2, 3)))
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))

    with Tape() as tape:
        out = eg.scale(w, 2.0)
        with pytest.raises(EngineError, match="scalar"):
            backward(tape, out)


def test_backward_clears_stale_gradients_between_steps():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    v = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = eg.tsum(eg.mul(w, v))
        grads1 = backward(tape, loss, params={"w": w, "v": v})
    with Tape() as tape:
        loss = eg.tsum(w)  # v unreachable this step
        grads2 = backward(tape, loss, params={"w": w, "v": v})
    assert np.array_equal(grads1["v"], np.ones((2, 2)))
    assert np.array_equal(grads2["v"], np.zeros((2, 2)))


def test_gradient_handed_to_two_inputs_is_not_accumulated_into():
    # add hands one array to both inputs; a's second gradient must not land
    # in the array b also holds
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    with Tape() as tape:
        s = eg.add(a, b)
        loss = eg.tsum(eg.add(s, a))
        backward(tape, loss)
    assert np.array_equal(a.grad, [2.0, 2.0])
    assert np.array_equal(b.grad, [1.0, 1.0])


def test_concat_and_reshape_views_into_a_tensor_used_twice():
    rng = np.random.default_rng(13)
    a0, b0, r = (rng.standard_normal(shape) for shape in ((2, 3), (2, 3), (4, 3)))
    # both concats get one gradient array and hand its row slices on; a and b
    # each take a slice of it first and a slice of it second
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    with Tape() as tape:
        c = eg.add(eg.concat([a, b], axis=0), eg.concat([b, a], axis=0))
        backward(tape, eg.tsum(eg.mul(c, Tensor(r))))
    assert np.array_equal(a.grad, r[:2] + r[2:])
    assert np.array_equal(b.grad, r[2:] + r[:2])
    # reshape views of one gradient reach a and b; a is also scaled, and its
    # scaled gradient arrives after the view
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    with Tape() as tape:
        z = eg.tsum(eg.scale(a, 2.0))
        y = eg.add(eg.reshape(a, (6,)), eg.reshape(b, (6,)))
        backward(tape, eg.add(eg.tsum(eg.mul(y, Tensor(r[:2].reshape(6)))), z))
    assert np.array_equal(a.grad, r[:2] + 2.0)
    assert np.array_equal(b.grad, r[:2])


def test_backward_and_adam_never_write_into_gradient_arrays():
    rng = np.random.default_rng(14)
    handed = rng.standard_normal((2, 3))
    kept = handed.copy()
    w = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    for probe_first in (True, False):
        with Tape() as tape:
            # an op whose backward hands `handed` to w; backward runs it
            # before or after the op that brings w's other gradient
            def probe():
                return eg._record("probe", w.data.copy(), (w,),
                                  lambda g: eg._accum(w, handed))
            if probe_first:
                p = probe()
                loss = eg.tsum(eg.add(p, eg.scale(w, 3.0)))
            else:
                s = eg.scale(w, 3.0)
                loss = eg.tsum(eg.add(probe(), s))
            grads = backward(tape, loss, params={"w": w})
        assert np.array_equal(handed, kept)
        assert np.array_equal(grads["w"], kept + 3.0)
    returned = {k: g.copy() for k, g in grads.items()}
    Adam({"w": w}, lr=0.1).step(grads)
    assert all(np.array_equal(grads[k], returned[k]) for k in returned)


def test_single_active_tape_enforced():
    with Tape():
        with pytest.raises(EngineError, match="already active"):
            with Tape():
                pass


def test_adam_zero_gradient_is_fixed_point():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    before = p.data.copy()
    opt.step({"p": np.zeros(2)})
    assert np.array_equal(p.data, before)


def test_adam_single_step_matches_closed_form():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    g = np.array([0.3, -1.2, 2.0])
    p = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=lr, beta1=b1, beta2=b2, eps=eps)
    opt.step({"p": g})
    # one step from zero state: m_hat = g, v_hat = g^2
    want = 1.0 - lr * g / (np.sqrt(g * g) + eps)
    assert rel_err(p.data, want) < 1e-12
    assert np.all(np.sign(1.0 - p.data) == np.sign(g))


def test_adam_zero_lr_leaves_parameters_unchanged():
    p = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.0)
    opt.step({"p": np.array([5.0])})
    assert np.array_equal(p.data, np.array([3.0]))


def test_blocked_adam_matches_whole_array_update_bit_for_bit():
    rng = np.random.default_rng(15)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    ragged = Adam.BLOCK * 5 // 2
    for pdt, gdt in ((np.float32, np.float32), (np.float64, np.float64),
                     (np.float32, np.float64)):
        shapes = {"ragged": (ragged,), "matrix": (3, Adam.BLOCK // 2 + 7),
                  "one": (1,), "empty": (0, 4)}
        params = {k: Tensor(rng.standard_normal(s).astype(pdt), requires_grad=True)
                  for k, s in shapes.items()}
        ref = {k: [p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)]
               for k, p in params.items()}
        opt = Adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        for step in range(1, 6):
            grads = {k: rng.standard_normal(s).astype(gdt) for k, s in shapes.items()}
            grads["one"] *= 1e3
            given = {k: g.copy() for k, g in grads.items()}
            opt.step(grads)
            for k, (p, m, v) in ref.items():
                whole_array_adam_step(p, m, v, grads[k], step, lr, b1, b2, eps)
                assert grads[k].tobytes() == given[k].tobytes()
                assert params[k].data.tobytes() == p.tobytes(), (pdt, gdt, k, step)
                assert opt.m[k].tobytes() == m.tobytes()
                assert opt.v[k].tobytes() == v.tobytes()


def test_adam_rejects_non_contiguous_parameters_and_misshapen_gradients():
    with pytest.raises(EngineError, match="contiguous"):
        Adam({"w": Tensor(np.ones((3, 4)).T, requires_grad=True)}, lr=0.1)
    opt = Adam({"w": Tensor(np.ones((3, 4)), requires_grad=True)}, lr=0.1)
    with pytest.raises(ShapeError, match="'w'"):
        opt.step({"w": np.ones(4)})


def test_plateau_scheduler_rules():
    s = PlateauScheduler(1.0, factor=0.1, patience=20)
    for v in np.linspace(1.0, 0.5, 30):
        s.update(v)
    assert s.lr == 1.0

    s = PlateauScheduler(1.0, factor=0.1, patience=20)
    s.update(1.0)
    for _ in range(20):
        s.update(1.0)
    assert abs(s.lr - 0.1) < 1e-12

    s = PlateauScheduler(1.0, factor=0.1, patience=20)
    s.update(1.0)
    for _ in range(19):
        s.update(1.0)
    s.update(0.9)
    assert s.lr == 1.0


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    params = {
        "w1": Tensor(rng.standard_normal((3, 4)).astype(np.float32)),
        "w2": Tensor(rng.standard_normal((2,)).astype(np.float64)),
    }
    path = tmp_path / "ck.bin"
    save_checkpoint(path, params, vocabulary={"symbols": ["a"], "relations": ["Right"]},
                    model_config={"hidden": 8}, train_config={"lr": 0.1},
                    graph_config={"d_n": 16})
    header = load_checkpoint(path)
    assert header["model_config"] == {"hidden": 8}
    assert header["vocabulary"]["symbols"] == ["a"]
    for name, p in params.items():
        got = header["params"][name]
        assert got.dtype == p.data.dtype
        assert np.array_equal(got, p.data)

    path2 = tmp_path / "ck2.bin"
    save_checkpoint(path2, {k: Tensor(v) for k, v in header["params"].items()},
                    vocabulary=header["vocabulary"], model_config=header["model_config"],
                    train_config=header["train_config"], graph_config=header["graph_config"])
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(EngineError, match="not a checkpoint"):
        load_checkpoint(path)


def test_forward_is_bit_deterministic():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 5)).astype(np.float32)
    a = eg.relu(eg.matmul(Tensor(x), Tensor(x.T)))
    b = eg.relu(eg.matmul(Tensor(x), Tensor(x.T)))
    assert np.array_equal(a.data, b.data)
    d1 = eg.dropout(Tensor(x), 0.5, rng=42)
    d2 = eg.dropout(Tensor(x), 0.5, rng=42)
    assert np.array_equal(d1.data, d2.data)
