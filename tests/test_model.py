"""Model tests: parameter inventory, embedder oracles, attention-layer
semantics, permutation equivariance, stage wiring, and end-to-end gradients."""

import re
import tracemalloc

import numpy as np
import pytest

from inkgraph import engine as eg
from inkgraph import model as model_module
from inkgraph.engine import Tape, Tensor, backward
from inkgraph.graphs import (GraphConfig, ModeledGraph, augment_global,
                             build_local_graph, split_subexpressions)
from inkgraph.labels import Vocabulary, align_labels
from inkgraph.model import (ENCODER_CHANNELS, ENCODER_KERNEL, BatchResult, ModelConfig,
                            ModelError, edge_attention_layer, forward,
                            init_parameters, node_embed)
from inkgraph.synth import compose, generate_synthetic

from oracles import (chained_attention_layer, dense_attention, dense_edge_logits,
                     edge_rows_at, finite_diff_grad, interleaved_forward, naive_conv1d, rel_err)


def _small_config(**kw):
    base = dict(hidden=8, layers=2, node_classes=5, edge_classes=14,
                readout_hidden=6, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def _randomize(params, rng, scale=0.1):
    # zero-initialized biases would hide wiring mistakes in value oracles
    for p in params.values():
        p.data = (rng.standard_normal(p.data.shape) * scale).astype(p.data.dtype)


def _rand_graph(rng, n, edge_dim, d_n=10, master=False, p_edge=0.6):
    adj = (rng.random((n, n)) < p_edge).astype(np.int8)
    adj = np.triu(adj, 1)
    adj[0, 1] = 1
    adj = adj + adj.T
    ef = rng.standard_normal((n, n, edge_dim))
    g = ModeledGraph(
        adjacency=adj,
        node_features=rng.standard_normal((n, 2, d_n)),
        edge_features=ef[np.nonzero(adj)],
    )
    return augment_global(g) if master else g


# ---------------------------------------------------------------------------
# config and parameters


def test_config_defaults_and_round_trip():
    cfg = ModelConfig()
    assert (cfg.hidden, cfg.layers, cfg.node_classes, cfg.edge_classes) == (512, 5, 101, 14)
    assert (cfg.readout_hidden, cfg.dropout, cfg.leaky_slope) == (384, 0.1, 0.2)
    assert cfg.message_concat and cfg.residual and cfg.aux_readouts
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("field, value, refusal", [
    ("leaky_slope", float("nan"), "is nan, not finite"),
    ("leaky_slope", float("inf"), "is inf, not finite"),
    ("residual", "no", "is 'no', not bool"),
    ("hidden", 64.0, "is 64.0, not int"),
    ("dropout", True, "is True, not float"),
    ("leaky_slope", "0.2", "is '0.2', not float"),
    ("leaky_slope", 1, None),         # an int in a float field
    ("hidden", np.int64(64), None),   # a NumPy int, stored as int
    ("layers", np.int32(2), None),
])
def test_config_fields_take_only_their_type(field, value, refusal):
    if refusal:
        with pytest.raises(ModelError, match=f"^{re.escape(f'{field} {refusal}')}$"):
            ModelConfig(**{field: value})
    else:
        stored = getattr(ModelConfig(**{field: value}), field)
        assert stored == value and type(stored) is int


def test_config_validation():
    with pytest.raises(ModelError, match="even"):
        ModelConfig(hidden=7)
    with pytest.raises(ModelError, match="positive"):
        ModelConfig(hidden=0)
    with pytest.raises(ModelError, match="layer"):
        ModelConfig(layers=0)
    with pytest.raises(ModelError, match="dropout"):
        ModelConfig(dropout=1.0)


def test_parameter_inventory_and_determinism():
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=15, seed=3)
    names = set(params)
    for bi in range(3):
        for part in ("dw", "pw", "proj"):
            assert {f"enc.b{bi}.{part}.w", f"enc.b{bi}.{part}.b"} <= names
    assert {"enc.out.w", "enc.out.b", "edge.l1.w", "edge.l1.b",
            "edge.l2.w", "edge.l2.b"} <= names
    for q in range(cfg.layers):
        assert {f"layer{q}.wh", f"layer{q}.wb", f"layer{q}.att"} <= names
        assert params[f"layer{q}.att"].shape == (3 * cfg.hidden, 1)
        assert params[f"layer{q}.wh"].shape == (cfg.hidden, cfg.hidden)
    for prefix in ("read.final", "read.aux0", "read.aux1"):
        assert params[f"{prefix}.node.l2.w"].shape == (cfg.readout_hidden, cfg.node_classes)
        assert params[f"{prefix}.edge.l2.w"].shape == (cfg.readout_hidden, cfg.edge_classes)
    assert params["edge.l1.w"].shape == (15, cfg.readout_hidden)
    assert all(p.requires_grad for p in params.values())
    assert all(p.data.dtype == np.float32 for p in params.values())

    again = init_parameters(cfg, edge_dim=15, seed=3)
    assert all(np.array_equal(params[k].data, again[k].data) for k in params)
    other = init_parameters(cfg, edge_dim=15, seed=4)
    assert any(not np.array_equal(params[k].data, other[k].data) for k in params)

    lean = init_parameters(_small_config(aux_readouts=False), edge_dim=15)
    assert not any(k.startswith("read.aux") for k in lean)
    assert any(k.startswith("read.final") for k in lean)


# ---------------------------------------------------------------------------
# embedders


def test_node_embed_identical_strokes_identical_rows():
    rng = np.random.default_rng(0)
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=15, seed=0, dtype=np.float64)
    _randomize(params, rng)
    feats = rng.standard_normal((4, 2, 12))
    feats[2] = feats[0]
    out = node_embed(feats, params)
    assert out.shape == (4, cfg.hidden)
    assert np.array_equal(out.data[0], out.data[2])
    assert not np.allclose(out.data[0], out.data[1])


def test_node_embed_matches_numpy_reference():
    rng = np.random.default_rng(1)
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=15, seed=0, dtype=np.float64)
    _randomize(params, rng)
    x = rng.standard_normal((3, 2, 12))

    ref = x
    for bi in range(3):
        cin, cout = ENCODER_CHANNELS[bi], ENCODER_CHANNELS[bi + 1]
        pre = f"enc.b{bi}"
        dw = naive_conv1d(ref, params[f"{pre}.dw.w"].data,
                          padding=ENCODER_KERNEL // 2, groups=cin)
        dw += params[f"{pre}.dw.b"].data.reshape(1, cin, 1)
        pw = naive_conv1d(dw, params[f"{pre}.pw.w"].data)
        pw += params[f"{pre}.pw.b"].data.reshape(1, cout, 1)
        skip = naive_conv1d(ref, params[f"{pre}.proj.w"].data)
        skip += params[f"{pre}.proj.b"].data.reshape(1, cout, 1)
        ref = np.maximum(pw, 0.0) + skip
    ref = ref.mean(axis=2) @ params["enc.out.w"].data + params["enc.out.b"].data

    got = node_embed(x, params).data
    assert rel_err(got, ref) < 1e-12


def test_edge_mlp_feeds_the_stage0_edge_readout():
    rng = np.random.default_rng(2)
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=7, seed=0, dtype=np.float64)
    _randomize(params, rng)
    g = _rand_graph(rng, 5, edge_dim=7, master=True)
    out = forward(g, params, cfg)

    def mlp(x, prefix):
        w1, b1 = params[f"{prefix}.l1.w"].data, params[f"{prefix}.l1.b"].data
        w2, b2 = params[f"{prefix}.l2.w"].data, params[f"{prefix}.l2.b"].data
        return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2

    # one shared MLP embeds every support slot; the stage-0 edge readout sees
    # that embedding as both the stage state and the initial state
    rows = edge_rows_at(g, *(out.supports[0].T + 1))
    b0 = mlp(rows, "edge")
    ref = mlp(np.concatenate([b0, b0], axis=1), "read.aux0.edge")
    assert rel_err(out.aux[0][1].data, ref) < 1e-12


# ---------------------------------------------------------------------------
# attention layer


def _layer_inputs(rng, n, hidden, isolated=None):
    adj = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    drop = np.triu(rng.random((n, n)) < 0.3, 1)
    adj[drop] = 0
    adj[drop.T] = 0
    if isolated is not None:
        adj[isolated, :] = 0
        adj[:, isolated] = 0
    h = Tensor(rng.standard_normal((n, hidden)))
    b = Tensor(rng.standard_normal((n, n, hidden)) * (adj[:, :, None] != 0))
    return h, b, adj


def _edge_list(b, adj):
    """(edges, (E, hidden) state) of a dense (n, n, hidden) edge state."""
    edges = np.nonzero(adj)
    return edges, Tensor(b.data[edges])


def _dense(values, edges, n):
    """(n, n, ...) array holding per-edge values at their edges, zero elsewhere."""
    out = np.zeros((n, n) + values.shape[1:], dtype=values.dtype)
    out[edges] = values
    return out


def test_attention_rows_sum_to_one_on_support():
    rng = np.random.default_rng(3)
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=7, seed=0, dtype=np.float64)
    _randomize(params, rng)
    h, b, adj = _layer_inputs(rng, 7, cfg.hidden, isolated=4)
    edges, be = _edge_list(b, adj)
    _, b_next, att = edge_attention_layer(h, be, edges, params, 0, cfg)
    alpha = _dense(att, edges, 7)

    assert att.shape == (int(adj.sum()),)
    assert np.all(alpha[adj == 0] == 0.0)
    assert np.all(alpha[4] == 0.0) and np.all(alpha[:, 4] == 0.0)
    linked = adj.sum(axis=1) > 0
    assert np.allclose(alpha[linked].sum(axis=1), 1.0, atol=1e-12)
    assert np.all(alpha[adj != 0] > 0.0)
    # edge state exists on the graph's edges only
    assert b_next.shape == (int(adj.sum()), cfg.hidden)


def test_single_neighbor_copies_transformed_source():
    rng = np.random.default_rng(4)
    cfg = _small_config(message_concat=False, residual=False, leaky_slope=1.0)
    params = init_parameters(cfg, edge_dim=7, seed=0, dtype=np.float64)
    _randomize(params, rng)
    adj = np.array([[0, 1], [1, 0]], dtype=np.int8)
    h = Tensor(rng.standard_normal((2, cfg.hidden)))
    b = Tensor(rng.standard_normal((2, 2, cfg.hidden)) * adj[:, :, None])
    edges, be = _edge_list(b, adj)
    h_next, _, att = edge_attention_layer(h, be, edges, params, 0, cfg)

    assert np.array_equal(_dense(att, edges, 2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    hw = h.data @ params["layer0.wh"].data
    assert np.array_equal(h_next.data[0], hw[1])
    assert np.array_equal(h_next.data[1], hw[0])


def test_plain_aggregation_matches_numpy():
    rng = np.random.default_rng(5)
    for residual in (False, True):
        cfg = _small_config(message_concat=False, residual=residual)
        params = init_parameters(cfg, edge_dim=7, seed=0, dtype=np.float64)
        _randomize(params, rng)
        h, b, adj = _layer_inputs(rng, 6, cfg.hidden)
        edges, be = _edge_list(b, adj)
        h_next, b_next, att = edge_attention_layer(h, be, edges, params, 1, cfg)
        alpha = _dense(att, edges, 6)

        hw = h.data @ params["layer1.wh"].data
        bw = b.data @ params["layer1.wb"].data
        want_h = alpha @ hw
        want_b = alpha[:, :, None] * bw
        if residual:
            want_h = want_h + h.data
            want_b = want_b + b.data
        assert rel_err(h_next.data, want_h) < 1e-12
        assert rel_err(_dense(b_next.data, edges, 6), want_b) < 1e-12


def test_concat_layer_matches_numpy():
    rng = np.random.default_rng(6)
    cfg = _small_config(message_concat=True, residual=False)
    params = init_parameters(cfg, edge_dim=7, seed=0, dtype=np.float64)
    _randomize(params, rng)
    n, hidden = 5, cfg.hidden
    h, b, adj = _layer_inputs(rng, n, hidden)
    edges, be = _edge_list(b, adj)
    h_next, b_next, att = edge_attention_layer(h, be, edges, params, 0, cfg)

    hw = h.data @ params["layer0.wh"].data
    bw = b.data @ params["layer0.wb"].data
    trip = np.concatenate([
        np.broadcast_to(hw[:, None, :], (n, n, hidden)),
        bw,
        np.broadcast_to(hw[None, :, :], (n, n, hidden)),
    ], axis=2)
    logits = (trip.reshape(n * n, 3 * hidden) @ params["layer0.att"].data).reshape(n, n)
    logits = np.where(logits > 0, logits, cfg.leaky_slope * logits)
    masked = np.where(adj != 0, logits, -np.inf)
    want_alpha = np.exp(masked - masked.max(axis=1, keepdims=True))
    want_alpha /= want_alpha.sum(axis=1, keepdims=True)
    want_alpha[adj.sum(axis=1) == 0] = 0.0
    want_alpha *= adj != 0
    assert rel_err(_dense(att, edges, n), want_alpha) < 1e-12

    h_msg = want_alpha @ hw
    b_msg = want_alpha[:, :, None] * bw
    node_cat = np.concatenate([h_msg, b_msg.sum(axis=1)], axis=1)
    want_h = node_cat.reshape(n, hidden, 2).mean(axis=2)
    edge_cat = np.concatenate([
        np.broadcast_to(h_msg[:, None, :], (n, n, hidden)),
        b_msg,
        np.broadcast_to(h_msg[None, :, :], (n, n, hidden)),
    ], axis=2)
    want_b = edge_cat.reshape(n, n, hidden, 3).mean(axis=3) * (adj[:, :, None] != 0)
    assert rel_err(h_next.data, want_h) < 1e-12
    assert rel_err(_dense(b_next.data, edges, n), want_b) < 1e-12


def test_layer_permutation_equivariance():
    rng = np.random.default_rng(7)
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=7, seed=0, dtype=np.float64)
    _randomize(params, rng)
    n = 6
    h, b, adj = _layer_inputs(rng, n, cfg.hidden)
    perm = rng.permutation(n)
    hp = Tensor(h.data[perm].copy())
    bp = Tensor(b.data[perm][:, perm].copy())
    adjp = adj[perm][:, perm]

    edges, be = _edge_list(b, adj)
    edges_p, be_p = _edge_list(bp, adjp)
    h1, b1, a1 = edge_attention_layer(h, be, edges, params, 0, cfg)
    h2, b2, a2 = edge_attention_layer(hp, be_p, edges_p, params, 0, cfg)
    b1, a1 = _dense(b1.data, edges, n), _dense(a1, edges, n)
    b2, a2 = _dense(b2.data, edges_p, n), _dense(a2, edges_p, n)
    assert rel_err(h2.data, h1.data[perm]) < 1e-12
    assert rel_err(b2, b1[perm][:, perm]) < 1e-12
    assert rel_err(a2, a1[perm][:, perm]) < 1e-12


def test_dropout_branch_is_seeded_and_training_only():
    rng = np.random.default_rng(8)
    cfg = _small_config(dropout=0.5)
    params = init_parameters(cfg, edge_dim=7, seed=0, dtype=np.float64)
    _randomize(params, rng)
    h, b, adj = _layer_inputs(rng, 5, cfg.hidden)
    edges, be = _edge_list(b, adj)

    plain, _, _ = edge_attention_layer(h, be, edges, params, 0, cfg, train=False)
    t1, _, _ = edge_attention_layer(h, be, edges, params, 0, cfg, train=True, rng=11)
    t2, _, _ = edge_attention_layer(h, be, edges, params, 0, cfg, train=True, rng=11)
    t3, _, _ = edge_attention_layer(h, be, edges, params, 0, cfg, train=True, rng=12)
    assert np.array_equal(t1.data, t2.data)
    assert not np.array_equal(t1.data, plain.data)
    assert not np.array_equal(t1.data, t3.data)


def _taped_layer(layer, h, b, edges, params, cfg, rng=None, outputs=("h", "b")):
    """h', b', the attention and the gradients of h, b, wh, wb and att of one
    attention layer under a tape, whose loss weighs the chosen outputs."""
    h, b = Tensor(h.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    local = {k: Tensor(params[k].data.copy(), requires_grad=True)
             for k in ("layer0.wh", "layer0.wb", "layer0.att")}
    weights = np.random.default_rng(9)
    with Tape() as tape:
        h_next, b_next, att = layer(h, b, edges, local, 0, cfg, train=rng is not None, rng=rng)
        terms = [eg.tsum(eg.mul(out, Tensor(weights.standard_normal(out.shape))))
                 for name, out in (("h", h_next), ("b", b_next)) if name in outputs]
        backward(tape, terms[0] if len(terms) == 1 else eg.add(*terms))
    return [h_next.data, b_next.data, att] + [t.grad for t in (h, b, *local.values())]


def _all_same_bytes(got, want):
    for k, (g, w) in enumerate(zip(got, want, strict=True)):
        assert (g is None) == (w is None), k
        assert g is None or _same_bytes(g, w), k


def _attention_case(dtype, hidden):
    """A 7-node graph in which node 3 has in-edges but sends no message, its
    node and edge states, and no edges at all, in `dtype`."""
    rng = np.random.default_rng(12)
    n = 7
    adj = (rng.random((n, n)) < 0.5).astype(np.int8)
    np.fill_diagonal(adj, 0)
    adj[3] = 0  # node 3 has in-edges but sends no message
    adj[0, 3] = adj[5, 3] = 1
    edges = np.nonzero(adj)
    h = rng.standard_normal((n, hidden)).astype(dtype)
    b = rng.standard_normal((len(edges[0]), hidden)).astype(dtype)
    no_edges = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    return h, b, edges, no_edges


def _compare_with_chain(dtype, compare):
    """check(cfg, h, b, edges, make_rng, outputs) runs the op and the chain
    of single ops under a tape and hands both results to compare; make_rng
    gives each side its own rng in the same state."""
    def check(cfg, h, b, edges, make_rng=lambda: None, outputs=("h", "b")):
        params = init_parameters(cfg, edge_dim=3, seed=1, dtype=dtype)
        _randomize(params, np.random.default_rng(2), scale=0.3)
        got = _taped_layer(edge_attention_layer, h, b, edges, params, cfg, make_rng(), outputs)
        want = _taped_layer(chained_attention_layer, h, b, edges, params, cfg, make_rng(),
                            outputs)
        compare(got, want)

    return check


def _generator():
    return np.random.default_rng(5)


def _check_attention_cases(dtype, hidden, message_concat, compare):
    """The op against the chain of single ops on _attention_case's graph:
    every residual and slope, dropout from a Generator and from an int seed,
    no edges, and a loss on h' only and on b' only."""
    h, b, edges, no_edges = _attention_case(dtype, hidden)
    check = _compare_with_chain(dtype, compare)
    for residual in (False, True):
        for leaky_slope in (1.0, 0.2):
            check(_small_config(hidden=hidden, message_concat=message_concat,
                                residual=residual, leaky_slope=leaky_slope), h, b, edges)
    cfg = _small_config(hidden=hidden, dropout=0.3, message_concat=message_concat)
    for make_rng in (_generator, lambda: 5):
        check(cfg, h, b, edges, make_rng)
    check(cfg, h, b[:0], no_edges, _generator)
    for outputs in (("h",), ("b",)):
        check(cfg, h, b, edges, _generator, outputs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_op_matches_the_chained_ops_byte_for_byte(dtype):
    # without message_concat the op runs the chain's operations in its order
    _check_attention_cases(dtype, 16, False, _all_same_bytes)


# the pooled projection sums in another order than the chain: on these
# cases float32 moves by at most 7e-7 of each array's largest entry
POOLED_TOLERANCE = {np.float64: 1e-12, np.float32: 5e-6}


def _close(dtype):
    def compare(got, want):
        for k, (g, w) in enumerate(zip(got, want, strict=True)):
            assert (g is None) == (w is None), k
            if g is not None:
                assert g.dtype == w.dtype and g.shape == w.shape, k
                assert rel_err(g, w) <= POOLED_TOLERANCE[dtype], (k, rel_err(g, w))

    return compare


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [2, 4, 6, 8])
def test_pooled_attention_op_matches_the_chained_ops(dtype, hidden):
    # hidden 2, 4, 6 and 8 take every residue mod 3, so a triple of the edge
    # concatenation straddles the edge block in every way it can
    _check_attention_cases(dtype, hidden, True, _close(dtype))


def test_pooled_attention_op_matches_the_chain_across_attention_blocks():
    # 75 nodes make three blocks of source rows; random edges reach targets
    # in every block, so the blocks' target columns overlap
    rng = np.random.default_rng(14)
    n, hidden = 3 * eg._ATTENTION_ROWS - 21, 6
    adj = (rng.random((n, n)) < 0.1).astype(np.int8)
    np.fill_diagonal(adj, 0)
    adj[eg._ATTENTION_ROWS + 1] = 0  # a sender-free node inside the second block
    edges = np.nonzero(adj)
    h = rng.standard_normal((n, hidden))
    b = rng.standard_normal((len(edges[0]), hidden))
    assert len(eg._attention_blocks(*edges, n)) == 3

    check = _compare_with_chain(np.float64, _close(np.float64))
    check(_small_config(hidden=hidden, dropout=0.3), h, b, edges, _generator)


@pytest.mark.parametrize("hidden", [6, 8])
def test_pooled_attention_backward_matches_finite_differences(hidden):
    # float64, through residuals and a dropout mask drawn from an int seed
    # (the same mask on every call), with both outputs in the loss
    h, b, edges, _ = _attention_case(np.float64, hidden)
    cfg = _small_config(hidden=hidden, dropout=0.25)
    params = init_parameters(cfg, edge_dim=3, seed=1, dtype=np.float64)
    _randomize(params, np.random.default_rng(2), scale=0.3)
    arrays = {"h": h, "b": b, **{k: params[f"layer0.{k}"].data for k in ("wh", "wb", "att")}}
    weights = np.random.default_rng(9)
    wh_out, wb_out = weights.standard_normal(h.shape), weights.standard_normal(b.shape)

    def loss(t):
        h_next, b_next, _ = eg.edge_attention(
            t["h"], t["b"], t["wh"], t["wb"], t["att"], edges, leaky_slope=cfg.leaky_slope,
            dropout_rate=cfg.dropout, rng=7)
        return eg.add(eg.tsum(eg.mul(h_next, Tensor(wh_out))),
                      eg.tsum(eg.mul(b_next, Tensor(wb_out))))

    tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
    with Tape() as tape:
        backward(tape, loss(tensors))
    for name, value in arrays.items():
        def f(x, name=name):
            return float(loss({**arrays, name: x}).data)

        assert rel_err(tensors[name].grad, finite_diff_grad(f, value)) < 1e-7, name


def test_attention_op_records_one_node_and_keeps_no_concatenation():
    # the train-paper shapes: 37 nodes, 262 directed edges, width 512
    rng = np.random.default_rng(13)
    n, hidden, num_edges = 37, 512, 262
    flat = np.sort(rng.choice(n * n, size=num_edges, replace=False))
    edges = (flat // n, flat % n)
    cfg = _small_config(hidden=hidden, dropout=0.1)
    params = init_parameters(cfg, edge_dim=3, seed=0)
    h = Tensor(rng.standard_normal((n, hidden)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal((num_edges, hidden)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            h_next, b_next, _ = edge_attention_layer(h, b, edges, params, 0, cfg, train=True,
                                                     rng=np.random.default_rng(0))
            kept = tracemalloc.get_traced_memory()[0] - before
        assert len(tape) == 1
    finally:
        tracemalloc.stop()
    # the outputs and their two bool dropout masks; three (V, hidden) float
    # arrays; one (E, hidden / 3 + 2) float array; and a little index and
    # bookkeeping, under a tenth of an (E, hidden) float array. One more
    # (E, hidden) float array, such as b W_b, would add 0.5 MB, and the
    # (E, 3 * hidden) concatenation 1.6 MB
    outputs = (n + num_edges) * hidden * (4 + 1)
    floats = 3 * n * hidden * 4 + num_edges * (hidden // 3 + 2) * 4
    assert kept < outputs + floats + 0.1 * num_edges * hidden * 4


# ---------------------------------------------------------------------------
# full forward


def test_forward_shapes_stages_and_dense_logits():
    rng = np.random.default_rng(9)
    cfg = _small_config(layers=3)
    params = init_parameters(cfg, edge_dim=7, seed=0)
    g = _rand_graph(rng, 6, edge_dim=7, master=True)
    out = forward(g, params, cfg)

    assert isinstance(out, BatchResult)
    (support,) = out.supports
    assert out.node_logits.shape == (6, cfg.node_classes)
    assert out.edge_logits.shape == (len(support), cfg.edge_classes)
    assert support.tolist() == sorted(support.tolist())
    local_adj = g.adjacency[1:, 1:]
    assert len(support) == int(np.triu(local_adj, 1).sum())
    assert all(0 <= i < j < 6 for i, j in support)
    # one auxiliary stage per pre-final stage, one weight per edge per layer
    assert len(out.aux) == cfg.layers
    assert len(out.attention) == cfg.layers
    for nl, el in out.aux:
        assert nl.shape == (6, cfg.node_classes)
        assert el.shape == (len(support), cfg.edge_classes)
    for alpha in out.attention:
        assert alpha.shape == (int(g.adjacency.sum()),)
    for alpha in dense_attention(out, g):
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-5)

    dense = dense_edge_logits(out)
    assert dense.shape == (6, 6, cfg.edge_classes)
    sup_mask = np.zeros((6, 6), dtype=bool)
    for k, (i, j) in enumerate(support):
        sup_mask[i, j] = True
        assert np.array_equal(dense[i, j], out.edge_logits.data[k])
    assert np.all(dense[~sup_mask] == 0.0)


def test_nan_in_a_node_feature_or_parameter_raises_where_it_is_first_computed_on():
    rng = np.random.default_rng(10)
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=7, seed=0)
    g = _rand_graph(rng, 5, edge_dim=7, master=True)
    g.node_features[2, 1, 3] = np.nan
    with pytest.raises(eg.NonFiniteError, match="^sepconv_block:"):
        forward(g, params, cfg)
    g = _rand_graph(rng, 5, edge_dim=7, master=True)
    forward(g, params, cfg)
    params["layer1.att"].data[0, 0] = np.nan  # gathered and concatenated rows meet it in matmul
    with pytest.raises(eg.NonFiniteError, match="^edge_attention:"):
        forward(g, params, cfg)


def test_forward_on_synthetic_scenes_rows_sum_to_one():
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=15, seed=1)
    gcfg = GraphConfig(d_n=16, d_e=3)
    pool = generate_synthetic(seed=5, count=8, max_symbols=3)
    for expr, _ in pool:
        g = augment_global(build_local_graph(expr, gcfg))
        out = forward(g, params, cfg)
        for alpha in dense_attention(out, g):
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-5)


def test_forward_eval_is_deterministic_and_guards_dropout():
    rng = np.random.default_rng(10)
    cfg = _small_config(dropout=0.2)
    params = init_parameters(cfg, edge_dim=7, seed=0)
    g = _rand_graph(rng, 5, edge_dim=7, master=True)

    a = forward(g, params, cfg)
    b = forward(g, params, cfg)
    assert np.array_equal(a.node_logits.data, b.node_logits.data)
    assert np.array_equal(a.edge_logits.data, b.edge_logits.data)
    assert all(np.array_equal(x, y) for x, y in zip(a.attention, b.attention))

    with pytest.raises(ModelError, match="rng"):
        forward(g, params, cfg, train=True)
    t1 = forward(g, params, cfg, train=True, rng=np.random.default_rng(0))
    t2 = forward(g, params, cfg, train=True, rng=np.random.default_rng(0))
    assert np.array_equal(t1.node_logits.data, t2.node_logits.data)
    assert not np.array_equal(t1.node_logits.data, a.node_logits.data)


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(11)
    cfg = _small_config()
    params = init_parameters(cfg, edge_dim=7, seed=0, dtype=np.float64)
    n = 6
    g = _rand_graph(rng, n, edge_dim=7)
    perm = rng.permutation(n)
    adjp = g.adjacency[perm][:, perm]
    gp = ModeledGraph(
        adjacency=adjp,
        node_features=g.node_features[perm],
        edge_features=edge_rows_at(g, *(perm[e] for e in np.nonzero(adjp))),
    )
    out = forward(g, params, cfg)
    outp = forward(gp, params, cfg)

    assert rel_err(outp.node_logits.data, out.node_logits.data[perm]) < 1e-10
    dense = dense_edge_logits(out)
    densep = dense_edge_logits(outp)
    checked = 0
    for i, j in outp.supports[0]:
        oi, oj = perm[i], perm[j]
        if oi < oj:  # orientation preserved; flipped pairs see flipped features
            assert rel_err(densep[i, j], dense[oi, oj]) < 1e-10
            checked += 1
    assert checked > 0


def test_forward_ablations_and_empty_support():
    rng = np.random.default_rng(12)
    cfg = _small_config(message_concat=False, residual=False, aux_readouts=False)
    params = init_parameters(cfg, edge_dim=7, seed=0)
    g = _rand_graph(rng, 5, edge_dim=7, master=True)
    out = forward(g, params, cfg)
    assert out.aux == []
    assert len(out.attention) == cfg.layers

    # two strokes with no local edge: master still links them; no edge logits
    adj = np.zeros((2, 2), dtype=np.int8)
    lone = ModeledGraph(adjacency=adj,
                        node_features=rng.standard_normal((2, 2, 10)),
                        edge_features=np.zeros((0, 7)))
    gm = augment_global(lone)
    out2 = forward(gm, params, cfg)
    assert out2.supports[0].shape == (0, 2)
    assert out2.edge_logits.shape == (0, cfg.edge_classes)
    assert out2.node_logits.shape == (2, cfg.node_classes)


def test_forward_end_to_end_gradients():
    rng = np.random.default_rng(13)
    cfg = _small_config(layers=2, readout_hidden=6)
    params = init_parameters(cfg, edge_dim=7, seed=2, dtype=np.float64)
    _randomize(params, rng)
    g = _rand_graph(rng, 3, edge_dim=7, master=True)
    wn = rng.standard_normal((3, cfg.node_classes))
    we = None  # fixed after first forward, support size known then

    def loss_value(run_params):
        nonlocal we
        out = forward(g, run_params, cfg)
        if we is None:
            we = rng.standard_normal(out.edge_logits.shape)
        total = eg.tsum(eg.mul(out.node_logits, Tensor(wn)))
        total = eg.add(total, eg.tsum(eg.mul(out.edge_logits, Tensor(we))))
        for nl, el in out.aux:
            total = eg.add(total, eg.tsum(eg.mul(nl, Tensor(wn))))
            total = eg.add(total, eg.tsum(eg.mul(el, Tensor(we))))
        return total

    with Tape() as tape:
        loss = loss_value(params)
        grads = backward(tape, loss, params)

    probed = ["enc.b0.dw.w", "enc.b2.pw.w", "enc.out.w", "edge.l1.w",
              "layer0.att", "layer0.wb", "layer1.wh", "read.final.node.l2.w",
              "read.final.edge.l1.w", "read.aux1.node.l1.w", "enc.b1.dw.b"]
    for name in probed:
        p = params[name]
        flat = p.data.reshape(-1)
        picks = np.random.default_rng(hash(name) % 2**32).choice(
            flat.size, size=min(4, flat.size), replace=False)
        for idx in picks:
            keep = flat[idx]
            flat[idx] = keep + 1e-6
            up = float(loss_value(params).data)
            flat[idx] = keep - 1e-6
            down = float(loss_value(params).data)
            flat[idx] = keep
            fd = (up - down) / 2e-6
            got = grads[name].reshape(-1)[idx]
            # FD noise floor ~1e-9 at 64-bit dominates near-zero gradients
            assert abs(got - fd) <= 1e-4 * max(abs(fd), abs(got)) + 1e-8, (name, idx, got, fd)


# ---------------------------------------------------------------------------
# auxiliary readouts on demand

AUX_CASES = [(master, batched) for master in (False, True) for batched in (False, True)]


def _aux_case(master, batched):
    """(config, params, graph or list of graphs) with three layers."""
    rng = np.random.default_rng(17)
    cfg = _small_config(layers=3)
    params = init_parameters(cfg, edge_dim=7, seed=0)
    _randomize(params, rng)
    graphs = [_rand_graph(rng, n, edge_dim=7, master=master) for n in (5, 3, 6)]
    return cfg, params, graphs if batched else graphs[0]


def _readout_log(monkeypatch):
    """The prefixes of model._readout calls from now on, in call order. Each
    forward's first call is "edge", the MLP that embeds the edge features."""
    calls = []
    real = model_module._readout

    def logged(prefix, params, x):
        calls.append(prefix)
        return real(prefix, params, x)

    monkeypatch.setattr(model_module, "_readout", logged)
    return calls


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("master,batched", AUX_CASES)
def test_forward_outside_a_tape_runs_the_aux_readouts_on_first_read(master, batched,
                                                                     monkeypatch):
    cfg, params, run = _aux_case(master, batched)
    with Tape():
        eager = forward(run, params, cfg)
    calls = _readout_log(monkeypatch)
    lazy = forward(run, params, cfg)
    assert calls == ["edge", "read.final.node", "read.final.edge"]

    assert _same_bytes(lazy.node_logits.data, eager.node_logits.data)
    assert _same_bytes(lazy.edge_logits.data, eager.edge_logits.data)
    for got, want in zip(lazy.supports, eager.supports, strict=True):
        assert _same_bytes(got, want)
    for got, want in zip(lazy.attention, eager.attention, strict=True):
        assert _same_bytes(got, want)

    aux = lazy.aux
    assert calls[3:] == [f"read.aux{s}.{part}" for s in range(cfg.layers)
                         for part in ("node", "edge")]
    assert len(aux) == len(eager.aux) == cfg.layers
    for (nl, el), (want_n, want_e) in zip(aux, eager.aux, strict=True):
        assert _same_bytes(nl.data, want_n.data) and _same_bytes(el.data, want_e.data)
    # built once: a second read returns the same list and runs nothing
    again = lazy.aux
    assert again is aux and all(x is y for x, y in zip(again, aux, strict=True))
    assert len(calls) == 3 + 2 * cfg.layers

    # scoring needs no auxiliary parameter at all
    lean = {k: p for k, p in params.items() if not k.startswith("read.aux")}
    scored = forward(run, lean, cfg)
    assert _same_bytes(scored.node_logits.data, eager.node_logits.data)
    assert _same_bytes(scored.edge_logits.data, eager.edge_logits.data)
    with pytest.raises(KeyError, match="read.aux0"):
        _ = scored.aux


@pytest.mark.parametrize("master,batched", AUX_CASES)
def test_forward_under_a_tape_runs_the_aux_readouts_between_the_layers(master, batched,
                                                                       monkeypatch):
    cfg, params, run = _aux_case(master, batched)
    graphs = run if batched else [run]
    rng = np.random.default_rng(18)

    def loss_of(stages):
        total = None
        for nl, el in stages:
            for logits in (nl, el):
                term = eg.tsum(eg.mul(logits, Tensor(weights[logits.shape])))
                total = term if total is None else eg.add(total, term)
        return total

    calls = _readout_log(monkeypatch)
    with Tape() as tape:
        res = forward(run, params, cfg)
        assert len(calls) == 3 + 2 * cfg.layers  # every readout ran inside forward
        stages = [(res.node_logits, res.edge_logits)] + res.aux
        weights = {logits.shape: rng.standard_normal(logits.shape).astype(np.float32)
                   for pair in stages for logits in pair}
        loss = loss_of(stages)
        length = len(tape)
        grads = backward(tape, loss, params)
    assert len(calls) == 3 + 2 * cfg.layers

    with Tape() as tape:
        node_logits, edge_logits, aux = interleaved_forward(graphs, params, cfg)
        want_loss = loss_of([(node_logits, edge_logits)] + aux)
        want_length = len(tape)
        want = backward(tape, want_loss, params)
    assert length == want_length
    assert _same_bytes(loss.data, want_loss.data)
    assert grads.keys() == want.keys() == params.keys()
    for name in params:
        assert _same_bytes(grads[name], want[name]), name


# ---------------------------------------------------------------------------
# training chunks


def test_chunks_forward_exactly_like_standalone_graphs():
    # a chunk is the graph of its own strokes: the master sees nothing else
    vocab = Vocabulary.default()
    cfg = _small_config(hidden=16)
    params = init_parameters(cfg, edge_dim=15, seed=0, dtype=np.float64)
    _randomize(params, np.random.default_rng(14))

    def logits(graph):
        out = forward(graph, params, cfg)
        return out.node_logits.data, out.edge_logits.data

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    expr, lg = compose([("sym", c) for c in "1+x"], "short")
    local = build_local_graph(expr, GraphConfig(d_n=16, d_e=3))
    aligned = align_labels(lg, local.adjacency, vocab)
    n = local.num_nodes
    assert n == 4
    want = logits(augment_global(local))
    for n_max in (n, n + 1, 8, 16, 32):
        chunks = split_subexpressions(local, aligned, GraphConfig(d_n=16, d_e=3, n_max=n_max))
        assert len(chunks) == 1
        assert same(logits(chunks[0][0]), want), n_max

    # the 'x' (strokes 7 and 8) crosses the cut; masks do not touch the forward
    expr, lg = compose([("sym", c) for c in "1+2+3-5x9"], "long")
    gcfg = GraphConfig(d_n=16, d_e=3, n_max=8)
    local = build_local_graph(expr, gcfg)
    aligned = align_labels(lg, local.adjacency, vocab)
    chunks = split_subexpressions(local, aligned, gcfg)
    assert [c.num_strokes for c, _ in chunks] == [8, 2]
    for (chunk, _), sl in zip(chunks, (slice(0, 8), slice(8, 10))):
        adj = local.adjacency[sl, sl].copy()
        rows = edge_rows_at(local, *(e + sl.start for e in np.nonzero(adj)))
        alone = ModeledGraph(adjacency=adj, node_features=local.node_features[sl].copy(),
                             edge_features=rows)
        assert same(logits(chunk), logits(augment_global(alone))), sl


# ---------------------------------------------------------------------------
# batches


def _mixed_batch(rng, edge_dim):
    """Graphs of every shape a batch can hold, in one list."""
    def lone(n):  # n strokes and no edge at all
        return ModeledGraph(adjacency=np.zeros((n, n), dtype=np.int8),
                            node_features=rng.standard_normal((n, 2, 10)),
                            edge_features=np.zeros((0, edge_dim)))

    linked = _rand_graph(rng, 6, edge_dim)
    adj = linked.adjacency.copy()
    adj[3, :] = adj[:, 3] = 0
    rows, cols = linked.edges
    isolated = ModeledGraph(adjacency=adj, node_features=linked.node_features,
                            edge_features=linked.edge_features[(rows != 3) & (cols != 3)])
    graphs = [_rand_graph(rng, 5, edge_dim, master=True),
              _rand_graph(rng, 4, edge_dim),
              lone(1),                     # one stroke, no master: E = 0
              isolated,                    # stroke 3 has no edge
              augment_global(isolated),
              augment_global(lone(0))]     # the master alone
    for nodes in range(2, 18):
        master = nodes % 2 == 0 and nodes > 2
        graphs.append(_rand_graph(rng, nodes - master, edge_dim, master=master))
    return graphs


def test_batch_forward_equals_standalone_forwards():
    rng = np.random.default_rng(15)
    graphs = _mixed_batch(rng, edge_dim=7)
    assert graphs[2].num_nodes == 1 and not graphs[2].adjacency.any()
    assert graphs[5].num_nodes == 1 and graphs[5].has_master
    cfg = _small_config(hidden=16, layers=3)
    for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-5)):
        params = init_parameters(cfg, edge_dim=7, seed=0, dtype=dtype)
        _randomize(params, np.random.default_rng(16))
        batch = forward(graphs, params, cfg)
        assert isinstance(batch, BatchResult) and len(batch.supports) == len(graphs)
        edge_base = 0
        for g, graph in enumerate(graphs):
            want = forward(graph, params, cfg)
            # one graph alone or in a list of one: the same bits
            listed = forward([graph], params, cfg)
            same = [(want.node_logits.data, listed.node_logits.data),
                    (want.edge_logits.data, listed.edge_logits.data)]
            same += zip(want.supports, listed.supports, strict=True)
            same += zip(want.attention, listed.attention, strict=True)
            for stage, listed_stage in zip(want.aux, listed.aux, strict=True):
                same += [(x.data, y.data) for x, y in zip(stage, listed_stage, strict=True)]
            assert len(same) == 2 + 1 + cfg.layers + 2 * cfg.layers
            assert all(_same_bytes(x, y) for x, y in same), (dtype, g)
            assert np.array_equal(batch.supports[g], want.supports[0])
            # graph g's logit rows, and its directed edges' attention weights
            nodes = slice(batch.node_offsets[g], batch.node_offsets[g + 1])
            pairs = slice(batch.edge_offsets[g], batch.edge_offsets[g + 1])
            size = np.count_nonzero(graph.adjacency)
            edges = slice(edge_base, edge_base + size)
            edge_base += size
            stages = zip([(batch.node_logits, batch.edge_logits)] + batch.aux,
                         [(want.node_logits, want.edge_logits)] + want.aux, strict=True)
            compared = []
            for (got_n, got_e), (want_n, want_e) in stages:
                compared += [(got_n.data[nodes], want_n.data), (got_e.data[pairs], want_e.data)]
            compared += [(alpha[edges], want_alpha)
                         for alpha, want_alpha in zip(batch.attention, want.attention,
                                                      strict=True)]
            assert len(compared) == 2 + 2 * cfg.layers + cfg.layers
            for a, b in compared:
                assert a.shape == b.shape, g
                assert np.abs(a - b).max(initial=0.0) <= tol, (dtype, g)
        # the batch runs each layer once over the union's edges
        assert len(batch.attention) == cfg.layers
        assert batch.attention[0].shape == (sum(int(g.adjacency.sum()) for g in graphs),)
        assert edge_base == batch.attention[0].shape[0]


def test_support_is_the_aligned_writing_order_support():
    # forward puts edge logits on exactly the pairs align_labels puts targets
    # on: the same int64 array byte for byte, with or without a master node
    vocab = Vocabulary.default()
    cfg = _small_config()
    local_cfg = GraphConfig(d_n=16, d_e=3)
    fc_cfg = GraphConfig(d_n=16, d_e=3, full_connect=True)
    params = init_parameters(cfg, edge_dim=local_cfg.edge_dim, seed=0)
    cases = []
    for text, gcfg in (("1+x-2", local_cfg), ("1+x-2", fc_cfg), ("1", local_cfg)):
        expr, lg = compose([("sym", c) for c in text])
        local = build_local_graph(expr, gcfg)
        want = align_labels(lg, local.adjacency, vocab).pairs
        cases += [(local, want), (augment_global(local), want)]
    n = cases[2][0].num_strokes
    assert len(cases[2][1]) == n * (n - 1) // 2  # FC: every pair of strokes
    assert not cases[4][0].adjacency.any() and cases[4][1].shape == (0, 2)
    for graph, want in cases:
        (support,) = forward(graph, params, cfg).supports
        assert support.dtype == want.dtype == np.int64 and support.shape == want.shape
        assert support.tobytes() == want.tobytes()
    batch = forward([graph for graph, _ in cases], params, cfg)
    for support, (_, want) in zip(batch.supports, cases, strict=True):
        assert support.dtype == np.int64 and np.array_equal(support, want)
