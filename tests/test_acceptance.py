"""Shipping gate. Each test records one PASS/FAIL line for one release
criterion, at the stated tolerance, then asserts it. The lines are echoed in
the terminal summary by conftest.py so they survive pytest's fd capture."""

import sys
import time

import numpy as np
import pytest

from inkgraph import engine as eg
from inkgraph.cli import main as cli_main
from inkgraph.engine import Tape, Tensor, backward
from inkgraph.graphs import (GraphConfig, ModeledGraph, augment_global,
                             build_local_graph, directional_features,
                             line_of_sight, split_subexpressions)
from inkgraph.ink import Stroke, resample_stroke
from inkgraph.labels import Vocabulary, align_labels, decode_labels
from inkgraph.metrics import expression_metrics
from inkgraph.model import ModelConfig, forward, init_parameters
from inkgraph.synth import generate_synthetic
from inkgraph.train import TrainConfig, fit, graph_losses

from oracles import (brute_force_expression_metrics, brute_force_visibility,
                     dense_attention, dense_edge_logits, edge_rows_at, finite_diff_grad,
                     rel_err)
from test_graphs import _resampled
from test_metrics import _random_label_pair


REPORT_LINES = []


def _emit(line):
    REPORT_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def _report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    _emit(line)
    assert ok, line


def _note(text):
    _emit(f"      {text}")


def _rand_graph(rng, n, edge_dim, d_n=10, master=False):
    adj = np.triu((rng.random((n, n)) < 0.6).astype(np.int8), 1)
    adj[0, 1] = 1
    adj = adj + adj.T
    g = ModeledGraph(
        adjacency=adj,
        node_features=rng.standard_normal((n, 2, d_n)),
        edge_features=rng.standard_normal((n, n, edge_dim))[np.nonzero(adj)],
    )
    return augment_global(g) if master else g


# ---------------------------------------------------------------------------
# 1. gradients: every primitive < 1e-5, full small model end to end < 1e-4


def test_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(0)

    def fd_worst(build, arrays):
        worst = 0.0
        for wrt in arrays:
            tensors = {k: Tensor(v.copy(), requires_grad=(k == wrt))
                       for k, v in arrays.items()}
            with Tape() as tape:
                backward(tape, build(tensors))
            got = tensors[wrt].grad
            if got is None:
                got = np.zeros_like(arrays[wrt])

            def f(x):
                local = {k: Tensor(v.copy()) for k, v in arrays.items()}
                local[wrt] = Tensor(x.copy())
                return float(build(local).data)

            worst = max(worst, rel_err(got, finite_diff_grad(f, arrays[wrt])))
        return worst

    r = rng.standard_normal
    w1, w2 = r((3, 4)), r((2, 3, 4))
    wc = r((2, 6, 4))
    wp = r((2, 3, 5))
    wm = r((3, 5))
    wr = r((2, 12))
    wt = r((3, 2, 4))
    wb = r((3, 5, 4))
    wcat = r((3, 9))
    wg = r((4, 4))
    ws = r((6, 4))
    wsa = r((2, 4))
    wmean = r((2, 3))
    wconv = r((2, 2, 9))
    wsm = r((4, 5))
    wls = r((4, 5))
    kink_free = r((3, 4))
    kink_free += 0.5 * np.sign(kink_free)  # keep FD probes away from the hinge
    mask = np.ones((4, 5))
    mask[2] = 0.0
    mask[0, :3] = 0.0
    cases = [
        ("add", lambda t: eg.tsum(eg.mul(eg.add(t["a"], t["b"]), Tensor(w1))),
         {"a": r((3, 4)), "b": r((3, 4))}),
        ("sub", lambda t: eg.tsum(eg.mul(eg.sub(t["a"], t["b"]), Tensor(w1))),
         {"a": r((3, 4)), "b": r((3, 4))}),
        ("mul", lambda t: eg.tsum(eg.mul(eg.mul(t["a"], t["b"]), Tensor(w1))),
         {"a": r((3, 4)), "b": r((3, 4))}),
        ("neg", lambda t: eg.tsum(eg.mul(eg.neg(t["a"]), Tensor(w1))), {"a": r((3, 4))}),
        ("scale", lambda t: eg.tsum(eg.mul(eg.scale(t["a"], 1.7), Tensor(w1))),
         {"a": r((3, 4))}),
        ("add_const", lambda t: eg.tsum(eg.mul(eg.add_const(t["a"], 0.3), Tensor(w1))),
         {"a": r((3, 4))}),
        ("matmul", lambda t: eg.tsum(eg.mul(eg.matmul(t["a"], t["b"]), Tensor(wm))),
         {"a": r((3, 4)), "b": r((4, 5))}),
        ("reshape", lambda t: eg.tsum(eg.mul(eg.reshape(t["a"], (2, 12)), Tensor(wr))),
         {"a": r((2, 3, 4))}),
        ("transpose", lambda t: eg.tsum(eg.mul(eg.transpose(t["a"], (1, 0, 2)),
                                               Tensor(wt))),
         {"a": r((2, 3, 4))}),
        ("broadcast_to", lambda t: eg.tsum(eg.mul(eg.broadcast_to(t["a"], (3, 5, 4)),
                                                  Tensor(wb))),
         {"a": r((3, 1, 4))}),
        ("concat", lambda t: eg.tsum(eg.mul(eg.concat([t["a"], t["b"], t["c"]], axis=1),
                                            Tensor(wcat))),
         {"a": r((3, 2)), "b": r((3, 3)), "c": r((3, 4))}),
        ("gather_rows", lambda t: eg.tsum(eg.mul(
            eg.gather_rows(t["a"], np.array([0, 2, 2, 1])), Tensor(wg))),
         {"a": r((3, 4))}),
        ("scatter_rows", lambda t: eg.tsum(eg.mul(
            eg.scatter_rows(t["a"], np.array([4, 0, 2]), 6), Tensor(ws))),
         {"a": r((3, 4))}),
        ("tsum_axis", lambda t: eg.tsum(eg.mul(eg.tsum(t["a"], axis=1), Tensor(wsa))),
         {"a": r((2, 3, 4))}),
        ("tsum_all", lambda t: eg.scale(eg.tsum(t["a"]), 0.7), {"a": r((2, 3, 4))}),
        ("tmean", lambda t: eg.tsum(eg.mul(eg.tmean(t["a"], axis=2), Tensor(wmean))),
         {"a": r((2, 3, 4))}),
        ("relu", lambda t: eg.tsum(eg.mul(eg.relu(t["a"]), Tensor(w1))),
         {"a": kink_free}),
        ("leaky_relu", lambda t: eg.tsum(eg.mul(eg.leaky_relu(t["a"], 0.2), Tensor(w1))),
         {"a": kink_free.copy()}),
        ("texp", lambda t: eg.tsum(eg.mul(eg.texp(t["a"]), Tensor(w1))),
         {"a": 0.5 * r((3, 4))}),
        ("tlog", lambda t: eg.tsum(eg.mul(eg.tlog(t["a"]), Tensor(w1))),
         {"a": np.abs(r((3, 4))) + 0.5}),
        ("pow_scalar", lambda t: eg.tsum(eg.mul(eg.pow_scalar(t["a"], 2.5), Tensor(w1))),
         {"a": np.abs(r((3, 4))) + 0.5}),
        ("conv1d", lambda t: eg.tsum(eg.mul(eg.conv1d(t["x"], t["w"], stride=1, padding=1),
                                            Tensor(wconv))),
         {"x": r((2, 3, 9)), "w": r((2, 3, 3))}),
        ("conv1d_grouped", lambda t: eg.tsum(eg.mul(
            eg.conv1d(t["x"], t["w"], stride=2, padding=1, groups=2), Tensor(wc))),
         {"x": r((2, 4, 8)), "w": r((6, 2, 3))}),
        ("avg_pool1d", lambda t: eg.tsum(eg.mul(eg.avg_pool1d(t["x"], 3, 2), Tensor(wp))),
         {"x": r((2, 3, 11))}),
        ("dropout", lambda t: eg.tsum(eg.mul(eg.dropout(t["x"], 0.4, 123), Tensor(w2))),
         {"x": r((2, 3, 4))}),
        ("masked_softmax", lambda t: eg.tsum(eg.mul(
            eg.masked_softmax(t["x"], mask, axis=1), Tensor(wsm))),
         {"x": r((4, 5))}),
        ("log_softmax", lambda t: eg.tsum(eg.mul(eg.log_softmax(t["x"], axis=1),
                                                 Tensor(wls))),
         {"x": r((4, 5))}),
    ]
    # drawn from their own generator, so the cases above keep their data
    r2 = np.random.default_rng(1).standard_normal
    wdw = r2((2, 3, 10))
    seg_ids = np.array([0, 0, 1, 1, 1, 3])  # segment 2 is empty
    wss = r2((6, 2))
    cases += [
        ("conv1d_depthwise", lambda t: eg.tsum(eg.mul(
            eg.conv1d(t["x"], t["w"], stride=1, padding=4, groups=3), Tensor(wdw))),
         {"x": r2((2, 3, 10)), "w": r2((3, 1, 9))}),
        ("segment_softmax", lambda t: eg.tsum(eg.mul(
            eg.segment_softmax(t["x"], seg_ids), Tensor(wss))),
         {"x": r2((6, 2))}),
    ]
    # the encoder's fused conv block, from a generator of its own as well
    r3 = np.random.default_rng(2).standard_normal
    wsep = r3((2, 4, 10))
    cases += [
        ("sepconv_block", lambda t: eg.tsum(eg.mul(eg.sepconv_block(
            t["x"], t["dw_w"], t["dw_b"], t["pw_w"], t["pw_b"], t["proj_w"], t["proj_b"],
            padding=4), Tensor(wsep))),
         {"x": r3((2, 3, 10)), "dw_w": r3((3, 1, 9)), "dw_b": r3((3,)), "pw_w": r3((4, 3, 1)),
          "pw_b": r3((4,)), "proj_w": r3((4, 3, 1)), "proj_b": r3((4,))}),
    ]
    # the fused attention layer, from a generator of its own: node 3 sends
    # no message, both outputs reach the loss through dropout, and the
    # weights are scaled down so that no softmax saturates
    r4 = np.random.default_rng(3).standard_normal
    att_edges = (np.array([0, 0, 1, 2, 2]), np.array([1, 3, 2, 0, 3]))
    wah, wab = r4((4, 4)), r4((5, 4))
    cases += [
        ("edge_attention", lambda t: (lambda hb: eg.add(
            eg.tsum(eg.mul(hb[0], Tensor(wah))), eg.tsum(eg.mul(hb[1], Tensor(wab)))))(
            eg.edge_attention(t["h"], t["b"], t["wh"], t["wb"], t["att"], att_edges,
                              leaky_slope=0.2, dropout_rate=0.25, rng=5)),
         {"h": r4((4, 4)), "b": r4((5, 4)), "wh": 0.5 * r4((4, 4)), "wb": 0.5 * r4((4, 4)),
          "att": 0.25 * r4((12, 1))}),
    ]
    worst_primitive = 0.0
    for name, build, arrays in cases:
        err = fd_worst(build, arrays)
        assert err < 1e-5, (name, err)
        worst_primitive = max(worst_primitive, err)

    # small model, three nodes, two attention layers, checked end to end
    cfg = ModelConfig(hidden=8, layers=2, node_classes=5, edge_classes=14,
                      readout_hidden=6, dropout=0.0)
    params = init_parameters(cfg, edge_dim=7, seed=2, dtype=np.float64)
    for p in params.values():
        p.data = (rng.standard_normal(p.data.shape) * 0.1).astype(p.data.dtype)
    graph = _rand_graph(rng, 3, edge_dim=7)
    wn = rng.standard_normal((3, cfg.node_classes))
    we_holder = {}

    def loss_value():
        out = forward(graph, params, cfg)
        if "we" not in we_holder:
            we_holder["we"] = rng.standard_normal(out.edge_logits.shape)
        we = we_holder["we"]
        total = eg.tsum(eg.mul(out.node_logits, Tensor(wn)))
        total = eg.add(total, eg.tsum(eg.mul(out.edge_logits, Tensor(we))))
        for nl, el in out.aux:
            total = eg.add(total, eg.tsum(eg.mul(nl, Tensor(wn))))
            total = eg.add(total, eg.tsum(eg.mul(el, Tensor(we))))
        return total

    with Tape() as tape:
        grads = backward(tape, loss_value(), params)

    worst_model = 0.0
    coord_rng = np.random.default_rng(99)
    for name, p in sorted(params.items()):
        flat = p.data.reshape(-1)
        for idx in coord_rng.choice(flat.size, size=min(2, flat.size), replace=False):
            keep = flat[idx]
            flat[idx] = keep + 1e-6
            up = float(loss_value().data)
            flat[idx] = keep - 1e-6
            down = float(loss_value().data)
            flat[idx] = keep
            fd = (up - down) / 2e-6
            got = grads[name].reshape(-1)[idx]
            err = abs(got - fd) / max(abs(got), abs(fd), 1e-4)
            assert err < 1e-4, (name, idx, got, fd)
            worst_model = max(worst_model, err)

    elapsed = time.time() - t0
    ok = worst_primitive < 1e-5 and worst_model < 1e-4 and elapsed < 60.0
    _report("gradient-suite", ok,
            f"{len(cases)} primitives worst {worst_primitive:.2e} (<1e-5), "
            f"end-to-end worst {worst_model:.2e} (<1e-4), {elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# 2. attention rows sum to 1 on visibility+temporal graphs


def test_attention_row_normalization():
    gcfg = GraphConfig(d_n=32, d_e=3)
    pool = generate_synthetic(seed=7, count=220, max_symbols=4)
    graphs = [build_local_graph(expr, gcfg) for expr, _ in pool
              if 2 <= expr.num_strokes <= 12][:100]
    assert len(graphs) == 100
    mcfg = ModelConfig(hidden=16, layers=3, node_classes=101, edge_classes=14,
                       readout_hidden=12, dropout=0.0)
    params = init_parameters(mcfg, gcfg.edge_dim, seed=0)
    worst = 0.0
    for g in graphs:
        out = forward(g, params, mcfg)
        assert len(out.attention) == mcfg.layers
        for alpha in dense_attention(out, g):
            worst = max(worst, float(np.abs(alpha.sum(axis=1) - 1.0).max()))
    _report("attention-normalization", worst <= 1e-6,
            f"100 graphs x {mcfg.layers} layers, worst |row sum - 1| = {worst:.2e} (<=1e-6)")


# ---------------------------------------------------------------------------
# 3. permutation equivariance at 32-bit


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    cfg = ModelConfig(hidden=16, layers=2, node_classes=7, edge_classes=14,
                      readout_hidden=8, dropout=0.0)
    params = init_parameters(cfg, edge_dim=9, seed=1)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        g = _rand_graph(rng, n, edge_dim=9)
        perm = rng.permutation(n)
        adjp = g.adjacency[perm][:, perm]
        gp = ModeledGraph(adjacency=adjp, node_features=g.node_features[perm],
                          edge_features=edge_rows_at(g, *(perm[e] for e in np.nonzero(adjp))))
        out = forward(g, params, cfg)
        outp = forward(gp, params, cfg)
        worst = max(worst, float(
            np.abs(outp.node_logits.data - out.node_logits.data[perm]).max()))
        dense = dense_edge_logits(out)
        densep = dense_edge_logits(outp)
        for i, j in outp.supports[0]:
            oi, oj = perm[i], perm[j]
            if oi < oj:  # flipped pairs legitimately see direction-flipped features
                worst = max(worst, float(np.abs(densep[i, j] - dense[oi, oj]).max()))
        for a1, a2 in zip(dense_attention(out, g), dense_attention(outp, gp)):
            worst = max(worst, float(np.abs(a2 - a1[perm][:, perm]).max()))
    _report("permutation-equivariance", worst < 1e-5,
            f"50 graphs, max abs deviation {worst:.2e} (<1e-5 at 32-bit)")


# ---------------------------------------------------------------------------
# 4. masked labels cannot change the loss or any gradient


def test_masking_soundness():
    gcfg = GraphConfig(d_n=16, d_e=2, n_max=8, global_graph=True)
    pool = generate_synthetic(seed=13, count=12, max_symbols=3)
    expr, lg = next((e, l) for e, l in pool if 3 <= e.num_strokes < 8)
    vocab = Vocabulary.default()
    local = build_local_graph(expr, gcfg)
    aligned = align_labels(lg, local.adjacency, vocab)
    chunks = split_subexpressions(local, aligned, gcfg)
    assert len(chunks) == 1
    graph, chunk_labels = chunks[0]  # master-augmented

    # silence one real node and one real support edge
    chunk_labels.node_mask[0] = 0.0
    chunk_labels.edge_mask[0] = 0.0

    mcfg = ModelConfig(hidden=8, layers=2, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6,
                       dropout=0.0)
    params = init_parameters(mcfg, gcfg.edge_dim, seed=0, dtype=np.float64)
    tcfg = TrainConfig()

    def run(labels):
        with Tape() as tape:
            res = forward([graph], params, mcfg)
            loss = graph_losses(res, [labels], tcfg)
            grads = backward(tape, loss, params)
        return float(loss.data), grads

    base_loss, base_grads = run(chunk_labels)
    # mutate the masked node and the masked edge
    chunk_labels.node_ids[0] = (chunk_labels.node_ids[0] + 9) % vocab.num_symbols
    chunk_labels.edge_ids[0] = (chunk_labels.edge_ids[0] + 4) % vocab.num_edge_classes
    new_loss, new_grads = run(chunk_labels)

    loss_delta = abs(new_loss - base_loss)
    grad_delta = max(float(np.abs(new_grads[k] - base_grads[k]).max())
                     for k in base_grads)
    ok = loss_delta == 0.0 and grad_delta == 0.0
    _report("masking-soundness", ok,
            f"loss delta {loss_delta}, max grad delta {grad_delta} (both exactly 0 at 64-bit)")


# ---------------------------------------------------------------------------
# 5. visibility adjacency vs dense ray-casting oracle


def test_visibility_matches_ray_oracle():
    gcfg = GraphConfig(d_n=24, d_e=3)
    pool = generate_synthetic(seed=2, count=640, max_symbols=4)
    scenes = [_resampled(expr, gcfg.d_n) for expr, _ in pool
              if 3 <= expr.num_strokes <= 6][:200]
    assert len(scenes) == 200
    agree = total = blocked = 0
    disagreements = []
    for idx, strokes in enumerate(scenes):
        vis = line_of_sight(strokes)
        want = brute_force_visibility([s.coords.T for s in strokes],
                                      rays_per_pair=10000)
        iu = np.triu_indices(len(strokes), 1)
        eq = vis[iu] == want[iu]
        agree += int(eq.sum())
        total += eq.size
        blocked += int((want[iu] == 0).sum())
        for k in np.nonzero(~eq)[0]:
            disagreements.append(
                (idx, int(iu[0][k]), int(iu[1][k]), int(vis[iu][k]), int(want[iu][k])))
    rate = agree / total
    for scene, i, j, got, want_v in disagreements:
        _note(f"visibility disagreement scene={scene} pair=({i},{j}) "
              f"impl={got} oracle={want_v}")
    _report("visibility-oracle", rate >= 0.99,
            f"200 scenes, {agree}/{total} pairs agree = {rate:.4f} (>=0.99), "
            f"{len(disagreements)} disagreements logged, "
            f"blocked fraction {blocked / total:.3f}")


# ---------------------------------------------------------------------------
# 6. directional edge feature invariants


def test_directional_feature_invariants():
    rng = np.random.default_rng(17)
    d_e = 10
    worst_theta_lo, worst_theta_hi, worst_product = 0.0, 1.0, 0.0
    for _ in range(1000):
        pts_a = rng.standard_normal((int(rng.integers(2, 8)), 2)) * rng.uniform(0.2, 3.0)
        pts_b = (rng.standard_normal((int(rng.integers(2, 8)), 2))
                 * rng.uniform(0.2, 3.0) + rng.uniform(-4.0, 4.0, size=2))
        src = resample_stroke(Stroke(pts_a), 12)
        dst = resample_stroke(Stroke(pts_b), 12)
        feats = directional_features(src, dst, d_e)
        assert feats.shape == (5 * d_e,)
        right, left, up, down = (feats[k * d_e:(k + 1) * d_e] for k in range(4))
        thetas = np.concatenate([right, left, up, down])
        worst_theta_lo = min(worst_theta_lo, float(thetas.min()))
        worst_theta_hi = max(worst_theta_hi, float(thetas.max()))
        worst_product = max(worst_product,
                            float(np.abs(right * left).max()),
                            float(np.abs(up * down).max()))
    ok = worst_theta_lo >= 0.0 and worst_theta_hi <= 1.0 and worst_product == 0.0
    _report("directional-features", ok,
            f"1000 pairs, theta range [{worst_theta_lo}, {worst_theta_hi}] in [0,1], "
            f"max opposite-direction product {worst_product} (exactly 0), length 5*d_e")


# ---------------------------------------------------------------------------
# 7. label alignment round trip on synthetic expressions


def test_label_alignment_round_trip():
    gcfg = GraphConfig(d_n=12, d_e=2)
    vocab = Vocabulary.default()
    pool = generate_synthetic(seed=3, count=500, max_symbols=8)
    assert len(pool) == 500
    checked = 0
    for expr, lg in pool:
        graph = build_local_graph(expr, gcfg)
        aligned = align_labels(lg, graph.adjacency, vocab)
        decoded = decode_labels(aligned, vocab)

        gold_segments = {frozenset(s) for s in lg.segments()}
        assert {frozenset(s) for s in decoded.segments()} == gold_segments, expr.id
        assert decoded.segment_labels() == lg.segment_labels(), expr.id

        support = np.triu(graph.adjacency, 1) != 0
        seg_of = {}
        for s in lg.segments():
            fs = frozenset(s)
            for i in s:
                seg_of[i] = fs
        expressible = set()
        for src, dst, rel in lg.edges:
            if rel == "*" or seg_of[src] == seg_of[dst]:
                continue
            i, j = min(src, dst), max(src, dst)
            if support[i, j]:
                expressible.add((seg_of[src], seg_of[dst], rel))
        assert decoded.segment_triples() == expressible, expr.id
        checked += 1
    _report("label-roundtrip", checked == 500,
            f"{checked}/500 synthetic expressions: segmentation, symbols, and "
            f"supported relations reproduced exactly")


# ---------------------------------------------------------------------------
# 8. expression metrics vs correspondence-enumerating reference


def test_expression_metrics_agreement():
    rng = np.random.default_rng(23)
    agree = 0
    for _ in range(200):
        pred, gold = _random_label_pair(rng)
        if expression_metrics(pred, gold) == brute_force_expression_metrics(pred, gold):
            agree += 1
    _report("metric-oracle", agree == 200,
            f"{agree}/200 randomized prediction/gold pairs agree (need 100%)")


# ---------------------------------------------------------------------------
# 9. overfit ordering: full model reaches 99/99, stripped model no faster/higher


def _overfit_items(gcfg, vocab):
    pool = generate_synthetic(seed=1, count=20, max_symbols=5)
    train_items, val_items = [], []
    for expr, lg in pool:
        local = build_local_graph(expr, gcfg)
        aligned = align_labels(lg, local.adjacency, vocab)
        train_items.extend(split_subexpressions(local, aligned, gcfg))
        val_items.append((augment_global(local), aligned))
    return train_items, val_items


def _first_hit(history, bar=0.99):
    for row in history:
        if row["node_acc"] >= bar and row["edge_acc"] >= bar:
            return row["epoch"]
    return None


def test_overfit_ordering():
    gcfg = GraphConfig(d_n=32, d_e=10, n_max=8, global_graph=True)
    vocab = Vocabulary.default()
    train_items, val_items = _overfit_items(gcfg, vocab)
    tcfg = TrainConfig(lr=0.003, batch_size=32, max_epochs=300, n_max=8, seed=0)

    def run(**ablations):
        mcfg = ModelConfig(hidden=64, layers=2, node_classes=vocab.num_symbols,
                           edge_classes=vocab.num_edge_classes, readout_hidden=64,
                           dropout=0.0, **ablations)
        return fit(train_items, val_items, mcfg, tcfg, gcfg.edge_dim)

    t0 = time.time()
    full = run()
    full_secs = time.time() - t0
    full_hit = _first_hit(full.history)
    full_final_edge = full.history[-1]["edge_acc"]

    base = run(message_concat=False, residual=False, aux_readouts=False)
    base_hit = _first_hit(base.history)
    base_final_edge = base.history[-1]["edge_acc"]

    ok = (full_hit is not None and full_secs < 300.0
          and (base_hit is None or base_hit >= full_hit)
          and base_final_edge <= full_final_edge + 1e-12)
    _report("overfit-ordering", ok,
            f"full model hit 99/99 at epoch {full_hit} in {full_secs:.0f}s (<300s), "
            f"final edge acc {full_final_edge:.4f}; stripped model hit at "
            f"{base_hit}, final edge acc {base_final_edge:.4f} "
            f"(no earlier, no higher)")


# ---------------------------------------------------------------------------
# 10. byte-identical reruns


def test_training_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[model]
hidden = 8
layers = 1
dropout = 0.0

[train]
lr = 0.01
batch_size = 2
max_epochs = 3
seed = 4

[data]
d_n = 12
d_e = 2
n_max = 8
""", encoding="utf-8")
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--seed", "9",
                     "--count", "6", "--max-symbols", "2"]) == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["train", "--data", str(data), "--out", str(out),
                         "--config", str(cfg), "--quiet"]) == 0
        outs.append(out)
    hist_equal = (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
    ckpt_equal = ((outs[0] / "checkpoint.bin").read_bytes()
                  == (outs[1] / "checkpoint.bin").read_bytes())
    _report("determinism", hist_equal and ckpt_equal,
            f"re-run with same seed/config: history.csv identical={hist_equal}, "
            f"checkpoint identical={ckpt_equal}")
