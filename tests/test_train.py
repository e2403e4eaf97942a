"""Training tests: loss fixtures against closed forms, exact masking, batch
concatenation semantics, the fit loop, and config-file parsing."""

import ctypes
import platform
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from inkgraph import engine as eg
from inkgraph import train as train_module
from inkgraph.engine import Tape, Tensor, backward
from inkgraph.graphs import (GraphConfig, ModeledGraph, augment_global,
                             build_local_graph, split_subexpressions)
from inkgraph.labels import AlignedLabels, Vocabulary, align_labels
from inkgraph.model import ModelConfig, forward, init_parameters
from inkgraph.synth import compose, generate_synthetic
from inkgraph.train import (FitResult, TrainConfig, TrainError, _stage_losses, fit,
                            graph_losses, history_to_csv, parse_config_text,
                            primitive_counts, validate)

from oracles import chained_stage_losses, rel_err


def _np_log_softmax(x):
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=1, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _np_node_loss(logits, labels, mask):
    lp = _np_log_softmax(logits)[np.arange(len(labels)), labels]
    return -(lp * mask).sum() / mask.sum()


def _np_edge_loss(logits, labels, mask, gamma):
    lp = _np_log_softmax(logits)[np.arange(len(labels)), labels]
    p = np.exp(lp)
    return -(((1.0 - p) ** gamma) * lp * mask).sum() / mask.sum()


# ---------------------------------------------------------------------------
# config


def test_train_config_defaults_and_round_trip():
    cfg = TrainConfig()
    assert (cfg.lr, cfg.batch_size, cfg.max_epochs) == (0.00027, 32, 200)
    assert (cfg.patience, cfg.decay_factor) == (20, 0.1)
    assert (cfg.node_weight, cfg.aux_weight, cfg.focal_gamma) == (0.5, 0.3, 1.5)
    assert (cfg.n_max, cfg.val_fraction, cfg.seed) == (16, 0.0, 0)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("field, value, refusal", [
    ("lr", float("nan"), "is nan, not finite"),
    ("lr", float("inf"), "is inf, not finite"),
    ("aux_weight", float("nan"), "is nan, not finite"),
    ("focal_gamma", float("inf"), "is inf, not finite"),
    ("seed", -1, "must be >= 0, got -1"),
    ("batch_size", 2.5, "is 2.5, not int"),
    ("val_fraction", False, "is False, not float"),
    ("max_epochs", True, "is True, not int"),
    ("lr", 1, None),                    # an int in a float field
    ("batch_size", np.int64(2), None),  # a NumPy int, stored as int
])
def test_train_config_fields_take_only_their_type(field, value, refusal):
    if refusal:
        with pytest.raises(TrainError, match=f"^{re.escape(f'{field} {refusal}')}$"):
            TrainConfig(**{field: value})
    else:
        stored = getattr(TrainConfig(**{field: value}), field)
        assert stored == value and type(stored) is int


def test_config_file_values_meet_the_config_rule():
    # an ini file's value goes through its config's own check: every float
    # of [model] and [train] must be finite, and the seed must be >= 0
    floats = [(section, cls, f.name) for section, cls in (("model", ModelConfig),
                                                          ("train", TrainConfig))
              for f in fields(cls) if isinstance(f.default, float)]
    assert len(floats) >= 8
    cases = [(section, cls, key, raw, "not finite") for section, cls, key in floats
             for raw in ("nan", "inf", "-inf")]
    cases.append(("train", TrainConfig, "seed", "-4", "must be >= 0"))
    for section, cls, key, raw, refusal in cases:
        values = parse_config_text(f"[{section}]\n{key} = {raw}\n")[section]
        with pytest.raises(cls.error, match=rf"^{key} .*{refusal}"):
            cls(**values)
    assert TrainConfig(**parse_config_text("[train]\nseed = 0\n")["train"]).seed == 0


def test_train_config_validation():
    with pytest.raises(TrainError):
        TrainConfig(lr=0.0)
    with pytest.raises(TrainError):
        TrainConfig(batch_size=0)
    with pytest.raises(TrainError, match="node_weight"):
        TrainConfig(node_weight=1.5)
    with pytest.raises(TrainError):
        TrainConfig(aux_weight=-0.1)
    with pytest.raises(TrainError):
        TrainConfig(focal_gamma=-1.0)
    with pytest.raises(TrainError, match="val_fraction"):
        TrainConfig(val_fraction=1.0)
    for factor in (0.0, -0.5, 1.5, 5.0):
        with pytest.raises(TrainError, match="decay_factor"):
            TrainConfig(decay_factor=factor)
    for patience in (0, -1):
        with pytest.raises(TrainError, match="patience"):
            TrainConfig(patience=patience)
    assert TrainConfig(decay_factor=1.0, patience=1).decay_factor == 1.0


# ---------------------------------------------------------------------------
# losses


def _one_stage_loss(logits, labels, weight, denom, gamma=None):
    """_stage_losses over the one stage of `logits`: its (1,) loss Tensor."""
    loss = _stage_losses([logits], labels, weight, denom, gamma)
    assert loss.shape == (1,)
    return loss


def test_node_loss_perfect_prediction_near_zero():
    labels = np.array([2, 0, 1])
    logits = Tensor(50.0 * np.eye(4)[labels][:, :4])
    mask = np.ones(3)
    loss = _one_stage_loss(logits, labels, mask, mask.sum())
    assert 0.0 <= loss.data[0] <= 1e-6


def test_node_loss_two_class_closed_form():
    a, b = 0.7, -0.4
    logits = Tensor(np.array([[a, b]]))
    loss = _one_stage_loss(logits, np.array([0]), np.ones(1), 1.0)
    want = np.log(1.0 + np.exp(b - a))
    assert rel_err(loss.data[0], want) < 1e-12


def test_node_loss_mean_runs_over_unmasked_only():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((3, 5))
    labels = np.array([0, 3, 4])
    mask = np.array([1.0, 1.0, 0.0])
    loss = _one_stage_loss(Tensor(logits), labels, mask, mask.sum())
    assert rel_err(loss.data[0], _np_node_loss(logits, labels, mask)) < 1e-12
    # the masked row's logits are irrelevant
    logits2 = logits.copy()
    logits2[2] = 99.0
    loss2 = _one_stage_loss(Tensor(logits2), labels, mask, mask.sum())
    assert loss.data[0] == loss2.data[0]


def test_all_masked_loss_is_exact_zero_with_zero_grads():
    rng = np.random.default_rng(1)
    w = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    x = Tensor(rng.standard_normal((3, 4)))
    labels = np.array([1, 2, 5])
    mask = np.zeros(3)
    for gamma in (None, 1.5):  # cross-entropy and focal
        with Tape() as tape:
            loss = _one_stage_loss(eg.matmul(x, w), labels, mask, mask.sum(), gamma)
            grads = backward(tape, loss, {"w": w})
        assert loss.data[0] == 0.0
        assert np.all(grads["w"] == 0.0)


def test_empty_logits_give_zero_loss():
    logits = Tensor(np.zeros((0, 14)))
    labels, mask = np.zeros(0, dtype=int), np.zeros(0)
    for gamma in (None, 1.5):
        assert _one_stage_loss(logits, labels, mask, mask.sum(), gamma).data[0] == 0.0


def test_edge_loss_gamma_zero_is_cross_entropy():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((6, 14))
    labels = rng.integers(0, 14, size=6)
    mask = np.array([1, 1, 0, 1, 1, 1], dtype=np.float64)
    ce = _one_stage_loss(Tensor(logits), labels, mask, mask.sum())
    fl = _one_stage_loss(Tensor(logits), labels, mask, mask.sum(), 0.0)
    assert rel_err(fl.data[0], ce.data[0]) < 1e-12


def test_edge_loss_focal_fixture():
    # p_t = 0.9, gamma = 2 -> loss = (1 - 0.9)^2 * (-log 0.9)
    logits = np.array([[np.log(9.0), 0.0]])
    loss = _one_stage_loss(Tensor(logits), np.array([0]), np.ones(1), 1.0, 2.0)
    p = np.exp(logits[0, 0]) / (np.exp(logits[0, 0]) + 1.0)
    want = -((1.0 - p) ** 2) * np.log(p)
    assert rel_err(loss.data[0], want) < 1e-12
    assert abs(loss.data[0] - 0.01 * -np.log(0.9)) < 1e-9


def test_edge_loss_random_matches_numpy():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((8, 14))
    labels = rng.integers(0, 14, size=8)
    mask = (rng.random(8) < 0.7).astype(np.float64)
    mask[0] = 1.0
    for gamma in (0.5, 1.5, 2.0):
        got = _one_stage_loss(Tensor(logits), labels, mask, mask.sum(), gamma).data[0]
        assert rel_err(got, _np_edge_loss(logits, labels, mask, gamma)) < 1e-12


def test_stage_weighting(monkeypatch):
    # fixed stage losses isolate graph_losses' weighting: node_weight blends
    # each stage's node and edge losses, [1, aux_weight, ...] weighs the stages
    rng = np.random.default_rng(9)
    vocab = Vocabulary.default()
    graph, aligned = _random_item(rng, 4, 7, vocab)

    def total(layers, aux_readouts, node, edge, aux=(), **weights):
        # node and edge are the final stage's losses, aux the auxiliary
        # stages' node and edge loss
        def fixed(logits_per_stage, labels, weight, denom, gamma=None):
            assert len(logits_per_stage) == 1 + len(aux)
            return Tensor(np.array([node if gamma is None else edge, *aux]))

        monkeypatch.setattr(train_module, "_stage_losses", fixed)
        mcfg = ModelConfig(hidden=8, layers=layers, node_classes=vocab.num_symbols,
                           edge_classes=vocab.num_edge_classes, readout_hidden=6,
                           aux_readouts=aux_readouts)
        res = forward([graph], init_parameters(mcfg, edge_dim=7, seed=0), mcfg)
        return float(graph_losses(res, [aligned], TrainConfig(**weights)).data)

    assert total(1, False, 1.0, 3.0, node_weight=0.5) == 2.0
    assert total(1, False, 1.0, 3.0, node_weight=1.0) == 1.0
    assert total(1, False, 1.0, 3.0, node_weight=0.0) == 3.0
    got = total(5, True, 1.0, 1.0, aux=[1.0] * 5, node_weight=0.5, aux_weight=0.3)
    assert rel_err(got, 1.0 + 5 * 0.3) < 1e-12
    # aux_weight = 0 silences the auxiliary stages entirely
    assert total(1, True, 1.0, 3.0, aux=[9.0], node_weight=0.5, aux_weight=0.0) == 2.0


# ---------------------------------------------------------------------------
# batched graph losses and exact masking


def _random_item(rng, n, gcfg_edge_dim, vocab, master=True):
    adj = np.triu((rng.random((n, n)) < 0.7).astype(np.int8), 1)
    adj[0, 1] = 1
    adj = adj + adj.T
    ef = rng.standard_normal((n, n, gcfg_edge_dim))
    g = ModeledGraph(adjacency=adj, node_features=rng.standard_normal((n, 2, 10)),
                     edge_features=ef[np.nonzero(adj)])
    node_ids = rng.integers(0, len(vocab.symbols), size=n)
    pairs = np.argwhere(np.triu(adj, 1))
    edge_ids = rng.integers(0, vocab.num_edge_classes, size=(n, n))[tuple(pairs.T)]
    aligned = AlignedLabels(node_ids=node_ids, pairs=pairs, edge_ids=edge_ids)
    return (augment_global(g) if master else g), aligned


def test_masked_primitives_cannot_move_loss_or_grads():
    rng = np.random.default_rng(4)
    vocab = Vocabulary.default()
    mcfg = ModelConfig(hidden=8, layers=2, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.0)
    params = init_parameters(mcfg, edge_dim=7, seed=0)
    tcfg = TrainConfig()
    graph, aligned = _random_item(rng, 5, 7, vocab)
    aligned.node_mask[2] = 0.0  # stroke 2; the master has no label
    aligned.edge_mask[0] = 0.0  # the first support pair

    def run(al):
        with Tape() as tape:
            res = forward([graph], params, mcfg)
            loss = graph_losses(res, [al], tcfg)
            grads = backward(tape, loss, params)
        return float(loss.data), grads

    base_loss, base_grads = run(aligned)
    mutated = aligned
    mutated.node_ids[2] = (mutated.node_ids[2] + 7) % vocab.num_symbols
    mutated.edge_ids[0] = (mutated.edge_ids[0] + 3) % vocab.num_edge_classes
    new_loss, new_grads = run(mutated)

    assert base_loss == new_loss
    for k in base_grads:
        assert np.array_equal(base_grads[k], new_grads[k]), k


def test_split_masks_cannot_move_loss_or_grads():
    # the 'x' (strokes 7 and 8) crosses the n_max 8 cut, so both chunks mask it
    vocab = Vocabulary.default()
    gcfg = GraphConfig(d_n=16, d_e=3, n_max=8)
    expr, lg = compose([("sym", c) for c in "1+2+3-5x9"], "cut")
    local = build_local_graph(expr, gcfg)
    chunks = split_subexpressions(local, align_labels(lg, local.adjacency, vocab), gcfg)
    mcfg = ModelConfig(hidden=8, layers=2, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.0)
    params = init_parameters(mcfg, gcfg.edge_dim, seed=0, dtype=np.float64)
    tcfg = TrainConfig()

    def run():
        with Tape() as tape:
            res = forward([g for g, _ in chunks], params, mcfg)
            loss = graph_losses(res, [al for _, al in chunks], tcfg)
            grads = backward(tape, loss, params)
        return float(loss.data), grads

    base_loss, base_grads = run()
    cuts = []
    for (_, al), cut in zip(chunks, (7, 0)):
        assert al.node_mask[cut] == 0.0
        al.node_ids[cut] = (al.node_ids[cut] + 5) % vocab.num_symbols
        for k, (i, j) in enumerate(al.pairs.tolist()):
            if cut in (i, j):
                assert al.edge_mask[k] == 0.0
                al.edge_ids[k] = (al.edge_ids[k] + 3) % vocab.num_edge_classes
                cuts.append((i, j))
    assert cuts == [(6, 7), (0, 1)]
    new_loss, new_grads = run()
    assert new_loss == base_loss
    for k in base_grads:
        assert np.array_equal(base_grads[k], new_grads[k]), k

    # the same mutation on an unmasked stroke does move the loss
    al = chunks[0][1]
    al.node_ids[6] = (al.node_ids[6] + 5) % vocab.num_symbols
    assert run()[0] != base_loss


def test_graph_losses_match_manual_concatenation():
    # one forward over two graphs; the oracle concatenates each graph's own
    # forward per stage and takes the masked means over the whole batch
    rng = np.random.default_rng(5)
    vocab = Vocabulary.default()
    mcfg = ModelConfig(hidden=8, layers=2, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.0)
    params = init_parameters(mcfg, edge_dim=7, seed=1, dtype=np.float64)
    tcfg = TrainConfig(node_weight=0.4, aux_weight=0.25, focal_gamma=1.5)

    items = [_random_item(rng, n, 7, vocab) for n in (4, 6)]
    items[0][1].node_mask[2] = 0.0
    items[1][1].edge_mask[0] = 0.0
    labels = [aligned for _, aligned in items]
    batch = forward([g for g, _ in items], params, mcfg)
    got = float(graph_losses(batch, labels, tcfg).data)

    results = [forward(g, params, mcfg) for g, _ in items]
    stages = len(results[0].aux) + 1
    assert stages == 3
    want = 0.0
    for s in range(stages):
        n_logits, e_logits = [], []
        nl, nm, el, em = [], [], [], []
        for res, aligned in zip(results, labels):
            assert np.array_equal(res.supports[0], aligned.pairs)
            n_logits.append((res.node_logits if s == 0 else res.aux[s - 1][0]).data)
            e_logits.append((res.edge_logits if s == 0 else res.aux[s - 1][1]).data)
            nl.append(aligned.node_ids)
            nm.append(aligned.node_mask)
            el.append(aligned.edge_ids)
            em.append(aligned.edge_mask)
        ln = _np_node_loss(np.concatenate(n_logits), np.concatenate(nl), np.concatenate(nm))
        le = _np_edge_loss(np.concatenate(e_logits),
                           np.concatenate(el).astype(int), np.concatenate(em), 1.5)
        blend = tcfg.node_weight * ln + (1 - tcfg.node_weight) * le
        want += blend if s == 0 else tcfg.aux_weight * blend
    assert rel_err(got, want) < 1e-10


def test_one_pass_stage_losses_are_the_per_stage_chain_bit_for_bit():
    # graph_losses scores all stages in one pass; the oracle builds one loss
    # chain per stage and folds the stages left to right. Each side runs its
    # own forward from the same dropout rng state.
    rng = np.random.default_rng(10)
    vocab = Vocabulary.default()
    items = [_random_item(rng, n, 7, vocab) for n in (4, 6, 5)]
    items[0][1].node_mask[2] = 0.0
    items[1][1].edge_mask[:2] = 0.0
    no_edges = [(g, AlignedLabels(node_ids=al.node_ids, pairs=al.pairs, edge_ids=al.edge_ids,
                                  node_mask=al.node_mask, edge_mask=np.zeros_like(al.edge_mask)))
                for g, al in items]
    tcfg = TrainConfig(node_weight=0.4, aux_weight=0.25)

    def run(loss_fn, mcfg, params, items, per_graph):
        with Tape() as tape:
            res = forward([g for g, _ in items], params, mcfg, train=True,
                          rng=np.random.default_rng(3))
            loss = loss_fn(res, [al for _, al in items], tcfg, per_graph=per_graph)
            grads = backward(tape, loss, params)
        return loss.data, grads

    cases = [(layers, aux, per_graph, dropout, items)
             for layers in (1, 2, 5, 7, 9) for aux in (True, False)
             for per_graph in (False, True) for dropout in (0.0, 0.1)]
    cases += [(2, True, per_graph, 0.1, no_edges) for per_graph in (False, True)]
    for layers, aux, per_graph, dropout, batch in cases:
        case = (layers, aux, per_graph, dropout, batch is no_edges)
        mcfg = ModelConfig(hidden=8, layers=layers, node_classes=vocab.num_symbols,
                           edge_classes=vocab.num_edge_classes, readout_hidden=6,
                           dropout=dropout, aux_readouts=aux)
        params = init_parameters(mcfg, edge_dim=7, seed=layers)
        got_loss, got = run(graph_losses, mcfg, params, batch, per_graph)
        want_loss, want = run(chained_stage_losses, mcfg, params, batch, per_graph)
        assert got_loss.shape == want_loss.shape == (), case
        if aux and layers + 1 >= 8:
            # NumPy sums 8 or more stage losses pairwise, not left to right
            assert rel_err(got_loss, want_loss) < 1e-14, case
        else:
            assert got_loss.tobytes() == want_loss.tobytes(), case
        for k in want:
            assert got[k].dtype == want[k].dtype, (case, k)
            assert got[k].tobytes() == want[k].tobytes(), (case, k)


def test_batched_validation_is_the_mean_of_per_graph_losses():
    rng = np.random.default_rng(7)
    vocab = Vocabulary.default()
    mcfg = ModelConfig(hidden=8, layers=2, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.0)
    params = init_parameters(mcfg, edge_dim=7, seed=2, dtype=np.float64)
    items = [_random_item(rng, n, 7, vocab) for n in (3, 6, 4, 5)]
    items[1][1].edge_mask[:] = 0.0  # every edge of this graph is masked
    # two strokes without a local edge: the master links them, no support
    lone = ModeledGraph(adjacency=np.zeros((2, 2), dtype=np.int8),
                        node_features=rng.standard_normal((2, 2, 10)),
                        edge_features=np.zeros((0, 7)))
    items.insert(2, (augment_global(lone), AlignedLabels(
        node_ids=np.array([3, 5]), pairs=np.zeros((0, 2)), edge_ids=np.zeros(0))))

    tcfg = TrainConfig(node_weight=0.4, aux_weight=0.25, batch_size=2)
    losses, want_counts = [], np.zeros(4, dtype=np.int64)
    for g, al in items:
        res = forward([g], params, mcfg)
        losses.append(float(graph_losses(res, [al], tcfg).data))
        want_counts += primitive_counts(res, al.node_ids, al.edge_ids, al.node_mask,
                                        al.edge_mask)
    assert forward(items[2][0], params, mcfg).supports[0].shape == (0, 2)
    assert losses[1] > 0.0  # the node loss remains

    for batch_size in (1, 2, 3, 5):
        val_loss, counts = validate(items, params, mcfg,
                                    TrainConfig(node_weight=0.4, aux_weight=0.25,
                                                batch_size=batch_size))
        assert abs(val_loss - np.mean(losses)) <= 1e-12, batch_size
        assert np.array_equal(counts, want_counts)


def test_labels_off_the_support_raise():
    # labels whose pairs are a subset or a superset of the graph's support,
    # or whose strokes are not the graph's, are refused, not trained on
    rng = np.random.default_rng(8)
    vocab = Vocabulary.default()
    mcfg = ModelConfig(hidden=8, layers=1, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.0)
    params = init_parameters(mcfg, edge_dim=7, seed=0)
    tcfg = TrainConfig(max_epochs=1)
    graph, aligned = _random_item(rng, 6, 7, vocab)
    res = forward(graph, params, mcfg)
    graph_losses(res, [aligned], tcfg)
    every_pair = np.argwhere(np.triu(np.ones((6, 6)), 1))
    assert 0 < len(aligned.pairs) < len(every_pair)
    misaligned = {
        "no pairs": AlignedLabels(node_ids=aligned.node_ids, pairs=np.zeros((0, 2)),
                                  edge_ids=np.zeros(0)),
        "subset": AlignedLabels(node_ids=aligned.node_ids, pairs=aligned.pairs[1:],
                                edge_ids=aligned.edge_ids[1:]),
        "superset": AlignedLabels(node_ids=aligned.node_ids, pairs=every_pair,
                                  edge_ids=np.zeros(len(every_pair))),
        "one more stroke": AlignedLabels(node_ids=np.append(aligned.node_ids, 0),
                                         pairs=aligned.pairs, edge_ids=aligned.edge_ids),
    }
    for labels in misaligned.values():
        with pytest.raises(TrainError, match="graph 0 of the batch: .* not aligned"):
            graph_losses(res, [labels], tcfg)
        with pytest.raises(TrainError, match="not aligned"):
            fit([(graph, labels)], [(graph, aligned)], mcfg, tcfg, 7)
        with pytest.raises(TrainError, match="not aligned"):
            fit([(graph, aligned)], [(graph, labels)], mcfg, tcfg, 7)


def test_primitive_counts_respect_masks():
    rng = np.random.default_rng(6)
    vocab = Vocabulary.default()
    mcfg = ModelConfig(hidden=8, layers=1, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.0)
    params = init_parameters(mcfg, edge_dim=7, seed=0)
    graph, aligned = _random_item(rng, 5, 7, vocab)
    res = forward(graph, params, mcfg)
    nmask, emask = aligned.node_mask, aligned.edge_mask

    # force perfect labels, then knock out one node and one edge via the masks
    aligned.node_ids[:] = res.node_logits.data.argmax(axis=1)
    (support,) = res.supports
    aligned.edge_ids[:] = res.edge_logits.data.argmax(axis=1)
    nc, nt, ec, et = primitive_counts(res, aligned.node_ids, aligned.edge_ids, nmask, emask)
    assert (nc, nt) == (5, 5)
    assert (ec, et) == (len(support), len(support))

    nmask[0] = 0.0
    emask[0] = 0.0
    aligned.node_ids[0] += 1  # wrong now, but masked
    nc, nt, ec, et = primitive_counts(res, aligned.node_ids, aligned.edge_ids, nmask, emask)
    assert (nc, nt) == (4, 4)
    assert (ec, et) == (len(support) - 1, len(support) - 1)


# ---------------------------------------------------------------------------
# fit loop


def _fit_items(seed=7, count=3):
    gcfg = GraphConfig(d_n=12, d_e=2)
    pool = generate_synthetic(seed=seed, count=count, max_symbols=2)
    vocab = Vocabulary.from_symbols(
        {lab for _, lg in pool for lab in lg.node_labels})
    items = []
    for expr, lg in pool:
        local = build_local_graph(expr, gcfg)
        aligned = align_labels(lg, local.adjacency, vocab)
        items.append((augment_global(local), aligned))
    return items, vocab, gcfg


def test_fit_runs_and_reports_history():
    items, vocab, gcfg = _fit_items()
    mcfg = ModelConfig(hidden=8, layers=1, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.0)
    tcfg = TrainConfig(lr=0.01, batch_size=2, max_epochs=3, seed=1)
    seen = []
    result = fit(items, items, mcfg, tcfg, edge_dim=gcfg.edge_dim,
                 progress=seen.append)
    assert isinstance(result, FitResult)
    assert len(result.history) == 3 and len(seen) == 3
    for k, row in enumerate(result.history):
        assert row["epoch"] == k
        assert set(row) == {"epoch", "train_loss", "val_loss", "node_acc", "edge_acc", "lr"}
        assert 0.0 <= row["node_acc"] <= 1.0 and 0.0 <= row["edge_acc"] <= 1.0
    assert result.best_epoch == int(np.argmin([r["val_loss"] for r in result.history]))
    assert set(result.best_params) == set(result.params)


def test_fit_best_params_are_a_separate_snapshot_of_the_best_epoch():
    items, vocab, gcfg = _fit_items()
    mcfg = ModelConfig(hidden=8, layers=1, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.0)

    def run(epochs):
        tcfg = TrainConfig(lr=0.05, batch_size=2, max_epochs=epochs, seed=3)
        return fit(items, items, mcfg, tcfg, edge_dim=gcfg.edge_dim)

    result = run(6)
    val = [r["val_loss"] for r in result.history]
    improving = [k for k in range(len(val)) if val[k] < min(val[:k], default=np.inf)]
    assert len(improving) >= 2 and improving[-1] < len(val) - 1, val
    # a fit that stops at the best epoch ends with the parameters it saved
    upto_best = run(result.best_epoch + 1)
    for k, p in result.params.items():
        best = result.best_params[k]
        assert not np.shares_memory(best, p.data)
        assert best.dtype == p.data.dtype
        assert best.tobytes() == upto_best.params[k].data.tobytes(), k


def test_fit_releases_each_steps_gradients(monkeypatch):
    # neither the next forward, the progress callback nor the result holds a
    # step's gradients once Adam has applied them
    items, vocab, gcfg = _fit_items()
    mcfg = ModelConfig(hidden=8, layers=1, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.1)
    tcfg = TrainConfig(lr=0.01, batch_size=2, max_epochs=2, seed=5)
    made, stepped, seen = [], [], []

    def init(*args, **kwargs):
        made.append(init_parameters(*args, **kwargs))
        return made[-1]

    step = eg.Adam.step

    def counted_step(opt, grads):
        stepped.append(sum(p.grad is not None for p in made[0].values()))
        step(opt, grads)

    monkeypatch.setattr(train_module, "init_parameters", init)
    monkeypatch.setattr(eg.Adam, "step", counted_step)
    result = fit(items, items, mcfg, tcfg, edge_dim=gcfg.edge_dim,
                 progress=lambda row: seen.append(
                     [k for k, p in made[0].items() if p.grad is not None]))
    assert len(stepped) == 4 and min(stepped) > 0  # two steps an epoch, with gradients
    assert seen == [[], []]
    assert result.params is made[0]
    assert all(p.grad is None for p in result.params.values())


def test_fit_is_deterministic_for_a_seed():
    items, vocab, gcfg = _fit_items()
    mcfg = ModelConfig(hidden=8, layers=1, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6, dropout=0.1)
    tcfg = TrainConfig(lr=0.01, batch_size=2, max_epochs=2, seed=5)
    r1 = fit(items, items, mcfg, tcfg, edge_dim=gcfg.edge_dim)
    r2 = fit(items, items, mcfg, tcfg, edge_dim=gcfg.edge_dim)
    assert r1.history == r2.history
    assert all(np.array_equal(r1.params[k].data, r2.params[k].data) for k in r1.params)
    r3 = fit(items, items, mcfg, TrainConfig(lr=0.01, batch_size=2, max_epochs=2, seed=6),
             edge_dim=gcfg.edge_dim)
    assert r1.history != r3.history


def test_fit_rejects_empty_splits():
    items, vocab, gcfg = _fit_items()
    mcfg = ModelConfig(hidden=8, layers=1, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6)
    tcfg = TrainConfig()
    with pytest.raises(TrainError, match="train"):
        fit([], items, mcfg, tcfg, edge_dim=gcfg.edge_dim)
    with pytest.raises(TrainError, match="validation"):
        fit(items, [], mcfg, tcfg, edge_dim=gcfg.edge_dim)


def _has_glibc_mallopt():
    if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
        return False
    return hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs Linux with glibc's mallopt")
def test_fit_keeps_freed_memory_between_epochs():
    # glibc's dynamic trim threshold handed each step's freed heap back to the
    # kernel, and the next step faulted it in again: thousands of minor page
    # faults an epoch at the gate config
    import resource
    gcfg = GraphConfig(d_n=32, d_e=10, n_max=8)
    vocab = Vocabulary.default()
    train_items, val_items = [], []
    for expr, lg in generate_synthetic(seed=3, count=64, max_symbols=4):
        local = build_local_graph(expr, gcfg)
        aligned = align_labels(lg, local.adjacency, vocab)
        train_items.extend(split_subexpressions(local, aligned, gcfg))
        val_items.append((augment_global(local), aligned))
    mcfg = ModelConfig(hidden=64, layers=2, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=64)
    tcfg = TrainConfig(lr=0.003, batch_size=32, max_epochs=3, n_max=8, seed=2)
    faults = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
    fit(train_items, val_items, mcfg, tcfg, gcfg.edge_dim,
        progress=lambda row: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
    per_epoch = np.diff(faults)
    assert len(per_epoch) == 3
    assert all(per_epoch[1:] < 1000), per_epoch


def test_fit_sets_the_allocator_through_mallopt_when_there_is_one(monkeypatch):
    items, vocab, gcfg = _fit_items()
    mcfg = ModelConfig(hidden=8, layers=1, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=6)
    tcfg = TrainConfig(lr=0.01, batch_size=2, max_epochs=1, seed=1)
    calls = []

    class Mallopt:
        def __call__(self, param, value):
            calls.append((param, value, self.argtypes, self.restype))
            return 1

    class Libc:
        mallopt = Mallopt()

    monkeypatch.setattr(train_module.ctypes, "CDLL", lambda name: Libc())
    validate(items, init_parameters(mcfg, gcfg.edge_dim, seed=0), mcfg, tcfg)
    assert calls == []  # scoring does not touch the allocator
    fit(items, items, mcfg, tcfg, edge_dim=gcfg.edge_dim)
    ints = (ctypes.c_int, ctypes.c_int)
    assert calls == [(-3, 32 << 20, ints, ctypes.c_int), (-1, 64 << 20, ints, ctypes.c_int)]
    # without mallopt, or without a C library to look in, fit trains as before
    def no_library(name):
        raise OSError("no C library")

    for lib in (lambda name: object(), no_library):
        monkeypatch.setattr(train_module.ctypes, "CDLL", lib)
        assert len(fit(items, items, mcfg, tcfg, edge_dim=gcfg.edge_dim).history) == 1


def test_history_csv_is_stable_text():
    history = [{"epoch": 0, "train_loss": 1.25, "val_loss": 0.5,
                "node_acc": 0.75, "edge_acc": 1.0, "lr": 0.00027},
               {"epoch": 1, "train_loss": 1.0 / 3.0, "val_loss": 0.25,
                "node_acc": 1.0, "edge_acc": 1.0, "lr": 0.00027}]
    want = ("epoch,train_loss,val_loss,node_acc,edge_acc,lr\n"
            "0,1.25,0.5,0.75,1,0.00027\n"
            "1,0.3333333333,0.25,1,1,0.00027\n")
    assert history_to_csv(history) == want


# ---------------------------------------------------------------------------
# config text


def test_parse_config_happy_path():
    text = """
[model]
hidden = 64
layers = 2
dropout = 0.2
message_concat = yes
residual = off

[train]
lr = 0.003
batch_size = 4
seed = 9

[data]
d_n = 32
global_graph = true
"""
    out = parse_config_text(text)
    assert out["model"] == {"hidden": 64, "layers": 2, "dropout": 0.2,
                            "message_concat": True, "residual": False}
    assert out["train"] == {"lr": 0.003, "batch_size": 4, "seed": 9}
    assert out["data"] == {"d_n": 32, "global_graph": True}
    assert isinstance(out["train"]["lr"], float)
    assert isinstance(out["data"]["d_n"], int)

    # every key the README documents parses, coerced to its field's type
    documented = {
        "model": {"hidden": int, "layers": int, "readout_hidden": int, "dropout": float,
                  "leaky_slope": float, "message_concat": bool, "residual": bool,
                  "aux_readouts": bool},
        "train": {"lr": float, "batch_size": int, "max_epochs": int, "patience": int,
                  "decay_factor": float, "node_weight": float, "aux_weight": float,
                  "focal_gamma": float, "val_fraction": float, "seed": int},
        "data": {"d_n": int, "d_e": int, "n_max": int, "global_graph": bool,
                 "full_connect": bool},
    }
    raw = {int: "3", float: "0.5", bool: "no"}
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {raw[t]}\n" for k, t in keys.items())
                   for section, keys in documented.items())
    out = parse_config_text(text)
    for section, keys in documented.items():
        assert {k: type(v) for k, v in out[section].items()} == keys, section


def test_readme_config_block_is_a_file_of_every_key_at_its_default():
    # a copy of the README's block must load; a ';' after a value is part of it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    out = parse_config_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    for section, cls, unset in (("model", ModelConfig, {"node_classes", "edge_classes"}),
                                ("train", TrainConfig, {"n_max"}),
                                ("data", GraphConfig, set())):
        assert out[section].keys() == {f.name for f in fields(cls)} - unset, section
        assert cls(**out[section]) == cls(), section


def test_parse_config_rejects_unknowns_and_bad_values():
    with pytest.raises(TrainError, match=r"unknown section \[optimizer\]"):
        parse_config_text("[optimizer]\nlr = 1\n")
    with pytest.raises(TrainError, match="unknown key 'width'"):
        parse_config_text("[model]\nwidth = 4\n")
    # class counts come from the vocabulary, never from the config
    for key in ("node_classes", "edge_classes"):
        with pytest.raises(TrainError, match=f"unknown key '{key}'"):
            parse_config_text(f"[model]\n{key} = 5\n")
    with pytest.raises(TrainError, match="bad value 'abc'"):
        parse_config_text("[train]\nlr = abc\n")
    with pytest.raises(TrainError, match="bad value 'maybe'"):
        parse_config_text("[model]\nresidual = maybe\n")
    with pytest.raises(TrainError, match="config:"):
        parse_config_text("lr = 1\n")
    # a value is its literal text: no % interpolation from another key
    with pytest.raises(TrainError, match=r"bad value '5%' for train\.lr"):
        parse_config_text("[train]\nlr = 5%\n")
    with pytest.raises(TrainError, match=r"bad value '%\(seed\)s' for train\.lr"):
        parse_config_text("[train]\nseed = 3\nlr = %(seed)s\n")
    # [DEFAULT] is no section of any config, so it is refused, not merged
    for text in ("[DEFAULT]\nlr = nan\n", "[train]\nlr = 0.1\n[DEFAULT]\nseed = 2\n"):
        with pytest.raises(TrainError, match=r"unknown section \[DEFAULT\]"):
            parse_config_text(text)
    # plateau knobs parse, then the TrainConfig they build rejects them
    for text in ("decay_factor = 5", "decay_factor = 0", "patience = 0", "patience = -1"):
        section = parse_config_text(f"[train]\n{text}\n")["train"]
        with pytest.raises(TrainError, match=rf"{text.split()[0]} must be"):
            TrainConfig(**section)
