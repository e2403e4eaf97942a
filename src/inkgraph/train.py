"""Losses, the training loop, and the key=value config file.

Node classification uses cross-entropy, edge classification a focal loss.
Masks weight per-primitive terms before reduction, so mutating a masked
label cannot change the loss or any gradient. A batch is one forward over the
disjoint union of its graphs, so one loss call covers every graph's rows.
"""

from __future__ import annotations

import configparser
import ctypes
from dataclasses import dataclass

import numpy as np

from . import engine as eg
from .engine import Adam, Config, PlateauScheduler, Tape, Tensor, backward
from .graphs import GraphConfig
from .metrics import primitive_counts
from .model import ModelConfig, forward, init_parameters


class TrainError(Exception):
    pass


@dataclass
class TrainConfig(Config):
    """Training settings: optimizer, schedule, loss weights, validation split
    and seed.

    fit never reads n_max, and no ini key sets it: the CLI copies
    GraphConfig.n_max, which splits the chunks, so the checkpoint records it."""

    error = TrainError

    lr: float = 0.00027
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    decay_factor: float = 0.1
    node_weight: float = 0.5
    aux_weight: float = 0.3
    focal_gamma: float = 1.5
    n_max: int = 16
    val_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        for name in ("lr", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) <= 0:
                raise TrainError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.node_weight <= 1.0:
            raise TrainError(f"node_weight must be in [0, 1], got {self.node_weight}")
        for name in ("aux_weight", "focal_gamma", "seed"):
            if getattr(self, name) < 0:
                raise TrainError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise TrainError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise TrainError(f"decay_factor must be in (0, 1], got {self.decay_factor}")


# ---------------------------------------------------------------------------
# losses


def _onehot(labels, num_classes):
    n = labels.shape[0]
    out = np.zeros((n, num_classes))
    out[np.arange(n), labels] = 1.0
    return out


def _stage_losses(logits_per_stage, labels, weight, denom, gamma=None):
    """(S,) Tensor: for each of the S stages' (N, C) logits,
    -sum_k weight_k * log p_k / denom over its rows, with the focal factor
    (1 - p_k)^gamma when gamma is given; exactly zero without any weight.

    The stages are scored in one pass over their stacked rows. Each row, and
    each stage's sum over its rows, is the NumPy call a lone stage would make."""
    stages = len(logits_per_stage)
    logits = logits_per_stage[0]
    if logits.shape[0] == 0 or not np.any(weight):
        return Tensor(np.zeros(stages, dtype=logits.dtype))
    labels = np.tile(np.asarray(labels, dtype=np.int64), stages)
    logp = eg.log_softmax(eg.concat(logits_per_stage, axis=0), axis=1)
    picked = eg.tsum(eg.mul(logp, Tensor(_onehot(labels, logits.shape[1]))), axis=1)
    if gamma is not None:
        focal = eg.pow_scalar(eg.add_const(eg.neg(eg.texp(picked)), 1.0), gamma)
        picked = eg.mul(focal, picked)
    weighted = eg.mul(picked, Tensor(np.tile(weight, stages)))
    return eg.scale(eg.tsum(eg.reshape(weighted, (stages, -1)), axis=1), -1.0 / denom)


# ---------------------------------------------------------------------------
# batching helpers


def _stacked_targets(batch, labels, per_graph=False):
    """(node labels, node weights, edge labels, edge weights) of a batch: each
    graph's AlignedLabels stacked in batch order. With per_graph, each graph's
    masks are divided by their sum. Labels whose strokes or pairs are not the
    graph's raise TrainError."""
    weigh = _per_graph if per_graph else np.asarray
    node_labels, node_weights, edge_labels, edge_weights = stacks = [], [], [], []
    for g, (support, aligned) in enumerate(zip(batch.supports, labels, strict=True)):
        strokes = batch.node_offsets[g + 1] - batch.node_offsets[g]
        if aligned.num_nodes != strokes or not np.array_equal(support, aligned.pairs):
            raise TrainError(f"graph {g} of the batch: its labels are not aligned to its "
                             "strokes and support pairs")
        node_labels.append(aligned.node_ids)
        node_weights.append(weigh(aligned.node_mask))
        edge_labels.append(aligned.edge_ids)
        edge_weights.append(weigh(aligned.edge_mask))
    return [np.concatenate(stack) for stack in stacks]


def graph_losses(batch, labels, config, per_graph=False):
    """Total loss Tensor of one forward over a batch of graphs.

    batch is the forward's BatchResult; labels holds one AlignedLabels per
    graph, in batch order, whose masks weight the loss. The means run over
    every unmasked primitive of the batch at once; with per_graph, each
    graph's primitives are averaged on their own and the loss is the sum of
    the graphs' losses. Each readout stage blends its node and edge losses by
    node_weight; the final stage weighs 1, each auxiliary stage aux_weight.
    """
    nl_cat, nw_cat, el_cat, ew_cat = _stacked_targets(batch, labels, per_graph)
    nw_cat = nw_cat.astype(np.float64)
    ew_cat = ew_cat.astype(np.float64)
    # per graph the weights are already normalized; else the mean runs over the batch
    n_denom, e_denom = (1.0, 1.0) if per_graph else (float(nw_cat.sum()), float(ew_cat.sum()))

    stages = [(batch.node_logits, batch.edge_logits)] + batch.aux
    node = _stage_losses([n for n, _ in stages], nl_cat, nw_cat, n_denom)
    edge = _stage_losses([e for _, e in stages], el_cat, ew_cat, e_denom, config.focal_gamma)
    blend = eg.add(eg.scale(node, config.node_weight), eg.scale(edge, 1.0 - config.node_weight))
    stage_weights = np.array([1.0] + [config.aux_weight] * len(batch.aux))
    return eg.tsum(eg.mul(blend, Tensor(stage_weights)))


def _per_graph(mask):
    """mask / mask.sum(), or all zeros when the graph has nothing unmasked."""
    mask = np.asarray(mask, dtype=np.float64)
    denom = float(mask.sum())
    return mask / denom if denom else np.zeros_like(mask)


# ---------------------------------------------------------------------------
# fit


# glibc mallopt(3) parameters and the values fit sets. Under glibc's dynamic
# policy each step's freed heap went back to the kernel and the next step
# faulted it in again, thousands of minor faults an epoch. The mmap threshold
# is glibc's own ceiling for its dynamic one (32 MiB on 64-bit). The trim
# threshold must exceed the free memory a step leaves at the top of the heap:
# at the paper config (hidden 512, batch 4) 40 MiB still faulted every epoch
# and 48 MiB did not; 64 MiB is the next power of two above that.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_memory():
    """Have glibc keep freed heap for reuse instead of returning it to the
    kernel. Process-wide and not undone; a no-op without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@dataclass
class FitResult:
    params: dict
    best_params: dict
    history: list
    best_epoch: int


def fit(train_items, val_items, model_config, train_config, edge_dim, progress=None):
    """Train on pre-split chunk graphs, validate on full graphs each epoch.

    train_items/val_items: [(ModeledGraph, AlignedLabels), ...]. Returns the
    final parameters, the best-validation copy, and the per-epoch history.
    """
    if not train_items:
        raise TrainError("fit: empty training set")
    if not val_items:
        raise TrainError("fit: empty validation set")
    ss = np.random.SeedSequence(train_config.seed)
    init_rng, shuffle_rng_src, drop_rng = [np.random.default_rng(s) for s in ss.spawn(3)]
    params = init_parameters(model_config, edge_dim, seed=init_rng)
    opt = Adam(params, lr=train_config.lr)
    sched = PlateauScheduler(train_config.lr, factor=train_config.decay_factor,
                             patience=train_config.patience)
    history = []
    best_val = np.inf
    best_epoch = -1
    # one buffer per parameter, refilled on each improving epoch; Adam updates
    # params in place, so these stay distinct arrays
    best_params = {k: p.data.copy() for k, p in params.items()}

    _keep_freed_memory()
    for epoch in range(train_config.max_epochs):
        order = shuffle_rng_src.permutation(len(train_items))
        lr_now = sched.lr
        opt.lr = lr_now
        batch_losses = []
        for lo in range(0, len(order), train_config.batch_size):
            items = [train_items[idx] for idx in order[lo:lo + train_config.batch_size]]
            with Tape() as tape:
                res = forward([g for g, _ in items], params, model_config, train=True,
                              rng=drop_rng)
                loss = graph_losses(res, [aligned for _, aligned in items], train_config)
                grads = backward(tape, loss, params)
            opt.step(grads)
            # the gradients are spent: release them before the next forward
            del grads
            for p in params.values():
                p.grad = None
            batch_losses.append(float(loss.data))
        train_loss = float(np.mean(batch_losses))

        val_loss, counts = validate(val_items, params, model_config, train_config)
        node_acc = counts[0] / counts[1] if counts[1] else 0.0
        edge_acc = counts[2] / counts[3] if counts[3] else 0.0

        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                        "node_acc": float(node_acc), "edge_acc": float(edge_acc),
                        "lr": lr_now})
        if progress is not None:
            progress(history[-1])
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            for k, p in params.items():
                np.copyto(best_params[k], p.data)
        sched.update(val_loss)

    return FitResult(params=params, best_params=best_params, history=history,
                     best_epoch=best_epoch)


def validate(items, params, model_config, train_config):
    """(mean of the graphs' own losses, summed primitive_counts) over
    [(ModeledGraph, AlignedLabels), ...], in batches of batch_size graphs."""
    loss_sum = 0.0
    counts = np.zeros(4, dtype=np.int64)
    for lo in range(0, len(items), train_config.batch_size):
        batch = items[lo:lo + train_config.batch_size]
        res = forward([g for g, _ in batch], params, model_config, train=False)
        labels = [aligned for _, aligned in batch]
        loss_sum += float(graph_losses(res, labels, train_config, per_graph=True).data)
        node_labels, node_mask, edge_labels, edge_mask = _stacked_targets(res, labels)
        counts += primitive_counts(res, node_labels, edge_labels, node_mask, edge_mask)
    return loss_sum / len(items), counts


def history_to_csv(history):
    lines = ["epoch,train_loss,val_loss,node_acc,edge_acc,lr"]
    for row in history:
        lines.append(
            f"{row['epoch']},{row['train_loss']:.10g},{row['val_loss']:.10g},"
            f"{row['node_acc']:.10g},{row['edge_acc']:.10g},{row['lr']:.10g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config file


# each section feeds exactly one config; the class counts come from the
# vocabulary, and TrainConfig.n_max is GraphConfig's
_TABLES = {"model": ModelConfig.field_types(exclude=("node_classes", "edge_classes")),
           "train": TrainConfig.field_types(exclude=("n_max",)),
           "data": GraphConfig.field_types()}


def parse_config_text(text):
    """Parse the [model]/[train]/[data] key=value format. Values are literal
    (no % interpolation), and unknown sections, [DEFAULT] included, and
    unknown keys are errors; each value is turned into its key's type. The
    configs built from the result check the values themselves."""
    # no header can name an empty section, so [DEFAULT] is an ordinary,
    # unknown section instead of defaults merged into every other one
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise TrainError(f"config: {exc}") from None
    out = {section: {} for section in _TABLES}
    for section in cp.sections():
        if section not in _TABLES:
            raise TrainError(f"config: unknown section [{section}]")
        table = _TABLES[section]
        for key, raw in cp.items(section):
            if key not in table:
                raise TrainError(f"config: unknown key {key!r} in [{section}]")
            caster = table[key]
            try:
                value = cp.BOOLEAN_STATES[raw.strip().lower()] if caster is bool else caster(raw)
            except (ValueError, KeyError):
                raise TrainError(f"config: bad value {raw!r} for {section}.{key}") from None
            out[section][key] = value
    return out
