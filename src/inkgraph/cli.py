"""Command-line surface: ingest | build-graph | synth | train | eval | infer
| attention | confusion.

Exit codes: 0 success, 1 usage error, 2 data/runtime error. Every output file
lands under --out with a fixed name so runs are diffable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dataset import DatasetError, read_dataset, write_dataset
from .engine import EngineError, Tensor, load_checkpoint, save_checkpoint
from .graphs import (GraphConfig, GraphError, augment_global, build_local_graph,
                     graph_to_json, split_subexpressions)
from .ink import InkError, parse_inkml, parse_lg
from .labels import LabelError, Vocabulary, align_labels, decode_labels, serialize_lg
from .metrics import (MetricsError, attention_to_csv, build_report,
                      confusion_histograms, evaluate_expression, predict_aligned,
                      report_to_csv)
from .model import ModelConfig, ModelError, forward, parameter_layout
from .train import TrainConfig, TrainError, fit, history_to_csv, parse_config_text

DATASET_NAME = "dataset.bin"
CHECKPOINT_NAME = "checkpoint.bin"


class UsageError(Exception):
    def __init__(self, message, usage):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a subcommand's parser raises this itself, so its own usage line goes along
        raise UsageError(f"{self.prog}: {message}", self.format_usage())


def _int_at_least(low):
    """argparse type: an int >= low, so a bad flag is a usage error."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _build_parser():
    p = _Parser(prog="inkgraph",
                description="Stroke-graph modeling and recognition of "
                            "handwritten mathematical expressions.")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(sp, data=True, out=True, checkpoint=False, config=False):
        if data:
            sp.add_argument("--data", required=True, help="dataset file or directory")
        if out:
            sp.add_argument("--out", required=True, help="output directory")
        if checkpoint:
            sp.add_argument("--checkpoint", required=True, help="checkpoint file")
        if config:
            sp.add_argument("--config", help="key=value config file")

    def graph_flags(sp):
        g = sp.add_mutually_exclusive_group()
        g.add_argument("--global", dest="graph_global", action="store_true",
                       default=None, help="add the master node (default)")
        g.add_argument("--local", dest="graph_global", action="store_false",
                       default=None, help="no master node")
        sp.add_argument("--fc", action="store_true", default=None,
                        help="fully connected graphs instead of visibility")

    sp = sub.add_parser("ingest", help="pack InkML + LG directories into a dataset")
    common(sp)

    sp = sub.add_parser("build-graph", help="dump modeled graphs as JSON")
    common(sp, config=True)
    graph_flags(sp)

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    common(sp, data=False)
    sp.add_argument("--seed", type=_int_at_least(0), default=0)
    sp.add_argument("--count", type=_int_at_least(1), default=20)
    sp.add_argument("--max-symbols", type=_int_at_least(1), default=8)

    sp = sub.add_parser("train", help="fit a model")
    common(sp, config=True)
    graph_flags(sp)
    sp.add_argument("--seed", type=_int_at_least(0), default=None)
    sp.add_argument("--no-aux", action="store_true", help="disable auxiliary readouts")
    sp.add_argument("--no-concat", action="store_true", help="disable message concatenation")
    sp.add_argument("--no-residual", action="store_true", help="disable residual connections")
    sp.add_argument("--quiet", action="store_true", help="suppress per-epoch lines")

    for name, title in (("eval", "score predictions against ground truth"),
                        ("infer", "write predicted label graphs"),
                        ("attention", "export final-layer attention matrices"),
                        ("confusion", "export symbol/pair confusion tables")):
        sp = sub.add_parser(name, help=title)
        common(sp, checkpoint=True)
    return p


# ---------------------------------------------------------------------------
# shared helpers


def _load_config(path):
    if path is None:
        return parse_config_text("")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise TrainError(f"cannot read config {path}: {e}") from None
    return parse_config_text(text)


def _resolve_dataset(path):
    p = Path(path)
    if p.is_dir():
        p = p / DATASET_NAME
    if not p.exists():
        raise DatasetError(f"no dataset at {p}")
    return read_dataset(p)


def _configured(cls, section, **values):
    """cls(**values), the values taken from the ini [section] and the flags."""
    try:
        return cls(**values)
    except cls.error as e:
        raise TrainError(f"config: bad value: {section}.{e}") from None


def _configs(args, vocab):
    """(GraphConfig, ModelConfig, TrainConfig) from --config and the flags;
    a flag the command does not take is off. Class counts come from vocab."""
    cfg = _load_config(args.config)
    data = dict(cfg["data"])
    if args.graph_global is not None:
        data["global_graph"] = args.graph_global
    if args.fc:
        data["full_connect"] = True
    graph_cfg = _configured(GraphConfig, "data", **data)
    model = dict(cfg["model"])
    for flag, key in (("no_aux", "aux_readouts"), ("no_concat", "message_concat"),
                      ("no_residual", "residual")):
        if getattr(args, flag, False):
            model[key] = False
    model_cfg = _configured(ModelConfig, "model", node_classes=vocab.num_symbols,
                            edge_classes=vocab.num_edge_classes, **model)
    train = {**cfg["train"], "n_max": graph_cfg.n_max}
    if getattr(args, "seed", None) is not None:
        train["seed"] = args.seed
    return graph_cfg, model_cfg, _configured(TrainConfig, "train", **train)


def _params_from_checkpoint(path):
    header = load_checkpoint(path)
    for key in ("vocabulary", "model_config", "graph_config"):
        if header.get(key) is None:
            raise EngineError(f"{path}: checkpoint missing {key}")
    try:
        vocab = Vocabulary.from_dict(header["vocabulary"])
        model_cfg = ModelConfig.from_dict(header["model_config"])
        graph_cfg = GraphConfig.from_dict(header["graph_config"])
        layout = {name: shape for name, (shape, _fans) in
                  parameter_layout(model_cfg, graph_cfg.edge_dim).items()}
    except (ModelError, GraphError) as e:
        key = "model_config" if isinstance(e, ModelError) else "graph_config"
        raise EngineError(f"{path}: bad checkpoint config: {key}.{e}") from None
    except (LabelError, KeyError, TypeError, ValueError) as e:
        raise EngineError(f"{path}: bad checkpoint config: {e}") from None
    found = {name: arr.shape for name, arr in header["params"].items()}
    for name in sorted(layout.keys() | found.keys()):
        if found.get(name) != layout.get(name):
            raise EngineError(
                f"{path}: tensor {name!r} does not match model_config "
                f"(file {found.get(name, 'absent')}, expected {layout.get(name, 'absent')})")
    params = {name: Tensor(arr, requires_grad=False)
              for name, arr in header["params"].items()}
    return params, vocab, model_cfg, graph_cfg


def _graphs(pairs, graph_cfg, vocab=None):
    """Build each expression's graph once: yields (expr, gold LabelGraph, local
    graph, full graph, aligned labels). The full graph carries the master node
    when the config asks for one; aligned is None without a vocabulary."""
    for expr, lg in pairs:
        graph = build_local_graph(expr, graph_cfg)
        aligned = None if vocab is None else align_labels(lg, graph.adjacency, vocab)
        full = augment_global(graph) if graph_cfg.global_graph else graph
        yield expr, lg, graph, full, aligned


def _predictions(args):
    """Load an inference command's checkpoint and dataset. Returns the
    vocabulary, the expression count, and a lazy iterator of (expr id,
    BatchResult of the one graph, aligned labels, gold LabelGraph, the graph
    the model ran on): one forward per graph."""
    params, vocab, model_cfg, graph_cfg = _params_from_checkpoint(args.checkpoint)
    pairs, _ = _resolve_dataset(args.data)
    results = ((expr.id, forward(full, params, model_cfg, train=False), aligned, lg, full)
               for expr, lg, _local, full, aligned in _graphs(pairs, graph_cfg, vocab))
    return vocab, len(pairs), results


def _outdir(args, *subdirs):
    base = Path(args.out)
    for sd in subdirs:
        (base / sd).mkdir(parents=True, exist_ok=True)
    base.mkdir(parents=True, exist_ok=True)
    return base


# ---------------------------------------------------------------------------
# commands


def _parse_file(path, parse):
    """parse(the bytes of path); an InkError names the file."""
    try:
        return parse(path.read_bytes())
    except InkError as e:
        raise InkError(f"{path.name}: {e}") from None


def _cmd_ingest(args):
    root = Path(args.data)
    if not root.is_dir():
        raise DatasetError(f"--data must be a directory of .inkml/.lg files, got {root}")
    ink_files = sorted(root.rglob("*.inkml"))
    if not ink_files:
        raise DatasetError(f"no .inkml files under {root}")
    pairs = []
    labels_seen = set()
    for ink_path in ink_files:
        lg_path = ink_path.with_suffix(".lg")
        if not lg_path.exists():
            raise DatasetError(f"missing label graph for {ink_path.name}")
        expr = _parse_file(ink_path, parse_inkml)
        lg = _parse_file(lg_path, parse_lg)
        if lg.num_strokes != len(expr.strokes):
            raise DatasetError(
                f"{ink_path.name}: {len(expr.strokes)} strokes but label graph "
                f"declares {lg.num_strokes}")
        if not expr.id:
            expr.id = ink_path.stem
        labels_seen.update(lg.node_labels)
        pairs.append((expr, lg))
    base = Vocabulary.default()
    extra = labels_seen - set(base.symbols)
    vocab = Vocabulary.from_symbols(set(base.symbols) | extra) if extra else base
    out = _outdir(args)
    write_dataset(out / DATASET_NAME, pairs, vocab)
    print(f"packed {len(pairs)} expressions -> {out / DATASET_NAME}")
    return 0


def _cmd_synth(args):
    from .synth import generate_synthetic

    pairs = generate_synthetic(args.seed, args.count, args.max_symbols)
    out = _outdir(args)
    write_dataset(out / DATASET_NAME, pairs, Vocabulary.default())
    print(f"wrote {len(pairs)} synthetic expressions -> {out / DATASET_NAME}")
    return 0


def _cmd_build_graph(args):
    # every section is checked, so a file gets the verdict train gives it
    graph_cfg, _, _ = _configs(args, Vocabulary.default())
    pairs, _ = _resolve_dataset(args.data)
    out = _outdir(args, "graphs")
    for expr, _lg, _local, full, _aligned in _graphs(pairs, graph_cfg):
        (out / "graphs" / f"{expr.id}.json").write_text(graph_to_json(full),
                                                        encoding="utf-8")
    print(f"wrote {len(pairs)} graphs -> {out / 'graphs'}")
    return 0


def _cmd_train(args):
    pairs, vocab = _resolve_dataset(args.data)
    graph_cfg, model_cfg, train_cfg = _configs(args, vocab)

    if train_cfg.val_fraction > 0.0:
        rng = np.random.default_rng(train_cfg.seed)
        perm = rng.permutation(len(pairs))
        n_val = max(1, int(round(train_cfg.val_fraction * len(pairs))))
        val_idx = set(int(i) for i in perm[:n_val])
    else:
        val_idx = set()

    train_items = []
    val_items = []
    for k, (_expr, _lg, graph, full, aligned) in enumerate(_graphs(pairs, graph_cfg, vocab)):
        if k in val_idx:
            val_items.append((full, aligned))
        else:
            train_items.extend(split_subexpressions(graph, aligned, graph_cfg))
            if not val_idx:
                val_items.append((full, aligned))

    progress = None
    if not args.quiet:
        def progress(row):
            print(f"epoch {row['epoch']:4d}  train {row['train_loss']:.4f}  "
                  f"val {row['val_loss']:.4f}  node {row['node_acc']:.4f}  "
                  f"edge {row['edge_acc']:.4f}  lr {row['lr']:.6g}")

    result = fit(train_items, val_items, model_cfg, train_cfg,
                 graph_cfg.edge_dim, progress=progress)
    out = _outdir(args)
    (out / "history.csv").write_text(history_to_csv(result.history), encoding="utf-8")
    save_checkpoint(out / CHECKPOINT_NAME, result.best_params,
                    vocabulary=vocab.to_dict(), model_config=model_cfg.to_dict(),
                    train_config=train_cfg.to_dict(), graph_config=graph_cfg.to_dict())
    print(f"best epoch {result.best_epoch} -> {out / CHECKPOINT_NAME}")
    return 0


def _cmd_eval(args):
    vocab, _, predictions = _predictions(args)
    rows = []
    dropped = 0
    for expr_id, res, aligned, lg, _full in predictions:
        rows.append(evaluate_expression(expr_id, res, aligned, lg, vocab))
        dropped += aligned.dropped
    report = build_report(rows, dropped_relations=dropped)
    out = _outdir(args)
    (out / "metrics.csv").write_text(report_to_csv(report), encoding="utf-8")
    agg = report.aggregate_row()
    print("  ".join(f"{k} {v:.4f}" for k, v in agg.items()))
    print(f"dropped_relations {report.dropped_relations}")
    print(f"metrics -> {out / 'metrics.csv'}")
    return 0


def _cmd_infer(args):
    vocab, count, predictions = _predictions(args)
    out = _outdir(args, "pred")
    for expr_id, res, aligned, _lg, _full in predictions:
        pred = decode_labels(predict_aligned(res, aligned), vocab)
        (out / "pred" / f"{expr_id}.lg").write_text(serialize_lg(pred),
                                                    encoding="utf-8")
    print(f"wrote {count} label graphs -> {out / 'pred'}")
    return 0


def _cmd_attention(args):
    _, count, predictions = _predictions(args)
    out = _outdir(args, "attention")
    for expr_id, res, _aligned, _lg, full in predictions:
        # the final layer's per-edge weights, placed in a (nodes, nodes) matrix
        alpha = res.attention[-1]
        matrix = np.zeros((full.num_nodes, full.num_nodes), dtype=alpha.dtype)
        matrix[full.edges] = alpha
        (out / "attention" / f"{expr_id}.csv").write_text(attention_to_csv(matrix),
                                                          encoding="utf-8")
    print(f"wrote {count} attention matrices -> {out / 'attention'}")
    return 0


def _cmd_confusion(args):
    vocab, _, predictions = _predictions(args)
    graph_pairs = [(decode_labels(predict_aligned(res, aligned), vocab), lg)
                   for _id, res, aligned, lg, _full in predictions]
    symbols, sym_pairs = confusion_histograms(graph_pairs)
    out = _outdir(args)
    doc = {"symbols": symbols, "pairs": sym_pairs}
    (out / "confusion.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"confusion tables -> {out / 'confusion.json'}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "build-graph": _cmd_build_graph,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "attention": _cmd_attention,
    "confusion": _cmd_confusion,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        print(e.usage, end="", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (InkError, LabelError, GraphError, ModelError, TrainError,
            MetricsError, DatasetError, EngineError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
