"""Print the overfit-ordering seed table: the gate's two fits at several train
seeds.

test_overfit_ordering decides on one float32 run per model at train seed 0.
This script repeats that set-up (the gate's data from _overfit_items, its
graph, model and train configs) at other train seeds, for the full model and
the stripped one (no message concat, no residuals, no auxiliary readouts).
For each fit it reports the first epoch at 99/99 node and edge accuracy and
the final accuracies, then whether the gate's rule holds at each seed: the
stripped model reaches 99/99 no earlier and ends at no higher edge accuracy.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/seed_table.py [--seeds 0 1 2 3 4 5]

Each fit runs all 300 epochs; the 12 fits of six seeds took about three
minutes on a 2-vCPU machine.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inkgraph.graphs import GraphConfig  # noqa: E402
from inkgraph.labels import Vocabulary  # noqa: E402
from inkgraph.model import ModelConfig  # noqa: E402
from inkgraph.train import TrainConfig, fit  # noqa: E402

from test_acceptance import _first_hit, _overfit_items  # noqa: E402

STRIPPED = dict(message_concat=False, residual=False, aux_readouts=False)


def gate_fit(seed, train_items, val_items, vocab, gcfg, **ablations):
    """One of test_overfit_ordering's fits at train seed `seed`: (first epoch
    at 99/99, final node accuracy, final edge accuracy)."""
    mcfg = ModelConfig(hidden=64, layers=2, node_classes=vocab.num_symbols,
                       edge_classes=vocab.num_edge_classes, readout_hidden=64,
                       dropout=0.0, **ablations)
    tcfg = TrainConfig(lr=0.003, batch_size=32, max_epochs=300, n_max=8, seed=seed)
    history = fit(train_items, val_items, mcfg, tcfg, gcfg.edge_dim).history
    return _first_hit(history), history[-1]["node_acc"], history[-1]["edge_acc"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(6)))
    args = parser.parse_args(argv)
    gcfg = GraphConfig(d_n=32, d_e=10, n_max=8, global_graph=True)
    vocab = Vocabulary.default()
    train_items, val_items = _overfit_items(gcfg, vocab)
    rows = {}
    for seed in args.seeds:
        for name, ablations in (("full", {}), ("stripped", STRIPPED)):
            rows[seed, name] = gate_fit(seed, train_items, val_items, vocab, gcfg, **ablations)
            hit, node, edge = rows[seed, name]
            print(f"seed {seed} {name}: 99/99 at epoch {hit}, final node acc {node:.4f}, "
                  f"edge acc {edge:.4f}", flush=True)

    def cell(seed, name, k):
        value = rows[seed, name][k]
        if k == 0:
            return "none in 300" if value is None else str(value)
        return f"{value:.2f}"

    print()
    print("| seed | " + " | ".join(str(s) for s in args.seeds) + " |")
    print("|---" * (len(args.seeds) + 1) + "|")
    for label, name, k in (("full, 99/99 at", "full", 0), ("stripped, 99/99 at", "stripped", 0),
                           ("full, final node acc", "full", 1),
                           ("stripped, final node acc", "stripped", 1),
                           ("full, final edge acc", "full", 2),
                           ("stripped, final edge acc", "stripped", 2)):
        print(f"| {label} | " + " | ".join(cell(s, name, k) for s in args.seeds) + " |")
    holds = []
    for seed in args.seeds:
        full_hit, _, full_edge = rows[seed, "full"]
        base_hit, _, base_edge = rows[seed, "stripped"]
        holds.append(full_hit is not None and (base_hit is None or base_hit >= full_hit)
                     and base_edge <= full_edge + 1e-12)
    print()
    print(f"the gate's rule holds at {sum(holds)} of {len(holds)} seeds: "
          + ", ".join(f"{s} {'yes' if ok else 'no'}" for s, ok in zip(args.seeds, holds)))


if __name__ == "__main__":
    main()
