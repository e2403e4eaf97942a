"""Graph attention model over stroke graphs with edge features.

Nodes are embedded by a separable-convolution encoder over resampled
coordinates, edges by a shared two-layer MLP. State lives on the nodes (V,
hidden) and on the directed edges (E, hidden) of the graph, in the order of
its edge feature rows (graphs.ModeledGraph.edges). Each attention layer
scores (source, edge, target) per edge, normalizes over each source's
out-edges, then sums messages into the source; the message-concatenation
variant re-widens features with the aggregated edge context and restores
width by averaging adjacent features. The layer is one engine op,
eg.edge_attention: with message concatenation it applies that average to
W_b's columns before the product, forms no concatenation and matches the
chain of single ops to rounding; without it, it runs the chain's
operations and gives its bytes. Readouts (final
plus one auxiliary per earlier stage) consume the stage feature concatenated
with the stage-0 embedding. A list of graphs runs as one disjoint union, with
the node indices of each graph offset by the nodes before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine as eg
from .engine import Config, Tensor

ENCODER_CHANNELS = (2, 64, 128, 256)
ENCODER_KERNEL = 9


class ModelError(Exception):
    pass


@dataclass
class ModelConfig(Config):
    error = ModelError

    hidden: int = 512
    layers: int = 5
    node_classes: int = 101
    edge_classes: int = 14
    readout_hidden: int = 384
    dropout: float = 0.1
    leaky_slope: float = 0.2
    message_concat: bool = True
    residual: bool = True
    aux_readouts: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.hidden <= 0 or self.hidden % 2:
            raise ModelError(f"hidden must be positive and even, got {self.hidden}")
        for name in ("layers", "node_classes", "edge_classes", "readout_hidden"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout}")


def _glorot(rng, shape, fan_in, fan_out, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def parameter_layout(config, edge_dim):
    """{name: (shape, fans)}: fans is a weight's Glorot (fan_in, fan_out), None
    for a zero bias. The order is fixed so checkpoints and optimizer traversal
    are deterministic."""
    layout = {}

    def add_w(name, shape, fan_in, fan_out):
        layout[name] = (shape, (fan_in, fan_out))

    def add_b(name, width):
        layout[name] = ((width,), None)

    for bi in range(3):
        cin, cout = ENCODER_CHANNELS[bi], ENCODER_CHANNELS[bi + 1]
        k = ENCODER_KERNEL
        add_w(f"enc.b{bi}.dw.w", (cin, 1, k), k, k)
        add_b(f"enc.b{bi}.dw.b", cin)
        add_w(f"enc.b{bi}.pw.w", (cout, cin, 1), cin, cout)
        add_b(f"enc.b{bi}.pw.b", cout)
        add_w(f"enc.b{bi}.proj.w", (cout, cin, 1), cin, cout)
        add_b(f"enc.b{bi}.proj.b", cout)
    add_w("enc.out.w", (ENCODER_CHANNELS[-1], config.hidden), ENCODER_CHANNELS[-1], config.hidden)
    add_b("enc.out.b", config.hidden)

    add_w("edge.l1.w", (edge_dim, config.readout_hidden), edge_dim, config.readout_hidden)
    add_b("edge.l1.b", config.readout_hidden)
    add_w("edge.l2.w", (config.readout_hidden, config.hidden), config.readout_hidden, config.hidden)
    add_b("edge.l2.b", config.hidden)

    h = config.hidden
    for q in range(config.layers):
        add_w(f"layer{q}.wh", (h, h), h, h)
        add_w(f"layer{q}.wb", (h, h), h, h)
        add_w(f"layer{q}.att", (3 * h, 1), 3 * h, 1)

    def add_readout(prefix):
        add_w(f"{prefix}.node.l1.w", (2 * h, config.readout_hidden), 2 * h, config.readout_hidden)
        add_b(f"{prefix}.node.l1.b", config.readout_hidden)
        add_w(f"{prefix}.node.l2.w", (config.readout_hidden, config.node_classes),
              config.readout_hidden, config.node_classes)
        add_b(f"{prefix}.node.l2.b", config.node_classes)
        add_w(f"{prefix}.edge.l1.w", (2 * h, config.readout_hidden), 2 * h, config.readout_hidden)
        add_b(f"{prefix}.edge.l1.b", config.readout_hidden)
        add_w(f"{prefix}.edge.l2.w", (config.readout_hidden, config.edge_classes),
              config.readout_hidden, config.edge_classes)
        add_b(f"{prefix}.edge.l2.b", config.edge_classes)

    add_readout("read.final")
    if config.aux_readouts:
        for s in range(config.layers):
            add_readout(f"read.aux{s}")
    return layout


def init_parameters(config, edge_dim, seed=0, dtype=np.float32):
    """Named parameter tensors in parameter_layout order: Glorot-uniform
    weights, zero biases."""
    rng = np.random.default_rng(seed)
    return {name: Tensor(np.zeros(shape, dtype=dtype) if fans is None
                         else _glorot(rng, shape, *fans, dtype), requires_grad=True)
            for name, (shape, fans) in parameter_layout(config, edge_dim).items()}


# ---------------------------------------------------------------------------
# embedders


def node_embed(features, params):
    """(n, 2, L) resampled coordinates -> (n, hidden). Identical strokes map to
    identical vectors; the length axis is average-pooled away."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    for bi in range(3):
        # the last block also takes the mean over the length axis
        x = eg.sepconv_block(x, *(params[f"enc.b{bi}.{n}"] for n in
                                  ("dw.w", "dw.b", "pw.w", "pw.b", "proj.w", "proj.b")),
                             padding=ENCODER_KERNEL // 2, pool=bi == 2)
    return eg.add(eg.matmul(x, params["enc.out.w"]), params["enc.out.b"])


def _readout(prefix, params, x):
    h1 = eg.relu(eg.add(eg.matmul(x, params[f"{prefix}.l1.w"]), params[f"{prefix}.l1.b"]))
    return eg.add(eg.matmul(h1, params[f"{prefix}.l2.w"]), params[f"{prefix}.l2.b"])


# ---------------------------------------------------------------------------
# attention layer


def edge_attention_layer(h, b, edges, params, q, config, train=False, rng=None):
    """One message-passing step. Returns (h', b', attention ndarray).

    h is the (V, hidden) node state, b the (E, hidden) state of the directed
    edges edges = (src, dst), sorted by source. Attention logits score
    [W_h h_src ++ W_b b ++ W_h h_dst] and are normalized over each source's
    out-edges; a node without out-edges receives no message. The attention
    comes back as one weight per edge, shape (E,). The layer is one engine
    op, eg.edge_attention, with one tape node.
    """
    return eg.edge_attention(
        h, b, params[f"layer{q}.wh"], params[f"layer{q}.wb"], params[f"layer{q}.att"], edges,
        leaky_slope=config.leaky_slope,
        message_concat=config.message_concat, residual=config.residual,
        dropout_rate=config.dropout if train else 0.0, rng=rng)


# ---------------------------------------------------------------------------
# forward


@dataclass
class BatchResult:
    """Final and auxiliary logits plus per-layer attention of one forward
    over a disjoint union of graphs (one graph is a union of one).

    Logit rows are stacked in graph order: graph g owns node rows
    node_offsets[g]:node_offsets[g + 1] (its strokes, C1 classes) and edge
    rows edge_offsets[g]:edge_offsets[g + 1] (its support pairs, C2
    classes). supports: per graph its (P, 2) int64 writing-order pairs (i < j,
    local stroke indices), row-major; aux: per earlier stage (node_logits,
    edge_logits); attention: per layer, one weight per directed edge of the
    union, including the master's, graph by graph in `edges` order.

    The auxiliary classifiers only shape the training loss. A forward run
    outside a Tape computes them on the first read of aux (and keeps them), so
    a caller that never reads aux never runs them. That read uses the
    parameter arrays as they are at the time, and Adam updates them in place:
    read aux before the next optimizer step.
    """

    node_logits: Tensor
    edge_logits: Tensor
    supports: list
    node_offsets: np.ndarray
    edge_offsets: np.ndarray
    attention: list
    # the aux list, or the function that builds it on first read
    _aux: object = field(repr=False, compare=False)

    @property
    def aux(self):
        if callable(self._aux):
            self._aux = self._aux()
        return self._aux


def forward(graphs, params, config, train=False, rng=None):
    """Run the model over one graph, or over a list of graphs as one disjoint
    union; either gives a BatchResult. Master rows are excluded from all
    logits; edge logits exist only for writing-order support pairs."""
    if train and config.dropout > 0 and rng is None:
        raise ModelError("training forward needs an rng for dropout")
    if not isinstance(graphs, (list, tuple)):
        graphs = [graphs]
    if not graphs:
        raise ModelError("forward needs at least one graph")
    dtype = params["enc.out.w"].dtype

    # the union: node indices offset by the nodes of earlier graphs
    src, dst, edge_rows, strokes, sup_edges, supports = [], [], [], [], [], []
    node_base = edge_base = 0
    for graph in graphs:
        off = 1 if graph.has_master else 0
        rows, cols = graph.edges
        src.append(rows + node_base)
        dst.append(cols + node_base)
        edge_rows.append(graph.edge_features)
        strokes.append(np.arange(node_base + off, node_base + graph.num_nodes))
        # the support: stroke-to-stroke edges with i < j, in row-major order
        sup = np.flatnonzero((rows >= off) & (cols > rows))
        sup_edges.append(sup + edge_base)
        supports.append(np.stack([rows[sup], cols[sup]], axis=1) - off)
        node_base += graph.num_nodes
        edge_base += rows.size
    edges = (np.concatenate(src), np.concatenate(dst))
    strokes = np.concatenate(strokes)
    sup_edges = np.concatenate(sup_edges)

    h0 = node_embed(np.concatenate([g.node_features for g in graphs]).astype(dtype), params)
    b0 = _readout("edge", params, Tensor(np.concatenate(edge_rows).astype(dtype)))
    h0_strokes = eg.gather_rows(h0, strokes)
    b0_support = eg.gather_rows(b0, sup_edges)

    def stage_readout(prefix, hq, bq):
        node_in = eg.concat([eg.gather_rows(hq, strokes), h0_strokes], axis=1)
        edge_in = eg.concat([eg.gather_rows(bq, sup_edges), b0_support], axis=1)
        return (_readout(f"{prefix}.node", params, node_in),
                _readout(f"{prefix}.edge", params, edge_in))

    def aux_readouts():
        return [stage_readout(f"read.aux{s}", hs, bs) for s, (hs, bs) in enumerate(stages)]

    # under a tape the auxiliary readouts run between the layers, as the
    # backward's accumulation order expects; outside one they wait for the
    # first read of .aux, from the kept stage states
    eager = eg.tape_active()
    aux, stages, attention = [], [], []
    h, b = h0, b0
    for q in range(config.layers):
        if config.aux_readouts:
            if eager:
                aux.append(stage_readout(f"read.aux{q}", h, b))
            else:
                stages.append((h, b))
        h, b, alpha = edge_attention_layer(h, b, edges, params, q, config, train, rng)
        attention.append(alpha)
    if not eager:
        aux = aux_readouts
    node_logits, edge_logits = stage_readout("read.final", h, b)
    return BatchResult(
        node_logits=node_logits, edge_logits=edge_logits, supports=supports,
        node_offsets=np.cumsum([0] + [g.num_strokes for g in graphs]),
        edge_offsets=np.cumsum([0] + [len(s) for s in supports]),
        attention=attention, _aux=aux)
