"""Graph attention model over stroke graphs with edge features.

Nodes are embedded by a separable-convolution encoder over resampled
coordinates, edges by a shared two-layer MLP. Each attention layer scores
(source, edge, target) concatenations, normalizes over neighbors, then passes
messages; the message-concatenation variant re-widens features with the
aggregated edge context and restores width by parameter-free average pooling.
Readouts (final plus one auxiliary per earlier stage) consume the stage
feature concatenated with the stage-0 embedding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine as eg
from .engine import Tensor

ENCODER_CHANNELS = (2, 64, 128, 256)
ENCODER_KERNEL = 9


class ModelError(Exception):
    pass


@dataclass
class ModelConfig:
    hidden: int = 512
    layers: int = 5
    node_classes: int = 101
    edge_classes: int = 14
    readout_hidden: int = 384
    dropout: float = 0.1
    attn_leaky_relu: bool = True
    leaky_slope: float = 0.2
    message_concat: bool = True
    residual: bool = True
    aux_readouts: bool = True

    def __post_init__(self):
        if self.hidden <= 0 or self.hidden % 2:
            raise ModelError(f"hidden must be positive and even, got {self.hidden}")
        if self.layers < 1:
            raise ModelError(f"need at least one layer, got {self.layers}")
        if min(self.node_classes, self.edge_classes, self.readout_hidden) < 1:
            raise ModelError("class and readout widths must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


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


def _conv_block(x, params, prefix, cin, cout):
    dw = eg.conv1d(x, params[f"{prefix}.dw.w"], stride=1,
                   padding=ENCODER_KERNEL // 2, groups=cin)
    dw = eg.add(dw, eg.reshape(params[f"{prefix}.dw.b"], (1, cin, 1)))
    pw = eg.conv1d(dw, params[f"{prefix}.pw.w"], stride=1, padding=0)
    pw = eg.add(pw, eg.reshape(params[f"{prefix}.pw.b"], (1, cout, 1)))
    act = eg.relu(pw)
    skip = eg.conv1d(x, params[f"{prefix}.proj.w"], stride=1, padding=0)
    skip = eg.add(skip, eg.reshape(params[f"{prefix}.proj.b"], (1, cout, 1)))
    return eg.add(act, skip)


def node_embed(features, params):
    """(n, 2, L) resampled coordinates -> (n, hidden). Identical strokes map to
    identical vectors; the length axis is average-pooled away."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    for bi in range(3):
        x = _conv_block(x, params, f"enc.b{bi}", ENCODER_CHANNELS[bi], ENCODER_CHANNELS[bi + 1])
    pooled = eg.tmean(x, axis=2)
    return eg.add(eg.matmul(pooled, params["enc.out.w"]), params["enc.out.b"])


def _edge_mlp_rows(rows, params):
    h1 = eg.relu(eg.add(eg.matmul(rows, params["edge.l1.w"]), params["edge.l1.b"]))
    return eg.add(eg.matmul(h1, params["edge.l2.w"]), params["edge.l2.b"])


def _readout(prefix, params, x):
    h1 = eg.relu(eg.add(eg.matmul(x, params[f"{prefix}.l1.w"]), params[f"{prefix}.l1.b"]))
    return eg.add(eg.matmul(h1, params[f"{prefix}.l2.w"]), params[f"{prefix}.l2.b"])


# ---------------------------------------------------------------------------
# attention layer


def edge_attention_layer(h, b, adjacency, params, q, config, train=False, rng=None):
    """One message-passing step. Returns (h', b', attention ndarray).

    Attention logits score [W_h h_i ++ W_b b_ij ++ W_h h_j]; rows normalize
    over neighbors only (non-neighbors get exactly zero). Non-edge feature
    slots stay exactly zero through the layer.
    """
    n = h.shape[0]
    hidden = h.shape[1]
    adj = np.asarray(adjacency) != 0

    hw = eg.matmul(h, params[f"layer{q}.wh"])
    bw = eg.reshape(eg.matmul(eg.reshape(b, (n * n, hidden)), params[f"layer{q}.wb"]),
                    (n, n, hidden))

    src = eg.broadcast_to(eg.reshape(hw, (n, 1, hidden)), (n, n, hidden))
    dst = eg.broadcast_to(eg.reshape(hw, (1, n, hidden)), (n, n, hidden))
    trip = eg.concat([src, bw, dst], axis=2)
    logits = eg.reshape(eg.matmul(eg.reshape(trip, (n * n, 3 * hidden)),
                                  params[f"layer{q}.att"]), (n, n))
    if config.attn_leaky_relu:
        logits = eg.leaky_relu(logits, config.leaky_slope)
    alpha = eg.masked_softmax(logits, adj, axis=1)

    h_msg = eg.matmul(alpha, hw)
    b_msg = eg.mul(eg.reshape(alpha, (n, n, 1)), bw)

    if config.message_concat:
        edge_sum = eg.tsum(b_msg, axis=1)
        node_cat = eg.concat([h_msg, edge_sum], axis=1)
        h_next = eg.reshape(
            eg.avg_pool1d(eg.reshape(node_cat, (n, 1, 2 * hidden)), 2, 2), (n, hidden))
        src_m = eg.broadcast_to(eg.reshape(h_msg, (n, 1, hidden)), (n, n, hidden))
        dst_m = eg.broadcast_to(eg.reshape(h_msg, (1, n, hidden)), (n, n, hidden))
        edge_cat = eg.concat([src_m, b_msg, dst_m], axis=2)
        b_next = eg.reshape(
            eg.avg_pool1d(eg.reshape(edge_cat, (n * n, 1, 3 * hidden)), 3, 3), (n, n, hidden))
        b_next = eg.mul(b_next, Tensor(adj[:, :, None].astype(h.dtype)))
    else:
        h_next = h_msg
        b_next = b_msg

    if config.residual:
        h_next = eg.add(h_next, h)
        b_next = eg.add(b_next, b)

    if train and config.dropout > 0:
        h_next = eg.dropout(h_next, config.dropout, rng)
        b_next = eg.dropout(b_next, config.dropout, rng)

    return h_next, b_next, alpha.data.copy()


# ---------------------------------------------------------------------------
# forward


@dataclass
class ForwardResult:
    """Final and auxiliary logits plus per-layer attention.

    node_logits: (num_strokes, C1); edge_logits: (num_support_pairs, C2) in
    support order; support: writing-order pairs (i < j, local indices);
    aux: per earlier stage (node_logits, edge_logits); attention: per layer
    (num_nodes, num_nodes) arrays including the master when present.
    """

    node_logits: Tensor
    edge_logits: Tensor
    support: list
    aux: list = field(default_factory=list)
    attention: list = field(default_factory=list)

    def dense_edge_logits(self):
        """(num_strokes, num_strokes, C2) array; 0.0 off the support."""
        n = self.node_logits.shape[0]
        c2 = self.edge_logits.shape[1]
        out = np.zeros((n, n, c2), dtype=self.edge_logits.dtype)
        for k, (i, j) in enumerate(self.support):
            out[i, j] = self.edge_logits.data[k]
        return out


def forward(graph, params, config, train=False, rng=None):
    """Run the model over one graph. Master rows are excluded from all logits;
    edge logits exist only for writing-order support pairs."""
    if train and config.dropout > 0 and rng is None:
        raise ModelError("training forward needs an rng for dropout")
    adj = graph.adjacency
    n = graph.num_nodes
    offset = 1 if graph.has_master else 0
    hidden = config.hidden

    h0 = node_embed(np.asarray(graph.node_features, dtype=params["enc.out.w"].dtype),
                    params)

    # embed only linked slots; everything else stays exactly zero
    pair_rows = np.nonzero(adj)
    flat_idx = pair_rows[0].astype(np.int64) * n + pair_rows[1].astype(np.int64)
    raw_rows = Tensor(np.asarray(graph.edge_features, dtype=h0.dtype)[pair_rows])
    if flat_idx.size:
        emb_rows = _edge_mlp_rows(raw_rows, params)
        b0 = eg.reshape(eg.scatter_rows(emb_rows, flat_idx, n * n), (n, n, hidden))
    else:
        b0 = Tensor(np.zeros((n, n, hidden), dtype=h0.dtype))

    local_rows = np.arange(offset, n, dtype=np.int64)
    sup_local = np.asarray(np.nonzero(np.triu(adj[offset:, offset:], 1))).T
    support = [(int(i), int(j)) for i, j in sup_local]
    sup_flat = np.array([(i + offset) * n + (j + offset) for i, j in support], dtype=np.int64)

    def stage_readout(prefix, hq, bq):
        node_in = eg.concat([eg.gather_rows(hq, local_rows),
                             eg.gather_rows(h0, local_rows)], axis=1)
        node_logits = _readout(f"{prefix}.node", params, node_in)
        if support:
            eq = eg.gather_rows(eg.reshape(bq, (n * n, hidden)), sup_flat)
            e0 = eg.gather_rows(eg.reshape(b0, (n * n, hidden)), sup_flat)
            edge_in = eg.concat([eq, e0], axis=1)
            edge_logits = _readout(f"{prefix}.edge", params, edge_in)
        else:
            edge_logits = Tensor(np.zeros((0, config.edge_classes), dtype=h0.dtype))
        return node_logits, edge_logits

    aux = []
    attention = []
    h, b = h0, b0
    if config.aux_readouts:
        aux.append(stage_readout("read.aux0", h, b))
    for q in range(config.layers):
        h, b, alpha = edge_attention_layer(h, b, adj, params, q, config, train, rng)
        attention.append(alpha)
        if config.aux_readouts and q < config.layers - 1:
            aux.append(stage_readout(f"read.aux{q + 1}", h, b))
    node_logits, edge_logits = stage_readout("read.final", h, b)
    return ForwardResult(node_logits=node_logits, edge_logits=edge_logits,
                         support=support, aux=aux, attention=attention)
