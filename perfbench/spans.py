"""In-memory span recording around inkgraph's public functions.

The tracer replaces each traced function in every inkgraph module namespace
that binds it (``model`` calls ``eg.conv1d``, ``train`` holds its own
``backward`` and ``forward`` names, ``graphs`` its own ``normalize_expression``)
and restores the originals on ``uninstall``. Nothing in the package is edited.

A span is ``(name index, start ns, end ns, parent span index or -1)``. Self
time is a span's duration minus the durations of its direct children; calls
are single-threaded, so children never overlap one another.
"""

from __future__ import annotations

import importlib
import time

PACKAGE = "inkgraph"
MODULES = ("ink", "graphs", "labels", "metrics", "model", "engine", "train",
           "synth", "dataset", "cli")

# span name -> (module, attribute); each gets calls and self time
TRACED = {
    "ink.normalize_expression": ("ink", "normalize_expression"),
    "ink.resample_stroke": ("ink", "resample_stroke"),
    "graphs.line_of_sight": ("graphs", "line_of_sight"),
    "graphs.convex_hull": ("graphs", "convex_hull"),
    "graphs.directional_features": ("graphs", "directional_features"),
    "graphs.build_local_graph": ("graphs", "build_local_graph"),
    "graphs.augment_global": ("graphs", "augment_global"),
    "graphs.split_subexpressions": ("graphs", "split_subexpressions"),
    "labels.align_labels": ("labels", "align_labels"),
    "labels.decode_labels": ("labels", "decode_labels"),
    "labels.serialize_lg": ("labels", "serialize_lg"),
    "metrics.predict_aligned": ("metrics", "predict_aligned"),
    "metrics.evaluate_expression": ("metrics", "evaluate_expression"),
    "model.node_embed": ("model", "node_embed"),
    "model.edge_attention_layer": ("model", "edge_attention_layer"),
    "model.init_parameters": ("model", "init_parameters"),
    "engine.conv1d": ("engine", "conv1d"),
    "engine.matmul": ("engine", "matmul"),
    "engine.concat": ("engine", "concat"),
    "engine.broadcast_to": ("engine", "broadcast_to"),
    "engine.masked_softmax": ("engine", "masked_softmax"),
    "engine.avg_pool1d": ("engine", "avg_pool1d"),
    "engine.gather_rows": ("engine", "gather_rows"),
    "engine.scatter_rows": ("engine", "scatter_rows"),
    "engine.backward": ("engine", "backward"),
    "engine.save_checkpoint": ("engine", "save_checkpoint"),
    "engine.load_checkpoint": ("engine", "load_checkpoint"),
    "synth.generate_synthetic": ("synth", "generate_synthetic"),
    "dataset.write_dataset": ("dataset", "write_dataset"),
    "dataset.read_dataset": ("dataset", "read_dataset"),
    "train.graph_losses": ("train", "graph_losses"),
    "train.primitive_counts": ("train", "primitive_counts"),
    "train.fit": ("train", "fit"),
}

# model.forward is split by its train flag; Adam.step is a method
FORWARD_NAMES = ("model.forward.eval", "model.forward.train")
ADAM_STEP = "engine.Adam.step"

# every other engine op is counted, not spanned, so engine.ops.calls is complete
COUNTED_OPS = ("add", "sub", "mul", "neg", "scale", "add_const", "reshape",
               "transpose", "tsum", "tmean", "relu", "leaky_relu", "texp",
               "tlog", "pow_scalar", "dropout", "log_softmax")
SPANNED_OPS = ("conv1d", "matmul", "concat", "broadcast_to", "masked_softmax",
               "avg_pool1d", "gather_rows", "scatter_rows")

SPAN_NAMES = tuple(TRACED) + FORWARD_NAMES + (ADAM_STEP,)


def _shape(x):
    return getattr(x, "data", x).shape


class Tracer:
    """Span and counter store. Create one per run; spans stay in memory."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._name_index = {n: i for i, n in enumerate(self.names)}
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _call(self, name_idx, fn, args, kwargs):
        spans = self.spans
        stack = self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (name_idx, start, end, parent)

    def _spanned(self, name, fn):
        name_idx = self._name_index[name]
        is_op = name.startswith("engine.") and name[7:] in SPANNED_OPS

        def wrapper(*args, **kwargs):
            if is_op:
                self._count("engine.ops.calls")
            return self._call(name_idx, fn, args, kwargs)

        return wrapper

    def _forward(self, fn):
        eval_idx = self._name_index[FORWARD_NAMES[0]]
        train_idx = self._name_index[FORWARD_NAMES[1]]

        def wrapper(*args, **kwargs):
            train = kwargs.get("train", args[3] if len(args) > 3 else False)
            return self._call(train_idx if train else eval_idx, fn, args, kwargs)

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self._count("engine.ops.calls")
            return fn(*args, **kwargs)

        return wrapper

    def _matmul(self, fn):
        inner = self._spanned("engine.matmul", fn)

        def wrapper(a, b):
            out = inner(a, b)
            m, k = _shape(a)
            self._count("engine.matmul.flop", 2 * m * k * _shape(b)[1])
            self._count("engine.matmul.out_bytes", out.data.nbytes)
            return out

        return wrapper

    def _conv1d(self, fn):
        inner = self._spanned("engine.conv1d", fn)

        def wrapper(x, w, *args, **kwargs):
            out = inner(x, w, *args, **kwargs)
            _, cper, k = _shape(w)
            self._count("engine.conv1d.flop", 2 * out.data.size * cper * k)
            self._count("engine.conv1d.out_bytes", out.data.nbytes)
            return out

        return wrapper

    def _backward(self, fn):
        inner = self._spanned("engine.backward", fn)

        def wrapper(tape, *args, **kwargs):
            self._count("engine.tape_nodes", len(tape))
            self._count("engine.backward.calls")
            return inner(tape, *args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self):
        """Wrap every traced function wherever an inkgraph module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        replacements = []
        for name, (mod, attr) in TRACED.items():
            orig = getattr(by_name[mod], attr)
            if name == "engine.matmul":
                wrapped = self._matmul(orig)
            elif name == "engine.conv1d":
                wrapped = self._conv1d(orig)
            elif name == "engine.backward":
                wrapped = self._backward(orig)
            else:
                wrapped = self._spanned(name, orig)
            replacements.append((orig, wrapped))
        replacements.append((by_name["model"].forward, self._forward(by_name["model"].forward)))
        for op in COUNTED_OPS:
            orig = getattr(by_name["engine"], op)
            replacements.append((orig, self._counted(orig)))
        for orig, wrapped in replacements:
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, orig))
        adam = by_name["engine"].Adam
        step = adam.step
        adam.step = self._spanned(ADAM_STEP, step)
        self._patched.append((adam, "step", step))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """Self time in ns per span: duration minus the durations of its children."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def aggregate(spans, selfs, names, lo, hi):
    """{name: (calls, self ns)} over spans[lo:hi]."""
    out = {}
    for i in range(lo, hi):
        name = names[spans[i][0]]
        calls, total = out.get(name, (0, 0))
        out[name] = (calls + 1, total + selfs[i])
    return out


def root_time(spans, lo, hi):
    """Summed duration (ns) of spans[lo:hi] that have no parent."""
    return sum(end - start for _, start, end, parent in spans[lo:hi] if parent < 0)
