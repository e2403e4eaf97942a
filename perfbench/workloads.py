"""The three seeded workloads of the inkgraph benchmark.

* ``train-gate``: the README quickstart's training job (64 expressions of at
  most 4 symbols, hidden 64, 2 layers, d_n 32, n_max 8, batch 32). Tiny
  tensors and thousands of tape nodes per step: the cost is per-op Python
  overhead in engine, model and train.
* ``train-paper``: the same ``train.fit`` call at the paper-default model
  (hidden 512, 5 layers, readout 384, d_n 150, n_max 16) on 4 expressions of at
  most 12 symbols, batch 4, so one step is about a second. The cost is
  kernels: conv1d and the dense n^2 edge state of the attention layers.
* ``recognize``: one closed-loop client pushing expressions through the infer
  path at the paper-default model: forward only, no tape, no backward. Inputs
  are stratified into equal stroke-count bands, so the cost moves from the
  model (short) to visibility (long).

In every workload the expression structures (symbols, layout, stroke counts)
come from a fixed generator seed and ``--seed`` draws the handwriting: pen
noise, scale and offset of every expression. The cost of visibility at a given
stroke count swings by a third between layouts, and a run sees too few
expressions to average that out; with the layouts fixed, runs with different
seeds measure the same work. ``--seed`` also seeds training (initial
parameters, shuffling, dropout) and the recognize model's parameters.

The gated step metric is the mean step time, not a percentile. Host speed on a
shared machine drifts by a fifth over seconds to minutes; a mean moves in
proportion to the share of a run spent slow, while a percentile jumps between
the slow and the fast mode, or between two inputs of a cycle that noise swaps
in rank. Percentiles are printed as report lines with their sample counts.

Graphs of the training workloads are built during set-up only. Library calls go
through module attributes, so a ``spans.Tracer`` installed on the package sees
them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inkgraph import dataset, engine, graphs, ink, labels, metrics, model, synth, train

import spans as spanlib

WORKLOADS = ("train-gate", "train-paper", "recognize")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # a tail percentile keeps at least this many samples above it

STRUCTURE_SEED = 0  # generator seed of the fixed expression structures
PEN_NOISE = 0.01    # std of the seeded per-point noise, as synth's own jitter

# recognize: stroke-count bands and the pool they are drawn from
BANDS = (("short", 2, 8), ("mid", 9, 14), ("long", 15, 22))
POOL_SIZE = 1500
POOL_MAX_SYMBOLS = 16
# One cycle is 7 rounds of one expression per band, at the band octiles
# (van der Corput 1..7). Runs repeat whole cycles, so every run averages and
# ranks the same multiset of inputs; a short cycle lets a run end near its budget.
CYCLE_ROUNDS = 7
CYCLE = len(BANDS) * CYCLE_ROUNDS
# a step is an epoch (train-*) or one expression (recognize); the minimums fit
# a 40-second run and fix the tail percentiles at p60 (train-*) and p90
MIN_STEPS = {"train-gate": 25, "train-paper": 25, "recognize": 5 * CYCLE}
TRACE_MIN_STEPS = {"train-gate": 6, "train-paper": 6, "recognize": CYCLE}
DIGEST_PREFIX = CYCLE  # recognize: expressions in the label digest

# train-paper: one expression per stroke range, each fitting one chunk, so
# every seed gives four chunks and epoch cost does not swing with the draw
PAPER_STROKE_RANGES = ((2, 4), (5, 8), (9, 12), (13, 16))


@dataclass(frozen=True)
class TrainSpec:
    count: int
    max_symbols: int
    model: dict
    graph: dict
    train: dict
    epochs_per_fit: int


TRAIN_SPECS = {
    "train-gate": TrainSpec(
        count=64, max_symbols=4,
        model=dict(hidden=64, layers=2, readout_hidden=64, dropout=0.1),
        graph=dict(d_n=32, d_e=10, n_max=8),
        train=dict(lr=0.003, batch_size=32, n_max=8),
        epochs_per_fit=10),
    "train-paper": TrainSpec(
        count=len(PAPER_STROKE_RANGES), max_symbols=12,
        model=dict(hidden=512, layers=5, readout_hidden=384, dropout=0.1),
        graph=dict(d_n=150, d_e=10, n_max=16),
        train=dict(lr=0.00027, batch_size=4, n_max=16),
        epochs_per_fit=10),
}
RECOGNIZE_MODEL = dict(hidden=512, layers=5, readout_hidden=384, dropout=0.1)
RECOGNIZE_GRAPH = dict(d_n=150, d_e=10, n_max=16)

# setup-phase layers reported with a "setup." prefix
SETUP_LAYERS = (
    "synth.generate_synthetic", "dataset.write_dataset", "dataset.read_dataset",
    "ink.normalize_expression", "ink.resample_stroke", "graphs.line_of_sight",
    "graphs.convex_hull", "graphs.directional_features", "graphs.build_local_graph",
    "graphs.augment_global", "graphs.split_subexpressions", "labels.align_labels",
    "model.init_parameters", "engine.save_checkpoint", "engine.load_checkpoint",
)
SETUP_ONLY = ("synth.generate_synthetic", "dataset.write_dataset", "dataset.read_dataset",
              "engine.save_checkpoint", "engine.load_checkpoint")
SHAPE_METRICS = (
    ("graph.strokes_mean", "count", "higher"),
    ("graph.strokes.short", "count", "higher"),
    ("graph.strokes.mid", "count", "higher"),
    ("graph.strokes.long", "count", "higher"),
    ("graph.edges_directed_mean", "count", "lower"),
    ("graph.edge_density", "ratio", "lower"),
    ("graph.slot_fill", "ratio", "higher"),
    ("graph.dropped_per_expr", "count", "lower"),
)
ENGINE_METRICS = (
    ("engine.ops.calls", "count/step", "lower"),
    ("engine.tape_nodes", "count/batch", "lower"),
    ("engine.conv1d.gflop_computed", "GFLOP/step", "lower"),
    ("engine.conv1d.out_mb_computed", "MB/step", "lower"),
    ("engine.matmul.gflop_computed", "GFLOP/step", "lower"),
    ("engine.matmul.out_mb_computed", "MB/step", "lower"),
)
TRACE_METRICS = (
    ("trace.overhead_ms", "ms/step", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
)
BAND_METRICS = tuple((f"band.{b}.{m}.self_s", "s/step", "lower")
                     for b in ("short", "long") for m in ("graphs", "model", "engine"))


def per_layer_specs():
    """(name, unit, better) for every metric a traced run reports, in order."""
    out = []
    for name in spanlib.SPAN_NAMES:
        if name in SETUP_ONLY:
            continue
        out.append((f"{name}.calls", "count/step", "lower"))
        out.append((f"{name}.self_s", "s/step", "lower"))
    for name in SETUP_LAYERS:
        out.append((f"setup.{name}.calls", "count", "lower"))
        out.append((f"setup.{name}.self_s", "s", "lower"))
    return out + list(ENGINE_METRICS) + list(SHAPE_METRICS) + list(BAND_METRICS) \
        + list(TRACE_METRICS)


END_TO_END = (
    ("setup_s", "s", "lower"),
    ("step_ms_mean", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n_min):
    """The highest whole percentile that leaves TAIL_BEYOND of n_min samples
    above it. Fixed per workload from its minimum count, so runs with more
    samples report the same percentile."""
    if n_min < 2 * TAIL_BEYOND:
        raise ValueError(f"need {2 * TAIL_BEYOND} samples for a tail, got {n_min}")
    return 100 * (n_min - TAIL_BEYOND) // n_min


def nearest_rank(samples, pct):
    s = sorted(samples)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def tail(samples, n_min):
    """(value, percentile) of the workload's fixed tail percentile."""
    pct = tail_percentile(n_min)
    if len(samples) < n_min:
        raise ValueError(f"need {n_min} samples for p{pct}, got {len(samples)}")
    return nearest_rank(samples, pct), pct


def van_der_corput(k):
    """k-th element of the base-2 van der Corput sequence in (0, 1) for k >= 1."""
    q, denom = 0.0, 1.0
    while k:
        denom *= 2
        k, bit = divmod(k, 2)
        q += bit / denom
    return q


# ---------------------------------------------------------------------------
# inputs


def band_of(strokes):
    for name, lo, hi in BANDS:
        if lo <= strokes <= hi:
            return name
    return None


def build_schedule(pool, seed, rounds=CYCLE_ROUNDS):
    """Stratified closed-loop order over a pool of (expr, lg) pairs.

    Each round takes one expression from every band. Within a band, members are
    sorted by stroke count (ties broken by a seeded key) and round r takes the
    member at quantile van_der_corput(r + 1), so any prefix of rounds covers the
    band's stroke-count distribution evenly. Returns [(pool index, band)].
    """
    keys = np.random.default_rng([seed, 7]).random(len(pool))
    members = {name: [] for name, _, _ in BANDS}
    for k, (expr, _) in enumerate(pool):
        band = band_of(len(expr.strokes))
        if band is not None:
            members[band].append(k)
    for name, lo, hi in BANDS:
        if not members[name]:
            raise ValueError(f"pool has no expression with {lo}-{hi} strokes")
        members[name].sort(key=lambda k: (len(pool[k][0].strokes), keys[k]))
    schedule = []
    for r in range(rounds):
        q = van_der_corput(r + 1)
        for name, _, _ in BANDS:
            band = members[name]
            schedule.append((band[int(q * len(band))], name))
    return schedule


def redraw(pairs, seed):
    """The same expressions written again: seeded pen noise on every point, then
    a seeded scale and offset per expression. Labels are unchanged."""
    rng = np.random.default_rng([seed, 11])
    out = []
    for expr, lg in pairs:
        scale = rng.uniform(0.8, 1.3)
        offset = rng.uniform(-2.0, 2.0, 2)
        strokes = [ink.Stroke((s.points + rng.normal(0.0, PEN_NOISE, s.points.shape))
                              * scale + offset, index=s.index) for s in expr.strokes]
        out.append((ink.InkExpression(id=expr.id, strokes=strokes,
                                      annotation=expr.annotation), lg))
    return out


def paper_corpus(seed):
    """One expression per PAPER_STROKE_RANGES entry, first match in a seeded draw."""
    candidates = synth.generate_synthetic(seed, 256, TRAIN_SPECS["train-paper"].max_symbols)
    picked = []
    for lo, hi in PAPER_STROKE_RANGES:
        match = next((p for p in candidates if lo <= len(p[0].strokes) <= hi), None)
        if match is None:
            raise ValueError(f"seed {seed}: no expression with {lo}-{hi} strokes")
        picked.append(match)
    return picked


def roundtrip_dataset(path, pairs, vocab):
    dataset.write_dataset(path, pairs, vocab)
    return dataset.read_dataset(path)


# ---------------------------------------------------------------------------
# results


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    workdir: Path
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    lines: list = field(default_factory=list)    # human-readable report
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    record: dict = field(default_factory=dict)   # values that must repeat per seed

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def report(self, name, value, unit, n, note=""):
        extra = f"  {note}" if note else ""
        self.lines.append(f"metric {name} = {value:.6g} {unit} (n={n}){extra}")

    def emit(self, name, value, unit):
        self.metrics[name] = (float(value), unit)


def machine_record():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def code_digest(*dirs):
    """Digest of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).glob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# graph-shape counts (from return values, not timers)


class Shapes:
    def __init__(self):
        self.strokes = {name: [] for name, _, _ in BANDS}
        self.all_strokes = []
        self.edges = 0
        self.pairs = 0
        self.dropped = 0
        self.graphs = 0
        self.real_slots = 0
        self.slots = 0

    def add_graph(self, graph, aligned, band=None):
        n = graph.num_strokes
        self.all_strokes.append(n)
        if band is not None:
            self.strokes[band].append(n)
        self.edges += int(graph.adjacency.sum())
        self.pairs += n * (n - 1)
        self.dropped += aligned.dropped
        self.graphs += 1

    def add_chunks(self, graph, chunks):
        self.real_slots += graph.num_strokes
        self.slots += sum(c.num_strokes for c, _ in chunks)

    def values(self):
        def mean(xs):
            return float(np.mean(xs)) if xs else 0.0
        return {
            "graph.strokes_mean": mean(self.all_strokes),
            "graph.strokes.short": mean(self.strokes["short"]),
            "graph.strokes.mid": mean(self.strokes["mid"]),
            "graph.strokes.long": mean(self.strokes["long"]),
            "graph.edges_directed_mean": self.edges / max(self.graphs, 1),
            "graph.edge_density": self.edges / self.pairs if self.pairs else 0.0,
            "graph.slot_fill": self.real_slots / self.slots if self.slots else 0.0,
            "graph.dropped_per_expr": self.dropped / max(self.graphs, 1),
        }


# ---------------------------------------------------------------------------
# training workloads


class _TimeUp(Exception):
    pass


class TrainWorkload:
    def __init__(self, run):
        self.run = run
        self.spec = TRAIN_SPECS[run.workload]
        self.reference = None      # FitResult of the first complete fit
        self.first_epoch_done = False

    def setup(self):
        run, spec = self.run, self.spec
        vocab = labels.Vocabulary.default()
        if run.workload == "train-paper":
            pairs = redraw(paper_corpus(STRUCTURE_SEED), run.seed)
        else:
            pairs = redraw(synth.generate_synthetic(STRUCTURE_SEED, spec.count,
                                                    spec.max_symbols), run.seed)
        pairs, vocab = roundtrip_dataset(run.workdir / "dataset.bin", pairs, vocab)
        gc = graphs.GraphConfig(**spec.graph)
        shapes = Shapes()
        train_items, val_items = [], []
        for expr, lg in pairs:
            graph = graphs.build_local_graph(expr, gc)
            aligned = labels.align_labels(lg, graph.adjacency, vocab)
            chunks = graphs.split_subexpressions(graph, aligned, gc)
            shapes.add_graph(graph, aligned)
            shapes.add_chunks(graph, chunks)
            train_items.extend(chunks)
            val_items.append((graphs.augment_global(graph), aligned, lg, expr.id))
        self.vocab, self.gc, self.shapes = vocab, gc, shapes
        self.train_items = train_items
        self.val_items = val_items
        self.mc = model.ModelConfig(node_classes=vocab.num_symbols,
                                    edge_classes=vocab.num_edge_classes, **spec.model)
        self.tc = train.TrainConfig(max_epochs=spec.epochs_per_fit, seed=run.seed,
                                    **spec.train)

    def measure(self, budget_s, min_steps):
        """Fits of epochs_per_fit epochs until the budget is spent; each epoch
        is one sample. The process's first epoch is warm-up and not kept."""
        run = self.run
        samples = []
        val = [(g, a) for g, a, _, _ in self.val_items]
        t0 = time.perf_counter()
        while True:
            mark = [time.perf_counter()]

            def progress(row):
                now = time.perf_counter()
                dur = now - mark[0]
                mark[0] = now
                run.attempted += 1
                self._check_row(row)
                if self.first_epoch_done:
                    samples.append(dur)
                self.first_epoch_done = True
                if (self.reference is not None and now - t0 >= budget_s
                        and len(samples) >= min_steps):
                    raise _TimeUp

            try:
                result = train.fit(self.train_items, val, self.mc, self.tc,
                                   self.gc.edge_dim, progress=progress)
            except _TimeUp:
                return samples
            except Exception as exc:  # a failed fit is counted and ends the phase
                run.attempted += 1
                run.fail(f"fit raised {type(exc).__name__}: {exc}")
                return samples
            if self.reference is None:
                self.reference = result

    def _check_row(self, row):
        run = self.run
        if not (math.isfinite(row["train_loss"]) and math.isfinite(row["val_loss"])):
            run.fail(f"epoch {row['epoch']}: non-finite loss {row}")
            return
        if self.reference is not None and row != self.reference.history[row["epoch"]]:
            run.fail(f"epoch {row['epoch']}: differs from the first fit with the same seed")

    def finish(self, samples):
        """Quality and determinism checks after the timed phase (untimed)."""
        run = self.run
        if self.reference is None:
            run.fail("no fit completed")
            return
        hist = self.reference.history
        loss_final = hist[-1]["train_loss"]
        if not loss_final < hist[0]["train_loss"]:
            run.fail(f"train loss did not fall: {hist[0]['train_loss']} -> {loss_final}")
        # the CLI path: checkpoint the best parameters, reload, score full graphs
        path = run.workdir / "checkpoint.bin"
        engine.save_checkpoint(path, self.reference.best_params,
                               vocabulary=self.vocab.to_dict(),
                               model_config=self.mc.to_dict(),
                               train_config=self.tc.to_dict(),
                               graph_config=self.gc.to_dict())
        header = engine.load_checkpoint(path)
        params = {k: engine.Tensor(v) for k, v in header["params"].items()}
        rows, digest = [], hashlib.sha256()
        for graph, aligned, lg, expr_id in self.val_items:
            run.attempted += 1
            res = model.forward(graph, params, self.mc, train=False)
            row = metrics.evaluate_expression(expr_id, res, aligned, lg, self.vocab)
            digest.update(labels.serialize_lg(row["pred_graph"]).encode())
            rows.append(row)
        report = metrics.build_report(rows, dropped_relations=self.shapes.dropped)
        run.record.update(loss_final=loss_final, exp_rate=report.exp_rate,
                          labels_sha256=digest.hexdigest()[:16])
        unit = "s"
        run.report("epoch_s_p50", statistics.median(samples), unit, len(samples))
        if len(samples) >= MIN_STEPS[run.workload]:
            value, pct = tail(samples, MIN_STEPS[run.workload])
            run.report("epoch_s_tail", value, unit, len(samples), f"p{pct}")
        run.report("loss_final", loss_final, "nats", 1,
                   f"mean train loss of epoch {len(hist) - 1}")
        run.report("exp_rate", report.exp_rate, "ratio", len(rows),
                   "best parameters on the full graphs of the corpus")


# ---------------------------------------------------------------------------
# recognize


class RecognizeWorkload:
    def __init__(self, run):
        self.run = run
        self.step_spans = []  # (span lo, span hi, band) per traced step
        self.shapes = Shapes()
        self.digest_texts = {}

    def setup(self):
        run = self.run
        vocab = labels.Vocabulary.default()
        pool = synth.generate_synthetic(STRUCTURE_SEED, POOL_SIZE, POOL_MAX_SYMBOLS)
        schedule = build_schedule(pool, STRUCTURE_SEED)
        used = sorted({k for k, _ in schedule})
        pairs, vocab = roundtrip_dataset(run.workdir / "pool.bin",
                                         redraw([pool[k] for k in used], run.seed), vocab)
        position = {k: i for i, k in enumerate(used)}
        self.schedule = [(pairs[position[k]], band) for k, band in schedule]
        gc = graphs.GraphConfig(**RECOGNIZE_GRAPH)
        mc = model.ModelConfig(node_classes=vocab.num_symbols,
                               edge_classes=vocab.num_edge_classes, **RECOGNIZE_MODEL)
        params = model.init_parameters(mc, gc.edge_dim, seed=run.seed)
        path = run.workdir / "checkpoint.bin"
        engine.save_checkpoint(path, params, vocabulary=vocab.to_dict(),
                               model_config=mc.to_dict(), graph_config=gc.to_dict())
        header = engine.load_checkpoint(path)
        self.params = {k: engine.Tensor(v) for k, v in header["params"].items()}
        self.mc = model.ModelConfig.from_dict(header["model_config"])
        self.gc = graphs.GraphConfig.from_dict(header["graph_config"])
        self.vocab = labels.Vocabulary.from_dict(header["vocabulary"])

    def step(self, k):
        """One expression through the infer path; returns (seconds, band)."""
        (expr, lg), band = self.schedule[k % len(self.schedule)]
        run = self.run
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            graph = graphs.build_local_graph(expr, self.gc)
            aligned = labels.align_labels(lg, graph.adjacency, self.vocab)
            full = graphs.augment_global(graph) if self.gc.global_graph else graph
            res = model.forward(full, self.params, self.mc, train=False)
            row = metrics.evaluate_expression(expr.id, res, aligned, lg, self.vocab)
            text = labels.serialize_lg(row["pred_graph"])
        except Exception as exc:  # a failed expression is counted, the loop goes on
            run.fail(f"{expr.id}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, band
        dur = time.perf_counter() - t0
        self.shapes.add_graph(graph, aligned, band)
        n = expr.num_strokes
        if len(row["pred_graph"].node_labels) != n or ink.parse_lg(text).num_strokes != n:
            run.fail(f"{expr.id}: label graph does not cover exactly its {n} strokes")
        if k < DIGEST_PREFIX:
            if self.digest_texts.setdefault(k, text) != text:
                run.fail(f"{expr.id}: labels differ from an earlier pass in this run")
        return dur, band

    def warm_up(self):
        for k in range(len(BANDS)):
            self.step(k)

    def measure(self, budget_s, min_steps, tracer=None):
        """Whole cycles of the schedule, at least min_steps expressions, ending
        at the cycle boundary nearest the budget; one expression is one step.
        With a tracer, every expression runs untraced and then at once traced,
        so the tracing overhead is the difference on the same input a moment
        apart.

        Returns (seconds, bands, untraced seconds); the last is empty without
        a tracer.
        """
        samples, bands, plain = [], [], []
        t0 = time.perf_counter()
        k = 0
        while k < min_steps or k % CYCLE or not _cycle_ends_run(
                time.perf_counter() - t0, k // CYCLE, budget_s):
            if tracer is None:
                dur, band = self.step(k)
            else:
                plain.append(self.step(k)[0])
                dur, band = self._traced_step(k, tracer)
            samples.append(dur)
            bands.append(band)
            k += 1
        return samples, bands, plain

    def _traced_step(self, k, tracer):
        tracer.install()
        try:
            lo = len(tracer.spans)
            dur, band = self.step(k)
            self.step_spans.append((lo, len(tracer.spans), band))
        finally:
            tracer.uninstall()
        return dur, band

    def finish(self, samples, bands):
        run = self.run
        digest = hashlib.sha256()
        for k in range(DIGEST_PREFIX):
            digest.update(self.digest_texts.get(k, "<missing>").encode())
        run.record.update(labels_sha256=digest.hexdigest()[:16])
        ms = [s * 1000 for s in samples]
        run.report("latency_ms_p50", statistics.median(ms), "ms", len(ms))
        note = "" if len(ms) >= 10 * TAIL_BEYOND else \
            f"fewer than {TAIL_BEYOND} samples above p90"
        run.report("latency_ms_p90", nearest_rank(ms, 90), "ms", len(ms), note)
        if len(ms) >= MIN_STEPS["recognize"]:
            value, pct = tail(ms, MIN_STEPS["recognize"])
            run.report("latency_ms_tail", value, "ms", len(ms), f"p{pct}")
        for name, lo, hi in BANDS:
            band_ms = [m for m, b in zip(ms, bands) if b == name]
            run.report(f"latency_ms_p50.{name}", statistics.median(band_ms), "ms",
                       len(band_ms), f"{lo}-{hi} strokes")
        run.report("expr_per_s", len(samples) / sum(samples), "1/s", len(samples))


def _cycle_ends_run(elapsed, cycles, budget_s):
    """True when stopping after `cycles` whole cycles lands nearer the budget
    than running one more cycle of the mean length so far."""
    return elapsed + elapsed / cycles / 2 >= budget_s


# ---------------------------------------------------------------------------
# driver


def _check_record(run, src):
    """Same code + workload + seed must give the same quality and labels across
    processes; the first run of a key stores it."""
    path = run.workdir.parent / "records.json"
    key = f"{code_digest(src, Path(__file__).parent)}:{run.workload}:{run.seed}"
    try:
        records = json.loads(path.read_text())
    except (OSError, ValueError):
        records = {}
    run.attempted += 1
    previous = records.get(key)
    if previous is None:
        records[key] = run.record
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        os.replace(tmp, path)
    elif previous != run.record:
        run.fail(f"seed {run.seed} gave {run.record}, an earlier run gave {previous}")
    for k, v in run.record.items():
        run.lines.append(f"record {k} = {v}")


def _timed_summary(run, samples, unit_name):
    ms = [s * 1000 for s in samples]
    value, pct = tail(ms, MIN_STEPS[run.workload])
    run.emit("step_ms_mean", statistics.fmean(ms), "ms")
    run.report("step_ms_mean", statistics.fmean(ms), "ms", len(ms), f"one {unit_name}")
    run.report("step_ms_p50", statistics.median(ms), "ms", len(ms), f"one {unit_name}")
    run.report("step_ms_tail", value, "ms", len(ms), f"p{pct}")


def _setup_repeated(run, make):
    times = []
    for _ in range(SETUP_REPEATS):
        w = make(run)
        t0 = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - t0)
    run.emit("setup_s", statistics.median(times), "s")
    run.report("setup_s", statistics.median(times), "s", len(times), "median of set-ups")
    return w


def run_workload(workload, seed, seconds, traced, out_dir, src):
    """Run one workload; returns the filled Run (metrics, checks, report lines)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir = Path(out_dir) / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload=workload, seed=seed, seconds=seconds, workdir=workdir)
    make = RecognizeWorkload if workload == "recognize" else TrainWorkload
    unit_name = "expression" if workload == "recognize" else "epoch"
    try:
        if traced:
            _run_traced(run, make, unit_name, out_dir)
        else:
            w = _setup_repeated(run, make)
            if workload == "recognize":
                w.warm_up()
                samples, bands, _ = w.measure(seconds, MIN_STEPS[workload])
                w.finish(samples, bands)
            else:
                samples = w.measure(seconds, MIN_STEPS[workload])
                w.finish(samples)
            _timed_summary(run, samples, unit_name)
            rss = peak_rss_mb()
            run.emit("peak_rss_mb", rss, "MB")
            run.report("peak_rss_mb", rss, "MB", 1)
            for name, value in w.shapes.values().items():
                run.lines.append(f"shape {name} = {value:.6g}")
        if run.record:
            _check_record(run, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.report("error_rate", run.failed / max(run.attempted, 1), "ratio", run.attempted,
               f"{run.failed} failed")
    return run


def _run_traced(run, make, unit_name, out_dir):
    """Set up once under the tracer, then measure untraced and traced steps
    for about the plain run's budget: recognize pairs them per expression,
    training spends half the budget each way. Per-layer figures come from the
    traced steps, overhead from the difference; coverage is root-span time over
    traced wall time."""
    tracer = spanlib.Tracer()
    w = make(run)
    recognize = run.workload == "recognize"
    tracer.install()
    try:
        setup_lo = len(tracer.spans)
        w.setup()
        setup_hi = len(tracer.spans)
    finally:
        tracer.uninstall()
    min_steps = TRACE_MIN_STEPS[run.workload]
    tracer.counters.clear()
    lo = len(tracer.spans)
    if recognize:
        w.warm_up()
        traced, bands, plain = w.measure(run.seconds / 2, min_steps, tracer)
        hi = len(tracer.spans)
        wall = sum(traced) * 1e9
        w.finish(traced, bands)
    else:
        plain = w.measure(run.seconds / 2, min_steps)
        tracer.install()
        try:
            start = time.perf_counter_ns()
            traced = w.measure(run.seconds / 2, min_steps)
            wall = time.perf_counter_ns() - start
            hi = len(tracer.spans)
        finally:
            tracer.uninstall()
        w.finish(traced)

    spans, names = tracer.spans, tracer.names
    selfs = spanlib.self_times(spans)
    steps = len(traced)
    timed = spanlib.aggregate(spans, selfs, names, lo, hi)
    setup = spanlib.aggregate(spans, selfs, names, setup_lo, setup_hi)
    for name in spanlib.SPAN_NAMES:
        if name in SETUP_ONLY:
            continue
        calls, ns = timed.get(name, (0, 0))
        run.emit(f"{name}.calls", calls / steps, "count/step")
        run.emit(f"{name}.self_s", ns / 1e9 / steps, "s/step")
    for name in SETUP_LAYERS:
        calls, ns = setup.get(name, (0, 0))
        run.emit(f"setup.{name}.calls", calls, "count")
        run.emit(f"setup.{name}.self_s", ns / 1e9, "s")
    c = tracer.counters
    run.emit("engine.ops.calls", c.get("engine.ops.calls", 0) / steps, "count/step")
    backs = c.get("engine.backward.calls", 0)
    run.emit("engine.tape_nodes", c.get("engine.tape_nodes", 0) / backs if backs else 0.0,
             "count/batch")
    for op in ("conv1d", "matmul"):
        run.emit(f"engine.{op}.gflop_computed", c.get(f"engine.{op}.flop", 0) / 1e9 / steps,
                 "GFLOP/step")
        run.emit(f"engine.{op}.out_mb_computed",
                 c.get(f"engine.{op}.out_bytes", 0) / 1e6 / steps, "MB/step")
    for name, value in w.shapes.values().items():
        run.emit(name, value, next(u for n, u, _ in SHAPE_METRICS if n == name))
    _band_layers(run, w, spans, selfs, names)
    watched = ("engine.backward", "engine.Adam.step") if recognize \
        else ("graphs.line_of_sight",)
    for name in watched:
        calls = timed.get(name, (0, 0))[0]
        run.lines.append(f"confirm: {name} calls in the timed phase = {calls}")
    m = min(len(plain), len(traced))
    extra = sum(traced[:m]) - sum(plain[:m])
    run.emit("trace.overhead_ms", extra / m * 1000, "ms/step")
    run.emit("trace.overhead_pct", 100 * extra / sum(plain[:m]), "%")
    run.emit("trace.coverage_pct", 100 * spanlib.root_time(spans, lo, hi) / wall, "%")
    run.lines.append(f"trace: {hi - lo} spans over {steps} traced {unit_name}s, "
                     f"{setup_hi - setup_lo} in set-up; plain phase {len(plain)} {unit_name}s")
    run.lines.append("engine.*.gflop_computed and *.out_mb_computed are computed from "
                     "operand shapes (forward only), not measured")
    _write_spans(run, tracer, out_dir, (setup_lo, setup_hi), (lo, hi))


def _band_layers(run, w, spans, selfs, names):
    per_band = {b: {"graphs": 0, "model": 0, "engine": 0} for b in ("short", "long")}
    counts = {b: 0 for b in per_band}
    for lo, hi, band in getattr(w, "step_spans", []):
        if band not in per_band:
            continue
        counts[band] += 1
        for i in range(lo, hi):
            group = names[spans[i][0]].split(".", 1)[0]
            if group in per_band[band]:
                per_band[band][group] += selfs[i]
    for band, groups in per_band.items():
        for group, ns in groups.items():
            value = ns / 1e9 / counts[band] if counts[band] else 0.0
            run.emit(f"band.{band}.{group}.self_s", value, "s/step")
    if counts["long"]:
        g, mdl = per_band["long"]["graphs"], per_band["long"]["model"]
        run.lines.append(f"confirm: long band graphs.* self {g / 1e9:.3f} s vs model.* "
                         f"self {mdl / 1e9:.3f} s over {counts['long']} expressions")


def _write_spans(run, tracer, out_dir, setup_range, timed_range):
    doc = {
        "workload": run.workload, "seed": run.seed, "machine": machine_record(),
        "names": tracer.names,
        "phases": {"setup": list(setup_range), "timed": list(timed_range)},
        "fields": ["name", "start_ns", "end_ns", "parent"],
        "spans": tracer.spans,
    }
    path = Path(out_dir) / f"spans-{run.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    run.lines.append(f"spans -> {path}")
