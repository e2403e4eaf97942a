"""CLI tests: exit codes, the synth/train/eval/infer/attention/confusion
pipeline on a temp directory, ingest from raw files, flag wiring, and
byte-identical reruns."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from inkgraph import container
from inkgraph.cli import main
from inkgraph.dataset import DATASET_MAGIC, DatasetError, read_dataset, write_dataset
from inkgraph.engine import Tensor, load_checkpoint, save_checkpoint
from inkgraph.graphs import GraphConfig, augment_global, build_local_graph
from inkgraph.ink import parse_lg
from inkgraph.labels import Vocabulary, serialize_lg
from inkgraph.metrics import attention_to_csv
from inkgraph.model import ModelConfig, forward
from inkgraph.synth import compose

from oracles import dense_attention, graph_from_json

CONFIG = """
[model]
hidden = 8
layers = 1
dropout = 0.0

[train]
lr = 0.01
batch_size = 2
max_epochs = 2
seed = 3

[data]
d_n = 12
d_e = 2
n_max = 8
"""

INKML_A = """<ink xmlns="http://www.w3.org/2003/InkML">
  <annotation type="UI">expr_a</annotation>
  <annotation type="truth">$xy$</annotation>
  <trace id="t0">0 0, 1 0, 2 1</trace>
  <trace id="t1">3 0, 3 2, 4 1</trace>
</ink>
"""
LG_A = """N, s0, x, 1.0
N, s1, y, 1.0
E, s0, s1, Right, 1.0
"""

INKML_B = """<ink>
  <trace>0 0, 0 2</trace>
  <trace>5 0, 6 2, 7 0</trace>
  <trace>9 1, 10 1</trace>
</ink>
"""
LG_B = """N, s0, 1, 1.0
N, s1, a, 1.0
N, s2, -, 1.0
E, s0, s1, Right, 1.0
E, s1, s2, Right, 1.0
"""


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    return tmp_path


def _synth(workdir, capsys, out="data", count=4):
    code, _, _ = _run(["synth", "--out", str(workdir / out), "--seed", "5",
                       "--count", str(count), "--max-symbols", "2"], capsys)
    assert code == 0
    return workdir / out


def _train(workdir, capsys, data, out="run", extra=()):
    code, _, err = _run(["train", "--data", str(data), "--out", str(workdir / out),
                         "--config", str(workdir / "run.cfg"), "--quiet", *extra],
                        capsys)
    assert code == 0, err
    return workdir / out


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(capsys):
    for argv in ([], ["bogus"], ["train"], ["train", "--data", "x"],
                 ["eval", "--data", "x", "--out", "y"]):
        code, _, err = _run(argv, capsys)
        assert code == 1, argv
        assert "usage:" in err

    # out-of-range flags are usage errors, caught before any work starts; the
    # usage line is the subcommand's own
    cases = [(["synth", "--count", "0"], "argument --count: must be >= 1, got 0"),
             (["synth", "--count", "-3"], "argument --count: must be >= 1, got -3"),
             (["synth", "--max-symbols", "0"], "argument --max-symbols: must be >= 1"),
             (["synth", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
             (["train", "--data", "x", "--seed", "-1"], "argument --seed: must be >= 0")]
    for argv, message in cases:
        code, _, err = _run(argv + ["--out", "y"], capsys)
        assert code == 1, argv
        assert message in err and "Traceback" not in err, err
        assert f"usage: inkgraph {argv[0]} [-h]" in err, err
    _, _, err = _run(["train", "--data", "x"], capsys)
    assert "usage: inkgraph train [-h]" in err, err
    # synth takes flags only
    code, _, err = _run(["synth", "--out", "y", "--config", "a.ini"], capsys)
    assert code == 1 and "unrecognized arguments: --config a.ini" in err, err
    _, _, err = _run(["bogus"], capsys)
    assert "usage: inkgraph [-h] COMMAND" in err, err


def test_data_errors_exit_2(workdir, capsys):
    missing = str(workdir / "nothing")
    outd = str(workdir / "out")
    cases = [
        ["build-graph", "--data", missing, "--out", outd],
        ["train", "--data", missing, "--out", outd],
        ["ingest", "--data", missing, "--out", outd],
        ["eval", "--data", missing, "--out", outd, "--checkpoint",
         str(workdir / "no.ckpt")],
    ]
    for argv in cases:
        code, _, err = _run(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error:"), argv

    # truncated containers and a checkpoint whose tensors miss its config:
    # exit 2 with a message naming the file, never a traceback
    data = _synth(workdir, capsys, count=2)
    ckpt = _train(workdir, capsys, data) / "checkpoint.bin"
    blob = ckpt.read_bytes()
    hlen = int.from_bytes(blob[8:16], "little")
    bad = {"cut.bin": (data / "dataset.bin").read_bytes()[:10],
           "cut12.ckpt": blob[:12],
           "cut_header.ckpt": blob[:16 + hlen // 2],
           "cut_tensors.ckpt": blob[:-3]}
    for name, content in bad.items():
        (workdir / name).write_bytes(content)
    header = load_checkpoint(ckpt)
    save_checkpoint(workdir / "mismatched.ckpt", header["params"],
                    vocabulary=header["vocabulary"],
                    model_config={**header["model_config"], "layers": 2},
                    graph_config=header["graph_config"])
    cases = [("cut.bin", ["eval", "--data", str(workdir / "cut.bin"),
                          "--checkpoint", str(ckpt)])]
    cases += [(name, ["eval", "--data", str(data), "--checkpoint", str(workdir / name)])
              for name in ("cut12.ckpt", "cut_header.ckpt", "cut_tensors.ckpt",
                           "mismatched.ckpt")]
    for name, argv in cases:
        code, _, err = _run(argv + ["--out", outd], capsys)
        assert code == 2, name
        assert err.startswith("error:") and name in err, err

    # values that would otherwise fail mid-run (a traceback, or a non-finite
    # loss or attention score in training) are refused before the run starts
    configs = [("train", "[train]\nseed = -4\n", "train.seed"),
               ("train", "[train]\nlr = inf\n", "train.lr"),
               ("train", "[train]\nfocal_gamma = nan\n", "train.focal_gamma"),
               ("train", "[train]\naux_weight = nan\n", "train.aux_weight"),
               ("train", "[train]\ndecay_factor = nan\n", "train.decay_factor"),
               ("train", "[train]\nlr = nan\n", "train.lr"),
               ("train", "[model]\nleaky_slope = nan\n", "model.leaky_slope"),
               ("train", "[model]\nleaky_slope = inf\n", "model.leaky_slope"),
               ("train", "[model]\nhidden = 64.0\n", "model.hidden"),
               ("train", "[train]\nbatch_size = 2.5\n", "train.batch_size"),
               ("build-graph", "[data]\nd_n = 32.5\n", "data.d_n"),
               # build-graph checks every section, as train does
               ("build-graph", "[train]\nlr = nan\n", "train.lr"),
               ("build-graph", "[model]\nhidden = 3\n", "model.hidden")]
    for command, text, key in configs:
        cfg = workdir / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, _, err = _run([command, "--out", outd, "--config", str(cfg),
                             "--data", str(data)], capsys)
        assert code == 2, text
        assert err.startswith("error: config: bad value") and key in err, err
        assert "Traceback" not in err

    # plateau knobs outside their range name the key
    for text, key in (("[train]\ndecay_factor = 5\n", "decay_factor"),
                      ("[train]\npatience = -1\n", "patience")):
        cfg = workdir / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, _, err = _run(["train", "--data", str(data), "--out", outd,
                             "--config", str(cfg)], capsys)
        assert code == 2, text
        assert err.startswith(f"error: config: bad value: train.{key} must be") \
            and "Traceback" not in err, err


def test_foreign_relation_list_exits_2(workdir, capsys):
    # label graphs and chunk masking fix the relation classes and their ids, so
    # a header naming other relations is refused instead of trained on
    data = _synth(workdir, capsys, count=2) / "dataset.bin"
    header, payload = container.read(data, DATASET_MAGIC, DatasetError, "dataset")
    header["vocabulary"]["relations"] += ["Extra"]
    bad = workdir / "extra.bin"
    container.write(bad, DATASET_MAGIC, header, [payload])
    save_checkpoint(workdir / "extra.ckpt", {}, vocabulary=header["vocabulary"],
                    model_config={}, graph_config={})
    for name, argv in (("extra.bin", ["train", "--data", str(bad),
                                      "--config", str(workdir / "run.cfg")]),
                       ("extra.ckpt", ["eval", "--data", str(data),
                                       "--checkpoint", str(workdir / "extra.ckpt")])):
        code, _, err = _run(argv + ["--out", str(workdir / "out")], capsys)
        assert code == 2, name
        assert err.startswith("error:") and name in err and "relations" in err, err
        if name == "extra.bin":
            assert "vocabulary in header" in err and "corrupt record" not in err, err


def test_checkpoint_config_of_the_wrong_type_exits_2(workdir, capsys):
    # each value has its field's type or is refused, naming the key: a string
    # slope failed mid-run, a float d_e passed the tensor shape check and
    # failed in np.linspace, and string booleans were read as true
    data = _synth(workdir, capsys, count=2)
    ckpt = _train(workdir, capsys, data) / "checkpoint.bin"
    header = load_checkpoint(ckpt)

    def resave(name, section, key, value):
        configs = {s: dict(header[s]) for s in ("model_config", "graph_config")}
        configs[section][key] = value
        save_checkpoint(workdir / name, header["params"], vocabulary=header["vocabulary"],
                        train_config=header["train_config"], **configs)
        return _run(["eval", "--data", str(data), "--out", str(workdir / "out"),
                     "--checkpoint", str(workdir / name)], capsys)

    probes = [("model_config", "leaky_slope", "x"), ("graph_config", "d_e", 10.0),
              ("model_config", "attn_leaky_relu", "no"),
              # as a checkpoint written before the switch was removed holds it
              ("model_config", "attn_leaky_relu", True),
              ("graph_config", "global_graph", "false"),
              ("model_config", "hidden", True), ("model_config", "dropout", False),
              ("model_config", "residual", "no"), ("model_config", "hidden", 64.0),
              ("graph_config", "d_n", 32.5),
              # a range failure is named the same way
              ("graph_config", "d_n", 1), ("model_config", "layers", 0)]
    for k, (section, key, value) in enumerate(probes):
        code, _, err = resave(f"bad{k}.ckpt", section, key, value)
        assert code == 2, (key, err)
        assert err.startswith("error:") and f"bad{k}.ckpt" in err, err
        assert f"{section}.{key}" in err and "Traceback" not in err, err
    # a float field takes an int
    code, _, err = resave("int_slope.ckpt", "model_config", "leaky_slope", 1)
    assert code == 0, err
    # but not a non-finite float, which failed mid-run in the attention layer
    for k, value in enumerate((float("nan"), float("inf"), float("-inf"))):
        code, _, err = resave(f"nonfinite{k}.ckpt", "model_config", "leaky_slope", value)
        assert code == 2, (value, err)
        assert err.startswith("error:") and f"nonfinite{k}.ckpt" in err, err
        assert "model_config.leaky_slope" in err and "not finite" in err, err
        assert "NonFiniteError" not in err and "Traceback" not in err, err


def test_bad_config_value_exits_2(workdir, capsys):
    bad = workdir / "bad.cfg"
    data = _synth(workdir, capsys)
    # '5%' and a byte that is not UTF-8 were tracebacks, and a [DEFAULT]
    # value was ignored
    for content, message in ((b"[train]\nlr = banana\n", "bad value"),
                             (b"[train]\nlr = 5%\n", "bad value '5%' for train.lr"),
                             (b"[DEFAULT]\nlr = nan\n", "unknown section [DEFAULT]"),
                             (b"[train]\nlr = 0.01 ; \xff\n", f"cannot read config {bad}")):
        bad.write_bytes(content)
        code, _, err = _run(["train", "--data", str(data), "--out",
                             str(workdir / "out"), "--config", str(bad)], capsys)
        assert code == 2, content
        assert message in err and "Traceback" not in err, err


def test_removed_config_keys_are_unknown(workdir, capsys):
    # each of these only repeated another key or did nothing; every value
    # now has one key, in the one section that feeds its config
    data = _synth(workdir, capsys, count=2)
    cfg = workdir / "old.cfg"
    for section, key, raw in (("train", "dropout", "0.0"), ("train", "n_max", "8"),
                              ("data", "count", "20"), ("data", "max_symbols", "8"),
                              ("model", "attn_leaky_relu", "true")):
        cfg.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        for command in ("train", "build-graph"):
            code, _, err = _run([command, "--data", str(data), "--out", str(workdir / "out"),
                                 "--config", str(cfg)], capsys)
            assert code == 2, (command, key)
            assert f"unknown key {key!r} in [{section}]" in err and "Traceback" not in err, err


# ---------------------------------------------------------------------------
# pipeline


def test_synth_pipeline_end_to_end(workdir, capsys):
    data = _synth(workdir, capsys)
    pairs, vocab = read_dataset(data / "dataset.bin")
    assert len(pairs) == 4
    assert vocab.num_symbols == 101

    run = _train(workdir, capsys, data)
    history = (run / "history.csv").read_text(encoding="utf-8").splitlines()
    assert history[0] == "epoch,train_loss,val_loss,node_acc,edge_acc,lr"
    assert len(history) == 3
    ckpt = run / "checkpoint.bin"
    assert ckpt.exists()
    header = load_checkpoint(ckpt)
    assert header["model_config"]["hidden"] == 8
    assert header["graph_config"]["d_n"] == 12
    assert set(header["params"])

    code, out, _ = _run(["eval", "--data", str(data), "--out", str(workdir / "ev"),
                         "--checkpoint", str(ckpt)], capsys)
    assert code == 0
    assert "exp_rate" in out
    dropped = [line.split() for line in out.splitlines()
               if line.startswith("dropped_relations")]
    assert len(dropped) == 1 and int(dropped[0][1]) >= 0
    metrics = (workdir / "ev" / "metrics.csv").read_text(encoding="utf-8")
    assert metrics.splitlines()[0].startswith("id,strokes,symbols")
    assert len([l for l in metrics.splitlines() if l and not l.startswith(
        ("id,", "aggregate", "node_acc", "edge_acc", "seg_rate", "sym_rate",
         "rel_rate", "exp_rate", "stru_rate"))]) == 4

    code, _, _ = _run(["infer", "--data", str(data), "--out", str(workdir / "inf"),
                       "--checkpoint", str(ckpt)], capsys)
    assert code == 0
    preds = sorted((workdir / "inf" / "pred").glob("*.lg"))
    assert len(preds) == 4
    for p in preds:
        lg = parse_lg(p.read_text(encoding="utf-8"))
        assert lg.num_strokes >= 1

    code, _, _ = _run(["attention", "--data", str(data), "--out",
                       str(workdir / "att"), "--checkpoint", str(ckpt)], capsys)
    assert code == 0
    mats = sorted((workdir / "att" / "attention").glob("*.csv"))
    assert len(mats) == 4
    # each file is the final layer's weight of every directed edge of the
    # expression's graph, at (source, target), 0 elsewhere
    gcfg = GraphConfig.from_dict(header["graph_config"])
    mcfg = ModelConfig.from_dict(header["model_config"])
    params = {name: Tensor(arr) for name, arr in header["params"].items()}
    exprs = {expr.id: expr for expr, _lg in pairs}
    for path in mats:
        text = path.read_text(encoding="utf-8")
        rows = [[float(v) for v in line.split(",")] for line in text.splitlines()]
        mat = np.array(sorted(rows, key=len))  # all rows same length
        assert mat.shape[0] == mat.shape[1]
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-4)
        graph = augment_global(build_local_graph(exprs[path.stem], gcfg))
        assert gcfg.global_graph and mat.shape[0] == graph.num_nodes
        want = dense_attention(forward(graph, params, mcfg), graph)[-1]
        assert text == attention_to_csv(want), path.stem

    code, _, _ = _run(["confusion", "--data", str(data), "--out",
                       str(workdir / "conf"), "--checkpoint", str(ckpt)], capsys)
    assert code == 0
    doc = json.loads((workdir / "conf" / "confusion.json").read_text(encoding="utf-8"))
    assert set(doc) == {"pairs", "symbols"}


def test_edgeless_corpus_trains_and_evaluates(workdir, capsys):
    # one-stroke expressions without the master node: every graph has E = 0
    pairs = [compose([("sym", c)], f"one_{c}") for c in "0123"]
    assert all(expr.num_strokes == 1 for expr, _ in pairs)
    data = workdir / "one"
    data.mkdir()
    write_dataset(data / "dataset.bin", pairs, Vocabulary.default())
    (workdir / "run.cfg").write_text(CONFIG + "global_graph = false\n", encoding="utf-8")

    run = _train(workdir, capsys, data)
    rows = (run / "history.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 3
    for row in rows[1:]:
        assert all(np.isfinite(float(v)) for v in row.split(","))
    assert load_checkpoint(run / "checkpoint.bin")["graph_config"]["global_graph"] is False

    code, out, err = _run(["eval", "--data", str(data), "--out", str(workdir / "ev"),
                           "--checkpoint", str(run / "checkpoint.bin")], capsys)
    assert code == 0, err
    assert "exp_rate" in out


def test_train_reruns_are_byte_identical(workdir, capsys):
    data = _synth(workdir, capsys)
    r1 = _train(workdir, capsys, data, out="r1")
    r2 = _train(workdir, capsys, data, out="r2")
    assert (r1 / "history.csv").read_bytes() == (r2 / "history.csv").read_bytes()
    assert (r1 / "checkpoint.bin").read_bytes() == (r2 / "checkpoint.bin").read_bytes()


def test_flag_wiring_lands_in_checkpoint(workdir, capsys):
    data = _synth(workdir, capsys)
    run = _train(workdir, capsys, data, out="flags",
                 extra=["--no-aux", "--no-concat", "--no-residual", "--local",
                        "--fc", "--seed", "7"])
    header = load_checkpoint(run / "checkpoint.bin")
    mc = header["model_config"]
    assert (mc["aux_readouts"], mc["message_concat"], mc["residual"]) == (False, False, False)
    gc = header["graph_config"]
    assert gc["global_graph"] is False and gc["full_connect"] is True
    assert header["train_config"]["seed"] == 7


def test_global_and_local_are_mutually_exclusive(workdir, capsys):
    code, _, err = _run(["train", "--data", "x", "--out", "y",
                         "--global", "--local"], capsys)
    assert code == 1
    assert "not allowed with" in err


# ---------------------------------------------------------------------------
# ingest and build-graph


def _raw_dir(workdir):
    raw = workdir / "raw"
    raw.mkdir()
    (raw / "a.inkml").write_text(INKML_A, encoding="utf-8")
    (raw / "a.lg").write_text(LG_A, encoding="utf-8")
    (raw / "b.inkml").write_text(INKML_B, encoding="utf-8")
    (raw / "b.lg").write_text(LG_B, encoding="utf-8")
    return raw


def test_ingest_packs_inkml_and_lg(workdir, capsys):
    raw = _raw_dir(workdir)
    code, out, _ = _run(["ingest", "--data", str(raw), "--out",
                         str(workdir / "packed")], capsys)
    assert code == 0
    assert "packed 2 expressions" in out
    pairs, vocab = read_dataset(workdir / "packed" / "dataset.bin")
    assert [expr.id for expr, _ in pairs] == ["expr_a", "b"]
    assert [lg.num_strokes for _, lg in pairs] == [2, 3]
    assert {"x", "y", "a"} <= set(vocab.symbols)

    (raw / "b.lg").unlink()
    code, _, err = _run(["ingest", "--data", str(raw), "--out",
                         str(workdir / "packed2")], capsys)
    assert code == 2
    assert "missing label graph" in err


def test_ingest_refuses_a_label_graph_that_is_not_utf8(workdir, capsys):
    raw = _raw_dir(workdir)
    (raw / "b.lg").write_bytes(LG_B.encode("utf-8").replace(b"a", b"\xff"))
    code, _, err = _run(["ingest", "--data", str(raw), "--out", str(workdir / "packed")],
                        capsys)
    assert code == 2
    assert "b.lg" in err and "not UTF-8" in err and "Traceback" not in err, err


def test_ingest_rejects_stroke_count_mismatch(workdir, capsys):
    raw = workdir / "raw"
    raw.mkdir()
    (raw / "a.inkml").write_text(INKML_A, encoding="utf-8")
    (raw / "a.lg").write_text(LG_B, encoding="utf-8")  # declares 3 strokes, ink has 2
    code, _, err = _run(["ingest", "--data", str(raw), "--out",
                         str(workdir / "packed")], capsys)
    assert code == 2
    assert "2 strokes but label graph declares 3" in err


# an expression id names the files infer, attention and build-graph write
# under --out, and a row of metrics.csv
UNUSABLE_IDS = {"parent-path": "../../../../outside", "slash": "a/b", "backslash": "a\\b",
                "dot": ".", "dotdot": "..", "comma": "a,b", "tab": "a\tb"}


@pytest.mark.parametrize("expr_id", UNUSABLE_IDS.values(), ids=UNUSABLE_IDS.keys())
def test_ingest_refuses_an_id_unusable_as_a_file_name(workdir, capsys, expr_id):
    raw = workdir / "raw"
    raw.mkdir()
    (raw / "a.inkml").write_text(INKML_A.replace("expr_a", expr_id), encoding="utf-8")
    (raw / "a.lg").write_text(LG_A, encoding="utf-8")
    code, _, err = _run(["ingest", "--data", str(raw), "--out", str(workdir / "packed")], capsys)
    assert code == 2
    assert err.startswith("error:") and repr(expr_id) in err and "Traceback" not in err, err
    assert not (workdir / "packed" / "dataset.bin").exists()


@pytest.mark.parametrize("expr_id", ["", *UNUSABLE_IDS.values()],
                         ids=["empty", *UNUSABLE_IDS.keys()])
def test_dataset_with_an_unusable_id_is_refused(workdir, capsys, expr_id):
    expr, lg = compose([("sym", "x"), ("sym", "+"), ("sym", "1")], expr_id)
    vocab = Vocabulary.default()
    with pytest.raises(DatasetError, match="expression id"):
        write_dataset(workdir / "w.bin", [(expr, lg)], vocab)
    assert not (workdir / "w.bin").exists()
    # the same record framed by hand, as a file from elsewhere could hold it
    ink = json.dumps({"id": expr_id, "annotation": expr.annotation,
                      "strokes": [s.points.tolist() for s in expr.strokes]}).encode("utf-8")
    lg_text = serialize_lg(lg).encode("utf-8")
    bad = workdir / "bad.bin"
    container.write(bad, DATASET_MAGIC, {"vocabulary": vocab.to_dict(), "records": [
        {"id": expr_id, "ink_len": len(ink), "lg_len": len(lg_text)}]}, [ink, lg_text])
    with pytest.raises(DatasetError, match="expression id"):
        read_dataset(bad)
    code, _, err = _run(["build-graph", "--data", str(bad), "--out", str(workdir / "bg"),
                         "--config", str(workdir / "run.cfg")], capsys)
    assert code == 2 and repr(expr_id) in err and "Traceback" not in err, err
    assert not list(workdir.rglob("*.json"))


@pytest.mark.parametrize("trace", ["1e308 0, -1e308 1", "1e308 0, 1.5e308 1"],
                         ids=["scale-overflows", "center-overflows"])
def test_build_graph_refuses_ink_whose_extent_overflows(workdir, capsys, trace):
    # finite coordinates whose span (first) or sum (second) overflows float64
    raw = workdir / "raw"
    raw.mkdir()
    (raw / "huge.inkml").write_text(
        '<ink><annotation type="UI">huge_expr</annotation>'
        f"<trace>{trace}</trace></ink>", encoding="utf-8")
    (raw / "huge.lg").write_text("N, s0, x, 1.0\n", encoding="utf-8")
    code, _, err = _run(["ingest", "--data", str(raw), "--out", str(workdir / "packed")], capsys)
    assert code == 0, err
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked RuntimeWarning fails the test
        code, _, err = _run(["build-graph", "--data", str(workdir / "packed"),
                             "--out", str(workdir / "bg"), "--config", str(workdir / "run.cfg")],
                            capsys)
    assert code == 2
    assert "expression 'huge_expr': ink extent overflows float64" in err, err
    assert "non-finite" not in err and "Traceback" not in err, err
    assert not list((workdir / "bg").glob("graphs/*.json"))


def test_build_graph_dumps_json(workdir, capsys):
    data = _synth(workdir, capsys, count=2)
    code, _, _ = _run(["build-graph", "--data", str(data), "--out",
                       str(workdir / "bg"), "--config", str(workdir / "run.cfg"),
                       "--local"], capsys)
    assert code == 0
    files = sorted((workdir / "bg" / "graphs").glob("*.json"))
    assert len(files) == 2
    g = graph_from_json(files[0].read_text(encoding="utf-8"))
    n = g.num_nodes
    assert g.has_master is False
    assert g.node_features.shape == (n, 2, 12)

    code, _, _ = _run(["build-graph", "--data", str(data), "--out",
                       str(workdir / "bg2"), "--config", str(workdir / "run.cfg")],
                      capsys)
    assert code == 0
    g2 = graph_from_json(sorted((workdir / "bg2" / "graphs").glob("*.json"))[0]
                         .read_text(encoding="utf-8"))
    assert g2.has_master is True
    assert g2.num_nodes == n + 1


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "inkgraph", "synth", "--out", str(tmp_path / "d"),
         "--count", "2", "--seed", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "dataset.bin").exists()

    bad = subprocess.run([sys.executable, "-m", "inkgraph"],
                         capture_output=True, text=True)
    assert bad.returncode == 1
