"""Robustness of the two binary containers: a dataset or checkpoint cut at any
offset, or with any single byte flipped, either loads or raises the reader's
own error; no other exception escapes."""

import numpy as np
import pytest

from inkgraph.dataset import DatasetError, read_dataset, write_dataset
from inkgraph.engine import EngineError, Tensor, load_checkpoint, save_checkpoint
from inkgraph.ink import InkExpression, Stroke
from inkgraph.labels import LabelGraph, Vocabulary


def _small_dataset(path):
    strokes = [Stroke(np.array([[0.0, 0.0], [1.0, 2.0]]), index=0),
               Stroke(np.array([[3.0, 0.5], [4.0, 1.5], [5.0, 0.0]]), index=1)]
    expr = InkExpression(id="e0", strokes=strokes, annotation="xy")
    gold = LabelGraph(["x", "y"], {(0, 1, "Right")})
    write_dataset(path, [(expr, gold)], Vocabulary.from_symbols({"x", "y"}))


def _small_checkpoint(path):
    params = {"w": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)),
              "b": Tensor(np.array([0.5, -1.0]))}
    save_checkpoint(path, params, vocabulary={"symbols": ["x"], "relations": ["Right"]},
                    model_config={"hidden": 2}, train_config={"lr": 0.1},
                    graph_config={"d_n": 4})


@pytest.mark.parametrize("write, read, error", [
    (_small_dataset, read_dataset, DatasetError),
    (_small_checkpoint, load_checkpoint, EngineError),
])
def test_truncated_and_flipped_files_raise_only_the_module_error(tmp_path, write, read,
                                                                  error):
    good = tmp_path / "good.bin"
    write(good)
    blob = good.read_bytes()
    read(good)
    probe = tmp_path / "probe.bin"
    variants = [blob[:cut] for cut in range(len(blob))]
    for k in range(len(blob)):
        for mask in (0x01, 0xFF):
            variants.append(blob[:k] + bytes([blob[k] ^ mask]) + blob[k + 1:])
    failures = 0
    for content in variants:
        probe.write_bytes(content)
        try:
            read(probe)
        except error as e:
            assert str(probe) in str(e)
            failures += 1
    # every cut fails; many flips land in payload bytes and still load
    assert len(blob) <= failures < len(variants)
