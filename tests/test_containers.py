"""Robustness of the two binary containers: a dataset or checkpoint cut at any
offset, with any single byte flipped, in the old version-1 layout, or with a
byte more payload than its header describes, raises the reader's own error
naming the file. Checkpoints stream on save and are not copied on load."""

import json
import tracemalloc
import zlib

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


KINDS = pytest.mark.parametrize("write, read, error", [
    (_small_dataset, read_dataset, DatasetError),
    (_small_checkpoint, load_checkpoint, EngineError),
])


def _parts(blob):
    """(magic, header dict, payload) of a version-2 file."""
    hlen = int.from_bytes(blob[8:16], "little")
    return blob[:8], json.loads(blob[16:16 + hlen]), blob[16 + hlen:-4]


def _frame(magic, header, payload, trailer=True):
    """Frame by hand: magic, u64 header length, JSON header, payload[, CRC-32]."""
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = magic + len(text).to_bytes(8, "little") + text + payload
    return blob + zlib.crc32(blob).to_bytes(4, "little") if trailer else blob


@KINDS
def test_truncated_and_flipped_files_raise_only_the_module_error(tmp_path, write, read,
                                                                  error):
    good = tmp_path / "good.bin"
    write(good)
    blob = good.read_bytes()
    read(good)
    assert _frame(*_parts(blob)) == blob
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
    # the CRC-32 trailer catches every cut and every flip, payload bytes included
    assert failures == len(variants)


@KINDS
def test_version_1_file_is_refused_by_version(tmp_path, write, read, error):
    good = tmp_path / "good.bin"
    write(good)
    magic, header, payload = _parts(good.read_bytes())
    header["format_version"] = 1
    if "records" in header:  # version 1 gave each dataset record its payload offset
        offset = 0
        for rec in header["records"]:
            rec["offset"] = offset
            offset += rec["ink_len"] + rec["lg_len"]
    old = tmp_path / "old.bin"
    old.write_bytes(_frame(magic, header, payload, trailer=False))
    with pytest.raises(error, match="version 1") as info:
        read(old)
    assert str(old) in str(info.value)


@KINDS
def test_payload_byte_beyond_the_header_is_refused(tmp_path, write, read, error):
    good = tmp_path / "good.bin"
    write(good)
    magic, header, payload = _parts(good.read_bytes())
    extra = tmp_path / "extra.bin"
    extra.write_bytes(_frame(magic, header, payload + b"\0"))
    with pytest.raises(error, match="cover") as info:
        read(extra)
    assert str(extra) in str(info.value)


@KINDS
def test_missing_file_raises_the_module_error(tmp_path, write, read, error):
    with pytest.raises(error, match="cannot read"):
        read(tmp_path / "absent.bin")


def test_checkpoint_streams_on_save_and_is_not_copied_on_load(tmp_path):
    params = {f"w{k}": Tensor(np.full((1024, 1024), k, dtype=np.float32)) for k in range(2)}
    payload = sum(p.data.nbytes for p in params.values())
    path = tmp_path / "big.bin"
    tracemalloc.start()
    try:
        save_checkpoint(path, params)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        header = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload >= 8 * 2**20
    assert save_peak < 2**20, save_peak
    assert load_peak <= 1.1 * payload, (load_peak, payload)
    for name, p in params.items():
        assert np.array_equal(header["params"][name], p.data)
