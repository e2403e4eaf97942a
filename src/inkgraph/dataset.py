"""Packed dataset container: many (ink, label graph) records in one file.

Framing is container.py's. The header holds the vocabulary and each record's
id and ink/LG byte lengths; the payload holds the records back to back, ink as
JSON then the label graph in LG text form. Avoids re-parsing XML on every run
and round-trips bit-exactly.
"""

from __future__ import annotations

import json
import re

import numpy as np

from . import container
from .ink import InkError, InkExpression, Stroke, parse_lg
from .labels import LabelError, Vocabulary, serialize_lg

DATASET_MAGIC = b"INKDSET1"


class DatasetError(Exception):
    pass


def _ink_to_json(expr):
    return json.dumps({
        "id": expr.id,
        "annotation": expr.annotation,
        "strokes": [s.points.tolist() for s in expr.strokes],
    }, sort_keys=True, separators=(",", ":"))


def _ink_from_json(text):
    d = json.loads(text)
    strokes = [Stroke(np.array(p, dtype=np.float64), index=k)
               for k, p in enumerate(d["strokes"])]
    return InkExpression(id=d["id"], strokes=strokes, annotation=d["annotation"])


def _check_id(path, expr_id):
    # the id names files under --out and a row of metrics.csv
    if expr_id in ("", ".", "..") or re.search(r"[/\\,\x00-\x1f\x7f-\x9f]", expr_id):
        raise DatasetError(f"{path}: expression id {expr_id!r} is not a plain file name "
                           "(empty, '.', '..', or with '/', '\\', ',' or a control character)")


def write_dataset(path, pairs, vocab):
    """Write (InkExpression, LabelGraph) pairs; ids must be unique plain file names."""
    records = []
    chunks = []
    seen = set()
    for expr, lg in pairs:
        _check_id(path, expr.id)
        if expr.id in seen:
            raise DatasetError(f"duplicate expression id {expr.id!r}")
        seen.add(expr.id)
        ink = _ink_to_json(expr).encode("utf-8")
        lg_text = serialize_lg(lg).encode("utf-8")
        records.append({"id": expr.id, "ink_len": len(ink), "lg_len": len(lg_text)})
        chunks += (ink, lg_text)
    container.write(path, DATASET_MAGIC,
                    {"vocabulary": vocab.to_dict(), "records": records}, chunks)


def read_dataset(path):
    """Load a packed file -> (list of (InkExpression, LabelGraph), Vocabulary).

    A truncated, corrupt or version-1 file, or a bad id, raises DatasetError naming it.
    """
    header, payload = container.read(path, DATASET_MAGIC, DatasetError, "dataset")
    missing = sorted({"vocabulary", "records"} - header.keys())
    if missing:
        raise DatasetError(f"{path}: dataset header lacks {', '.join(missing)}")
    try:
        vocab = Vocabulary.from_dict(header["vocabulary"])
    except (LabelError, KeyError, TypeError, ValueError) as e:
        raise DatasetError(f"{path}: bad vocabulary in header: {e}") from None
    pairs = []
    start = 0
    try:
        for rec in header["records"]:
            ink_end = start + rec["ink_len"]
            lg_end = ink_end + rec["lg_len"]
            if not start <= ink_end <= lg_end <= len(payload):
                raise DatasetError(f"{path}: record {rec['id']!r} runs past the payload")
            expr = _ink_from_json(payload[start:ink_end].decode("utf-8"))
            _check_id(path, expr.id)
            lg = parse_lg(payload[ink_end:lg_end].decode("utf-8"))
            pairs.append((expr, lg))
            start = lg_end
    except (InkError, LabelError, KeyError, TypeError, ValueError) as e:
        raise DatasetError(f"{path}: corrupt record: {type(e).__name__}: {e}") from None
    if start != len(payload):
        raise DatasetError(f"{path}: records cover {start} of {len(payload)} payload bytes")
    return pairs, vocab
