"""Packed dataset container: many (ink, label graph) records in one file.

Layout: magic, u64 header length, JSON header (format version, vocabulary,
record index with byte offsets), then per-record payloads — ink serialized
as JSON followed by the label graph in LG text form. Avoids re-parsing XML
on every run and round-trips bit-exactly.
"""

from __future__ import annotations

import json
import struct

import numpy as np

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


def write_dataset(path, pairs, vocab):
    """Write (InkExpression, LabelGraph) pairs; record ids must be unique."""
    records = []
    payload = bytearray()
    seen = set()
    for expr, lg in pairs:
        if expr.id in seen:
            raise DatasetError(f"duplicate expression id {expr.id!r}")
        seen.add(expr.id)
        ink = _ink_to_json(expr).encode("utf-8")
        lg_text = serialize_lg(lg).encode("utf-8")
        records.append({"id": expr.id, "offset": len(payload),
                        "ink_len": len(ink), "lg_len": len(lg_text)})
        payload += ink + lg_text
    header = json.dumps({
        "format_version": 1,
        "vocabulary": vocab.to_dict(),
        "records": records,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        f.write(bytes(payload))


def read_dataset(path):
    """Load a packed file -> (list of (InkExpression, LabelGraph), Vocabulary).

    A truncated or corrupt file raises DatasetError naming the file.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DatasetError(f"cannot read dataset {path}: {e}") from None
    if blob[:8] != DATASET_MAGIC:
        raise DatasetError(f"{path}: not a packed dataset (bad magic)")
    if len(blob) < 16:
        raise DatasetError(f"{path}: truncated dataset (no header length)")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    base = 16 + hlen
    if base > len(blob):
        raise DatasetError(f"{path}: dataset header runs past the end of the file")
    try:
        header = json.loads(blob[16:base].decode("utf-8"))
    except ValueError as e:  # also UnicodeDecodeError and JSONDecodeError
        raise DatasetError(f"{path}: corrupt header: {e}") from None
    if not isinstance(header, dict):
        raise DatasetError(f"{path}: dataset header is not an object")
    missing = sorted({"format_version", "vocabulary", "records"} - header.keys())
    if missing:
        raise DatasetError(f"{path}: dataset header lacks {', '.join(missing)}")
    if header["format_version"] != 1:
        raise DatasetError(f"{path}: unsupported format version")
    try:
        vocab = Vocabulary.from_dict(header["vocabulary"])
    except (LabelError, KeyError, TypeError, ValueError) as e:
        raise DatasetError(f"{path}: bad vocabulary in header: {e}") from None
    pairs = []
    try:
        for rec in header["records"]:
            start = base + rec["offset"]
            ink_end = start + rec["ink_len"]
            lg_end = ink_end + rec["lg_len"]
            if not base <= start <= ink_end <= lg_end <= len(blob):
                raise DatasetError(f"{path}: record {rec['id']!r} exceeds file size")
            expr = _ink_from_json(blob[start:ink_end].decode("utf-8"))
            lg = parse_lg(blob[ink_end:lg_end].decode("utf-8"))
            pairs.append((expr, lg))
    except (InkError, LabelError, KeyError, TypeError, ValueError) as e:
        raise DatasetError(f"{path}: corrupt record: {type(e).__name__}: {e}") from None
    return pairs, vocab
