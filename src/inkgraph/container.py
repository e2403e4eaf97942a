"""Binary framing shared by dataset.bin and checkpoint.bin; version 1 files are refused.

Layout: the caller's 8-byte magic, u64 little-endian header length, a JSON
header (``format_version`` plus the caller's keys, which describe the payload),
the payload, and a u32 little-endian zlib CRC-32 of every byte before it.
"""

from __future__ import annotations

import json
import os
import zlib

FORMAT_VERSION = 2


def write(path, magic, header, chunks):
    """Write the header dict and stream each payload chunk (bytes-like) to the file and CRC."""
    raw = json.dumps({**header, "format_version": FORMAT_VERSION}, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:
        for chunk in [magic, len(raw).to_bytes(8, "little"), raw, *chunks]:
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(crc.to_bytes(4, "little"))


def read(path, magic, error, kind):
    """Inverse of write -> (header, payload bytearray); any defect raises ``error`` naming path."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(magic) + 8)
            if head[:len(magic)] != magic or len(head) != len(magic) + 8:
                raise error(f"{path}: not a {kind} file (bad magic or no header length)")
            hlen = int.from_bytes(head[len(magic):], "little")
            rest = os.fstat(fh.fileno()).st_size - len(head) - hlen
            if rest < 0:
                raise error(f"{path}: {kind} header runs past the end of the file")
            raw = fh.read(hlen)
            try:
                header = json.loads(raw.decode("utf-8"))
            except ValueError as e:  # also UnicodeDecodeError and JSONDecodeError
                raise error(f"{path}: corrupt {kind} header: {e}") from None
            version = header.get("format_version") if isinstance(header, dict) else None
            if version != FORMAT_VERSION:
                raise error(f"{path}: {kind} format version {version} is not read (only "
                            f"{FORMAT_VERSION}); re-run synth/ingest or train to rewrite it")
            payload = bytearray(max(rest - 4, 0))
            fh.readinto(payload)
            trailer = fh.read(4)
    except OSError as e:
        raise error(f"cannot read {kind} {path}: {e}") from None
    crc = zlib.crc32(payload, zlib.crc32(raw, zlib.crc32(head)))
    if trailer != crc.to_bytes(4, "little"):
        raise error(f"{path}: {kind} fails its CRC-32 check (corrupt or truncated)")
    return header, payload
