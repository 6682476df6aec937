"""Binary field files with a JSON provenance sidecar.

Layout (all little-endian):

    offset  0  magic "BNLS"      4 bytes
    offset  4  format version    u32 (= 1)
    offset  8  dim               u32
    offset 12  points_per_axis   u32
    offset 16  box_length        f64
    offset 24  samples           points_per_axis**dim f64, row-major

The sidecar is ``<path>.json`` and holds provenance only (params, solver,
iterations, residuals, and the binary file's sha256); the binary file alone
reconstructs the field.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import FieldFormatError
from .grid import BoxGrid, Field

MAGIC = b"BNLS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIId")

_OFF_MAGIC = 0
_OFF_VERSION = 4
_OFF_DIM = 8
_OFF_POINTS = 12
_OFF_BOX = 16
_OFF_SAMPLES = 24


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def field_to_bytes(field: Field) -> bytes:
    g = field.grid
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, g.dim, g.points_per_axis, g.box_length)
    return header + field.samples.astype("<f8").tobytes(order="C")


def write_field(path, field: Field, sidecar: dict | None = None) -> Path:
    """Write the binary field file; optionally a JSON sidecar next to it.

    The sidecar also records the field file's ``sha256``, which pairs the two.
    """
    path = Path(path)
    raw = field_to_bytes(field)
    path.write_bytes(raw)
    if sidecar is not None:
        doc = dict(sidecar, sha256=hashlib.sha256(raw).hexdigest())
        sidecar_path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def field_from_bytes(raw: bytes) -> Field:
    if len(raw) < _HEADER.size:
        raise FieldFormatError(
            f"file truncated inside the {_HEADER.size}-byte header", offset=len(raw)
        )
    magic, version, dim, points, box_length = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise FieldFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=_OFF_MAGIC)
    if version != FORMAT_VERSION:
        raise FieldFormatError(
            f"unsupported format version {version}, expected {FORMAT_VERSION}",
            offset=_OFF_VERSION,
        )
    if dim not in (1, 2, 3):
        raise FieldFormatError(f"dim {dim} out of range", offset=_OFF_DIM)
    if points < 32 or (points & (points - 1)) != 0:
        raise FieldFormatError(
            f"points_per_axis {points} is not a power of two >= 32", offset=_OFF_POINTS
        )
    if not (box_length > 0 and np.isfinite(box_length)):
        raise FieldFormatError(f"box_length {box_length} is not positive", offset=_OFF_BOX)
    expected = points**dim * 8
    payload = len(raw) - _OFF_SAMPLES
    if payload != expected:
        raise FieldFormatError(
            f"expected {expected} sample bytes, found {payload}",
            offset=_OFF_SAMPLES + min(payload, expected),
        )
    samples = np.frombuffer(raw, dtype="<f8", count=points**dim, offset=_OFF_SAMPLES)
    grid = BoxGrid(dim=dim, points_per_axis=points, box_length=box_length)
    return Field(grid, samples)


def read_field(path, with_sha256: bool = False):
    """The field stored at ``path``; with ``with_sha256``, the pair (field, the
    file's sha256), both from one read."""
    raw = Path(path).read_bytes()
    field = field_from_bytes(raw)
    return (field, hashlib.sha256(raw).hexdigest()) if with_sha256 else field


def read_sidecar(path) -> dict:
    side = sidecar_path(path)
    try:
        doc = json.loads(side.read_bytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"sidecar {side} is not UTF-8 text", offset=exc.start) from exc
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[: exc.pos].encode("utf-8"))
        raise FieldFormatError(f"sidecar {side} is not JSON: {exc.msg}", offset=offset) from exc
    if not isinstance(doc, dict):
        raise FieldFormatError(f"sidecar {side} does not hold a JSON object", offset=0)
    return doc
