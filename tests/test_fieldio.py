import hashlib
import struct

import numpy as np
import pytest

from bnls.errors import FieldFormatError
from bnls.fieldio import (
    FORMAT_VERSION,
    MAGIC,
    field_from_bytes,
    field_to_bytes,
    read_field,
    read_sidecar,
    sidecar_path,
    write_field,
)
from bnls.grid import BoxGrid, Field


@pytest.fixture
def small_field():
    grid = BoxGrid(1, 32, 2.5)
    rng = np.random.default_rng(0)
    return Field(grid, rng.standard_normal(32))


def test_header_layout(small_field):
    raw = field_to_bytes(small_field)
    assert raw[:4] == MAGIC
    version, dim, points = struct.unpack_from("<III", raw, 4)
    (box,) = struct.unpack_from("<d", raw, 16)
    assert (version, dim, points) == (FORMAT_VERSION, 1, 32)
    assert box == 2.5
    assert len(raw) == 24 + 32 * 8


def test_roundtrip_bit_exact(tmp_path, small_field):
    path = tmp_path / "state.bnls"
    write_field(path, small_field, sidecar={"note": "test"})
    back = read_field(path)
    assert back.grid == small_field.grid
    assert np.array_equal(back.samples, small_field.samples)
    # the sidecar comes back as written, plus the hash that pairs it with the field
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_sidecar(path) == {"note": "test", "sha256": digest}
    assert sidecar_path(path).name == "state.bnls.json"


def test_roundtrip_3d(tmp_path):
    grid = BoxGrid(3, 32, 5.0)
    rng = np.random.default_rng(1)
    field = Field(grid, rng.standard_normal(grid.shape))
    path = write_field(tmp_path / "cube.bnls", field)
    back = read_field(path)
    assert np.array_equal(back.samples, field.samples)


def test_writes_are_deterministic(tmp_path, small_field):
    a = field_to_bytes(small_field)
    b = field_to_bytes(small_field)
    assert a == b
    p1 = write_field(tmp_path / "a.bnls", small_field)
    p2 = write_field(tmp_path / "b.bnls", small_field)
    assert p1.read_bytes() == p2.read_bytes()


def corrupt(raw, offset, blob):
    return raw[:offset] + blob + raw[offset + len(blob):]


def test_bad_magic_offset_zero(small_field):
    raw = corrupt(field_to_bytes(small_field), 0, b"XNLS")
    with pytest.raises(FieldFormatError) as err:
        field_from_bytes(raw)
    assert err.value.offset == 0
    assert "magic" in str(err.value)


def test_bad_version_offset_four(small_field):
    raw = corrupt(field_to_bytes(small_field), 4, struct.pack("<I", 9))
    with pytest.raises(FieldFormatError) as err:
        field_from_bytes(raw)
    assert err.value.offset == 4


def test_bad_dim_offset_eight(small_field):
    raw = corrupt(field_to_bytes(small_field), 8, struct.pack("<I", 7))
    with pytest.raises(FieldFormatError) as err:
        field_from_bytes(raw)
    assert err.value.offset == 8


def test_bad_points_offset_twelve(small_field):
    raw = corrupt(field_to_bytes(small_field), 12, struct.pack("<I", 33))
    with pytest.raises(FieldFormatError) as err:
        field_from_bytes(raw)
    assert err.value.offset == 12


def test_bad_box_offset_sixteen(small_field):
    raw = corrupt(field_to_bytes(small_field), 16, struct.pack("<d", -1.0))
    with pytest.raises(FieldFormatError) as err:
        field_from_bytes(raw)
    assert err.value.offset == 16


def test_truncated_samples_names_cut_offset(small_field):
    raw = field_to_bytes(small_field)[:-16]
    with pytest.raises(FieldFormatError) as err:
        field_from_bytes(raw)
    assert err.value.offset == len(raw)


def test_trailing_garbage_rejected(small_field):
    raw = field_to_bytes(small_field) + b"\x00" * 8
    with pytest.raises(FieldFormatError) as err:
        field_from_bytes(raw)
    assert err.value.offset == 24 + 32 * 8


def test_truncated_header(small_field):
    raw = field_to_bytes(small_field)[:10]
    with pytest.raises(FieldFormatError) as err:
        field_from_bytes(raw)
    assert err.value.offset == 10
