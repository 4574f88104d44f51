"""On-disk formats, synthetic generation and distance estimation."""

import builtins
import dataclasses
import errno
import functools
import hashlib
import json
import math
import os
import re
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceseg import data_io
from sliceseg.data_io import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    MAX_EXTENT,
    SynthConfig,
    generate_dataset,
    generate_sequence,
    load_checkpoint,
    load_dataset,
    load_sequence,
    read_raster,
    save_checkpoint,
    write_raster,
)
from sliceseg.errors import (
    ConfigError, ContractError, DomainError, FormatError, SlicesegError, UnsupportedVersionError,
)
from sliceseg.model import MICRO_CONFIG, init_params, load_params, save_params
from sliceseg.training import EvalReport, write_report

from reference_ops import estimate_distance


# ------------------------------------------------------------------ rasters


@given(st.integers(0, 2**32 - 1), st.sampled_from(["f32", "u8"]))
@settings(max_examples=40, deadline=None)
def test_raster_round_trip_is_bitwise(tmp_path_factory, seed, kind):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("psr") / "t.psr"
    h, w, c = int(rng.integers(1, 33)), int(rng.integers(1, 33)), int(rng.integers(1, 4))
    if kind == "f32":
        arr = rng.standard_normal((h, w, c)).astype(np.float32)
    else:
        arr = rng.integers(0, 256, size=(h, w, c)).astype(np.uint8)
    write_raster(path, arr)
    back = read_raster(path)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)


def test_raster_2d_becomes_single_channel(tmp_path):
    arr = np.ones((4, 5), dtype=np.uint8)
    write_raster(tmp_path / "m.psr", arr)
    assert read_raster(tmp_path / "m.psr").shape == (4, 5, 1)


def test_raster_bad_magic_reports_offset_zero(tmp_path):
    p = tmp_path / "bad.psr"
    p.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(FormatError, match="offset 0"):
        read_raster(p)
    assert_offset = pytest.raises(FormatError)
    with assert_offset as err:
        read_raster(p)
    assert err.value.offset == 0


def test_raster_truncated_payload(tmp_path):
    p = tmp_path / "trunc.psr"
    write_raster(p, np.zeros((8, 8, 1), dtype=np.float32))
    blob = p.read_bytes()
    p.write_bytes(blob[:-10])
    with pytest.raises(FormatError, match="truncated"):
        read_raster(p)


def test_raster_dimension_overflow(tmp_path):
    p = tmp_path / "huge.psr"
    p.write_bytes(b"PSR1" + struct.pack("<IIIB", 2**30, 2**30, 1, 0))
    with pytest.raises(FormatError, match="overflow"):
        read_raster(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raster_non_finite_value_is_format_error_at_its_offset(tmp_path, bad):
    arr = np.zeros((4, 5, 2), dtype=np.float32)
    arr[2, 3, 1] = bad
    arr[3, 4, 0] = np.nan
    # raw bytes: write_raster refuses the value
    (tmp_path / "n.psr").write_bytes(b"PSR1" + struct.pack("<IIIB", 5, 4, 2, 0) + arr.astype("<f4").tobytes())
    with pytest.raises(FormatError, match="not finite") as err:
        read_raster(tmp_path / "n.psr")
    assert err.value.offset == 17 + 4 * ((2 * 5 + 3) * 2 + 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -3.5e38])
def test_write_raster_refuses_values_not_finite_in_f32(tmp_path, bad):
    p = tmp_path / "n.psr"
    arr = np.zeros((4, 5, 2))
    arr[2, 3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"raster '{p}' has a value that is not finite in f32")):
            write_raster(p, arr)
    assert not p.exists()


@pytest.mark.parametrize(
    "shape, dtype, whc",
    [((1, MAX_EXTENT + 1), np.uint8, "1048577x1x1"), ((MAX_EXTENT + 1, 1), np.float32, "1x1048577x1"),
     ((1, 1, MAX_EXTENT + 1), float, "1x1x1048577")],
)
def test_write_raster_refuses_an_extent_read_raster_refuses(tmp_path, shape, dtype, whc):
    # a (1, 2^20 + 1) u8 array used to write 1,048,594 bytes that read back as a FormatError
    arr = np.broadcast_to(np.zeros((), dtype), shape)  # no payload is allocated
    for p in (tmp_path / "wide.psr", tmp_path / "no_such_dir" / "wide.psr"):  # checked before the open
        with pytest.raises(ContractError, match=re.escape(f"raster '{p}': dimensions {whc} exceed 1048576")):
            write_raster(p, arr)
        assert not p.exists()
    write_raster(tmp_path / "edge.psr", np.zeros((1, MAX_EXTENT), np.uint8))
    assert read_raster(tmp_path / "edge.psr").shape == (1, MAX_EXTENT, 1)


def test_raster_unknown_dtype_tag(tmp_path):
    p = tmp_path / "tag.psr"
    p.write_bytes(b"PSR1" + struct.pack("<IIIB", 1, 1, 1, 9) + b"\0\0\0\0")
    with pytest.raises(FormatError, match="dtype"):
        read_raster(p)


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    # f32-representable payloads: the wire format carries f32
    tensors = {
        "a.W": rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64),
        "lambda": np.float32(0.1).astype(np.float64),
    }
    cfg = {"d_model": 8, "note": "x"}
    save_checkpoint(tmp_path / "c.psc", tensors, cfg, frozen=["a.W"])
    back, cfg2, frozen = load_checkpoint(tmp_path / "c.psc")
    assert cfg2 == cfg
    assert frozen == ["a.W"]
    for name in tensors:
        assert np.array_equal(back[name], np.asarray(tensors[name]))


def test_checkpoint_version_mismatch(tmp_path):
    p = tmp_path / "v.psc"
    save_checkpoint(p, {"x": np.zeros(2)}, {})
    blob = bytearray(p.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    p.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError, match="99"):
        load_checkpoint(p)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "m.psc"
    p.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(p)


def test_checkpoint_truncated_tensor(tmp_path):
    p = tmp_path / "t.psc"
    save_checkpoint(p, {"x": np.ones((4, 4))}, {})
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)


class _FullDisk:
    """data_io's `open`, whose `fail_at`-th write, counted over every file it
    opens, fails with ENOSPC; the writes before it reach their files."""

    def __init__(self, fail_at: int):
        self.fail_at, self.writes = fail_at, 0

    def __call__(self, *args, **kwargs):
        self.file = builtins.open(*args, **kwargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.file.write(data)


@pytest.mark.parametrize("earlier", [True, False])
def test_a_failed_checkpoint_write_keeps_the_earlier_checkpoint(tmp_path, monkeypatch, earlier):
    p = tmp_path / "m.psc"
    if earlier:
        save_checkpoint(p, {"x": np.ones((2, 3)), "y": np.zeros(4)}, {"run": 1})
    before = sorted((q.name, q.read_bytes()) for q in tmp_path.iterdir())
    # the 4th write is the first payload; magic, version and length, and header reach the file
    monkeypatch.setattr(data_io, "open", _FullDisk(4), raising=False)
    with pytest.raises(OSError) as raised:
        save_checkpoint(p, {"x": np.full((2, 3), 2.0), "y": np.ones(4)}, {"run": 2})
    assert raised.value.errno == errno.ENOSPC
    assert sorted((q.name, q.read_bytes()) for q in tmp_path.iterdir()) == before


def _write_a_raster(root: Path, run: int) -> Path:
    write_raster(root / "r.psr", np.full((4, 4), float(run)))
    return root / "r.psr"


def _write_a_dataset(root: Path, run: int) -> Path:
    generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=2, image_size=8, seed=run), root)
    return root / "seq_000" / "sequence.json"


def _write_a_report(root: Path, run: int) -> Path:
    write_report(EvalReport(run / 2, 0.0, 1, 1, [], {"run": run}), root / "report.json")
    return root / "report.json"


@pytest.mark.parametrize(
    "write, fail_at",
    [
        (_write_a_raster, 3),  # the payload, after magic and header
        (_write_a_dataset, 13),  # sequence.json, after two image and two mask rasters of 3 writes each
        (_write_a_report, 1),
    ],
)
def test_a_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, write, fail_at):
    path = write(tmp_path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(data_io, "open", _FullDisk(fail_at), raising=False)
    with pytest.raises(OSError) as raised:
        write(tmp_path, 2)
    assert raised.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert not list(tmp_path.rglob("*.partial"))


def test_a_checkpoint_write_through_a_link_or_to_a_device_is_in_place(tmp_path):
    real, link = tmp_path / "real.psc", tmp_path / "link.psc"
    save_checkpoint(real, {"x": np.ones(2)}, {"run": 1})
    link.symlink_to(real)
    save_checkpoint(link, {"x": np.zeros(2)}, {"run": 2})
    assert link.is_symlink() and load_checkpoint(real)[1] == {"run": 2}
    if os.path.exists(os.devnull):  # not a regular file: no partial file beside it
        save_checkpoint(os.devnull, {"x": np.ones(2)}, {})
    assert sorted(q.name for q in tmp_path.iterdir()) == ["link.psc", "real.psc"]


def _two_tensor_checkpoint(path: Path, offsets: tuple[int, int]) -> int:
    """A checkpoint of two 2-element tensors at the given payload offsets,
    with payload bytes up to the furthest end; returns the payload base."""
    manifest = [
        {"name": name, "shape": [2], "offset": off} for name, off in zip("ab", offsets)
    ]
    header = json.dumps({"config": {}, "frozen": [], "tensors": manifest}).encode("utf-8")
    payload = bytes(max(offsets) + 8)
    path.write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header + payload
    )
    return 12 + len(header)


def test_checkpoint_payloads_in_any_manifest_order_load(tmp_path):
    p = tmp_path / "t.psc"
    _two_tensor_checkpoint(p, (8, 0))
    tensors, _, _ = load_checkpoint(p)
    assert set(tensors) == {"a", "b"}


@pytest.mark.parametrize(
    "offsets, stray",
    [((0, 0), 0), ((0, 4), 4), ((0, 12), 8)],
    ids=["shared_offset", "overlap", "gap"],
)
def test_checkpoint_payloads_must_tile_the_file(tmp_path, offsets, stray):
    p = tmp_path / "t.psc"
    base = _two_tensor_checkpoint(p, offsets)
    with pytest.raises(FormatError, match="overlap|gap") as err:
        load_checkpoint(p)
    assert err.value.offset == base + stray


def test_checkpoint_with_appended_bytes_is_format_error(tmp_path):
    p = tmp_path / "p.psc"
    save_params(p, init_params(MICRO_CONFIG, seed=0))
    end = len(p.read_bytes())
    p.write_bytes(p.read_bytes() + b"\0" * 8)
    with pytest.raises(FormatError, match="8 trailing bytes") as err:
        load_params(p)
    assert err.value.offset == end


def _with_header(path: Path, header: bytes) -> None:
    """Rewrite a checkpoint's header bytes, keeping magic and version."""
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header)


@pytest.mark.parametrize(
    "header",
    [
        b'{"config": {}, "tensors": [], "frozen": ["\xff"]}',
        b'{"config": {}, "tensors": [',
        b'{"config": {}, "frozen": []}',
        b'{"tensors": [], "frozen": []}',
        b"[1, 2]",
        b"[" * 200_000 + b"]" * 200_000,
    ],
    ids=["non_utf8", "invalid_json", "no_tensors", "no_config", "not_an_object", "too_deep"],
)
def test_checkpoint_malformed_header_is_format_error_at_12(tmp_path, header):
    p = tmp_path / "h.psc"
    _with_header(p, header)
    with pytest.raises(FormatError) as err:
        load_checkpoint(p)
    assert err.value.offset == 12


def test_checkpoint_unknown_config_key_is_config_error(tmp_path):
    params = init_params(MICRO_CONFIG, seed=0)
    save_params(tmp_path / "p.psc", params)
    arrays, config, frozen = load_checkpoint(tmp_path / "p.psc")
    save_checkpoint(tmp_path / "p.psc", arrays, {**config, "bogus_width": 3}, frozen=frozen)
    with pytest.raises(ConfigError, match="bogus_width"):
        load_params(tmp_path / "p.psc")


@pytest.mark.parametrize(
    "edit, match",
    [
        # checkpoints written while the LoRA scale was a setting carry this key
        ({"lora_alpha": None}, "unknown config key.*lora_alpha"),
        ({"d_model": "8"}, "'d_model' must be int, got '8'"),
        ({"encoder_blocks": -1}, "encoder_blocks must be >= 0, got -1"),
    ],
    ids=["lora_alpha", "string_d_model", "negative_encoder_blocks"],
)
def test_checkpoint_config_is_checked_like_a_train_config(tmp_path, edit, match):
    params = init_params(MICRO_CONFIG, seed=0)
    save_params(tmp_path / "p.psc", params)
    arrays, config, frozen = load_checkpoint(tmp_path / "p.psc")
    save_checkpoint(tmp_path / "p.psc", arrays, {**config, **edit}, frozen=frozen)
    with pytest.raises(ConfigError, match=match):
        load_params(tmp_path / "p.psc")


def _with_manifest(path: Path, edit) -> None:
    """Let `edit` change a checkpoint's manifest entries in place."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    edit(header["tensors"])
    _with_header(path, json.dumps(header).encode("utf-8"))
    path.write_bytes(path.read_bytes() + blob[12 + header_len :])


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e[0].update(offset=-8),
        lambda e: e[0].update(offset="0"),
        lambda e: e[0].update(offset=True),
        lambda e: e[0].update(name=3),
        lambda e: e[0].update(shape=[-1]),
        lambda e: e[0].update(shape=[True]),
        lambda e: e[0].update(shape=4),
        lambda e: e[0].pop("shape"),
        lambda e: e[0].update(dtype="f4"),
        lambda e: e.append(dict(e[0])),
        lambda e: e.append(7),
    ],
    ids=[
        "negative_offset", "string_offset", "bool_offset", "int_name", "negative_dim",
        "bool_dim", "scalar_shape", "no_shape", "extra_key", "duplicate_name", "not_an_object",
    ],
)
def test_checkpoint_bad_manifest_entry_is_format_error(tmp_path, edit):
    p = tmp_path / "m.psc"
    save_checkpoint(p, {"x": np.ones((2, 3)), "y": np.zeros(4)}, {})
    _with_manifest(p, edit)
    with pytest.raises(FormatError, match="manifest entry"):
        load_checkpoint(p)


@pytest.mark.parametrize(
    "header",
    [b'{"config": {}, "tensors": {}}', b'{"config": {}, "tensors": [], "frozen": [1]}'],
    ids=["tensors_not_a_list", "frozen_not_names"],
)
def test_checkpoint_manifest_container_is_format_error(tmp_path, header):
    p = tmp_path / "c.psc"
    _with_header(p, header)
    with pytest.raises(FormatError, match="must be lists"):
        load_checkpoint(p)


def test_checkpoint_huge_shape_is_truncation_not_overflow(tmp_path):
    p = tmp_path / "h.psc"
    save_checkpoint(p, {"x": np.ones(2)}, {})
    _with_manifest(p, lambda e: e[0].update(shape=[2**40, 2**40]))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(p)


def _poke_payload(path: Path, name: str, element: int, value: float) -> int:
    """Overwrite one f32 value of tensor `name` in a checkpoint file, which
    save_checkpoint would refuse to write when it is not finite; returns
    the value's byte offset."""
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<I", blob, 8)
    [entry] = [e for e in json.loads(blob[12 : 12 + header_len])["tensors"] if e["name"] == name]
    at = 12 + header_len + entry["offset"] + 4 * element
    struct.pack_into("<f", blob, at, value)
    path.write_bytes(bytes(blob))
    return at


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_payload_is_format_error_at_its_offset(tmp_path, bad):
    name = "encoder.block1.mlp.fc1.W"
    p = tmp_path / "p.psc"
    save_params(p, init_params(MICRO_CONFIG, seed=0))
    at = _poke_payload(p, name, 2 * MICRO_CONFIG.d_model + 3, bad)  # [2, 3], row-major
    _poke_payload(p, "lambda", 0, np.nan)  # later in the file: not the one reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match=f"'{name}' value .* is not finite") as err:
            load_params(p)
    assert err.value.offset == at


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308, -3.5e38])
def test_save_checkpoint_refuses_values_not_finite_in_f32(tmp_path, bad):
    p = tmp_path / "p.psc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="tensor 'y' has a value that is not finite in f32"):
            save_checkpoint(p, {"x": np.ones(2), "y": np.array([1.0, bad])}, {})
    assert not p.exists()


def test_checkpoint_zero_patch_size_is_config_error(tmp_path):
    save_params(tmp_path / "p.psc", init_params(MICRO_CONFIG, seed=0))
    arrays, config, frozen = load_checkpoint(tmp_path / "p.psc")
    save_checkpoint(tmp_path / "p.psc", arrays, {**config, "patch_size": 0}, frozen=frozen)
    with pytest.raises(ConfigError, match=">= 1"):
        load_params(tmp_path / "p.psc")


def _checkpoint_defects() -> dict:
    """{case: (edit of a valid checkpoint's bytes, error class, offset or None for its base)}:
    one case for each FormatError load_checkpoint raises."""
    def header(h: bytes):
        return lambda blob: CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(h)) + h

    def manifest(edit):
        def apply(blob):
            (n,) = struct.unpack_from("<I", blob, 8)
            h = json.loads(blob[12 : 12 + n])
            edit(h["tensors"])
            return header(json.dumps(h).encode("utf-8"))(b"") + blob[12 + n :]
        return apply

    def poked(blob):
        blob = bytearray(blob)
        struct.pack_into("<f", blob, len(blob) - 4, np.nan)
        return bytes(blob)

    return {
        "magic": (lambda b: b"NOPE" + b[4:], FormatError, 0),
        "short_header": (lambda b: b[:10], FormatError, 10),
        "version": (lambda b: b[:4] + struct.pack("<I", 99) + b[8:], UnsupportedVersionError, 4),
        "header_past_end": (lambda b: b[:12] + b"{}", FormatError, 14),
        "not_json": (header(b"{\xff"), FormatError, 12),
        "too_deep": (header(b"[" * 200_000 + b"]" * 200_000), FormatError, 12),
        "no_tensors": (header(b'{"config": {}}'), FormatError, 12),
        "not_lists": (header(b'{"config": {}, "tensors": {}}'), FormatError, 12),
        "manifest_entry": (manifest(lambda e: e[0].update(offset=-8)), FormatError, 12),
        "payload_truncated": (lambda b: b[:-8], FormatError, None),
        "overlap": (manifest(lambda e: e[1].update(offset=e[0]["offset"])), FormatError, None),
        "trailing": (lambda b: b + b"\0" * 8, FormatError, None),
        "not_finite": (poked, FormatError, None),
    }


@pytest.mark.parametrize("case", list(_checkpoint_defects()))
def test_every_checkpoint_format_error_names_its_file(tmp_path, case):
    # with a checkpoint and a sequence on one command line, the error says which file is bad
    edit, error, offset = _checkpoint_defects()[case]
    good, bad = tmp_path / "good.psc", tmp_path / "bad.psc"
    save_checkpoint(good, {"x": np.ones((2, 3)), "y": np.zeros(4)}, {})
    bad.write_bytes(edit(good.read_bytes()))
    with pytest.raises(FormatError) as err:
        load_checkpoint(bad)
    assert type(err.value) is error
    assert str(err.value).startswith(f"{bad}: ")
    assert offset is None or err.value.offset == offset


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A valid f32 raster, u8 raster and MICRO_CONFIG checkpoint, by kind."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    write_raster(root / "f32", rng.uniform(0, 1, (5, 4, 2)).astype(np.float32))
    write_raster(root / "u8", rng.integers(0, 256, (5, 4, 1)).astype(np.uint8))
    save_params(root / "psc", init_params(MICRO_CONFIG, seed=0))
    return {kind: (root / kind).read_bytes() for kind in ("f32", "u8", "psc")}


def _mutate(blob: bytes, edits) -> bytes:
    """Apply (kind, position, bytes) edits; positions count modulo the length."""
    for kind, pos, data in edits:
        if kind == "insert":
            at = pos % (len(blob) + 1)
            blob = blob[:at] + data + blob[at:]
        elif blob:
            at = pos % len(blob)
            if kind == "overwrite":
                blob = blob[:at] + data + blob[at + len(data) :]
            else:
                blob = blob[:at] + blob[at + len(data) :]
    return blob


@given(
    st.sampled_from(["f32", "u8", "psc"]),
    st.lists(
        st.tuples(
            st.sampled_from(["overwrite", "delete", "insert"]),
            st.integers(-(2**16), 2**16),
            st.binary(min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=3,
    ),
)
@example("psc", [("overwrite", -2, b"\x80\x7f")])  # the last lora B value becomes +Inf
@settings(max_examples=1000, deadline=None)
def test_mutated_file_is_a_typed_error_or_a_finite_load(tmp_path_factory, valid_files, kind, edits):
    path = tmp_path_factory.getbasetemp() / f"mutated_{kind}"
    path.write_bytes(_mutate(valid_files[kind], edits))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if kind == "psc":
                values = [t.data for t in load_params(path).tensors.values()]
            else:
                values = [read_raster(path)]
        except SlicesegError:
            return
    assert all(np.isfinite(v).all() for v in values)


# ---------------------------------------------------------------- synthesis


@pytest.mark.parametrize("seed", range(6))
def test_generating_a_long_stack_raises_no_warning(seed):
    # far from every blob the renderer's logistic exponent used to overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_sequence(SynthConfig(num_sequences=1, slices_per_sequence=64, seed=seed), 0)


def test_generation_deterministic_byte_identical(tmp_path):
    cfg = SynthConfig(num_sequences=2, slices_per_sequence=3, seed=1)
    d1 = generate_dataset(cfg, tmp_path / "a")
    d2 = generate_dataset(cfg, tmp_path / "b")
    files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()


def test_generated_dataset_bytes_are_pinned(tmp_path):
    # half the slices corrupted, so every generator noise constant is drawn
    root = generate_dataset(
        SynthConfig(num_sequences=2, slices_per_sequence=3, image_size=16, corrupt_prob=0.5, seed=7),
        tmp_path / "d",
    )
    assert [sl.corrupted for seq in load_dataset(root) for sl in seq.slices] == [
        False, False, True, False, True, True,
    ]
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    assert h.hexdigest() == "d6983f8421f5a7314e39a0aa810a8a48a93f86970057e1cee34253d5cdd09419"


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        ({"min_blobs": 3, "max_blobs": 1}, ContractError, "min_blobs <= max_blobs, got 3 and 1"),
        ({"min_blobs": -1}, ContractError, "min_blobs <= max_blobs, got -1 and 3"),
        ({"image_size": -4}, ContractError, "image_size must be >= 1"),
        ({"image_size": 0}, ContractError, "image_size must be >= 1"),
        ({"z_gap_range": (5.0, -1.0)}, DomainError, "z_gap_range"),
        ({"z_gap_range": (-1.0, 2.0)}, DomainError, "z_gap_range"),
        ({"z_gap_range": (float("nan"), 2.0)}, DomainError, "z_gap_range"),
        ({"z_gap_range": (0.0, float("nan"))}, DomainError, "z_gap_range"),
        ({"z_gap_range": (0.0, float("inf"))}, DomainError, "z_gap_range"),
        ({"z_gap_range": (2.0,)}, DomainError, "z_gap_range"),
    ],
)
def test_synth_config_refuses_what_the_generator_cannot_draw(kwargs, error, match):
    with pytest.raises(error, match=match):
        SynthConfig(**kwargs)


def test_synth_config_edge_settings_generate():
    cfg = SynthConfig(num_sequences=1, slices_per_sequence=2, image_size=1, min_blobs=0, max_blobs=0,
                      z_gap_range=(0.0, 0.0))
    _, slices = generate_sequence(cfg, 0)
    assert [sl.z_position_um for sl in slices] == [0.0, 0.0]
    assert all(sl.image.shape == (1, 1) and not sl.mask.any() for sl in slices)


def test_generation_counts(tmp_path):
    cfg = SynthConfig(num_sequences=4, slices_per_sequence=6, seed=3)
    root = generate_dataset(cfg, tmp_path / "d")
    assert len(list(root.rglob("slice_*.psr"))) == 24
    assert len(list(root.rglob("mask_*.psr"))) == 24
    assert len(list(root.rglob("sequence.json"))) == 4


def test_corrupt_prob_zero_flags_nothing(tmp_path):
    cfg = SynthConfig(num_sequences=3, slices_per_sequence=4, seed=5, corrupt_prob=0.0)
    root = generate_dataset(cfg, tmp_path / "d")
    for meta_path in root.rglob("sequence.json"):
        meta = json.loads(meta_path.read_text())
        assert not any(s["corrupted"] for s in meta["slices"])


def test_masks_match_rasterization_oracle():
    cfg = SynthConfig(num_sequences=1, slices_per_sequence=4, seed=11)
    _, slices = generate_sequence(cfg, 0)
    for sl in slices:
        # brute-force per-pixel ellipse membership, recomputed from geometry
        size = cfg.image_size
        oracle = np.zeros((size, size), dtype=np.uint8)
        for y in range(size):
            for x in range(size):
                for b in sl.blobs:
                    dx, dy = x - b.cx, y - b.cy
                    u = dx * np.cos(b.angle) + dy * np.sin(b.angle)
                    v = -dx * np.sin(b.angle) + dy * np.cos(b.angle)
                    if (u / b.ax) ** 2 + (v / b.ay) ** 2 <= 1.0:
                        oracle[y, x] = 1
        assert np.array_equal(sl.mask, oracle)


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a - b) ** 2))
    return float("inf") if mse == 0 else 10.0 * np.log10(1.0 / mse)


def test_corruption_degrades_image_but_not_mask():
    cfg = SynthConfig(num_sequences=6, slices_per_sequence=6, seed=2, corrupt_prob=0.5)
    clean_cfg = dataclasses.replace(cfg, corrupt_prob=0.0)
    saw_corrupted = False
    for s in range(cfg.num_sequences):
        _, slices = generate_sequence(cfg, s)
        _, clean_slices = generate_sequence(clean_cfg, s)
        for sl, clean in zip(slices, clean_slices, strict=True):
            # geometry and z are drawn before any per-slice draw, so corruption moves neither
            assert np.array_equal(sl.mask, clean.mask) and sl.z_position_um == clean.z_position_um
            if sl.corrupted:
                saw_corrupted = True
                assert _psnr(sl.image, sl.clean_image) < 20.0
            else:
                assert np.array_equal(sl.image, sl.clean_image)
    assert saw_corrupted


def test_z_positions_strictly_increasing_and_in_gap_range(tmp_path):
    cfg = SynthConfig(num_sequences=2, slices_per_sequence=5, seed=9)
    root = generate_dataset(cfg, tmp_path / "d")
    for seq in load_dataset(root):
        zs = [sl.z_position_um for sl in seq.slices]
        gaps = np.diff(zs)
        assert (gaps >= cfg.z_gap_range[0]).all() and (gaps <= cfg.z_gap_range[1]).all()
        assert zs[0] == 0.0


def test_load_dataset_round_trip(tmp_path):
    cfg = SynthConfig(num_sequences=2, slices_per_sequence=3, seed=4)
    root = generate_dataset(cfg, tmp_path / "d")
    seqs = load_dataset(root)
    assert [s.sequence_id for s in seqs] == ["seq_000", "seq_001"]
    for seq in seqs:
        for sl in seq.slices:
            assert sl.image.shape == (64, 64, 1)
            assert sl.image.min() >= 0.0 and sl.image.max() <= 1.0
            assert set(np.unique(sl.mask)) <= {0, 1}


def test_a_loaded_image_stays_the_float32_raster(tmp_path):
    # the encoder widens each chunk exactly; a loaded slice holds 4 bytes a pixel
    root = generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=3, seed=6), tmp_path)
    [seq] = load_dataset(root)
    for t, sl in enumerate(seq.slices):
        h, w, c = sl.image.shape
        assert sl.image.dtype == np.float32
        assert sl.image.nbytes == 4 * h * w * c == 4 * 64 * 64 * 1
        assert sl.image.tobytes() == read_raster(root / "seq_000" / f"slice_{t}.psr").tobytes()


@pytest.mark.parametrize("spelling", [".", "", "./", "d//", "./d/", "..", "//a", "///a", "a/b/."])
@pytest.mark.parametrize("kind", [str, Path])
def test_a_directory_prefix_is_spelled_as_pathlib_spells_it(spelling, kind):
    from sliceseg.data_io import _dir_prefix

    old = Path(kind(spelling))  # the expression the prefix replaced
    assert _dir_prefix(kind(spelling)) == (str(old) if old.parts else "")


def test_load_dataset_and_load_params_match_the_pathlib_decode(tmp_path, monkeypatch):
    """Against an oracle of the decode as it was when files were read through
    pathlib, byte for byte; `read_raster` and `load_checkpoint` run once per
    file, through the module globals the benchmark's tracer wraps."""

    root = generate_dataset(SynthConfig(seed=5, corrupt_prob=0.5), tmp_path / "d")
    ckpt = tmp_path / "m.psc"
    save_params(ckpt, init_params(MICRO_CONFIG, seed=3))
    calls = {"read_raster": [], "load_checkpoint": []}

    def counted(name):
        original = getattr(data_io, name)

        def wrapper(path, *args, **kwargs):
            calls[name].append(path)
            return original(path, *args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(data_io, name, counted(name))
    seqs = load_dataset(root)
    params = load_params(ckpt)
    assert len(calls["read_raster"]) == 4 * 6 * 2
    assert sorted(Path(p).name for p in calls["read_raster"][:12]) == sorted(
        [f"slice_{t}.psr" for t in range(6)] + [f"mask_{t}.psr" for t in range(6)]
    )
    assert [Path(p) for p in calls["load_checkpoint"]] == [ckpt]

    seq_dirs = sorted(d for d in root.iterdir() if (d / "sequence.json").exists())
    assert [s.sequence_id for s in seqs] == [d.name for d in seq_dirs]
    for seq, seq_dir in zip(seqs, seq_dirs):
        records = json.loads((seq_dir / "sequence.json").read_bytes())["slices"]
        assert len(seq.slices) == len(records) == 6
        for sl, rec in zip(seq.slices, records):
            image = read_raster(Path(seq_dir / rec["image"]))
            mask = read_raster(Path(seq_dir / rec["mask"]))[:, :, 0].astype(np.uint8)
            for got, want in ((sl.image, image), (sl.mask, mask)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            assert (sl.z_position_um, sl.corrupted) == (rec["z_position_um"], rec["corrupted"])
    assert any(sl.corrupted for seq in seqs for sl in seq.slices)

    blob = ckpt.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    entries = json.loads(blob[12 : 12 + header_len])["tensors"]
    assert sorted(params.tensors) == sorted(e["name"] for e in entries)
    for e in entries:
        want = np.frombuffer(
            blob, "<f4", count=int(np.prod(e["shape"])), offset=12 + header_len + e["offset"]
        ).reshape(e["shape"]).astype(np.float32)
        if not e["name"].startswith(("encoder.", "lora.")):  # the float32 encoder's tensors stay float32
            want = want.astype(np.float64)
        got = params.tensors[e["name"]].data
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kind, bad, value",
    [("u8", 255, "255"), ("u8", 2, "2"), ("f32", 0.7, "0.7"), ("f32", -1.0, "-1.0")],
)
def test_mask_value_other_than_0_or_1_is_format_error_naming_file_at_its_offset(
    tmp_path, kind, bad, value
):
    root = generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=2, seed=2), tmp_path)
    seq_dir = root / "seq_000"
    dtype, itemsize = (np.uint8, 1) if kind == "u8" else (np.float32, 4)
    mask = read_raster(seq_dir / "mask_1.psr")[:, :, 0].astype(dtype)
    mask[3, 5] = bad
    mask[40, 2] = bad
    write_raster(seq_dir / "mask_1.psr", mask)
    with pytest.raises(FormatError) as err:
        load_sequence(seq_dir)
    assert err.value.offset == 17 + itemsize * (3 * 64 + 5)
    assert str(err.value).startswith(str(seq_dir / "mask_1.psr"))
    assert f"mask value {value} is not 0 or 1" in str(err.value)


def test_mask_channels_and_f32_binary_masks(tmp_path):
    root = generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=1, seed=2), tmp_path)
    seq_dir = root / "seq_000"
    mask = read_raster(seq_dir / "mask_0.psr")
    write_raster(seq_dir / "mask_0.psr", mask.astype(np.float32))
    assert load_sequence(seq_dir).slices[0].mask.tobytes() == mask[:, :, 0].tobytes()
    # channel 0 is the mask; a later channel may hold anything
    three = np.concatenate([mask, mask + 7, mask + 9], axis=2)
    write_raster(seq_dir / "mask_0.psr", three)
    assert load_sequence(seq_dir).slices[0].mask.tobytes() == mask[:, :, 0].tobytes()
    three[1, 2, 0] = 3
    write_raster(seq_dir / "mask_0.psr", three)
    with pytest.raises(FormatError, match="mask value 3 ") as err:
        load_sequence(seq_dir)
    assert err.value.offset == 17 + 3 * (1 * 64 + 2)
    write_raster(seq_dir / "mask_0.psr", np.zeros((64, 64, 0), np.uint8))
    with pytest.raises(FormatError, match="mask_0.psr: mask raster has no channel") as err:
        load_sequence(seq_dir)
    assert err.value.offset == 12


def _edit_sequence_json(seq_dir: Path, edit) -> None:
    path = seq_dir / "sequence.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda m: m.pop("slices"), "'slices'"),
        (lambda m: m.update(slices=3), "'slices'"),
        (lambda m: m.pop("sequence_id"), "'sequence_id'"),
        (lambda m: m["slices"][1].pop("image"), r"slices\[1\]\.image"),
        (lambda m: m["slices"][0].update(image=5), r"slices\[0\]\.image"),
        (lambda m: m["slices"].__setitem__(2, "slice_2.psr"), r"slices\[2\]\.image"),
        (lambda m: m["slices"][0].update(mask=["mask_0.psr"]), r"slices\[0\]\.mask"),
        (lambda m: m["slices"][2].update(z_position_um="12.5"), r"slices\[2\]\.z_position_um"),
        (lambda m: m["slices"][1].update(z_position_um=float("nan")), r"slices\[1\]\.z_position_um"),
        (lambda m: m["slices"][1].update(z_position_um=True), r"slices\[1\]\.z_position_um"),
        (lambda m: m["slices"][1].update(z_position_um=10**400), r"slices\[1\]\.z_position_um must be a finite"),
        (lambda m: m["slices"][0].update(corrupted="false"), r"slices\[0\]\.corrupted"),
        (lambda m: m["slices"][2].update(corrupted=0.5), r"slices\[2\]\.corrupted"),
        (lambda m: m["slices"][1].update(corrupted=None), r"slices\[1\]\.corrupted"),
        (lambda m: m["slices"][1].update(z_postion_um=3.0), r"slices\[1\]\.z_postion_um is not a slice field"),
        (lambda m: m["slices"][0].update(mask=False), r"slices\[0\]\.mask .*got False"),
        (lambda m: m["slices"][2].update(mask=0), r"slices\[2\]\.mask .*got 0"),
        (lambda m: m["slices"][1].update(mask=""), r"slices\[1\]\.mask .*got ''"),
    ],
    ids=[
        "no_slices", "slices_not_a_list", "no_sequence_id", "no_image", "int_image",
        "record_not_an_object", "list_mask", "string_z", "nan_z", "bool_z", "int_z_beyond_float",
        "string_corrupted", "float_corrupted", "null_corrupted",
        "misspelled_z_key", "false_mask", "zero_mask", "empty_mask",
    ],
)
def test_malformed_sequence_json_is_format_error_naming_file_and_field(tmp_path, edit, field):
    root = generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=3, seed=2), tmp_path)
    seq_dir = root / "seq_000"
    _edit_sequence_json(seq_dir, edit)
    with pytest.raises(FormatError, match=field) as err:
        load_sequence(seq_dir)
    assert "sequence.json" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [b'{"slices": [', b'{"slices": "\xff"}', b"[" * 200_000 + b"]" * 200_000],
    ids=["invalid_json", "non_utf8", "too_deep"],
)
def test_undecodable_sequence_json_is_format_error(tmp_path, text):
    (tmp_path / "sequence.json").write_bytes(text)
    with pytest.raises(FormatError, match="sequence.json"):
        load_sequence(tmp_path)


def test_sequence_json_null_z_and_integer_z_load(tmp_path):
    root = generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=2, seed=2), tmp_path)
    seq_dir = root / "seq_000"

    def edit(meta):
        meta["slices"][0]["z_position_um"] = None
        meta["slices"][1]["z_position_um"] = 7

    _edit_sequence_json(seq_dir, edit)
    seq = load_sequence(seq_dir)
    assert [sl.z_position_um for sl in seq.slices] == [None, 7]


# ---------------------------------------------------------------- raw reads


@pytest.mark.parametrize(
    "load", [read_raster, load_checkpoint, load_params, load_sequence], ids=lambda f: f.__name__
)
def test_a_directory_in_place_of_a_file_is_an_is_a_directory_error_naming_it(tmp_path, load):
    # os.open accepts a directory; the read must still refuse it the way open() does
    named = tmp_path / ("sequence.json" if load is load_sequence else "not_a_file")
    named.mkdir()
    with pytest.raises(IsADirectoryError) as err:
        load(tmp_path if load is load_sequence else named)
    assert str(named) in str(err.value)


@pytest.fixture(scope="module")
def malformed_loads(tmp_path_factory, valid_files):
    """{case: a call that loads one malformed input and raises}."""
    root = tmp_path_factory.mktemp("malformed")
    f32 = valid_files["f32"]
    rasters = {
        "bad_magic": b"XXXX" + f32[4:],
        "truncated_header": f32[:11],
        "truncated_payload": f32[:-7],
        "unknown_dtype_tag": f32[:16] + b"\x09" + f32[17:],
        "oversized_dims": b"PSR1" + struct.pack("<IIIB", 2**30, 2**30, 1, 0),
        "nan_payload": f32[:17] + struct.pack("<f", np.nan) + f32[21:],
    }
    loads = {}
    for case, blob in rasters.items():
        (root / case).write_bytes(blob)
        loads[case] = functools.partial(read_raster, root / case)
    save_params(root / "bad_manifest.psc", init_params(MICRO_CONFIG, seed=0))
    _with_manifest(root / "bad_manifest.psc", lambda t: t[0].update(offset=-8))
    loads["bad_manifest"] = functools.partial(load_params, root / "bad_manifest.psc")
    data = generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=2, seed=2), root / "d")
    (data / "seq_000" / "mask_1.psr").unlink()
    loads["missing_mask_file"] = functools.partial(load_sequence, data / "seq_000")
    (root / "a_directory").mkdir()
    loads["a_directory"] = functools.partial(read_raster, root / "a_directory")
    return loads


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "case",
    [
        "bad_magic", "truncated_header", "truncated_payload", "unknown_dtype_tag",
        "oversized_dims", "nan_payload", "bad_manifest", "missing_mask_file", "a_directory",
    ],
)
def test_a_failed_load_leaks_no_descriptor(malformed_loads, case):
    # raw descriptors have no ResourceWarning to catch a leak: count them
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        with pytest.raises(OSError if case in ("missing_mask_file", "a_directory") else SlicesegError):
            malformed_loads[case]()
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_header_promising_more_than_the_file_holds_allocates_nothing(tmp_path):
    # 2^20 x 2^20 x 1 f32 is within MAX_EXTENT and would be a 4 TiB array
    p = tmp_path / "promise.psr"
    p.write_bytes(b"PSR1" + struct.pack("<IIIB", 2**20, 2**20, 1, 0))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="raster payload truncated") as err:
            read_raster(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.offset == 17
    assert peak < 1 << 20


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_header_promising_more_than_a_pipe_holds_allocates_nothing():
    # a pipe has no size to check the header against: its payload is read first
    r, w = os.pipe()
    try:
        os.write(w, b"PSR1" + struct.pack("<IIIB", 2**20, 2**20, 1, 0))
        os.close(w)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="raster payload truncated") as err:
                read_raster(f"/proc/self/fd/{r}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        os.close(r)
    assert err.value.offset == 17
    assert peak < 1 << 20


def _capped_read(monkeypatch, per_call: int, total: int | None = None) -> None:
    """Make os.read read at most `per_call` bytes a call and, when `total` is
    given, report end of file once `total` bytes have been read."""
    read, done = os.read, [0]

    def capped(fd, n):
        room = min(n, per_call if total is None else min(per_call, total - done[0]))
        part = read(fd, room) if room > 0 else b""
        done[0] += len(part)
        return part

    monkeypatch.setattr(os, "read", capped)


@pytest.mark.parametrize("dtype", [np.float32, np.uint8])
def test_a_raster_read_in_short_reads_loads_bitwise(tmp_path, monkeypatch, dtype):
    arr = np.random.default_rng(1).uniform(0, 255, (40, 30, 3)).astype(dtype)
    write_raster(tmp_path / "r.psr", arr)
    _capped_read(monkeypatch, per_call=1000)
    back = read_raster(tmp_path / "r.psr")
    assert back.dtype == arr.dtype and back.tobytes() == arr.tobytes()


def test_a_file_that_shrinks_after_fstat_is_truncation_at_the_bytes_read(tmp_path, monkeypatch):
    write_raster(tmp_path / "r.psr", np.ones((40, 30, 1), np.float32))
    _capped_read(monkeypatch, per_call=1000, total=2500)
    with pytest.raises(FormatError, match="raster payload truncated") as err:
        read_raster(tmp_path / "r.psr")
    assert err.value.offset == 2500


@pytest.mark.parametrize("dtype", [np.float32, np.uint8])
@pytest.mark.parametrize("shape", [(9, 7, 2), (0, 5, 1)])
def test_a_raster_read_back_is_writable_aligned_and_owns_its_data(tmp_path, dtype, shape):
    arr = np.arange(math.prod(shape)).reshape(shape).astype(dtype)
    write_raster(tmp_path / "r.psr", arr)
    back = read_raster(tmp_path / "r.psr")
    assert back.shape == shape and back.dtype == arr.dtype and back.tobytes() == arr.tobytes()
    assert back.flags.writeable and back.flags.aligned and back.flags.owndata


def test_a_raster_with_trailing_bytes_reads_exactly_its_declared_payload(tmp_path):
    arr = np.random.default_rng(2).standard_normal((9, 7, 2)).astype(np.float32)
    write_raster(tmp_path / "r.psr", arr)
    with open(tmp_path / "r.psr", "ab") as f:
        f.write(b"\xff" * 13)
    back = read_raster(tmp_path / "r.psr")
    assert back.shape == arr.shape and back.tobytes() == arr.tobytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("kind", ["f32", "psc"])
def test_a_pipe_is_read_to_its_end(tmp_path, valid_files, kind):
    # a pipe has no size to check against; it is read until the writer closes
    blob = valid_files[kind]
    (tmp_path / kind).write_bytes(blob)
    r, w = os.pipe()
    try:
        os.write(w, blob)  # a few KB: within the pipe's buffer
        os.close(w)
        path = f"/proc/self/fd/{r}"
        if kind == "psc":
            got = load_checkpoint(path)[0]
            want = load_checkpoint(tmp_path / kind)[0]
            assert got.keys() == want.keys()
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        else:
            assert read_raster(path).tobytes() == read_raster(tmp_path / kind).tobytes()
    finally:
        os.close(r)


# ------------------------------------------------------ distance estimation


def test_estimate_distance_identical_features():
    f = np.array([0.3, -1.2, 0.5])
    assert estimate_distance(f, f) == pytest.approx(0.0, abs=1e-12)


def test_estimate_distance_orthogonal():
    assert estimate_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(10.0)


def test_estimate_distance_opposite():
    f = np.array([2.0, -1.0])
    assert estimate_distance(f, -f) == pytest.approx(20.0)


def test_estimate_distance_degenerate_returns_scale():
    assert estimate_distance(np.zeros(3), np.ones(3)) == 10.0
