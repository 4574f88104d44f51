"""On-disk formats, synthetic generation and distance estimation."""

import hashlib
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceseg.data_io import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    SynthConfig,
    ellipse_mask,
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
    ConfigError, DomainError, FormatError, SlicesegError, UnsupportedVersionError,
)
from sliceseg.model import MICRO_CONFIG, init_params, load_params, save_params

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
    write_raster(tmp_path / "n.psr", arr)
    with pytest.raises(FormatError, match="not finite") as err:
        read_raster(tmp_path / "n.psr")
    assert err.value.offset == 17 + 4 * ((2 * 5 + 3) * 2 + 1)


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
    ],
    ids=["non_utf8", "invalid_json", "no_tensors", "no_config", "not_an_object"],
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
    saw_corrupted = False
    for s in range(cfg.num_sequences):
        _, slices = generate_sequence(cfg, s)
        for sl in slices:
            assert np.array_equal(sl.mask, ellipse_mask(sl.blobs, cfg.image_size))
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


def test_load_dataset_and_load_params_match_the_pathlib_decode(tmp_path, monkeypatch):
    """Against an oracle of the decode as it was when files were read through
    pathlib, byte for byte; `read_raster` and `load_checkpoint` run once per
    file, through the module globals the benchmark's tracer wraps."""
    import sliceseg.data_io as data_io

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
            image = read_raster(Path(seq_dir / rec["image"])).astype(np.float64)
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
        ).reshape(e["shape"]).astype(np.float64)
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
        (lambda m: m["slices"][0].update(corrupted="false"), r"slices\[0\]\.corrupted"),
        (lambda m: m["slices"][2].update(corrupted=0.5), r"slices\[2\]\.corrupted"),
        (lambda m: m["slices"][1].update(corrupted=None), r"slices\[1\]\.corrupted"),
    ],
    ids=[
        "no_slices", "slices_not_a_list", "no_sequence_id", "no_image", "int_image",
        "record_not_an_object", "list_mask", "string_z", "nan_z", "bool_z",
        "string_corrupted", "float_corrupted", "null_corrupted",
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
    "text", [b'{"slices": [', b'{"slices": "\xff"}'], ids=["invalid_json", "non_utf8"]
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
