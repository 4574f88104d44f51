"""Command-line surface: subcommands, config handling, error reporting."""

import json
import shutil
import struct
import warnings

import numpy as np
import pytest

from sliceseg.cli import main
from sliceseg.data_io import load_dataset, read_raster, write_raster


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    rc = main(
        ["gen-data", "--out", str(out), "--sequences", "2", "--slices", "3",
         "--seed", "1", "--corrupt-prob", "0.0"]
    )
    assert rc == 0
    return out


CONFIG = {
    "steps": 5,
    "seed": 0,
    "model": {
        "image_size": 64, "patch_size": 8, "d_model": 16, "heads": 2,
        "encoder_blocks": 1, "lora_rank": 2, "decoder_hidden": 16,
    },
}


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))
    ckpt = root / "m.psc"
    rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(ckpt)])
    assert rc == 0
    return ckpt


def test_gen_data_layout(dataset):
    assert (dataset / "seq_000" / "sequence.json").exists()
    assert (dataset / "seq_001" / "slice_2.psr").exists()
    assert (dataset / "seq_001" / "mask_0.psr").exists()


def test_train_writes_checkpoint_and_trace(checkpoint):
    assert checkpoint.exists()
    trace = checkpoint.parent / "m.psc.trace.jsonl"
    assert len(trace.read_text().splitlines()) == CONFIG["steps"]


def test_train_cli_overrides(dataset, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))
    ckpt = tmp_path / "o.psc"
    rc = main(
        ["train", "--data", str(dataset), "--config", str(cfg_path),
         "--out", str(ckpt), "--steps", "2", "--seed", "9"]
    )
    assert rc == 0
    trace = tmp_path / "o.psc.trace.jsonl"
    assert len(trace.read_text().splitlines()) == 2


def test_train_unknown_config_key_fails_with_json_error(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"stepz": 5}))
    rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 1
    err_lines = [l for l in capsys.readouterr().err.strip().splitlines() if l]
    assert len(err_lines) == 1
    doc = json.loads(err_lines[0])
    assert "stepz" in doc["error"]


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"steps": "5"}, "steps"),
        ({"model": {"d_model": "64"}}, "model.d_model"),
        ({"steps": 2.5}, "steps"),
        ({"steps": True}, "steps"),
    ],
)
def test_train_wrongly_typed_config_value_fails_with_json_error(dataset, tmp_path, capsys, doc, key):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "x.psc"
    rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert f"'{key}' must be int" in _single_json_error(capsys)["error"]
    assert not out.exists()


def test_train_zero_steps_flag_fails_with_json_error(dataset, tmp_path, capsys):
    out = tmp_path / "x.psc"
    rc = main(["train", "--data", str(dataset), "--out", str(out), "--steps", "0"])
    assert rc == 1
    assert "steps must be >= 1" in _single_json_error(capsys)["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "grad-check", "train", "train-config"])
def test_negative_seed_is_single_line_error(dataset, tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "out")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": -1}))
    argv = {
        "gen-data": ["gen-data", "--seed", "-1", *out],
        "grad-check": ["grad-check", "--seed", "-1"],
        "train": ["train", "--data", str(dataset), "--seed", "-1", *out],
        "train-config": ["train", "--data", str(dataset), "--config", str(cfg_path), *out],
    }[command]
    assert main(argv) == 1
    assert "seed must be >= 0, got -1" in _single_json_error(capsys)["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [b"\xff\xfe\x7b", b'{"steps": 5'], ids=["undecodable", "invalid_json"])
def test_unreadable_config_is_single_line_error_naming_the_file(dataset, tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    out = tmp_path / "x.psc"
    rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert f"config {cfg_path}: not a JSON document" in _single_json_error(capsys)["error"]
    assert not out.exists()


def test_train_to_values_not_finite_in_f32_writes_no_checkpoint(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"learning_rate": 1e308, "steps": 1}))
    out = tmp_path / "x.psc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert "not finite in f32" in _single_json_error(capsys)["error"]
    assert not out.exists()
    assert not (tmp_path / "x.psc.trace.jsonl").exists()


def test_train_stopped_by_a_non_finite_loss_leaves_no_trace(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"loss": {"w_dice": 1e308, "w_bce": 1e308}, "steps": 1}))
    out = tmp_path / "x.psc"
    with np.errstate(over="ignore"):
        rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert "non-finite loss" in _single_json_error(capsys)["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_eval_writes_report(dataset, checkpoint, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--data", str(dataset), "--ckpt", str(checkpoint), "--report", str(report_path)])
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["num_slices"] == 6
    assert 0.0 <= doc["mean_dice"] <= 1.0


def test_infer_writes_binary_masks(dataset, checkpoint, tmp_path):
    out = tmp_path / "preds"
    rc = main(["infer", "--ckpt", str(checkpoint), "--sequence", str(dataset / "seq_000"), "--out", str(out)])
    assert rc == 0
    [seq] = [s for s in load_dataset(dataset) if s.sequence_id == "seq_000"]
    for t in range(len(seq.slices)):
        mask = read_raster(out / f"pred_{t}.psr")
        assert mask.dtype == np.uint8
        assert mask.shape == (64, 64, 1)
        assert set(np.unique(mask)) <= {0, 1}


def test_grad_check_command(capsys):
    rc = main(["grad-check", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda" in out
    assert "FAIL" not in out


def test_missing_dataset_is_single_line_error(tmp_path, capsys):
    rc = main(["eval", "--data", str(tmp_path / "nope"), "--ckpt", str(tmp_path / "x"), "--report", str(tmp_path / "r")])
    assert rc == 1
    err_lines = [l for l in capsys.readouterr().err.strip().splitlines() if l]
    assert len(err_lines) == 1
    json.loads(err_lines[0])


def _single_json_error(capsys) -> dict:
    err_lines = [l for l in capsys.readouterr().err.strip().splitlines() if l]
    assert len(err_lines) == 1
    return json.loads(err_lines[0])


def _edit_manifest(blob: bytes, edit) -> bytes:
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + header_len :]


def _flatten_first(header):
    entry = header["tensors"][0]
    entry["shape"] = [int(np.prod(entry["shape"]))]


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(tensors=[e for e in h["tensors"] if e["name"] != "lambda"]),
        _flatten_first,
        lambda h: h["tensors"][0].update(offset=-8),
        lambda h: h["tensors"][0].update(name=None),
        lambda h: h.update(frozen=[]),
    ],
    ids=["missing_tensor", "wrong_shape", "negative_offset", "bad_entry", "frozen_mismatch"],
)
def test_infer_on_malformed_manifest_is_single_line_error(
    dataset, checkpoint, tmp_path, capsys, edit
):
    bad = tmp_path / "bad.psc"
    bad.write_bytes(_edit_manifest(checkpoint.read_bytes(), edit))
    out = tmp_path / "p"
    rc = main(["infer", "--ckpt", str(bad), "--sequence", str(dataset / "seq_000"), "--out", str(out)])
    assert rc == 1
    assert "checkpoint" in _single_json_error(capsys)["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m.pop("slices"),
        lambda m: m.update(slices=3),
        lambda m: m["slices"][0].pop("image"),
        lambda m: m["slices"][0].update(z_position_um="0.0"),
        lambda m: m["slices"][1].update(z_position_um=float("nan")),
        None,
    ],
    ids=["no_slices", "slices_int", "no_image", "string_z", "nan_z", "invalid_json"],
)
def test_infer_on_malformed_sequence_json_is_single_line_error(
    dataset, checkpoint, tmp_path, capsys, edit
):
    seq_dir = tmp_path / "seq"
    shutil.copytree(dataset / "seq_000", seq_dir)
    meta_path = seq_dir / "sequence.json"
    if edit is None:
        meta_path.write_text(meta_path.read_text()[:-5])
    else:
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
    out = str(tmp_path / "p")
    rc = main(["infer", "--ckpt", str(checkpoint), "--sequence", str(seq_dir), "--out", out])
    assert rc == 1
    assert "sequence.json" in _single_json_error(capsys)["error"]


def test_infer_on_non_finite_raster_is_single_line_error(dataset, checkpoint, tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    shutil.copytree(dataset / "seq_000", seq_dir)
    image = read_raster(seq_dir / "slice_1.psr")
    image[0, 2, 0] = np.nan
    write_raster(seq_dir / "slice_1.psr", image)
    out = tmp_path / "p"
    rc = main(["infer", "--ckpt", str(checkpoint), "--sequence", str(seq_dir), "--out", str(out)])
    assert rc == 1
    assert "not finite (at byte offset 25)" in _single_json_error(capsys)["error"]
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_infer_on_non_finite_checkpoint_is_single_line_error(
    dataset, checkpoint, tmp_path, capsys, bad
):
    # written by hand: save_checkpoint refuses values that are not finite
    blob = bytearray(checkpoint.read_bytes())
    (header_len,) = struct.unpack_from("<I", blob, 8)
    [entry] = [
        e for e in json.loads(blob[12 : 12 + header_len])["tensors"] if e["name"] == "decoder.fc2.b"
    ]
    struct.pack_into("<f", blob, 12 + header_len + entry["offset"] + 4 * 5, bad)
    (tmp_path / "bad.psc").write_bytes(bytes(blob))
    out = tmp_path / "p"
    rc = main(
        ["infer", "--ckpt", str(tmp_path / "bad.psc"), "--sequence", str(dataset / "seq_000"),
         "--out", str(out)]
    )
    assert rc == 1
    assert "tensor 'decoder.fc2.b' value" in _single_json_error(capsys)["error"]
    assert not out.exists()
