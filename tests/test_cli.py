"""Command-line surface: subcommands, config handling, error reporting."""

import contextlib
import io
import json
import shutil
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceseg import training
from sliceseg.cli import main
from sliceseg.data_io import load_dataset, read_raster, save_checkpoint, write_raster


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


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x7b", b'{"steps": 5', b"[" * 200_000 + b"]" * 200_000],
    ids=["undecodable", "invalid_json", "too_deep"],
)
def test_unreadable_config_is_single_line_error_naming_the_file(dataset, tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    out = tmp_path / "x.psc"
    rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert f"config {cfg_path}: not a JSON document" in _single_json_error(capsys)["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"steps": 0}, "steps must be >= 1"),
        ({"stepz": 5}, "unknown config key: 'stepz'"),
        ({"model": {"d_model": 10**400, "heads": 1}}, "d_model must be <= 1048576"),
    ],
    ids=["refused_value", "unknown_key", "too_large_size"],
)
def test_a_config_the_checks_refuse_is_an_error_naming_the_file(dataset, tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "x.psc"
    rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(out), "--steps", "1"])
    assert rc == 1
    assert _single_json_error(capsys)["error"] == f"config {cfg_path}: {message}"
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


def test_train_into_a_missing_directory_fails_before_the_first_step(dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(training, "train_step", lambda *a: pytest.fail("a step ran"))
    out = tmp_path / "missing" / "m.psc"
    assert main(["train", "--data", str(dataset), "--out", str(out), "--steps", "1"]) == 1
    error = _single_json_error(capsys)["error"]
    assert error == f"cannot write {out}: {out.parent} is not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_failed_rerun_keeps_the_earlier_checkpoint_and_its_trace(dataset, tmp_path, capsys):
    out = tmp_path / "m.psc"
    trace = tmp_path / "m.psc.trace.jsonl"
    assert main(["train", "--data", str(dataset), "--out", str(out), "--steps", "1"]) == 0
    before = out.read_bytes(), trace.read_bytes()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"learning_rate": 1e308, "steps": 2}))
    with np.errstate(all="ignore"):
        rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1  # at step 2, once the first step has made the parameters non-finite
    assert "at step 2 on sequence 'seq_" in _single_json_error(capsys)["error"]
    assert (out.read_bytes(), trace.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "m.psc", "m.psc.trace.jsonl"]


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gen-data", "--out", "{tmp}/d", "--bogus"], "unrecognized arguments: --bogus"),
        (["train", "--data", "{tmp}/d"], "sliceseg train: the following arguments are required: --out"),
        (["gen-data", "--out", "{tmp}/d", "--corrupt-prob", "-inf"], "--corrupt-prob: expected one argument"),
        ([], "the following arguments are required: command"),
    ],
    ids=["unknown_flag", "missing_out", "negative_inf_value", "no_subcommand"],
)
def test_usage_error_is_single_line_error(tmp_path, capsys, argv, message):
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert message in json.loads(err)["error"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: sliceseg" in capsys.readouterr().out


def _single_json_error(capsys) -> dict:
    err_lines = [l for l in capsys.readouterr().err.strip().splitlines() if l]
    assert len(err_lines) == 1
    return json.loads(err_lines[0])


@pytest.mark.parametrize("writer", ["write_raster", "save_checkpoint", "write_report", "eval --report"])
def test_a_write_into_a_missing_directory_names_the_callers_path(writer, dataset, checkpoint, tmp_path, capsys):
    # the error names the path asked for, not the partial file written first
    path = tmp_path / "missing" / "r.json"
    report = training.EvalReport(0.0, 0.0, 0, 0, [], {})
    writes = {
        "write_raster": lambda: write_raster(path, np.zeros((4, 4), np.float32)),
        "save_checkpoint": lambda: save_checkpoint(path, {"w": np.zeros(2)}, {}),
        "write_report": lambda: training.write_report(report, path),
    }
    if writer in writes:
        with pytest.raises(FileNotFoundError) as info:
            writes[writer]()
        assert (info.value.errno, info.value.filename) == (2, str(path))
        message = str(info.value)
    else:
        rc = main(["eval", "--data", str(dataset), "--ckpt", str(checkpoint), "--report", str(path)])
        assert rc == 1
        message = _single_json_error(capsys)["error"]
    assert message == f"[Errno 2] No such file or directory: {str(path)!r}"
    assert not (tmp_path / "missing").exists()


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


@pytest.mark.parametrize("command", ["infer", "eval", "train"])
def test_an_int_z_beyond_the_float_range_is_single_line_error(dataset, checkpoint, tmp_path, capsys, command):
    # JSON reads 1 followed by 400 zeros as an int, which does not convert to a float
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    meta_path = data / "seq_000" / "sequence.json"
    meta = json.loads(meta_path.read_text())
    meta["slices"][1]["z_position_um"] = 10**400
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "out"
    argv = {
        "infer": ["--ckpt", str(checkpoint), "--sequence", str(data / "seq_000"), "--out", str(out)],
        "eval": ["--data", str(data), "--ckpt", str(checkpoint), "--report", str(out)],
        "train": ["--data", str(data), "--out", str(out)],
    }[command]
    assert main([command, *argv]) == 1
    assert "slices[1].z_position_um must be a finite number or null" in _single_json_error(capsys)["error"]
    assert not out.exists()


def test_train_on_a_learning_rate_int_beyond_the_float_range_is_single_line_error(dataset, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"learning_rate": 1' + "0" * 400 + ', "steps": 1}')
    out = tmp_path / "x.psc"
    rc = main(["train", "--data", str(dataset), "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    assert "'learning_rate' must be a finite number" in _single_json_error(capsys)["error"]
    assert not out.exists()


def test_infer_on_a_z_gap_whose_square_overflows_is_single_line_error(
    dataset, checkpoint, tmp_path, capsys
):
    seq_dir = tmp_path / "seq"
    shutil.copytree(dataset / "seq_000", seq_dir)
    meta_path = seq_dir / "sequence.json"
    meta = json.loads(meta_path.read_text())
    meta["slices"][1]["z_position_um"] = 1e200
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "p"
    rc = main(["infer", "--ckpt", str(checkpoint), "--sequence", str(seq_dir), "--out", str(out)])
    assert rc == 1
    assert "finite square" in _single_json_error(capsys)["error"]
    assert not out.exists()


def test_infer_on_non_finite_raster_is_single_line_error(dataset, checkpoint, tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    shutil.copytree(dataset / "seq_000", seq_dir)
    image = read_raster(seq_dir / "slice_1.psr")
    image[0, 2, 0] = np.nan
    h, w, c = image.shape  # raw bytes: write_raster refuses the value
    (seq_dir / "slice_1.psr").write_bytes(b"PSR1" + struct.pack("<IIIB", w, h, c, 0) + image.astype("<f4").tobytes())
    out = tmp_path / "p"
    rc = main(["infer", "--ckpt", str(checkpoint), "--sequence", str(seq_dir), "--out", str(out)])
    assert rc == 1
    assert "not finite (at byte offset 25)" in _single_json_error(capsys)["error"]
    assert not out.exists()


def test_eval_on_a_255_mask_is_single_line_error_naming_the_file(
    dataset, checkpoint, tmp_path, capsys
):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    blob = bytearray((data / "seq_000" / "mask_0.psr").read_bytes())
    blob[17] = 255
    (data / "seq_000" / "mask_0.psr").write_bytes(bytes(blob))
    report = tmp_path / "report.json"
    rc = main(["eval", "--data", str(data), "--ckpt", str(checkpoint), "--report", str(report)])
    assert rc == 1
    error = _single_json_error(capsys)["error"]
    assert "mask_0.psr: mask value 255 is not 0 or 1 (at byte offset 17)" in error
    assert not report.exists()


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


# ------------------------------------------------------- drawn command lines
# Every run of a drawn argv exits 0, or exits 1 with exactly one JSON line
# on stderr. Values sit at and past their edges; training never runs more
# than 2 steps. The only valid `grad-check` run (seconds long) is
# test_grad_check_command's.


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 1x3-slice dataset, a 2-step checkpoint trained on it, and files of
    the wrong kind to pass where either is expected."""
    root = tmp_path_factory.mktemp("drawn")
    data = root / "data"
    assert main(["gen-data", "--out", str(data), "--sequences", "1", "--slices", "3"]) == 0
    ckpt = root / "m.psc"
    assert main(["train", "--data", str(data), "--out", str(ckpt), "--steps", "2"]) == 0
    (root / "empty").mkdir()
    (root / "cut.psc").write_bytes(ckpt.read_bytes()[:100])
    return {
        "data": data, "seq": data / "seq_000", "ckpt": ckpt, "empty": root / "empty",
        "cut": root / "cut.psc", "raster": data / "seq_000" / "slice_0.psr",
        "json": data / "seq_000" / "sequence.json", "missing": root / "missing",
    }


def _assert_clean_exit(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([str(a) for a in argv])
    if rc == 0:
        return
    # the console script would print each warning as more lines on stderr
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert rc == 1 and len(lines) == 1, (argv, rc, lines)
    assert isinstance(json.loads(lines[0])["error"], str)


def _fresh(tmp_path_factory, kind: str):
    """An output path that does not exist yet, sits under a missing
    directory, is an existing directory, or lies under a file."""
    root = tmp_path_factory.mktemp("out")
    (root / "file").write_text("x")
    return {"new": root / "o", "orphan": root / "no" / "o", "dir": root, "under_file": root / "file" / "o"}[kind]


OUT_KINDS = st.sampled_from(["new", "new", "orphan", "dir", "under_file"])
SEEDS = st.one_of(st.integers(-3, 3), st.sampled_from([-(2**63), 2**32 - 1, 2**32, 2**64]))


def _flag_args(flags: dict) -> list[str]:
    # --name=value, so that argparse takes "-inf" as a value, not a flag
    return [f"{name}={value}" for name, value in flags.items() if value is not None]


@given(
    out=OUT_KINDS,
    flags=st.fixed_dictionaries({}, optional={
        "--sequences": st.sampled_from([-1, 0, 1]),
        "--slices": st.sampled_from([-1, 0, 1, 3]),
        "--seed": SEEDS,
        "--corrupt-prob": st.sampled_from(["-0.1", "0", "0.3", "1", "1.5", "nan", "inf", "-inf", "5e-324"]),
    }),
)
@settings(max_examples=40, deadline=None)
def test_drawn_gen_data_argv_exits_cleanly(tmp_path_factory, out, flags):
    _assert_clean_exit(["gen-data", "--out", _fresh(tmp_path_factory, out), *_flag_args(flags)])


def _numbers(*edges, wrong="1"):
    """The edges of a config value, or one value of the wrong type."""
    return st.sampled_from([*edges, wrong])


CONFIG_DOCS = st.one_of(
    st.fixed_dictionaries(
        # steps is always set, so a run never falls back to the 500-step default
        {"steps": _numbers(-1, 0, 1, 2, 2, 2.0)},
        optional={
            "learning_rate": _numbers(-1.0, 0.0, 1e-3, 1.0, 1e308, float("nan"), float("inf"), wrong=None),
            "seed": _numbers(-1, 0, 2**64, wrong=1.5),
            "checkpoint_every": _numbers(-1, 0, 1, 2, None, wrong=True),
            "loss": st.fixed_dictionaries({}, optional={
                key: _numbers(-1.0, 0.0, 0.5, 1e308, -1e308, float("inf"), wrong=[1])
                for key in ("w_dice", "w_bce", "w_consistency", "smooth", "similarity_threshold")
            }),
            "model": st.fixed_dictionaries({}, optional={
                "image_size": _numbers(-1, 0, 8, 64, 64, 65),
                "patch_size": _numbers(-1, 0, 3, 8, 8, 64),
                "channels": _numbers(0, 1, 1, 2),
                "d_model": _numbers(-1, 0, 1, 8, 8),
                "heads": _numbers(0, 1, 3, 4, wrong=4.0),
                "encoder_blocks": _numbers(-1, 0, 1),
                "lora_rank": _numbers(0, 1, 8, 9),
                "k_memory": _numbers(-1, 0, 1, 5, wrong=None),
                "decoder_hidden": _numbers(0, 1, 8),
            }),
        },
    ),
    st.sampled_from([[], 1, "steps", None, {"stepz": 1}, {"steps": 1, "model": []}]),
)


@given(
    data=st.sampled_from(["data", "data", "data", "empty", "missing", "raster"]),
    out=OUT_KINDS,
    steps=st.sampled_from([-1, 0, 1, 2]),
    seed=st.one_of(st.none(), SEEDS),
)
@settings(max_examples=40, deadline=None)
def test_drawn_train_argv_exits_cleanly(tmp_path_factory, small, data, out, steps, seed):
    out = _fresh(tmp_path_factory, out)
    _assert_clean_exit(["train", "--data", small[data], "--out", out, *_flag_args({"--steps": steps, "--seed": seed})])


@given(doc=CONFIG_DOCS, steps=st.sampled_from([None, None, None, 0, 2]))
# step 1 overflows the parameters, so step 2's forward meets non-finite values
@example(doc={"steps": 2, "learning_rate": 1e308}, steps=None)
@settings(max_examples=100, deadline=None)
def test_drawn_train_config_exits_cleanly(tmp_path_factory, small, doc, steps):
    root = tmp_path_factory.mktemp("cfg")
    (root / "cfg.json").write_text(json.dumps(doc))
    argv = ["train", "--data", small["data"], "--out", root / "m.psc", "--config", root / "cfg.json"]
    _assert_clean_exit([*argv, *_flag_args({"--steps": steps})])


CHECKPOINTS = st.sampled_from(["ckpt", "ckpt", "ckpt", "cut", "raster", "json", "empty", "missing"])


@given(
    data=st.sampled_from(["data", "data", "empty", "missing", "raster", "seq"]),
    ckpt=CHECKPOINTS,
    report=OUT_KINDS,
)
@settings(max_examples=40, deadline=None)
def test_drawn_eval_argv_exits_cleanly(tmp_path_factory, small, data, ckpt, report):
    _assert_clean_exit(
        ["eval", "--data", small[data], "--ckpt", small[ckpt], "--report", _fresh(tmp_path_factory, report)]
    )


@given(
    ckpt=CHECKPOINTS,
    seq=st.sampled_from(["seq", "seq", "data", "empty", "missing", "raster"]),
    out=OUT_KINDS,
)
@settings(max_examples=40, deadline=None)
def test_drawn_infer_argv_exits_cleanly(tmp_path_factory, small, ckpt, seq, out):
    _assert_clean_exit(
        ["infer", "--ckpt", small[ckpt], "--sequence", small[seq], "--out", _fresh(tmp_path_factory, out)]
    )


@given(seed=st.one_of(st.integers(max_value=-1), st.just(-(2**64))))
@settings(max_examples=10, deadline=None)
def test_drawn_grad_check_argv_exits_cleanly(seed):
    _assert_clean_exit(["grad-check", *_flag_args({"--seed": seed})])
