"""On-disk formats and the synthetic sequential-slice benchmark.

Three byte-exact formats:

* raster (.psr): magic "PSR1", little-endian u32 width/height/channels,
  u8 dtype tag (0 = f32, 1 = u8), then the row-major channel-last payload.
* sequence metadata: one ``sequence.json`` per sequence directory listing
  image/mask filenames, z positions and corruption flags.
* checkpoint (.psc): magic "PSC1", u32 version (= 1), u32 header length,
  a JSON header (config echo, frozen-tensor names, tensor manifest with
  names/shapes/byte offsets), then concatenated f32 LE tensor payloads,
  which load as float32 views of one copy of the payload region.

The generator lays ``<root>/<sequence_id>/{sequence.json, slice_<t>.psr,
mask_<t>.psr}``: drifting elliptical blobs over a textured background,
with optional per-slice heavy-noise corruption that never touches the
ground-truth mask. Everything is deterministic per seed.

Every file is read whole through one raw descriptor (``os.open``,
``os.fstat``, ``os.read``, ``os.close``), with no buffered file object. A
raster is one copy out of those bytes, so a read briefly holds about twice
the raster; its declared size is checked against the bytes read before the
array is made. Every file is written through ``_write_file``, to
``<path>.partial``, which then replaces the path: a failed write leaves the
earlier file as it was and no partial file behind.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import json
import math
import os
import stat
import struct
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DomainError, FormatError, UnsupportedVersionError
from .rng import substream

RASTER_MAGIC = b"PSR1"
CHECKPOINT_MAGIC = b"PSC1"
CHECKPOINT_VERSION = 1
DTYPE_F32 = 0
DTYPE_U8 = 1
MAX_EXTENT = 1 << 20
_RASTER_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_U8: np.dtype(np.uint8)}
# What json.loads raises on bytes that are not a JSON document: UnicodeDecodeError and
# JSONDecodeError are ValueErrors, and nesting past the recursion limit is a RecursionError.
_JSON_ERRORS = (ValueError, RecursionError)


# ------------------------------------------------------------------ rasters


def _finite_f32(array, what: str) -> np.ndarray:
    """`array` as contiguous f32 LE; a value not finite in f32 is a DomainError naming `what`."""
    with np.errstate(over="ignore"):  # overflow is reported below, by name
        a = np.asarray(array, dtype=np.float64).astype("<f4")  # astype copies contiguously
    if not np.isfinite(a).all():
        raise DomainError(f"{what} has a value that is not finite in f32")
    return a


def write_raster(path: str | Path, array: np.ndarray) -> None:
    """Write a 2-D or channel-last 3-D array as an f32 or u8 raster. What read_raster
    refuses is refused before the file is opened, naming the path: an extent above
    MAX_EXTENT is a ContractError, a value not finite in f32 a DomainError."""
    arr = np.asarray(array)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ContractError(f"raster payload must be 2-D or 3-D, got shape {arr.shape}")
    h, w, c = arr.shape
    if max(w, h, c) > MAX_EXTENT:
        raise ContractError(f"raster {str(path)!r}: dimensions {w}x{h}x{c} exceed {MAX_EXTENT}")
    if arr.dtype == np.uint8:
        tag, out = DTYPE_U8, arr
    else:
        tag, out = DTYPE_F32, _finite_f32(arr, f"raster {str(path)!r}")
    _write_file(path, (RASTER_MAGIC, struct.pack("<IIIB", w, h, c, tag), np.ascontiguousarray(out)))


def read_raster(path: str | Path) -> np.ndarray:
    """Read a raster back as (H, W, C) float32 or uint8, never widened; a NaN
    or infinite f32 value is a FormatError at its byte offset. The array is
    one copy out of the file's bytes, so the read briefly holds about twice
    the raster; it is sized by the bytes read, never by the header alone."""
    blob = _read_file(path)
    if blob[:4] != RASTER_MAGIC:
        raise FormatError(f"bad raster magic {blob[:4]!r}", offset=0)
    if len(blob) < 17:
        raise FormatError("truncated raster header", offset=len(blob))
    w, h, c, tag = struct.unpack_from("<IIIB", blob, 4)
    if max(w, h, c) > MAX_EXTENT:
        raise FormatError(f"raster dimensions {w}x{h}x{c} overflow sane bounds", offset=4)
    dtype = _RASTER_DTYPES.get(tag)
    if dtype is None:
        raise FormatError(f"unknown raster dtype tag {tag}", offset=16)
    need = 17 + w * h * c * dtype.itemsize
    if len(blob) < need:
        raise FormatError(
            f"raster payload truncated: header declares {need} bytes, file has {len(blob)}",
            offset=len(blob),
        )
    data = np.frombuffer(blob, dtype, w * h * c, 17).reshape(h, w, c).copy()
    if tag == DTYPE_F32 and not np.isfinite(data).all():
        first = int(np.flatnonzero(~np.isfinite(data))[0])
        raise FormatError(f"raster value {data.flat[first]} is not finite", offset=17 + 4 * first)
    return data


# ------------------------------------------------------- raw reads and writes


_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)  # O_BINARY: Windows only


def _read_file(path: str | Path) -> bytes:
    """The whole file at `path`, read through one raw descriptor: its `fstat`
    size in one `os.read` (looping on short reads), or, when it is not a
    regular file (a pipe, say), 64 KiB parts to end of file. Raw `os.open`
    accepts a directory, which `open` refuses; refuse it the same way, with an
    IsADirectoryError naming the path."""
    fd = os.open(path, _READ_FLAGS)
    try:
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        n = st.st_size if stat.S_ISREG(st.st_mode) else None
        parts, got = [], 0
        while n is None or got < n:
            part = os.read(fd, 1 << 16 if n is None else n - got)
            if not part:
                break
            parts.append(part)
            got += len(part)
        return b"".join(parts)  # one part is returned as it is, not copied
    finally:
        os.close(fd)


def _write_file(path: str | Path, parts) -> None:
    """Write `parts` (bytes or arrays, from any iterable), one `write` each, in order, to
    ``<path>.partial``, which then replaces `path`; any failure removes the partial file.
    A link, a device or a FIFO at `path` is written through, in place."""
    direct = os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path)
    out = Path(path if direct else f"{os.fspath(path)}.partial")
    try:
        with open(out, "wb") as f:
            for part in parts:
                f.write(part)
        if not direct:
            out.replace(path)
    except BaseException:
        if not direct:
            out.unlink(missing_ok=True)
        raise


# ------------------------------------------------------------------ configs


def dataclass_from_dict(cls, doc, prefix: str = ""):
    """Build dataclass `cls` from a JSON object, rejecting unknown keys and
    values of the wrong type.

    An int field takes an int, a float field an int or a finite float
    (neither takes a bool), ``X | None`` also takes null, and a field typed
    as a dataclass takes an object built the same way. A bad key or value
    is a ConfigError naming its dotted path.
    """
    if not isinstance(doc, dict):
        section = prefix.rstrip(".") or cls.__name__
        raise ConfigError(f"config section {section!r} must be an object")
    fields = _field_types(cls)
    kwargs = {}
    for key, value in doc.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {prefix}{key!r}")
        kind, optional = fields[key]
        if dataclasses.is_dataclass(kind):
            value = dataclass_from_dict(kind, value, f"{prefix}{key}.")
        elif not ((optional and value is None) or _is_a(value, kind)):
            want = "a finite number" if kind is float else kind.__name__
            null = " or null" if optional else ""
            raise ConfigError(f"config key {prefix + key!r} must be {want}{null}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


@functools.cache
def _field_types(cls) -> dict[str, tuple[type, bool]]:
    """{field: (type, whether null is allowed)}, resolved once per class:
    typing.get_type_hints is slow."""
    fields = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        if len(args) == 2 and type(None) in args:  # X | None
            fields[name] = (next(a for a in args if a is not type(None)), True)
        else:
            fields[name] = (hint, False)
    return fields


def _is_a(value, kind: type) -> bool:
    """Exact type match, except that a float takes an int and must be
    finite. Exact, so that a JSON true or false is never a number."""
    if kind is float:
        try:
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return type(value) is kind


# -------------------------------------------------------------- checkpoints


def save_checkpoint(
    path: str | Path,
    tensors: dict[str, np.ndarray],
    config: dict,
    frozen: list[str] | None = None,
) -> None:
    """Write named tensors plus a config document; payloads are f32 LE.
    A value that is not finite in f32 is a DomainError naming its tensor,
    raised before the file is opened; a failed save leaves an earlier checkpoint as it was."""
    manifest = []
    offset = 0
    payloads = []
    for name, arr in tensors.items():
        a = _finite_f32(arr, f"checkpoint tensor {name!r}")
        manifest.append({"name": name, "shape": list(a.shape), "offset": offset})
        payloads.append(a)
        offset += a.nbytes
    header = json.dumps(
        {"config": config, "frozen": sorted(frozen or []), "tensors": manifest}
    ).encode("utf-8")
    lengths = struct.pack("<II", CHECKPOINT_VERSION, len(header))
    _write_file(path, [CHECKPOINT_MAGIC, lengths, header, *payloads])


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict, list[str]]:
    """Read back (tensors, config, frozen names); tensors come out float32, as
    stored, each a writable view of one copy of the payload region. Every
    FormatError begins with the path; a NaN or infinite payload value is one
    naming its tensor."""

    def bad(message: str, offset: int) -> FormatError:
        return FormatError(f"{path}: {message}", offset=offset)

    blob = _read_file(path)
    if blob[:4] != CHECKPOINT_MAGIC:
        raise bad(f"bad checkpoint magic {blob[:4]!r}", 0)
    if len(blob) < 12:
        raise bad("truncated checkpoint header", len(blob))
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})",
            offset=4,
        )
    if len(blob) < 12 + header_len:
        raise bad("checkpoint header extends past end of file", len(blob))
    try:
        header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    except _JSON_ERRORS as exc:
        raise bad(f"checkpoint header is not UTF-8 JSON: {exc}", 12) from None
    if not isinstance(header, dict) or not {"tensors", "config"} <= header.keys():
        raise bad("checkpoint header lacks a 'tensors' or 'config' entry", 12)
    entries, frozen = header["tensors"], header.get("frozen", [])
    if not isinstance(entries, list) or not (
        isinstance(frozen, list) and all(isinstance(n, str) for n in frozen)
    ):
        raise bad("checkpoint 'tensors' and 'frozen' must be lists", 12)
    base = 12 + header_len
    spans: dict[str, tuple[int, int, tuple[int, ...]]] = {}  # name: (start, stop, shape)
    for entry in entries:
        if not _is_manifest_entry(entry) or entry["name"] in spans:
            raise bad(
                f"bad checkpoint manifest entry {entry!r}: want a unique name, a shape of "
                "ints >= 0 and an offset >= 0",
                12,
            )
        shape = tuple(entry["shape"])
        start = base + entry["offset"]
        stop = start + 4 * math.prod(shape)
        if stop > len(blob):
            raise bad(f"tensor {entry['name']!r} payload truncated", len(blob))
        spans[entry["name"]] = (start, stop, shape)
    # The payloads must tile the rest of the file: no overlap, gap or tail.
    end = base
    for start, stop in sorted(span[:2] for span in spans.values()):
        if start != end:
            what = "overlap" if start < end else "leave a gap"
            raise bad(f"checkpoint payloads {what}", min(start, end))
        end = stop
    if end != len(blob):
        raise bad(f"{len(blob) - end} trailing bytes after the checkpoint payloads", end)
    # One scan of the whole payload region, then one writable copy of it.
    payload = np.frombuffer(blob, dtype="<f4", offset=base)
    if not np.isfinite(payload).all():
        first = int(np.flatnonzero(~np.isfinite(payload))[0])
        at = base + 4 * first
        name = next(name for name, (start, stop, _) in spans.items() if start <= at < stop)
        raise bad(f"tensor {name!r} value {payload[first]} is not finite", at)
    payload = payload.astype(np.float32)  # one writable copy, in native byte order
    tensors = {
        name: payload[(start - base) // 4 : (stop - base) // 4].reshape(shape)
        for name, (start, stop, shape) in spans.items()
    }
    return tensors, header["config"], frozen


def _is_manifest_entry(entry) -> bool:
    """{name: str, shape: [ints >= 0], offset: int >= 0} and nothing else.
    Exact type tests, since JSON true and false are bools, which isinstance
    would pass as ints."""
    return (
        isinstance(entry, dict)
        and entry.keys() == {"name", "shape", "offset"}
        and isinstance(entry["name"], str)
        and isinstance(entry["shape"], list)
        and all(type(n) is int and n >= 0 for n in entry["shape"])
        and type(entry["offset"]) is int
        and entry["offset"] >= 0
    )


# ------------------------------------------------------ sequences on disk


@dataclass
class SliceData:
    image: np.ndarray  # (H, W, 1) in [0, 1]: float32 from a raster, any float dtype in memory
    mask: np.ndarray | None  # (H, W) uint8 in {0, 1}
    z_position_um: float | None
    corrupted: bool = False


@dataclass
class SliceSequence:
    sequence_id: str
    slices: list[SliceData] = field(default_factory=list)


def load_sequence(seq_dir: str | Path) -> SliceSequence:
    """Read one sequence directory, each image as `read_raster`'s float32. A
    malformed ``sequence.json`` is a FormatError naming the file and the field;
    a mask value other than 0 or 1 is one naming the mask file, at its byte offset."""
    return _load_sequence(_dir_prefix(seq_dir))


def _load_sequence(seq_dir: str) -> SliceSequence:
    """`load_sequence` of a directory already spelled by `_dir_prefix`."""
    path = os.path.join(seq_dir, "sequence.json")
    try:
        meta = json.loads(_read_file(path))
    except _JSON_ERRORS as exc:
        raise FormatError(f"{path}: not UTF-8 JSON: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("sequence_id"), str):
        raise FormatError(f"{path}: 'sequence_id' must be a string")
    if not isinstance(meta.get("slices"), list):
        raise FormatError(f"{path}: 'slices' must be a list")
    slices = []
    for t, rec in enumerate(meta["slices"]):
        problem = _record_problem(rec)
        if problem:
            raise FormatError(f"{path}: slices[{t}].{problem}")
        image = read_raster(os.path.join(seq_dir, rec["image"]))
        mask = None
        if rec.get("mask"):
            mask = _read_mask(os.path.join(seq_dir, rec["mask"]))
        slices.append(
            SliceData(
                image=image,
                mask=mask,
                z_position_um=rec.get("z_position_um"),
                corrupted=rec.get("corrupted", False),
            )
        )
    return SliceSequence(sequence_id=meta["sequence_id"], slices=slices)


def _dir_prefix(directory: str | Path) -> str:
    """`directory` as pathlib spells it, or "" for the current directory, so
    that ``os.path.join(prefix, name)`` names a file exactly as
    ``Path(directory) / name`` did (error messages included) without
    building a Path per file. A Path is spelled already; only a str is parsed."""
    spelled = str(directory if isinstance(directory, Path) else Path(directory))
    return "" if spelled == "." else spelled


def _read_mask(path: str) -> np.ndarray:
    """Channel 0 of a mask raster as (H, W) uint8; a value other than 0 or 1
    is a FormatError naming the file, at the byte offset of the first one."""
    m = read_raster(path)
    if m.shape[2] == 0:
        raise FormatError(f"{path}: mask raster has no channel", offset=12)
    mask = m[:, :, 0]
    if mask.dtype == np.uint8 and (mask.size == 0 or mask.max() <= 1):
        return mask  # the usual mask: one reduction, no copy
    bad = np.flatnonzero((mask != 0) & (mask != 1))
    if bad.size:
        raise FormatError(
            f"{path}: mask value {mask.flat[bad[0]]!s} is not 0 or 1",  # !s: 0.7, not 0.69999...
            offset=17 + m.itemsize * m.shape[2] * int(bad[0]),
        )
    return mask.astype(np.uint8)


_RECORD_KEYS = frozenset(("image", "mask", "z_position_um", "corrupted"))


def _record_problem(rec) -> str | None:
    """What is wrong with one record of sequence.json's slices, if anything."""
    if not isinstance(rec, dict) or not isinstance(rec.get("image"), str):
        return "image must be a file name"
    unknown = rec.keys() - _RECORD_KEYS
    if unknown:
        return f"{min(unknown)} is not a slice field (those are {', '.join(sorted(_RECORD_KEYS))})"
    mask, z = rec.get("mask"), rec.get("z_position_um")
    if mask is not None and not (mask and isinstance(mask, str)):
        return f"mask must be a file name or null, got {mask!r}"
    if z is not None and not _is_a(z, float):
        return f"z_position_um must be a finite number or null, got {z!r}"
    corrupted = rec.get("corrupted", False)
    if type(corrupted) is not bool:
        return f"corrupted must be true or false, got {corrupted!r}"
    return None


def load_dataset(root: str | Path) -> list[SliceSequence]:
    """Every sequence directory under `root` (one holding a ``sequence.json``),
    in name order."""
    root = _dir_prefix(root)
    with os.scandir(root or ".") as entries:
        seq_dirs = sorted(os.path.join(root, e.name) for e in entries)
    # scandir's names hold no separator, so these are spelled as _dir_prefix would
    return [_load_sequence(d) for d in seq_dirs if os.path.exists(os.path.join(d, "sequence.json"))]


# --------------------------------------------------------------- synthesis


# Generator constants: blob drift (pixels per um of z), the SDs of the
# per-slice intensity offset and the pixel noise, and the SD of the
# heavy noise added to a corrupted slice.
DRIFT_PER_UM = 0.03
INTENSITY_JITTER = 0.03
NOISE_SIGMA = 0.02
CORRUPT_NOISE_SIGMA = 0.35


@dataclass
class SynthConfig:
    num_sequences: int = 4
    slices_per_sequence: int = 6
    image_size: int = 64
    min_blobs: int = 1
    max_blobs: int = 3
    z_gap_range: tuple[float, float] = (2.0, 40.0)
    corrupt_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.num_sequences, self.slices_per_sequence, self.image_size) < 1:
            raise ContractError("sequence and slice counts and image_size must be >= 1")
        if not 0 <= self.min_blobs <= self.max_blobs:
            raise ContractError(
                f"need 0 <= min_blobs <= max_blobs, got {self.min_blobs} and {self.max_blobs}"
            )
        gaps = self.z_gap_range  # NaN fails every comparison
        if not (np.shape(gaps) == (2,) and 0.0 <= gaps[0] <= gaps[1] < math.inf):
            raise DomainError(f"z_gap_range must be two finite numbers 0 <= lo <= hi, got {gaps}")
        if not (0.0 <= self.corrupt_prob <= 1.0):
            raise DomainError(f"corrupt_prob must be in [0, 1], got {self.corrupt_prob}")


@dataclass
class Ellipse:
    cx: float
    cy: float
    ax: float
    ay: float
    angle: float


@dataclass
class SynthSlice:
    """One generated slice, with the clean render kept for analysis."""

    image: np.ndarray
    clean_image: np.ndarray
    mask: np.ndarray
    z_position_um: float
    corrupted: bool
    blobs: list[Ellipse]


def _pixel_grid(size: int) -> np.ndarray:
    """(2, size, size) float row and column indices: yy, xx."""
    return np.mgrid[0:size, 0:size].astype(np.float64)


def _quadric_min(blobs: list[Ellipse], grid: np.ndarray) -> np.ndarray:
    """Per pixel of the grid, the least (u/ax)^2 + (v/ay)^2 over the rotated
    ellipses: at most 1 exactly inside one of them, inf when there are none."""
    yy, xx = grid
    q_min = np.full(yy.shape, np.inf)
    for b in blobs:
        dx, dy = xx - b.cx, yy - b.cy
        u = dx * np.cos(b.angle) + dy * np.sin(b.angle)
        v = -dx * np.sin(b.angle) + dy * np.cos(b.angle)
        q_min = np.minimum(q_min, (u / b.ax) ** 2 + (v / b.ay) ** 2)
    return q_min


def _render_clean(q_min: np.ndarray, jitter: float) -> np.ndarray:
    """The noise-free image of the ellipses whose `_quadric_min` is q_min."""
    # Soft-edged bright blobs on a darker background. Far from every blob
    # the exponent grows without bound; capped at 700, exp stays finite and
    # the blob term is already far below one ulp of the background.
    img = 0.2 + 0.6 / (1.0 + np.exp(np.minimum(-3.0 * (1.0 - q_min), 700.0))) + jitter
    return np.clip(img, 0.0, 1.0)


def generate_sequence(cfg: SynthConfig, index: int) -> tuple[str, list[SynthSlice]]:
    """All slices of sequence `index`, fully determined by (seed, index)."""
    rng = substream(cfg.seed, f"synth/{index}")
    size = cfg.image_size
    n_blobs = int(rng.integers(cfg.min_blobs, cfg.max_blobs + 1))
    lo, hi = 0.25 * size, 0.75 * size
    base = [
        Ellipse(
            cx=float(rng.uniform(lo, hi)),
            cy=float(rng.uniform(lo, hi)),
            ax=float(rng.uniform(0.09 * size, 0.25 * size)),
            ay=float(rng.uniform(0.09 * size, 0.25 * size)),
            angle=float(rng.uniform(0.0, np.pi)),
        )
        for _ in range(n_blobs)
    ]
    vel = [
        (
            float(rng.uniform(-DRIFT_PER_UM, DRIFT_PER_UM)),
            float(rng.uniform(-DRIFT_PER_UM, DRIFT_PER_UM)),
            float(rng.uniform(-DRIFT_PER_UM / 4, DRIFT_PER_UM / 4)),
            float(rng.uniform(-DRIFT_PER_UM / 4, DRIFT_PER_UM / 4)),
            float(rng.uniform(-0.005, 0.005)),
        )
        for _ in range(n_blobs)
    ]
    gaps = rng.uniform(*cfg.z_gap_range, size=cfg.slices_per_sequence - 1)
    z_positions = np.concatenate([[0.0], np.cumsum(gaps)])

    grid = _pixel_grid(size)
    slices = []
    for z in z_positions:
        blobs = [
            Ellipse(
                cx=b.cx + v[0] * z,
                cy=b.cy + v[1] * z,
                ax=max(2.0, b.ax + v[2] * z),
                ay=max(2.0, b.ay + v[3] * z),
                angle=b.angle + v[4] * z,
            )
            for b, v in zip(base, vel)
        ]
        q_min = _quadric_min(blobs, grid)  # shared by the mask and the render
        mask = (q_min <= 1.0).astype(np.uint8)
        jitter = float(rng.normal(0.0, INTENSITY_JITTER))
        clean = np.clip(
            _render_clean(q_min, jitter) + rng.normal(0.0, NOISE_SIGMA, (size, size)),
            0.0,
            1.0,
        )
        corrupted = bool(rng.random() < cfg.corrupt_prob)
        if corrupted:
            image = np.clip(clean + rng.normal(0.0, CORRUPT_NOISE_SIGMA, (size, size)), 0.0, 1.0)
        else:
            image = clean
        slices.append(
            SynthSlice(
                image=image,
                clean_image=clean,
                mask=mask,
                z_position_um=float(z),
                corrupted=corrupted,
                blobs=blobs,
            )
        )
    return f"seq_{index:03d}", slices


def generate_dataset(cfg: SynthConfig, out_dir: str | Path) -> Path:
    """Write the full dataset directory; byte-identical per seed."""
    root = Path(out_dir)
    # the first seq_dir.mkdir creates root, after that sequence is drawn,
    # so a rejected seed leaves no directory behind
    for s in range(cfg.num_sequences):
        seq_id, slices = generate_sequence(cfg, s)
        seq_dir = root / seq_id
        seq_dir.mkdir(parents=True, exist_ok=True)
        records = []
        for t, sl in enumerate(slices):
            image_name = f"slice_{t}.psr"
            mask_name = f"mask_{t}.psr"
            write_raster(seq_dir / image_name, sl.image)
            write_raster(seq_dir / mask_name, sl.mask)
            records.append(
                {
                    "image": image_name,
                    "mask": mask_name,
                    "z_position_um": sl.z_position_um,
                    "corrupted": sl.corrupted,
                }
            )
        meta = {"sequence_id": seq_id, "slices": records}
        _write_file(seq_dir / "sequence.json", [(json.dumps(meta, indent=2) + "\n").encode()])
    return root
