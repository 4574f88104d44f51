"""The desk-scale sequential segmentation network.

A small randomly initialized patch-embedding transformer stands in for a
pretrained encoder: linear patch projection + learned positions, then
encoder blocks of multi-head self-attention and a tanh MLP, with residual
connections and layer norm. The query and value projections of block i
are low-rank adapted: their weight is W + B @ A, with the base
``encoder.block<i>.attn.{q,v}.W`` frozen and the factors
``lora.block<i>.{q,v}.{A,B}`` trained (B starts at zero). The encoder
sees each slice on its own, so a sequence is first encoded in chunks of up
to ENCODE_CHUNK slices (``chunk_bounds``); the calling thread encodes the
first half of the chunks while the tensor module's one helper thread
encodes the rest (``tensor._in_halves``), to the same bits. The encoder
computes in its parameters' dtype, float32 for a loaded checkpoint, and each
chunk's output is widened to float64. Every slice is pooled next, and the
memory bank is scored in cosine blocks of ENCODE_CHUNK rows. Then, slice by
slice, the pooled embedding queries the memory bank, distance-aware attention
weights fuse the retrieved patch grids with the current one, and a
per-patch MLP decoder emits the pixel probabilities, the sigmoid of its
logits (one ``decode`` node with a hand-written backward).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .attention import LAMBDA_INIT, AttentionContext, cross_slice_weights, fuse_memory
from .data_io import MAX_EXTENT, SliceSequence, _is_a, dataclass_from_dict
from .errors import ConfigError, ContractError, DomainError, FormatError, ShapeError
from .lora import lora_forward
from .memory import prediction_confidence, select_memory
from .rng import substream
from .tensor import Tensor, _node, cosines


@dataclass
class ModelConfig:
    image_size: int = 64
    patch_size: int = 8
    channels: int = 1
    d_model: int = 64
    heads: int = 4
    encoder_blocks: int = 2
    lora_rank: int = 8
    k_memory: int = 5
    decoder_hidden: int = 64

    def __post_init__(self):
        sizes = ("image_size", "patch_size", "channels", "d_model", "heads", "decoder_hidden")
        too_small = [f"{name}={getattr(self, name)}" for name in sizes if getattr(self, name) < 1]
        if too_small:
            raise ConfigError(f"sizes must be >= 1, got {', '.join(too_small)}")
        too_large = [n for n in (*sizes, "encoder_blocks") if getattr(self, n) > MAX_EXTENT]
        if too_large:  # named, not shown: printing a huge int is slow, or refused
            raise ConfigError(f"{', '.join(too_large)} must be <= {MAX_EXTENT}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError("image_size must be divisible by patch_size")
        if self.d_model % self.heads != 0:
            raise ConfigError("d_model must be divisible by heads")
        if self.lora_rank < 1 or self.lora_rank > self.d_model:
            raise ConfigError(f"lora_rank {self.lora_rank} out of range for d_model {self.d_model}")
        if self.encoder_blocks < 0:
            raise ConfigError(f"encoder_blocks must be >= 0, got {self.encoder_blocks}")
        if self.k_memory < 0:
            raise ConfigError("k_memory must be >= 0 (0 disables the memory path)")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


MICRO_CONFIG = ModelConfig(
    image_size=8, patch_size=4, d_model=8, heads=2, encoder_blocks=2,
    lora_rank=2, k_memory=5, decoder_hidden=8,
)


@dataclass
class SlicePrediction:
    logits: Tensor  # (H, W), a constant: the decoder's pre-sigmoid values
    probabilities: Tensor  # (H, W)
    confidence: float
    pooled_embedding: Tensor  # (d_model,)


class ModelParams:
    """Named parameter collection; frozen names receive no updates."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor], frozen: set[str]):
        self.config = config
        self.tensors = tensors
        self.frozen = frozen

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def trainable(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.tensors.items() if n not in self.frozen}

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def group_of(self, name: str) -> str:
        """Parameter group for reporting: encoder/lora_A/lora_B/decoder/lambda."""
        if name == "lambda":
            return "lambda"
        if name.startswith("lora."):
            return "lora_A" if name.endswith(".A") else "lora_B"
        if name.startswith("decoder."):
            return "decoder"
        return "encoder"


def _layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of every tensor, in the order init_params draws
    them. init is "linear" (N(0, 1/fan_in)), "small" (N(0, 0.02^2)),
    "zeros", "ones" or "lambda" (LAMBDA_INIT)."""
    d, r, h, pp = cfg.d_model, cfg.lora_rank, cfg.decoder_hidden, cfg.patch_size**2
    layout = [
        ("encoder.patch_proj.W", (d, cfg.patch_dim), "linear"),
        ("encoder.patch_proj.b", (d,), "zeros"),
        ("encoder.pos_embed", (cfg.num_patches, d), "small"),
    ]
    for i in range(cfg.encoder_blocks):
        block = f"encoder.block{i}"
        layout += [(f"{block}.attn.{proj}.W", (d, d), "linear") for proj in "qkvo"]
        for proj in "qv":
            lora = f"lora.block{i}.{proj}"
            layout += [(f"{lora}.A", (r, d), "small"), (f"{lora}.B", (d, r), "zeros")]
        for ln in ("ln1", "ln2"):
            layout += [(f"{block}.{ln}.gamma", (d,), "ones"), (f"{block}.{ln}.beta", (d,), "zeros")]
        for fc in ("fc1", "fc2"):
            mlp = f"{block}.mlp.{fc}"
            layout += [(f"{mlp}.W", (d, d), "linear"), (f"{mlp}.b", (d,), "zeros")]
    return layout + [
        ("lambda", (), "lambda"),
        ("decoder.fc1.W", (h, d), "linear"),
        ("decoder.fc1.b", (h,), "zeros"),
        ("decoder.fc2.W", (pp, h), "linear"),
        ("decoder.fc2.b", (pp,), "zeros"),
    ]


def _frozen(cfg: ModelConfig) -> set[str]:
    """The q/v attention bases: adapters train in their place."""
    return {f"encoder.block{i}.attn.{proj}.W" for i in range(cfg.encoder_blocks) for proj in "qv"}


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded initialization; the q/v attention bases are frozen."""
    rng = substream(seed, "init")
    draw = {
        "linear": lambda shape: rng.standard_normal(shape) / np.sqrt(shape[1]),
        "small": lambda shape: rng.normal(0.0, 0.02, size=shape),
        "zeros": np.zeros,
        "ones": np.ones,
        "lambda": lambda shape: np.full(shape, LAMBDA_INIT),
    }
    frozen = _frozen(config)
    tensors = {
        name: Tensor(draw[init](shape), requires_grad=name not in frozen)
        for name, shape, init in _layout(config)
    }
    return ModelParams(config=config, tensors=tensors, frozen=frozen)


# ------------------------------------------------------------ forward pass

# The most slices per encoder pass. With the float32 encoder, chunks of up to 16
# made a 64-slice forward about 10 % cheaper than chunks of 8: per-op overhead is
# paid per chunk. One float64 chunk of all 64 was slower: its attention scores outgrow
# the cache.
ENCODE_CHUNK = 16

# The largest pixel a raster can hold; a larger one overflows the encoder.
F32_MAX = float(np.finfo(np.float32).max)
# Past this pixel magnitude a float32 encoder's products can overflow (a pixel of 1e20 did),
# so a stack holding one is encoded with float64 widenings of the parameters.
_F32_PIXEL_LIMIT = 2.0**16


def _extract_patches(images: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """(S, H, W, C) images -> (S, P, patch_dim) patch rows."""
    g, ps, c = cfg.grid, cfg.patch_size, cfg.channels
    patches = images.reshape(-1, g, ps, g, ps, c).transpose(0, 1, 3, 2, 4, 5)
    return patches.reshape(-1, cfg.num_patches, cfg.patch_dim)


def _add_norm(x: Tensor, y: Tensor, params: ModelParams, ln: str) -> Tensor:
    """Residual add, then layer norm with the `ln` gain and bias."""
    return T.layer_norm(T.add(x, y), params[f"{ln}.gamma"], params[f"{ln}.beta"])


def encode_slice(images, params: ModelParams) -> Tensor:
    """A chunk of S images, (S, H, W, C) -> patch feature grids (S, P, d_model).

    The encoder sees each image on its own, so a chunk is S independent
    encodings done by one pass of batched kernels (and one LoRA merge).
    It computes in the dtype of its parameters: the chunk is cast to that of
    ``encoder.patch_proj.W`` here, float64 for ``init_params`` and float32 for
    ``load_params``, exactly for a float32 image either way.
    An image of the wrong shape is a ShapeError; ``forward_sequence`` checks pixel ranges."""
    cfg = params.config
    expected = (cfg.image_size, cfg.image_size, cfg.channels)
    for image in images:
        if np.shape(image) != expected:
            raise ShapeError(f"image shape {np.shape(image)} != expected {expected}")
    W, b = params["encoder.patch_proj.W"], params["encoder.patch_proj.b"]
    patches = _extract_patches(np.asarray(images, dtype=W.data.dtype), cfg)
    x = T.add(T.linear(patches, W, b), params["encoder.pos_embed"])
    for i in range(cfg.encoder_blocks):
        block, lora = f"encoder.block{i}", f"lora.block{i}"
        attn = T.multi_head_attention(
            lora_forward(x, params[f"{block}.attn.q.W"], params[f"{lora}.q.A"], params[f"{lora}.q.B"]),
            T.linear(x, params[f"{block}.attn.k.W"]),
            lora_forward(x, params[f"{block}.attn.v.W"], params[f"{lora}.v.A"], params[f"{lora}.v.B"]),
            cfg.heads,
        )
        x = _add_norm(x, T.linear(attn, params[f"{block}.attn.o.W"]), params, f"{block}.ln1")
        h1 = T.tanh(T.linear(x, params[f"{block}.mlp.fc1.W"], params[f"{block}.mlp.fc1.b"]))
        m = T.linear(h1, params[f"{block}.mlp.fc2.W"], params[f"{block}.mlp.fc2.b"])
        x = _add_norm(x, m, params, f"{block}.ln2")
    return x


def chunk_bounds(n: int) -> list[int]:
    """Where an n-slice stack's encoder chunks start, then n. Up to ENCODE_CHUNK // 2
    slices are one chunk; more split into m = 2 ceil(n / (2 ENCODE_CHUNK)) chunks whose
    sizes differ by at most one, so none exceeds ENCODE_CHUNK and the two halves of
    ``tensor._in_halves`` are equal work: 64 slices make 4 x 16, 40 make 4 x 10, 9 make 5 + 4."""
    if n <= ENCODE_CHUNK // 2:
        return [0, n]
    m = 2 * -(-n // (2 * ENCODE_CHUNK))
    return [-(-c * n // m) for c in range(m + 1)]


def _encode_chunks(images: list, params: ModelParams) -> list[Tensor]:
    """encode_slice per chunk of ``chunk_bounds``, the first half of the chunks here and
    the rest on the lane (``tensor._in_halves``; one chunk runs here, leaving the lane to
    its attention halves). Every image is checked first, in slice order, so a bad stack
    encodes nothing: one of the wrong shape is a ShapeError, one whose dtype is not a
    real number type (bool, integer or float) a ContractError, and one with a pixel
    beyond the float32 range (NaN and infinity included) a DomainError, each naming its slice.
    Each chunk comes out float64: a float32 encoder's output (a constant) is widened."""
    cfg = params.config
    expected = (cfg.image_size, cfg.image_size, cfg.channels)
    peak = 0.0
    for i, image in enumerate(images):
        if np.shape(image) != expected:
            raise ShapeError(f"slice {i}: image shape {np.shape(image)} != expected {expected}")
        dtype = np.asarray(image).dtype
        if dtype.kind not in "biuf":  # a str or complex pixel would fail, or lose its imaginary part
            raise ContractError(f"slice {i}: image dtype {dtype} is not a real number type")
        top = float(np.abs(image).max(initial=0.0))  # a float16 image's max, widened before the compare
        if not top <= F32_MAX:  # false for NaN too
            what = "beyond the float32 range" if np.isfinite(image).all() else "that is not finite"
            raise DomainError(f"slice {i}: image has a pixel {what}")
        peak = max(peak, top)
    if peak > _F32_PIXEL_LIMIT:
        wide = {n: Tensor(t.data.astype(np.float64)) if t.data.dtype == np.float32 else t
                for n, t in params.tensors.items()}
        params = ModelParams(cfg, wide, params.frozen)
    bounds = chunk_bounds(len(images))
    chunks: list = [None] * (len(bounds) - 1)

    def encode(half: slice) -> None:
        for c in range(half.start, half.stop):
            x = encode_slice(images[bounds[c] : bounds[c + 1]], params)
            chunks[c] = x if x.data.dtype == np.float64 else Tensor(x.data.astype(np.float64))

    T._in_halves(len(chunks), encode)
    return chunks


def decode_mask(fused_features: Tensor, params: ModelParams) -> tuple[np.ndarray, Tensor]:
    """Per-patch MLP to patch logits, reassembled to an (H, W) map, then the
    sigmoid of each pixel: tanh(x @ W1.T + b1) @ W2.T + b2, row p of which
    fills the patch window at grid cell (p // grid, p % grid). Returns the
    logits as an array and the probabilities as one node (op ``decode``).

    The backward takes the gradient through the sigmoid, then repeats the
    products of the chain it replaces (``linear``, ``tanh``, ``linear``, then
    the patch reassembly) in their order; a constant input gets no gradient."""
    cfg = params.config
    x = T.as_tensor(fused_features)
    if x.shape != (cfg.num_patches, cfg.d_model):
        raise ShapeError(f"fused features shape {x.shape} != ({cfg.num_patches}, {cfg.d_model})")
    W1, b1, W2, b2 = (params[f"decoder.{name}"] for name in ("fc1.W", "fc1.b", "fc2.W", "fc2.b"))
    g, ps = cfg.grid, cfg.patch_size
    hidden = x.data @ W1.data.T
    hidden += b1.data
    np.tanh(hidden, out=hidden)
    patch_logits = hidden @ W2.data.T
    patch_logits += b2.data
    logits = patch_logits.reshape(g, g, ps, ps).transpose(0, 2, 1, 3).reshape(g * ps, g * ps)
    probs = np.negative(logits, out=np.empty_like(logits))  # 1 / (1 + exp(-logits))
    with np.errstate(over="ignore"):  # a logit below about -709 overflows to inf: probability 0
        np.exp(probs, out=probs)
    probs += 1.0
    np.divide(1.0, probs, out=probs)

    def backward(grad):
        grad = grad * probs * (1.0 - probs)
        gp = grad.reshape(g, ps, g, ps).transpose(0, 2, 1, 3).reshape(g * g, ps * ps)
        gh = gp @ W2.data  # d(loss)/d(hidden), then through tanh in place
        gh *= 1.0 - hidden * hidden
        grads = [(W2, (hidden.T @ gp).T), (b2, gp.sum(axis=0))]
        grads += [(W1, (x.data.T @ gh).T), (b1, gh.sum(axis=0))]
        if T._taped(x):
            grads.append((x, gh @ W1.data))
        return grads

    return logits, _node(probs, (x, W1, b1, W2, b2), backward, "decode")


def _blame(params: ModelParams, exc: DomainError) -> DomainError:
    """A DomainError naming the first parameter tensor with a value that is not
    finite, the cause of a forward's failure exc when there is one; else exc."""
    for name, t in params.tensors.items():
        if not np.isfinite(t.data).all():
            return DomainError(f"parameter {name!r} has a value that is not finite")
    return exc


def forward_sequence(seq: SliceSequence, params: ModelParams) -> list[SlicePrediction]:
    """Process one subject's slices in order through the memory pipeline.

    All slices are encoded and pooled first; only the memory path after that is
    causal. The memory bank is two arrays, every slice's pooled embedding and the
    earlier slices' confidences, so a chosen position is a slice index and no state
    leaks across sequences. The stack is scored once, in cosine blocks of
    ENCODE_CHUNK rows (each against every slice up to its last row); slice t's row,
    up to column t, ranks the bank, and its entries at t and the chosen slices are
    the cross-slice weights' cosines. A slot's distance is the z gap when both slices have a z
    position, and None otherwise: the cross-slice weights estimate it from the cosine.
    The config's k_memory=0 bypasses the memory path entirely (the
    independent per-slice baseline). Z positions and images are checked before any
    encoding: a z that is not None or a finite int or float (a bool, a str, NaN) or an
    image whose dtype is not a real number type is a ContractError, a wrong shape a
    ShapeError, and a pixel beyond the float32 range (NaN and infinity included) or a
    probability map the confidence refuses a DomainError, each naming its slice. When
    the cosine or probability check fails, a parameter tensor with a value that is not
    finite is named instead.
    """
    if not seq.slices:
        raise ContractError("forward_sequence on an empty sequence")
    for t, sl in enumerate(seq.slices):
        z = sl.z_position_um
        if z is not None and not _is_a(z, float):  # the check sequence.json's z passes
            shown = "an int beyond the float range" if type(z) is int else repr(z)
            raise ContractError(f"slice {t}: z_position_um must be a finite int or float or None, got {shown}")
    k = params.config.k_memory
    lam = params["lambda"]
    chunks = _encode_chunks([sl.image for sl in seq.slices], params)
    grids = [T.take(x, i) for x in chunks for i in range(x.shape[0])]
    pooled = [T.mean(g, axis=0) for g in grids]
    bank = np.array([p.data for p in pooled])  # row t: slice t's pooled embedding
    confidences = np.empty(len(seq.slices))
    predictions: list[SlicePrediction] = []
    for t, sl in enumerate(seq.slices):
        if k >= 1 and t % ENCODE_CHUNK == 0:
            try:
                block = cosines(bank[t : t + ENCODE_CHUNK], bank[: t + ENCODE_CHUNK])
            except DomainError as exc:
                raise _blame(params, exc) from None
        if k >= 1 and t:
            sims = block[t % ENCODE_CHUNK]
            chosen = select_memory(sims[:t] * confidences[:t], k)
            z = sl.z_position_um
            others = [seq.slices[j].z_position_um for j in chosen]
            distances = [0.0] + [None if z is None or o is None else abs(z - o) for o in others]
            embeddings = [pooled[t]] + [pooled[j] for j in chosen]
            ctx = AttentionContext(pooled[t], embeddings, distances, sims[[t, *chosen]])
            fused = fuse_memory(grids[t], [grids[j] for j in chosen], cross_slice_weights(ctx, lam))
        else:
            fused = fuse_memory(grids[t], [], Tensor([1.0]))
        logits, probabilities = decode_mask(fused, params)
        try:
            confidence = prediction_confidence(probabilities.data)
        except DomainError as exc:
            raise _blame(params, DomainError(f"slice {t}: {exc}")) from None
        confidences[t] = confidence
        predictions.append(SlicePrediction(Tensor(logits), probabilities, confidence, pooled[t]))
    return predictions


# ------------------------------------------------------------- persistence


def save_params(path, params: ModelParams) -> None:
    from .data_io import save_checkpoint  # per call: the bench tracer wraps it on data_io

    arrays = {name: t.data for name, t in sorted(params.tensors.items())}
    save_checkpoint(path, arrays, config=asdict(params.config), frozen=sorted(params.frozen))


def load_params(path) -> ModelParams:
    """Read a checkpoint whose tensors and frozen set are exactly those its
    config implies; anything else is a FormatError.

    Every tensor loads as a constant (no ``requires_grad``), so a forward
    pass on the result records no tape. The encoder's and the adapters'
    (``encoder.*``, ``lora.*``) stay in the float32 they are stored in, so the
    encoder computes in float32; ``lambda`` and ``decoder.*`` are widened to
    float64, so the memory path and the decoder compute in float64.
    Training starts from `init_params`; `train_step` refuses these params."""
    from .data_io import load_checkpoint  # per call: the bench tracer wraps it on data_io

    arrays, config, frozen = load_checkpoint(path)
    cfg = dataclass_from_dict(ModelConfig, config)
    implied = 8 + 16 * cfg.encoder_blocks  # len(_layout(cfg)), before it is built
    if len(arrays) != implied:
        raise FormatError(
            f"checkpoint {path} holds {len(arrays)} tensors; its config implies {implied}",
            offset=12,
        )
    expected = {name: shape for name, shape, _ in _layout(cfg)}
    missing = sorted(expected.keys() - arrays.keys())
    unexpected = sorted(arrays.keys() - expected.keys())
    misshapen = sorted(n for n in expected.keys() & arrays.keys() if arrays[n].shape != expected[n])
    if missing or unexpected or misshapen:
        raise FormatError(
            f"checkpoint {path} does not match its config: missing {missing}, "
            f"unexpected {unexpected}, wrong shape {misshapen}",
            offset=12,
        )
    frozen_set = set(frozen)
    if frozen_set != _frozen(cfg):
        raise FormatError(
            f"checkpoint {path} freezes {sorted(frozen_set)}, not the q/v bases", offset=12
        )
    tensors = {
        name: Tensor(arr if name.startswith(("encoder.", "lora.")) else arr.astype(np.float64))
        for name, arr in arrays.items()
    }
    return ModelParams(config=cfg, tensors=tensors, frozen=frozen_set)
