"""The desk-scale sequential segmentation network.

A small randomly initialized patch-embedding transformer stands in for a
pretrained encoder: linear patch projection + learned positions, then
encoder blocks of multi-head self-attention and a tanh MLP, with residual
connections and layer norm. The query and value projections of block i
are low-rank adapted: their weight is W + B @ A, with the base
``encoder.block<i>.attn.{q,v}.W`` frozen and the factors
``lora.block<i>.{q,v}.{A,B}`` trained (B starts at zero). The encoder
sees each slice on its own, so a sequence is first encoded in chunks of
ENCODE_CHUNK slices; given two chunks, the calling thread and the tensor
module's one helper thread (``tensor.run_pair``) share them out, to the
same bits. Then, slice by slice, the pooled embedding queries the memory bank,
distance-aware attention weights fuse the retrieved patch grids with the
current one, and a per-patch MLP decoder emits the pixel logits (one
``decode`` node with a hand-written backward).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from threading import Lock

import numpy as np

from . import tensor as T
from .attention import (
    DISTANCE_SCALE_UM, LAMBDA_INIT, AttentionContext, cross_slice_weights, fuse_memory,
)
from .data_io import SliceSequence, dataclass_from_dict
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
    logits: Tensor  # (H, W)
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

# Slices per encoder pass. On a 64-slice forward (1 BLAS thread), chunks
# of 4 to 16 took 20-25 % less time than one slice at a time, but one
# chunk of all 64 only 9 % less: its attention scores (8 MB per block)
# outgrow the cache.
ENCODE_CHUNK = 8


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
    An image of the wrong shape is a ShapeError naming that shape."""
    cfg = params.config
    expected = (cfg.image_size, cfg.image_size, cfg.channels)
    for image in images:
        if np.shape(image) != expected:
            raise ShapeError(f"image shape {np.shape(image)} != expected {expected}")
    patches = _extract_patches(np.asarray(images, dtype=np.float64), cfg)
    x = T.add(
        T.linear(patches, params["encoder.patch_proj.W"], params["encoder.patch_proj.b"]),
        params["encoder.pos_embed"],
    )
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


def _encode_chunks(images: list, params: ModelParams) -> list[Tensor]:
    """encode_slice per run of ENCODE_CHUNK images; given two chunks, the calling thread and
    the lane (``tensor.run_pair``) take chunk indices under a lock. Raises the earliest
    chunk's error. An image with a NaN or infinite pixel is a DomainError naming its slice,
    raised before its chunk's first product, so numpy warns of nothing."""
    chunks: list = [None] * -(-len(images) // ENCODE_CHUNK)
    lock = Lock()
    next_chunk = 0

    def work() -> None:
        nonlocal next_chunk
        while True:
            with lock:
                c, next_chunk = next_chunk, next_chunk + 1
            if c >= len(chunks):
                return
            try:
                first = c * ENCODE_CHUNK
                chunk = images[first : first + ENCODE_CHUNK]
                for i, image in enumerate(chunk, first):
                    if not np.isfinite(image).all():
                        raise DomainError(f"slice {i}: image has a pixel that is not finite")
                chunks[c] = encode_slice(chunk, params)
            except Exception as exc:
                chunks[c] = exc
                with lock:  # drain: every chunk not yet taken comes after c
                    next_chunk = len(chunks)
                return

    if len(chunks) > 1:
        T.run_pair(work, work)
    else:  # one chunk leaves the lane free for its attention halves
        work()
    for chunk in chunks:  # every chunk before the first failure was encoded
        if isinstance(chunk, Exception):
            raise chunk
    return chunks


def decode_mask(fused_features: Tensor, params: ModelParams) -> Tensor:
    """Per-patch MLP to patch logits, reassembled to an (H, W) map, as one
    node (op ``decode``): tanh(x @ W1.T + b1) @ W2.T + b2, row p of which
    fills the patch window at grid cell (p // grid, p % grid).

    The backward repeats the products of the chain it replaces (``linear``,
    ``tanh``, ``linear``, then the patch reassembly) in their order; a
    constant input gets no gradient."""
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
    image = patch_logits.reshape(g, g, ps, ps).transpose(0, 2, 1, 3).reshape(g * ps, g * ps)

    def backward(grad):
        gp = grad.reshape(g, ps, g, ps).transpose(0, 2, 1, 3).reshape(g * g, ps * ps)
        gh = gp @ W2.data  # d(loss)/d(hidden), then through tanh in place
        gh *= 1.0 - hidden * hidden
        grads = [(W2, (hidden.T @ gp).T), (b2, gp.sum(axis=0))]
        grads += [(W1, (x.data.T @ gh).T), (b1, gh.sum(axis=0))]
        if T._taped(x):
            grads.append((x, gh @ W1.data))
        return grads

    return _node(image, (x, W1, b1, W2, b2), backward, "decode")


def forward_sequence(seq: SliceSequence, params: ModelParams) -> list[SlicePrediction]:
    """Process one subject's slices in order through the memory pipeline.

    A memory slot's distance is the z gap when both slices have a z
    position, and is estimated from the embeddings otherwise.

    All slices are encoded first; only the memory path after that is causal.
    The memory bank is two arrays this call fills as it goes, the earlier
    slices' pooled embeddings and confidences, so a chosen position is a
    slice index and no state leaks across sequences. A slice scores the
    whole bank with one cosine row, which also gives the estimated distances.
    The config's k_memory=0 bypasses the memory path entirely (the
    independent per-slice baseline). A NaN or infinite pixel, or a
    probability map the confidence refuses, is a DomainError naming its slice.
    """
    if not seq.slices:
        raise ContractError("forward_sequence on an empty sequence")
    k = params.config.k_memory
    lam = params["lambda"]
    predictions: list[SlicePrediction] = []
    grids: list[Tensor] = []
    bank = np.empty((len(seq.slices), params.config.d_model))  # row t: slice t's pooled embedding
    confidences = np.empty(len(seq.slices))
    chunks = _encode_chunks([sl.image for sl in seq.slices], params)
    for t, sl in enumerate(seq.slices):
        patch_feats = T.take(chunks[t // ENCODE_CHUNK], t % ENCODE_CHUNK)
        pooled = T.mean(patch_feats, axis=0)
        if k >= 1 and t:
            sims = cosines(pooled.data, bank[:t])
            chosen = select_memory(sims * confidences[:t], k)
            distances = [0.0]
            for j in chosen:
                z = seq.slices[j].z_position_um
                if sl.z_position_um is not None and z is not None:
                    distances.append(abs(sl.z_position_um - z))
                else:  # estimated from the cosine scored above
                    distances.append(DISTANCE_SCALE_UM * (1.0 - sims[j]))
            embeddings = [pooled] + [predictions[j].pooled_embedding for j in chosen]
            alpha = cross_slice_weights(AttentionContext(pooled, embeddings, distances), lam)
            fused = fuse_memory(patch_feats, [grids[j] for j in chosen], alpha)
        else:
            fused = fuse_memory(patch_feats, [], Tensor([1.0]))
        logits = decode_mask(fused, params)
        probabilities = T.sigmoid(logits)
        try:
            confidence = prediction_confidence(probabilities.data)
        except DomainError as exc:
            raise DomainError(f"slice {t}: {exc}") from None
        grids.append(patch_feats)
        bank[t], confidences[t] = pooled.data, confidence
        predictions.append(
            SlicePrediction(
                logits=logits,
                probabilities=probabilities,
                confidence=confidence,
                pooled_embedding=pooled,
            )
        )
    return predictions


# ------------------------------------------------------------- persistence


def save_params(path, params: ModelParams) -> None:
    from .data_io import save_checkpoint

    arrays = {name: t.data for name, t in sorted(params.tensors.items())}
    save_checkpoint(path, arrays, config=asdict(params.config), frozen=sorted(params.frozen))


def load_params(path) -> ModelParams:
    """Read a checkpoint whose tensors and frozen set are exactly those its
    config implies; anything else is a FormatError.

    Every tensor loads as a constant (no ``requires_grad``), so a forward
    pass on the result records no tape. Training starts from
    `init_params`; `train_step` refuses these params."""
    from .data_io import load_checkpoint

    arrays, config, frozen = load_checkpoint(path)
    cfg = dataclass_from_dict(ModelConfig, config)
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
    tensors = {name: Tensor(arr) for name, arr in arrays.items()}
    return ModelParams(config=cfg, tensors=tensors, frozen=frozen_set)
