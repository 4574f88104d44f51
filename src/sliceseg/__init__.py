"""Sequential slice segmentation with distance-aware cross-slice
attention, adaptive similarity-confidence memory selection, low-rank
adapted encoders and a composite Dice/BCE/consistency objective."""

from .attention import AttentionContext, cross_slice_weights, distance_modulation, fuse_memory
from .data_io import (
    SliceData,
    SliceSequence,
    SynthConfig,
    generate_dataset,
    load_dataset,
    load_sequence,
    read_raster,
    write_raster,
)
from .gradcheck import grad_check
from .lora import lora_forward, merge
from .losses import LossWeights, bce_loss, combined_loss, consistency_loss, dice_loss, dice_score
from .memory import prediction_confidence, select_memory
from .model import (
    ModelConfig,
    ModelParams,
    SlicePrediction,
    decode_mask,
    encode_slice,
    forward_sequence,
    init_params,
    load_params,
    save_params,
)
from .tensor import Tensor
from .training import AdamState, EvalReport, TrainConfig, adam_step, evaluate, train

__version__ = "0.1.0"
