"""Video emotion classification from pretrained multimodal features.

The package ingests per-video feature containers (CLIP frames, BEATs audio
chunks, facial-expression vectors, OCR/ASR sentiment vectors), fuses them
with multi-head cross-attention and trains a 6-class emotion classifier.
Everything numeric runs on a small self-contained reverse-mode autograd
core (`vemoclap.autograd`); all randomness flows from an explicit 64-bit
seed (`vemoclap.rng`), so runs are bit-reproducible.
"""

from .autograd import Graph, Tensor, grad_check
from .container import VideoFeatures, read_container, write_container
from .dataset import (
    DatasetManifest,
    EmotionLabel,
    ModalityStats,
    apply_blacklist,
    build_app_split,
    carve_validation,
    compute_stats,
    normalize,
    sample_indices,
    select_frames,
)
from .model import FusionParams, ModelConfig, cross_attention, forward, init_params, param_count
from .rng import SplitMix64
from .training import TrainConfig, adam_step, cross_entropy, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "DatasetManifest",
    "EmotionLabel",
    "FusionParams",
    "Graph",
    "ModalityStats",
    "ModelConfig",
    "SplitMix64",
    "Tensor",
    "TrainConfig",
    "VideoFeatures",
    "adam_step",
    "apply_blacklist",
    "build_app_split",
    "carve_validation",
    "compute_stats",
    "cross_attention",
    "cross_entropy",
    "evaluate",
    "forward",
    "grad_check",
    "init_params",
    "normalize",
    "param_count",
    "read_container",
    "sample_indices",
    "select_frames",
    "train",
    "write_container",
]
