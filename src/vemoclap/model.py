"""Cross-attention fusion classifier.

The forward pass runs a whole batch of videos at once, on the arrays
`dataset.select_frames` gathers (n sampled frames per video) and
`dataset.normalize_features` min-max normalizes. Each sequential
modality travels as its videos' real rows stacked one after another,
with per-video row counts: n rows of clip and beats, and k expression
rows (one zero row for a faceless video). Each of the
paper's three fixed (query, key/value) `PAIRINGS` runs multi-head
scaled dot-product attention (query projected to width d, post-norm
residual, dropout on the output projection) over those rows,
is mean-pooled over each video's rows into one d-vector per video, and
the three pooled vectors plus the two sentiment vectors are
concatenated into one row per video. A linear layer and softmax produce
the [B, 6] class probabilities. `cross_attention` takes that layout and
no other. Only the attention products inside `autograd.attention` pad,
and only expression queries: every key/value side is n rows per video.

No positional encoding anywhere: temporal pooling discards order, which
makes key/value-row permutation invariance an exact property of the
architecture.

The pairings meet only at the concatenation, so `cross_attention` runs
them stage by stage, with each stage's projections of all three as one
`autograd.matmuls` group on two threads, forward and backward. Pairing i
draws its dropout mask from its own stream, `rng.derive("pairing", i)`,
so no pairing's mask depends on another's draws or row count.

Parameters are immutable during inference, so any number of threads may
share them; training owns them exclusively.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .container import (
    CLASS_COUNT,
    MODALITY_NAMES,
    RawEntry,
    array_entry,
    entry_array,
    entry_json,
    json_entry,
    read_blocks,
    write_blocks,
)
from .rng import SplitMix64

log = logging.getLogger(__name__)

# The paper's (query, key/value) attention pairings, one per sequential
# modality as the query; fixed, not a setting.
PAIRINGS = (("clip", "beats"), ("beats", "clip"), ("expression", "clip"))


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters."""

    input_dims: Mapping[str, int]
    d: int = 512
    heads: int = 4
    dropout_p: float = 0.5
    n: int = 16

    def __post_init__(self):
        object.__setattr__(self, "input_dims", dict(self.input_dims))
        missing = [m for m in MODALITY_NAMES if m not in self.input_dims]
        if missing:
            raise ConfigError(f"input_dims missing modalities: {missing}")
        narrow = {m: self.input_dims[m] for m in MODALITY_NAMES if self.input_dims[m] < 1}
        if narrow:
            raise ConfigError(f"input_dims widths must be positive, got {narrow}")
        if self.input_dims["ocr_sentiment"] != self.input_dims["asr_sentiment"]:
            raise ConfigError("input_dims ocr_sentiment and asr_sentiment widths must agree")
        if self.d < 1 or self.heads < 1:
            raise ConfigError("d and heads must be positive")
        if self.d % self.heads != 0:
            raise ConfigError(f"d={self.d} must be divisible by heads={self.heads}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")

    def to_json_obj(self) -> dict:
        return {
            "input_dims": dict(self.input_dims),
            "d": self.d,
            "heads": self.heads,
            "dropout_p": self.dropout_p,
            "n": self.n,
            "class_count": CLASS_COUNT,
            "pairings": [list(p) for p in PAIRINGS],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "ModelConfig":
        """Inverse of `to_json_obj`. A missing or wrongly typed field is a
        ConfigError (a ValueError) that names the field. "class_count" and
        "pairings" are not settings: they record the CLASS_COUNT (6)
        classes and the PAIRINGS, and must equal them."""

        def is_int(v) -> bool:
            return isinstance(v, int) and not isinstance(v, bool)

        pairings = [list(p) for p in PAIRINGS]
        checks = {
            "input_dims": (
                lambda v: isinstance(v, dict) and all(is_int(x) for x in v.values()),
                "an object of integers",
            ),
            "d": (is_int, "an integer"),
            "heads": (is_int, "an integer"),
            "dropout_p": (lambda v: is_int(v) or isinstance(v, float), "a number"),
            "n": (is_int, "an integer"),
            "class_count": (lambda v: is_int(v) and v == CLASS_COUNT, f"the integer {CLASS_COUNT}"),
            "pairings": (lambda v: v == pairings, f"the list {pairings}"),
        }
        if not isinstance(obj, dict):
            raise ConfigError(f"model config must be a JSON object, got {type(obj).__name__}")
        for name, (check, what) in checks.items():
            if name not in obj:
                raise ConfigError(f"model config is missing field {name!r}")
            if not check(obj[name]):
                raise ConfigError(f"model config field {name!r} must be {what}, got {obj[name]!r}")
        return cls(**{f.name: obj[f.name] for f in fields(cls)})

    def digest(self) -> str:
        blob = json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class AttentionParams:
    """One pairing's trainable tensors, in checkpoint order."""

    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    gamma: Tensor
    beta: Tensor


@dataclass
class FusionParams:
    pairings: list[AttentionParams]
    w_head: Tensor
    b_head: Tensor

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, p in enumerate(self.pairings):
            for f in fields(p):
                out.append((f"pairings.{i}.{f.name}", getattr(p, f.name)))
        out.append(("head.weight", self.w_head))
        out.append(("head.bias", self.b_head))
        return out


def _build(config: ModelConfig, make: Callable[[str, tuple[int, ...]], Tensor]) -> FusionParams:
    """Parameters from `make(name, shape)`, called once per trainable tensor
    in `named_tensors` order. The only place that knows their shapes."""
    d = config.d
    pairings = []
    for i, (q_name, kv_name) in enumerate(PAIRINGS):
        dq = config.input_dims[q_name]
        dkv = config.input_dims[kv_name]
        shapes = {
            "w_q": (dq, d), "b_q": (d,),
            "w_k": (dkv, d), "b_k": (d,),
            "w_v": (dkv, d), "b_v": (d,),
            "w_o": (d, d), "b_o": (d,),
            "gamma": (d,), "beta": (d,),
        }
        pairings.append(
            AttentionParams(**{f: make(f"pairings.{i}.{f}", shape) for f, shape in shapes.items()})
        )
    # The head reads the pooled pairing outputs, then the two sentiment vectors.
    head_in = len(PAIRINGS) * d + 2 * config.input_dims["ocr_sentiment"]
    w_head = make("head.weight", (head_in, CLASS_COUNT))
    b_head = make("head.bias", (CLASS_COUNT,))
    return FusionParams(pairings, w_head, b_head)


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> FusionParams:
    """Glorot-uniform weight matrices, zero biases, unit layer-norm scale.

    Deterministic: the same seed reproduces every weight bit-for-bit.
    Weight matrices are drawn in row-major order and stored output-major
    (Fortran order; see `autograd.Tensor`).
    """
    rng = SplitMix64(seed).derive("init")

    def make(name: str, shape: tuple[int, ...]) -> Tensor:
        if len(shape) == 2:
            fan_in, fan_out = shape
            a = float(np.sqrt(6.0 / (fan_in + fan_out)))
            arr = np.asfortranarray(rng.uniform(-a, a, shape, dtype=dtype))
        else:
            arr = np.ones(shape, dtype) if name.endswith(".gamma") else np.zeros(shape, dtype)
        return Tensor(arr, requires_grad=True, copy=False)

    params = _build(config, make)
    log.info("initialized %d trainable parameters (seed %d)", param_count(params), seed)
    return params


def param_count(params: FusionParams) -> int:
    return sum(t.size for _, t in params.named_tensors())


def cross_attention(
    pairs: Sequence[tuple[Tensor, Tensor, AttentionParams]],
    heads: int,
    dropout_p: float = 0.0,
    rngs: Optional[Sequence[SplitMix64]] = None,
    kv_masks: Optional[Sequence[Optional[np.ndarray]]] = None,
    q_lengths: Optional[Sequence[np.ndarray]] = None,
) -> list[Tensor]:
    """Multi-head scaled dot-product attention for each (query rows,
    key/value rows, params) pairing; pairing i's output is its query's
    [N_q, d] rows.

    Each side is [N, C] rows of B sequences stacked one after another:
    `q_lengths[i]` gives pairing i's query row counts, and its key/value
    rows split into B equal blocks. Without `q_lengths`, each side is one
    sequence. Stage by stage over all pairings, on the real rows only:
    the q/k/v projections as one `autograd.matmuls` group, attention, the
    output projections as a second group, then dropout (inside a Graph
    only, from `rngs[i]`), the residual onto the projected query and layer
    norm. `kv_masks[i]` ([N_kv]), when given, marks attendable key/value
    rows with True; masked rows get a -1e9 score bias, which underflows to
    exactly zero weight after the softmax's max-subtraction.
    """
    for q_rows, kv_rows, _ in pairs:
        shapes = (q_rows.shape, kv_rows.shape)
        if any(len(shape) != 2 or shape[0] < 1 for shape in shapes):
            raise ag.ShapeError(f"cross_attention needs nonempty [N, C] rows, got {shapes}")
    params = [p for _, _, p in pairs]
    proj = ag.matmuls([
        member
        for q_rows, kv_rows, p in pairs
        for member in ((q_rows, p.w_q, p.b_q), (kv_rows, p.w_k, p.b_k), (kv_rows, p.w_v, p.b_v))
    ])
    q_proj, k_proj, v_proj = proj[0::3], proj[1::3], proj[2::3]
    del proj
    # Each k/v projection, merged output and output projection is let go
    # once read: with no graph to hold them, only q projections outlive
    # their stage.
    lengths = q_lengths or [[q_rows.shape[0]] for q_rows, _, _ in pairs]
    masks = kv_masks or [None] * len(pairs)
    projected = ag.matmuls([
        (ag.attention(q, k_proj.pop(0), v_proj.pop(0), heads, lengths[i], masks[i]), p.w_o, p.b_o)
        for i, (q, p) in enumerate(zip(q_proj, params))
    ])
    return [
        ag.layer_norm(ag.add(ag.dropout(projected.pop(0), dropout_p, rng), q), p.gamma, p.beta)
        for q, rng, p in zip(q_proj, rngs or [None] * len(pairs), params)
    ]


def forward(
    rows: Mapping[str, np.ndarray],
    faces: np.ndarray,
    params: FusionParams,
    config: ModelConfig,
    rng: Optional[SplitMix64] = None,
) -> Tensor:
    """[B, 6] class probabilities for a batch that `dataset.select_frames`
    gathered and `dataset.normalize_features` normalized: clip and beats
    [B*n, C], face rows [sum(faces), C] and sentiment [B, C], where
    `faces[b]` counts video b's face rows. Each tensor adopts its array.

    One pass serves the whole batch; a video's row does not depend on its
    batchmates beyond floating-point rounding. Every modality travels as
    its videos' real rows: no projection, dropout or layer norm sees a
    padded row, and each pooled vector averages its own video's rows.
    Dropout fires only inside a Graph, in which case `rng` must be
    supplied; with no graph (inference), calls are deterministic.
    """
    faces = np.asarray(faces)
    if faces.ndim != 1 or faces.size == 0 or faces.min() < 0:
        raise ValueError("forward needs one nonnegative face count per video, for one video or more")
    b, dims = faces.size, config.input_dims
    counts = {"clip": b * config.n, "beats": b * config.n, "expression": int(faces.sum())}
    for name in MODALITY_NAMES:
        got, want = rows[name].shape, (counts.get(name, b), dims[name])
        # With no face in the batch, the empty face block's width is never read.
        if got != want and got[:1] + want[:1] != (0, 0):
            raise ag.ShapeError(
                f"modality {name!r}: rows {got}, expected {want} for {b} videos sampled to n={config.n}"
            )
    if not faces.all():
        # A video that keeps no face gets one zero row where its faces
        # would be, counted as real, which keeps its pairing shape-valid.
        expression = rows["expression"].reshape(-1, dims["expression"])
        rows = dict(rows, expression=np.insert(expression, np.cumsum(faces)[faces == 0], 0.0, axis=0))
    dtype = params.w_head.data.dtype
    inputs = {name: Tensor(rows[name], dtype=dtype, copy=False) for name in MODALITY_NAMES}
    full = np.full(b, config.n)
    lengths = {"clip": full, "beats": full, "expression": np.maximum(faces, 1)}

    attended = cross_attention(
        [(inputs[q], inputs[kv], p) for (q, kv), p in zip(PAIRINGS, params.pairings)],
        heads=config.heads,
        dropout_p=config.dropout_p,
        rngs=None if rng is None else [rng.derive("pairing", i) for i in range(len(PAIRINGS))],
        q_lengths=[lengths[q] for q, _ in PAIRINGS],
    )
    columns = [ag.mean_pool(out, lengths[q]) for out, (q, _) in zip(attended, PAIRINGS)]
    video_rows = ag.concat_cols(columns + [inputs["ocr_sentiment"], inputs["asr_sentiment"]])
    # A video's logits must not depend on how many batchmates it has.
    logits = ag.matmul(video_rows, params.w_head, params.b_head)
    return ag.softmax(logits)


# ---------------------------------------------------------------------------
# Checkpoints: VMF1 codec with a JSON "config" entry plus parameter entries


CHECKPOINT_CONFIG_ENTRY = "config"


def save_checkpoint(
    path,
    params: FusionParams,
    config: ModelConfig,
    seed: int,
    stats_digest: str,
) -> None:
    header = {
        "kind": "vemoclap-checkpoint",
        "model_config": config.to_json_obj(),
        "seed": int(seed),
        "stats_digest": stats_digest,
    }
    entries: list[RawEntry] = [json_entry(CHECKPOINT_CONFIG_ENTRY, header)]
    for name, tensor in params.named_tensors():
        if tensor.data.dtype != np.float32:
            raise ValueError("checkpoints store float32 parameters only")
        entries.append(array_entry(name, tensor.data))
    write_blocks(path, entries)


def load_checkpoint(path) -> tuple[FusionParams, ModelConfig, dict]:
    entries = {e.name: e for e in read_blocks(path)}
    if CHECKPOINT_CONFIG_ENTRY not in entries:
        raise ValueError(f"checkpoint {path} is missing its config entry")
    header = entry_json(entries.pop(CHECKPOINT_CONFIG_ENTRY))
    if not isinstance(header, dict) or "model_config" not in header:
        raise ValueError(f"checkpoint {path} config entry is missing field 'model_config'")
    config = ModelConfig.from_json_obj(header["model_config"])

    def tensor_for(name: str, expect_shape: tuple[int, ...]) -> Tensor:
        if name not in entries:
            raise ValueError(f"checkpoint is missing parameter {name!r}")
        entry = entries.pop(name)
        if entry.dims != expect_shape:
            raise ValueError(
                f"parameter {name!r} has shape {entry.dims}, expected {expect_shape}"
            )
        # The one copy: weight matrices come out output-major.
        return Tensor(entry_array(entry, order="F"), requires_grad=True, copy=False)

    params = _build(config, tensor_for)
    if entries:
        raise ValueError(f"checkpoint holds unexpected entries: {sorted(entries)}")
    return params, config, header
