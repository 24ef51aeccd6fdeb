"""Training loop: cross-entropy, Adam, early stopping on validation accuracy.

Per epoch the train set is reshuffled and every video is resampled at
random frame locations (the data augmentation used at train time); the
validation pass always runs with no graph and equidistant sampling, i.e.
test-time conditions. Training stops once validation accuracy has not
improved for `patience` consecutive epochs, and the best-epoch parameters
are returned.

The optimizer state is exclusively owned by the loop; everything
stochastic is derived from TrainConfig.seed, so a rerun with the same
seed and data reproduces the history and checkpoint bit-for-bit.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Graph, Tensor
from .container import VideoFeatures, atomic_write_bytes
from .dataset import ModalityStats, normalize_features, sample_indices, select_frames
from .model import FusionParams, ModelConfig, forward
from .rng import SplitMix64

log = logging.getLogger(__name__)

# Videos per forward pass in evaluate(); a fixed chunk, not a setting.
EVAL_BATCH = 32
# Elements per pass of adam_step (256 KiB of float32 per array, so a
# chunk's m, v, g, parameter and two scratch slices, 1.5 MiB, fit in a
# 2 MiB L2); fixed.
ADAM_CHUNK = 65_536
# Adam's moment decay rates and denominator epsilon: the usual defaults, fixed.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    lr: float = 1e-5
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


class TrainingDivergedError(RuntimeError):
    """A gradient went non-finite; aborting beats silently continuing.

    A non-finite loss never gets this far: the op that makes it raises
    autograd.NonFiniteError."""


def cross_entropy(probs: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean over the batch of -log(probs[i, label_i]).

    Rows of `probs` must be probability vectors; they are clamped below at
    1e-12 before the log so a confidently wrong row cannot produce inf.
    """
    if probs.data.ndim != 2:
        raise ag.ShapeError(f"cross_entropy needs [batch, classes] probabilities, got {probs.shape}")
    b = probs.shape[0]
    # take_per_row checks that there is one label per row, each in range.
    picked = ag.take_per_row(ag.log(ag.clamp_min(probs, 1e-12)), labels)
    return ag.scale(ag.sum_all(picked), -1.0 / b)


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: FusionParams) -> "AdamState":
        m = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}
        v = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}
        return cls(m=m, v=v)


def adam_step(
    params: FusionParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place.

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps),
    with (b1, b2) = ADAM_BETAS and eps = ADAM_EPS.

    Runs over ADAM_CHUNK-element chunks of each flattened tensor with
    `out=` into two scratch buffers, so a chunk's passes stay in cache and
    no full-size temporary is allocated; every element sees the same
    operations in the same order as the formula above, so the result is
    the same to the bit. Each tensor and its moments are flattened in the
    tensor's own memory order (output-major weights in Fortran order); a
    gradient of another layout is read in that order too, through a copy.
    Two halves of the tensors, of about equal size, update on two threads
    (`autograd.run_halves`); a non-finite gradient raises
    TrainingDivergedError once both have finished.
    """
    b1, b2 = ADAM_BETAS
    state.step += 1
    t = state.step
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    updates = []
    for name, tensor in params.named_tensors():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != tensor.data.shape:
            raise ag.ShapeError(f"gradient for {name!r} has shape {g.shape}, expected {tensor.shape}")
        updates.append((name, tensor.data, g))

    def update(name: str, p_data: np.ndarray, g: np.ndarray) -> None:
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient in {name!r} at step {t}")
        dtype = p_data.dtype
        buf1, buf2 = np.empty(min(ADAM_CHUNK, g.size), dtype), np.empty(min(ADAM_CHUNK, g.size), dtype)
        b1_, one_b1, b2_, one_b2, c1, c2, eps, lr = (
            dtype.type(c)
            for c in (b1, 1.0 - b1, b2, 1.0 - b2, corr1, corr2, ADAM_EPS, config.lr)
        )
        order = ag.memory_order(p_data)
        p_flat = np.reshape(p_data, -1, order=order, copy=False)
        m_flat = np.reshape(state.m[name], -1, order=order, copy=False)
        v_flat = np.reshape(state.v[name], -1, order=order, copy=False)
        g_flat = np.reshape(g, -1, order=order)
        for start in range(0, p_flat.size, ADAM_CHUNK):
            part = slice(start, start + ADAM_CHUNK)
            gc, m, v, p = g_flat[part], m_flat[part], v_flat[part], p_flat[part]
            t1, t2 = buf1[: gc.size], buf2[: gc.size]
            np.multiply(m, b1_, out=m)
            np.multiply(gc, one_b1, out=t1)
            np.add(m, t1, out=m)
            np.multiply(v, b2_, out=v)
            np.square(gc, out=t1)
            np.multiply(t1, one_b2, out=t1)
            np.add(v, t1, out=v)
            np.divide(v, c2, out=t1)  # v_hat
            np.sqrt(t1, out=t1)
            np.add(t1, eps, out=t1)
            np.divide(m, c1, out=t2)  # m_hat
            np.multiply(t2, lr, out=t2)
            np.divide(t2, t1, out=t2)
            np.subtract(p, t2, out=p)

    tasks = [functools.partial(update, *item) for item in updates]
    ag.run_halves(tasks, [16 * g.size for _, _, g in updates])  # 16 passes per element


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


@dataclass
class TrainResult:
    params: FusionParams
    history: list[EpochStats]
    best_epoch: int
    best_val_accuracy: float


def history_csv(history: Sequence[EpochStats]) -> str:
    lines = ["epoch,train_loss,val_accuracy"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.val_accuracy!r}")
    return "\n".join(lines) + "\n"


def write_history(history: Sequence[EpochStats], path) -> None:
    atomic_write_bytes(path, history_csv(history).encode("utf-8"))


def _snapshot(params: FusionParams) -> dict[str, np.ndarray]:
    """Copies of the parameters, each in its tensor's memory layout."""
    return {name: t.data.copy(order="K") for name, t in params.named_tensors()}


def _restore(params: FusionParams, snapshot: dict[str, np.ndarray]) -> None:
    """Hands the snapshot's arrays to the parameters; the caller drops the
    snapshot afterwards."""
    for name, t in params.named_tensors():
        t.data = snapshot[name]


def _predict_batch(
    videos: Sequence[VideoFeatures], params: FusionParams, config: ModelConfig, stats: ModalityStats
) -> np.ndarray:
    """[B, 6] probabilities with equidistant sampling and no graph (test conditions)."""
    rows, faces = select_frames(
        videos, [sample_indices(vf.n_stored, config.n, mode="equidistant") for vf in videos]
    )
    rows = normalize_features(rows, stats)
    return forward(rows, faces, params, config).data


def predict_label(
    vf: VideoFeatures, params: FusionParams, config: ModelConfig, stats: ModalityStats
) -> tuple[int, np.ndarray]:
    """Argmax prediction; ties break toward the lowest label index.

    Call with no graph active: inside a Graph, dropout would fire."""
    probs = _predict_batch([vf], params, config, stats)[0]
    return int(np.argmax(probs)), probs


@dataclass
class EvalResult:
    accuracy: float
    video_ids: list[str]
    true_labels: list[int]
    predicted_labels: list[int]
    probabilities: np.ndarray


def evaluate(
    videos: Sequence[VideoFeatures],
    params: FusionParams,
    config: ModelConfig,
    stats: ModalityStats,
) -> EvalResult:
    """Accuracy plus per-video predictions under test-time conditions.

    Runs the forward pass EVAL_BATCH videos at a time; each video's
    probabilities match its single-video prediction up to rounding.
    Call with no graph active: inside a Graph, dropout would fire."""
    if not videos:
        raise ValueError("evaluate needs at least one video")
    probs = np.concatenate(
        [
            _predict_batch(videos[start:start + EVAL_BATCH], params, config, stats)
            for start in range(0, len(videos), EVAL_BATCH)
        ]
    )
    truth = [int(vf.label) for vf in videos]
    preds = [int(label) for label in np.argmax(probs, axis=1)]
    correct = sum(1 for t, p in zip(truth, preds) if t == p)
    return EvalResult(
        accuracy=correct / len(videos),
        video_ids=[vf.video_id for vf in videos],
        true_labels=truth,
        predicted_labels=preds,
        probabilities=probs,
    )


def _train_step(
    rows: dict[str, np.ndarray],
    faces: np.ndarray,
    labels: Sequence[int],
    params: FusionParams,
    model_config: ModelConfig,
    train_config: TrainConfig,
    state: AdamState,
    dropout_rng: SplitMix64,
    grads: dict[str, np.ndarray],
) -> float:
    """One Adam step on a gathered, normalized batch (see `forward`);
    returns its loss and leaves its gradients, by parameter name, in
    `grads`.

    Backward consumes the step's graph, freeing each activation once its
    vjp has run. `grads` holds the previous step's gradients until it is
    cleared just before backward, so backward's peak holds one set, not
    two. Memory malloc frees at the top of its heap goes back to the
    system and is faulted in again by the next allocations; holding the
    gradients through the forward keeps more of it mapped. On a 2-vCPU
    box a paper-dims batch-32 step made 3.3-4.0 k minor page faults this
    way. Cleared before the forward instead, the gradients cut the
    step's peak allocation by 12 MB but it made 8.5 k faults; freed
    after Adam, 7.5-8.2 k. Either ran about 10% slower."""
    with Graph() as graph:
        probs = forward(rows, faces, params, model_config, rng=dropout_rng)
        loss = cross_entropy(probs, labels)
    grads.clear()
    leaf_grads = graph.backward(loss)
    grads.update((name, leaf_grads[t]) for name, t in params.named_tensors() if t in leaf_grads)
    adam_step(params, grads, state, train_config)
    return float(loss.data)


def train(
    train_videos: Sequence[VideoFeatures],
    val_videos: Sequence[VideoFeatures],
    params: FusionParams,
    model_config: ModelConfig,
    train_config: TrainConfig,
    stats: ModalityStats,
) -> TrainResult:
    """Run the optimization loop; `params` is updated in place and the
    returned result holds the best-validation-epoch snapshot."""
    if not train_videos:
        raise ValueError("training split is empty")
    if not val_videos:
        raise ValueError("validation split is empty")

    root = SplitMix64(train_config.seed)
    state = AdamState.for_params(params)
    history: list[EpochStats] = []
    best_acc = -1.0
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    grads: dict[str, np.ndarray] = {}
    epochs_since_best = 0

    for epoch in range(1, train_config.max_epochs + 1):
        epoch_rng = root.derive("epoch", epoch)
        order = epoch_rng.derive("shuffle").permutation(len(train_videos))
        loss_sum = 0.0
        seen = 0
        for start in range(0, len(order), train_config.batch_size):
            batch = [train_videos[int(i)] for i in order[start:start + train_config.batch_size]]
            indices = [
                sample_indices(
                    vf.n_stored,
                    model_config.n,
                    mode="random",
                    rng=epoch_rng.derive("frames", vf.video_id),
                )
                for vf in batch
            ]
            rows, faces = select_frames(batch, indices)
            # The raw rows go before the step; its tensors adopt the normalized ones.
            rows = normalize_features(rows, stats)
            dropout_rng = epoch_rng.derive("dropout", int(start))
            labels = [int(vf.label) for vf in batch]
            loss = _train_step(
                rows, faces, labels, params, model_config, train_config, state, dropout_rng, grads
            )
            loss_sum += loss * len(batch)
            seen += len(batch)

        val = evaluate(val_videos, params, model_config, stats)
        history.append(EpochStats(epoch, loss_sum / seen, val.accuracy))
        log.info(
            "epoch %d: train loss %.4f, val accuracy %.4f", epoch, loss_sum / seen, val.accuracy
        )

        if val.accuracy > best_acc:
            best_acc = val.accuracy
            best_epoch = epoch
            best_params = _snapshot(params)
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= train_config.patience:
                log.info("early stop after epoch %d (best epoch %d)", epoch, best_epoch)
                break

    _restore(params, best_params)
    return TrainResult(params, history, best_epoch, best_acc)
