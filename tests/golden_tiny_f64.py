"""A tiny float64 training run, pinned by `test_golden.py`.

`run()` trains a 16-wide, d=16, 2-head, n=4 model with dropout 0.5 on 30
synthetic train videos for 3 epochs, then evaluates it on held-out test
videos. It returns the trained parameters, the per-epoch train losses and
validation accuracies, the best epoch and the test probabilities. Every
number comes from SplitMix64 draws, so the run does not depend on numpy's
own generators.

The key biases `b_k` are left out. A key bias adds the same amount to
each of a query's scores, which the softmax cancels, so its gradient is
rounding noise; Adam turns that noise into values of about 1e-13 that
move with any reordering of a float64 sum.

Regenerate the checked-in file only when a change of meaning (frame
sampling, dropout, the parameter draw, the loss, Adam) is intended, and
say so in CHANGES.md:

    PYTHONPATH=src python tests/golden_tiny_f64.py
"""

from pathlib import Path

import numpy as np

from vemoclap.container import CLASS_COUNT, MODALITY_NAMES, VideoFeatures
from vemoclap.dataset import compute_stats
from vemoclap.model import ModelConfig, init_params
from vemoclap.rng import SplitMix64
from vemoclap.training import TrainConfig, evaluate, train

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_tiny_f64.npz"
WIDTH = 16


def _video(root: SplitMix64, split: str, i: int) -> VideoFeatures:
    """Stored frames 2..8 (some shorter than n), 0..all faces, a clip
    offset by label and, now and then, absent sentiment."""
    rng = root.derive(split, i)
    label = i % CLASS_COUNT
    n_stored = 2 + int(rng.next_raw(1)[0] % 7)
    k = int(rng.next_raw(1)[0] % (n_stored + 1))
    clip = rng.uniform(0.0, 1.0, (n_stored, WIDTH))
    clip[:, label] += 1.0
    ocr_present = bool(rng.random() >= 0.25)
    asr_present = bool(rng.random() >= 0.25)
    ocr = rng.uniform(-1.0, 1.0, (WIDTH,))
    asr = rng.uniform(-1.0, 1.0, (WIDTH,))
    return VideoFeatures(
        video_id=f"{split}{i:02d}",
        label=label,
        clip=clip,
        beats=rng.uniform(-2.0, 2.0, (n_stored, WIDTH)),
        expression=rng.uniform(0.0, 3.0, (k, WIDTH)),
        expression_frame_index=rng.sample_without_replacement(n_stored, k),
        ocr_sentiment=ocr if ocr_present else np.zeros(WIDTH),
        asr_sentiment=asr if asr_present else np.zeros(WIDTH),
        ocr_present=ocr_present,
        asr_present=asr_present,
    )


def run() -> dict[str, np.ndarray]:
    root = SplitMix64(2026).derive("golden")
    train_videos = [_video(root, "train", i) for i in range(30)]
    val_videos = [_video(root, "val", i) for i in range(12)]
    test_videos = [_video(root, "test", i) for i in range(24)]
    config = ModelConfig(
        input_dims={name: WIDTH for name in MODALITY_NAMES}, d=16, heads=2, dropout_p=0.5, n=4
    )
    params = init_params(config, seed=5, dtype=np.float64)
    stats = compute_stats(None, videos=train_videos)
    tconf = TrainConfig(batch_size=8, lr=1e-2, max_epochs=3, patience=3, seed=7)
    result = train(train_videos, val_videos, params, config, tconf, stats)
    out = {
        f"param/{name}": t.data
        for name, t in result.params.named_tensors()
        if not name.endswith(".b_k")
    }
    out["train_loss"] = np.array([h.train_loss for h in result.history])
    out["val_accuracy"] = np.array([h.val_accuracy for h in result.history])
    out["best_epoch"] = np.array(result.best_epoch)
    out["test_probabilities"] = evaluate(test_videos, result.params, config, stats).probabilities
    return out


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez(GOLDEN, **run())
    print(f"wrote {GOLDEN}")
