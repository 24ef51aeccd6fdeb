"""Synthetic feature datasets with a known-separable structure.

Desk-scale stand-in for the real feature dump: clip rows are unit-variance
Gaussians around class-specific means placed `margin` apart (pairwise), so
a nearest-class-mean classifier on time-averaged clip features is correct
with overwhelming probability once margin >= 6 sigma. The other modalities
are structured noise: they exercise the full data path (variable k,
occasionally absent sentiment vectors) without carrying label signal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .container import CLASS_COUNT, EmotionLabel, VideoFeatures, write_container
from .dataset import DatasetManifest, ManifestRow, write_manifest
from .rng import SplitMix64

DEFAULT_DIMS = {
    "clip": 512,
    "beats": 768,
    "expression": 768,
    "ocr_sentiment": 768,
    "asr_sentiment": 768,
}


@dataclass
class SynthResult:
    manifest: DatasetManifest
    oracle_accuracy: float


def class_means(margin: float, d_clip: int) -> np.ndarray:
    """Six means, pairwise `margin` apart: (margin/sqrt(2)) * e_c."""
    if d_clip < CLASS_COUNT:
        raise ValueError(f"d_clip must be >= {CLASS_COUNT} to place distinct class means")
    means = np.zeros((CLASS_COUNT, d_clip), dtype=np.float64)
    for c in range(CLASS_COUNT):
        means[c, c] = margin / np.sqrt(2.0)
    return means


def nearest_mean_label(vf: VideoFeatures, means: np.ndarray) -> int:
    """Class whose mean is closest to the video's time-averaged clip vector."""
    avg = vf.clip.astype(np.float64).mean(axis=0)
    dists = np.linalg.norm(means - avg[None, :], axis=1)
    return int(np.argmin(dists))


def _gauss(rng: SplitMix64, shape) -> np.ndarray:
    """Standard normals via Box-Muller on the deterministic stream."""
    n = int(np.prod(shape, dtype=np.int64))
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    u1 = np.maximum(u1, 1e-300)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    vals = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return vals.reshape(shape)


def synth_dataset(
    out_dir,
    videos_per_class: int,
    seed: int,
    margin: float,
    n_stored: int = 16,
    dims: dict | None = None,
    test_videos_per_class: int = 0,
) -> SynthResult:
    """Generate containers plus a manifest under out_dir.

    Train and test videos share the same class means, so a model fit on
    the train split generalizes to the test split by construction. The
    returned oracle accuracy is the nearest-class-mean score over every
    generated video; it hits 1.0 whenever margin >= 6 (sigma = 1).
    """
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    if videos_per_class < 1:
        raise ValueError("videos_per_class must be >= 1")
    if test_videos_per_class < 0:
        raise ValueError(f"test_videos_per_class must be >= 0, got {test_videos_per_class}")
    dims = dict(DEFAULT_DIMS if dims is None else dims)
    means = class_means(margin, dims["clip"])
    os.makedirs(out_dir, exist_ok=True)

    root = SplitMix64(seed).derive("synth")
    rows: list[ManifestRow] = []
    videos: list[VideoFeatures] = []
    plan = [("train", videos_per_class), ("test", test_videos_per_class)]
    for split, per_class in plan:
        for label in EmotionLabel:
            for j in range(per_class):
                video_id = f"{split}_{label.label_name}_{j:04d}"
                rng = root.derive(video_id)
                clip = means[int(label)][None, :] + _gauss(rng, (n_stored, dims["clip"]))
                beats = _gauss(rng, (n_stored, dims["beats"]))
                k = int(rng.next_raw(1)[0] % (n_stored + 1))
                expr_frames = rng.sample_without_replacement(n_stored, k) if k else np.zeros(0, np.int64)
                expression = _gauss(rng, (k, dims["expression"]))
                ocr_present = bool(rng.random() >= 0.2)
                asr_present = bool(rng.random() >= 0.2)
                ocr = _gauss(rng, (dims["ocr_sentiment"],)) if ocr_present else np.zeros(dims["ocr_sentiment"])
                asr = _gauss(rng, (dims["asr_sentiment"],)) if asr_present else np.zeros(dims["asr_sentiment"])
                vf = VideoFeatures(
                    video_id=video_id,
                    label=label,
                    clip=clip.astype(np.float32),
                    beats=beats.astype(np.float32),
                    expression=expression.astype(np.float32),
                    expression_frame_index=expr_frames.astype(np.int64),
                    ocr_sentiment=ocr.astype(np.float32),
                    asr_sentiment=asr.astype(np.float32),
                    ocr_present=ocr_present,
                    asr_present=asr_present,
                )
                fname = f"{video_id}.vmf"
                write_container(vf, os.path.join(out_dir, fname))
                rows.append(ManifestRow(video_id, label, split, fname))
                videos.append(vf)

    manifest = DatasetManifest(rows, base_dir=os.fspath(out_dir))
    write_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    correct = sum(1 for vf in videos if nearest_mean_label(vf, means) == int(vf.label))
    return SynthResult(manifest=manifest, oracle_accuracy=correct / len(videos))
