"""Seeded benchmark inputs: feature containers, manifest, stats and checkpoint.

Everything here is derived from one workload seed through
`vemoclap.rng.SplitMix64`, so the same seed writes the same bytes. The
program under test only ever sees the files written here.

Run as a script (`python3 perfbench/inputs.py --out DIR --seed N
--workload NAME`) it writes a workload's inputs into DIR; `run.py` does
that in a child process so that generation stays out of the measured
process's time and peak memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from vemoclap.container import EmotionLabel, VideoFeatures, write_container
from vemoclap.dataset import DatasetManifest, ManifestRow, compute_stats, save_stats, write_manifest
from vemoclap.model import ModelConfig, init_params, save_checkpoint
from vemoclap.rng import SplitMix64

PAPER_DIMS = {
    "clip": 512,
    "beats": 768,
    "expression": 768,
    "ocr_sentiment": 768,
    "asr_sentiment": 768,
}


@dataclass(frozen=True)
class Plan:
    """Sizes of one benchmark dataset and model.

    The defaults are the paper's: feature dims, d=512, 4 heads, n=16,
    dropout 0.5, batch 32, and the cleaned Ekman-6 split sizes (691 train
    rows before the 10% validation carve-out, 688 test rows).
    """

    dims: dict = field(default_factory=lambda: dict(PAPER_DIMS))
    n: int = 16
    d: int = 512
    heads: int = 4
    dropout: float = 0.5
    batch: int = 32
    train_videos: int = 691
    test_videos: int = 688
    # Stored frames: a `short_share` of videos store fewer than n frames
    # (sampling pads them); the rest store n+1 .. max_frames (sampling picks).
    max_frames: int = 32
    short_share: float = 0.15
    # Share of videos whose OCR (and, independently, ASR) vector is absent.
    absent_share: float = 0.2

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            input_dims=self.dims, d=self.d, heads=self.heads, dropout_p=self.dropout, n=self.n
        )


PAPER = Plan()


def make_video(plan: Plan, seed: int, split: str, i: int) -> VideoFeatures:
    """Video `i` of `split`: label i % 6 (balanced classes), and stored
    length, face count k (0 .. stored length) and sentiment presence drawn
    from the seed. A weak class signal in the clip features keeps the
    predictions from collapsing onto one class."""
    rng = SplitMix64(seed).derive("perfbench", split, i)
    label = i % len(EmotionLabel)
    draws = rng.next_raw(2)
    if rng.random() < plan.short_share:
        stored = 1 + int(draws[0] % np.uint64(plan.n - 1)) if plan.n > 1 else 1
    else:
        stored = plan.n + 1 + int(draws[0] % np.uint64(plan.max_frames - plan.n))
    k = int(draws[1] % np.uint64(stored + 1))
    frames = rng.sample_without_replacement(stored, k) if k else np.zeros(0, np.int64)
    dims = plan.dims
    clip = rng.random((stored, dims["clip"]), dtype=np.float32)
    clip[:, label] += np.float32(1.0)
    ocr_present = bool(rng.random() >= plan.absent_share)
    asr_present = bool(rng.random() >= plan.absent_share)
    return VideoFeatures(
        video_id=f"{split}{i:04d}",
        label=EmotionLabel(label),
        clip=clip,
        beats=rng.random((stored, dims["beats"]), dtype=np.float32),
        expression=rng.random((k, dims["expression"]), dtype=np.float32),
        expression_frame_index=frames,
        ocr_sentiment=rng.random(dims["ocr_sentiment"], dtype=np.float32)
        if ocr_present
        else np.zeros(dims["ocr_sentiment"], np.float32),
        asr_sentiment=rng.random(dims["asr_sentiment"], dtype=np.float32)
        if asr_present
        else np.zeros(dims["asr_sentiment"], np.float32),
        ocr_present=ocr_present,
        asr_present=asr_present,
    )


def video_digest(vf: VideoFeatures) -> str:
    """sha256 over every field of a video, so equal digests mean the
    decoded container equals the generated features bit for bit."""
    h = hashlib.sha256()
    meta = [vf.video_id, int(vf.label), vf.ocr_present, vf.asr_present]
    h.update(json.dumps(meta).encode("utf-8"))
    for arr in (
        vf.clip,
        vf.beats,
        vf.expression,
        vf.expression_frame_index,
        vf.ocr_sentiment,
        vf.asr_sentiment,
    ):
        h.update(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def write_inputs(out_dir: str, plan: Plan, seed: int, workload: str) -> dict:
    """Write the files `workload` reads into out_dir and describe them.

    train_paper gets the train split's containers and its manifest.
    predict_single gets the test split's containers and manifest, stats
    over the (unwritten) train split, and a seeded, untrained checkpoint
    carrying that stats digest.
    """
    split = "train" if workload == "train_paper" else "test"
    os.makedirs(os.path.join(out_dir, split), exist_ok=True)
    rows, digests, paths = [], {}, []
    count = plan.train_videos if split == "train" else plan.test_videos
    for i in range(count):
        vf = make_video(plan, seed, split, i)
        rel = os.path.join(split, f"{vf.video_id}.vmf")
        write_container(vf, os.path.join(out_dir, rel))
        rows.append(ManifestRow(vf.video_id, vf.label, split, rel))
        digests[vf.video_id] = video_digest(vf)
        paths.append(os.path.join(out_dir, rel))
    manifest_path = os.path.join(out_dir, "manifest.csv")
    write_manifest(DatasetManifest(rows), manifest_path)
    spec = {
        "plan": asdict(plan),
        "seed": seed,
        "workload": workload,
        "manifest": manifest_path,
        "containers": paths,
        "digests": digests,
    }
    if split == "test":
        train = [make_video(plan, seed, "train", i) for i in range(plan.train_videos)]
        stats = compute_stats(DatasetManifest(), videos=train)
        del train
        spec["stats"] = os.path.join(out_dir, "stats.json")
        save_stats(stats, spec["stats"])
        spec["checkpoint"] = os.path.join(out_dir, "model.vmf")
        config = plan.model_config()
        save_checkpoint(
            spec["checkpoint"], init_params(config, seed=seed), config, seed, stats.digest()
        )
    with open(os.path.join(out_dir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--plan", help="JSON Plan overrides (tests use a tiny plan)")
    args = ap.parse_args(argv)
    plan = Plan(**json.loads(args.plan)) if args.plan else PAPER
    write_inputs(args.out, plan, args.seed, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
