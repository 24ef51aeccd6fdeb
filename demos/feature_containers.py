"""The on-disk feature pipeline: containers, manifests, stats, sampling, batches."""

import os
import tempfile

import numpy as np

from vemoclap.container import EmotionLabel, VideoFeatures, read_container, write_container
from vemoclap.dataset import (
    DatasetManifest,
    ManifestRow,
    compute_stats,
    normalize,
    normalize_features,
    read_manifest,
    sample_indices,
    select_frames,
    write_manifest,
)
from vemoclap.rng import SplitMix64

rng = np.random.default_rng(1)
workdir = tempfile.mkdtemp(prefix="vemoclap-demo-")
print("working in", workdir)

# A video stores n frames of CLIP + BEATs features, k <= n expression rows
# (one per frame with a detected face) and two sentiment vectors.
video = VideoFeatures(
    video_id="demo_0001",
    label=EmotionLabel.SURPRISE,
    clip=rng.standard_normal((8, 6)).astype(np.float32),
    beats=rng.standard_normal((8, 4)).astype(np.float32),
    expression=rng.standard_normal((3, 5)).astype(np.float32),
    expression_frame_index=np.array([0, 3, 7]),
    ocr_sentiment=rng.standard_normal(4).astype(np.float32),
    asr_sentiment=np.zeros(4, dtype=np.float32),
    asr_present=False,  # no speech in this video; flag travels with the file
)

path = os.path.join(workdir, "demo_0001.vmf")
write_container(video, path)
back = read_container(path)
print("round trip equal:", back == video, f"({os.path.getsize(path)} bytes, crc-checked)")

# Manifests are plain CSV; relative paths resolve against the manifest dir,
# with $VEMOCLAP_DATA_DIR as the fallback root.
manifest = DatasetManifest([ManifestRow(video.video_id, video.label, "train", "demo_0001.vmf")])
manifest_path = os.path.join(workdir, "manifest.csv")
write_manifest(manifest, manifest_path)
manifest = read_manifest(manifest_path)
print("manifest rows:", len(manifest), "splits:", manifest.split_sizes())

# Min-max stats come from the training split only; normalization maps the
# training range to [0, 1], constant channels to 0.5, outliers clamp to [-1, 2].
stats = compute_stats(manifest, split="train")
normalized = normalize(video.clip, "clip", stats)
print("normalized clip range: [%.3f, %.3f]" % (normalized.min(), normalized.max()))

# Training samples frames at random locations (augmentation); evaluation
# uses equidistant indices. Short videos pad by repeating the last frame.
print("equidistant(32 -> 4):", sample_indices(32, 4).tolist())
print("random(8 -> 4):      ", sample_indices(8, 4, mode="random", rng=SplitMix64(5)).tolist())
print("padded(5 -> 8):      ", sample_indices(5, 8).tolist())

# A batch is gathered once: select_frames stacks each video's sampled
# rows into one array per modality (clip and beats [B*n, C], the kept face
# rows, sentiment [B, C]) and counts each video's kept faces, and
# normalize_features then normalizes each array once.
rows, faces = select_frames([video, back], [sample_indices(8, 4), [0, 3, 3, 7]])
rows = normalize_features(rows, stats)
print(
    "gathered batch: clip", rows["clip"].shape,
    "face rows", rows["expression"].shape,
    "kept faces per video", faces.tolist(),
)
