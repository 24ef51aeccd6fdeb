"""Dataset manifest, normalization statistics, sampling and split logic.

The manifest is a UTF-8 CSV with header ``video_id,label,split,path``;
labels are lowercase emotion names and split is one of train / test /
validation. Relative feature paths resolve against the manifest's own
directory, falling back to $VEMOCLAP_DATA_DIR for files not found there.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .container import (
    MODALITY_NAMES,
    EmotionLabel,
    VideoFeatures,
    atomic_write_bytes,
    read_container,
)
from .rng import SplitMix64

log = logging.getLogger(__name__)

DATA_DIR_ENV = "VEMOCLAP_DATA_DIR"
VALID_SPLITS = ("train", "test", "validation")

MANIFEST_HEADER = ["video_id", "label", "split", "path"]


@dataclass(frozen=True)
class ManifestRow:
    video_id: str
    label: EmotionLabel
    split: str
    path: str


@dataclass
class DatasetManifest:
    """Rows of (video_id, label, split, feature_file_path).

    `base_dir` remembers where the manifest was loaded from, for relative
    path resolution; it is not serialized.
    """

    rows: list[ManifestRow] = field(default_factory=list)
    base_dir: Optional[str] = None

    def __len__(self) -> int:
        return len(self.rows)

    def split_rows(self, split: str) -> list[ManifestRow]:
        if split not in VALID_SPLITS:
            raise ValueError(f"unknown split {split!r}; expected one of {VALID_SPLITS}")
        return [r for r in self.rows if r.split == split]

    def split_sizes(self) -> dict[str, int]:
        sizes = {s: 0 for s in VALID_SPLITS}
        for r in self.rows:
            sizes[r.split] += 1
        return {s: n for s, n in sizes.items() if n}

    def resolve_path(self, row: ManifestRow) -> str:
        """Absolute paths pass through; relative ones resolve against the
        manifest's directory, with $VEMOCLAP_DATA_DIR as the fallback root
        when the file is not there."""
        if os.path.isabs(row.path):
            return row.path
        candidates = []
        if self.base_dir:
            candidates.append(os.path.join(self.base_dir, row.path))
        env_root = os.environ.get(DATA_DIR_ENV)
        if env_root:
            candidates.append(os.path.join(env_root, row.path))
        if not candidates:
            candidates.append(row.path)
        for candidate in candidates:
            if os.path.exists(candidate):
                return candidate
        return candidates[0]

    def load_video(self, row: ManifestRow) -> VideoFeatures:
        vf = read_container(self.resolve_path(row))
        if vf.video_id != row.video_id:
            raise ValueError(
                f"manifest row {row.video_id!r} points at container for {vf.video_id!r}"
            )
        if vf.label != row.label:
            raise ValueError(
                f"label mismatch for {row.video_id!r}: manifest says {row.label.label_name}, "
                f"container says {vf.label.label_name}"
            )
        return vf

    def load_split(self, split: str) -> list[VideoFeatures]:
        return [self.load_video(r) for r in self.split_rows(split)]


def read_manifest(path) -> DatasetManifest:
    path = os.fspath(path)
    rows = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ValueError(f"manifest header must be {MANIFEST_HEADER}, got {header}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(rec)}")
            video_id, label, split, fpath = rec
            if split not in VALID_SPLITS:
                raise ValueError(f"{path}:{lineno}: unknown split {split!r}")
            if video_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate video_id {video_id!r}")
            seen.add(video_id)
            try:
                emotion = EmotionLabel.from_name(label)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rows.append(ManifestRow(video_id, emotion, split, fpath))
    return DatasetManifest(rows, base_dir=os.path.dirname(os.path.abspath(path)))


def write_manifest(manifest: DatasetManifest, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MANIFEST_HEADER)
    for r in manifest.rows:
        writer.writerow([r.video_id, r.label.label_name, r.split, r.path])
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def read_blacklist(path) -> list[str]:
    """Plain text, one video_id per line; blank lines and #-comments ignored."""
    ids = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                ids.append(line)
    return ids


# ---------------------------------------------------------------------------
# Normalization statistics


@dataclass
class ModalityStats:
    """Per-modality, per-channel min/max vectors from the training split.

    Read-only once built. Construction also fixes what `normalize` needs
    per modality: the span max - min with constant channels set to 1, and
    the indices of those constant channels.
    """

    minima: dict[str, np.ndarray]
    maxima: dict[str, np.ndarray]
    _spans: dict[str, tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._spans = {}
        for name, lo in self.minima.items():
            span = self.maxima[name] - lo
            degenerate = span == 0.0
            safe_span = np.where(degenerate, np.float32(1.0), span)
            self._spans[name] = (safe_span, np.flatnonzero(degenerate))

    def channel_dims(self) -> dict[str, int]:
        return {name: int(v.shape[0]) for name, v in self.minima.items()}

    def to_json_obj(self) -> dict:
        return {
            name: {
                "min": [float(v) for v in self.minima[name]],
                "max": [float(v) for v in self.maxima[name]],
            }
            for name in MODALITY_NAMES
        }

    @classmethod
    def from_json_obj(cls, obj) -> "ModalityStats":
        """Inverse of `to_json_obj`. Anything but finite 1-D min/max lists of
        equal length with min <= max is a ValueError naming the modality."""
        if not isinstance(obj, dict):
            raise ValueError(f"stats must be a JSON object, got {type(obj).__name__}")
        minima, maxima = {}, {}
        for name in MODALITY_NAMES:
            if name not in obj:
                raise ValueError(f"stats file is missing modality {name!r}")
            entry = obj[name]
            for key, out in (("min", minima), ("max", maxima)):
                out[name] = _stats_bound(name, key, entry.get(key) if isinstance(entry, dict) else None)
            if minima[name].shape != maxima[name].shape:
                raise ValueError(f"stats for {name!r} have mismatched min/max lengths")
            if np.any(minima[name] > maxima[name]):
                raise ValueError(f"stats for {name!r} violate min <= max")
        return cls(minima, maxima)

    def digest(self) -> str:
        """sha256 over the canonical JSON serialization."""
        blob = json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _stats_bound(name: str, key: str, bound) -> np.ndarray:
    """One modality's "min" or "max" list as a finite 1-D float32 vector."""
    # Integers at or past 2**128 overflow float() itself; smaller ones and
    # floats past the float32 range become inf.
    if not isinstance(bound, list) or not all(
        type(v) is float or (type(v) is int and abs(v) < 2**128) for v in bound
    ):
        raise ValueError(f"stats for {name!r}: {key!r} must be a list of numbers")
    with np.errstate(over="ignore"):
        arr = np.asarray(bound, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"stats for {name!r}: {key!r} holds values that are not finite float32")
    return arr


def save_stats(stats: ModalityStats, path) -> None:
    blob = json.dumps(stats.to_json_obj(), sort_keys=True, indent=1)
    atomic_write_bytes(path, (blob + "\n").encode("utf-8"))


def load_stats(path) -> ModalityStats:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"stats file {path} nests too deeply") from None
    return ModalityStats.from_json_obj(obj)


def compute_stats(
    manifest: DatasetManifest,
    split: str = "train",
    videos: Optional[Sequence[VideoFeatures]] = None,
) -> ModalityStats:
    """Global per-channel min/max over every vector occurrence in the split.

    Every temporal row of clip/beats/expression counts as one occurrence;
    sentiment vectors count once per video. Sentiment vectors flagged
    absent and empty expression blocks contribute nothing; a modality with
    no occurrences at all gets min = max = 0 (and thus normalizes to the
    constant-channel value 0.5). From a manifest, each container is folded
    as it is read, so one decoded video is alive at a time.
    """
    if videos is None:
        rows = manifest.split_rows(split)
        if not rows:
            raise ValueError(f"split {split!r} is empty; cannot compute statistics")
        videos = map(manifest.load_video, rows)
    elif not videos:
        raise ValueError("no videos supplied; cannot compute statistics")

    minima: dict[str, np.ndarray] = {}
    maxima: dict[str, np.ndarray] = {}

    def fold(name: str, block: np.ndarray) -> None:
        lo = block.min(axis=0)
        hi = block.max(axis=0)
        if name not in minima:
            minima[name], maxima[name] = lo.copy(), hi.copy()
        else:
            np.minimum(minima[name], lo, out=minima[name])
            np.maximum(maxima[name], hi, out=maxima[name])

    dims = None
    for vf in videos:
        dims = dims or vf.channel_dims()
        if vf.channel_dims() != dims:
            raise ValueError(
                f"video {vf.video_id!r} has channel dims {vf.channel_dims()}, expected {dims}"
            )
        fold("clip", vf.clip)
        fold("beats", vf.beats)
        if vf.k > 0:
            fold("expression", vf.expression)
        if vf.ocr_present:
            fold("ocr_sentiment", vf.ocr_sentiment[None, :])
        if vf.asr_present:
            fold("asr_sentiment", vf.asr_sentiment[None, :])
        del vf  # before the next container is decoded

    for name in MODALITY_NAMES:
        if name not in minima:
            minima[name] = np.zeros(dims[name], dtype=np.float32)
            maxima[name] = np.zeros(dims[name], dtype=np.float32)
            log.warning("no occurrences of modality %r in split; stats degenerate", name)
    return ModalityStats(minima, maxima)


NORMALIZED_CLAMP = (-1.0, 2.0)


def normalize(x: np.ndarray, name: str, stats: ModalityStats) -> np.ndarray:
    """(x - min) / (max - min) per channel.

    Constant channels (max == min) map to 0.5; values from outside the
    training range are clamped to [-1, 2].
    """
    lo = stats.minima[name]
    x = np.asarray(x, dtype=np.float32)
    if x.shape[-1] != lo.shape[0]:
        raise ValueError(
            f"modality {name!r}: channel dim {x.shape[-1]} does not match stats dim {lo.shape[0]}"
        )
    safe_span, degenerate = stats._spans[name]
    out = x - lo
    out /= safe_span
    if degenerate.size:
        out[..., degenerate] = 0.5
    np.clip(out, *NORMALIZED_CLAMP, out=out)
    return out.astype(np.float32, copy=False)


def normalize_features(rows: dict[str, np.ndarray], stats: ModalityStats) -> dict[str, np.ndarray]:
    """`select_frames`' arrays, each min-max normalized into a new array.

    An empty face block passes through as it is: it holds no value, and
    `forward` does not read its width.
    """
    return {name: normalize(x, name, stats) if len(x) else x for name, x in rows.items()}


# ---------------------------------------------------------------------------
# Temporal sampling


def sample_indices(
    total: int,
    n: int,
    mode: str = "equidistant",
    rng: Optional[SplitMix64] = None,
) -> np.ndarray:
    """Pick n frame indices from range(total).

    equidistant: index_i = floor(i * (total-1) / (n-1)), or [0] for n == 1.
    random: n distinct indices without replacement, sorted ascending.
    In both modes, when total < n the full range [0, total) is padded with
    repeats of the last index up to length n.
    """
    if total < 1 or n < 1:
        raise ValueError(f"total and n must be >= 1, got total={total}, n={n}")
    if mode not in ("equidistant", "random"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if total < n:
        head = np.arange(total, dtype=np.int64)
        pad = np.full(n - total, total - 1, dtype=np.int64)
        return np.concatenate([head, pad])
    if mode == "equidistant":
        if n == 1:
            return np.zeros(1, dtype=np.int64)
        i = np.arange(n, dtype=np.int64)
        return (i * (total - 1)) // (n - 1)
    if rng is None:
        raise ValueError("random sampling requires an rng")
    return rng.sample_without_replacement(total, n).astype(np.int64)


def select_frames(
    videos: Sequence[VideoFeatures], indices: Sequence[Sequence[int]]
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gather a batch into one row-stacked array per modality, plus each
    video's kept face count.

    Video b's n `indices[b]` pick its clip and beats rows, rows b*n ..
    (b+1)*n of [B*n, C] arrays. Its face rows whose frame is among them
    follow the previous video's in a [sum(faces), C] array, in stored
    order. Its sentiment vectors are row b of [B, C] arrays.
    """
    if len(videos) != len(indices) or not videos:
        raise ValueError(
            f"one index list per video, at least one: got {len(indices)} for {len(videos)}"
        )
    idx = [np.asarray(i, dtype=np.int64) for i in indices]
    n = idx[0].size
    keep, widths = [], {}
    for vf, i in zip(videos, idx):
        if i.ndim != 1 or i.size < 1 or i.size != n:
            raise ValueError("indices must be nonempty 1-D sequences of one length")
        if i.min() < 0 or i.max() >= vf.n_stored:
            raise ValueError(f"video {vf.video_id!r}: frame index out of range [0, {vf.n_stored})")
        # A set lookup per face: np.isin costs about 5x as much on rows this short.
        picked = set(i.tolist())
        keep.append([r for r, frame in enumerate(vf.expression_frame_index.tolist()) if frame in picked])
        for name, width in vf.channel_dims().items():
            # A video that keeps no face adds no row, so its face width is not read.
            if (keep[-1] or name != "expression") and widths.setdefault(name, width) != width:
                raise ValueError(f"video {vf.video_id!r}: {name!r} has {width} channels, not {widths[name]}")
    faces = np.array([len(k) for k in keep])
    rows = {name: np.empty((len(videos) * n, widths[name]), np.float32) for name in ("clip", "beats")}
    rows["expression"] = np.empty((int(faces.sum()), widths.get("expression", 0)), np.float32)
    ends = np.cumsum(faces)
    for v, (vf, i, k) in enumerate(zip(videos, idx, keep)):
        # Every index is checked above, so "clip" never clips; unlike the
        # default "raise", it writes straight into `out`.
        np.take(vf.clip, i, axis=0, out=rows["clip"][v * n:(v + 1) * n], mode="clip")
        np.take(vf.beats, i, axis=0, out=rows["beats"][v * n:(v + 1) * n], mode="clip")
        if k:
            face_rows = rows["expression"][ends[v] - len(k):ends[v]]
            np.take(vf.expression, k, axis=0, out=face_rows, mode="clip")
    for name in ("ocr_sentiment", "asr_sentiment"):
        rows[name] = np.stack([getattr(vf, name) for vf in videos])
    return rows, faces


# ---------------------------------------------------------------------------
# Split construction


def apply_blacklist(
    manifest: DatasetManifest, blacklist: Iterable[str]
) -> tuple[DatasetManifest, dict[str, int]]:
    """Drop blacklisted rows; returns (cleaned manifest, removed-per-split).

    Blacklist ids absent from the manifest only log a warning.
    """
    banned = set(blacklist)
    present = {r.video_id for r in manifest.rows}
    for missing in sorted(banned - present):
        log.warning("blacklist id %r not present in manifest", missing)
    removed: dict[str, int] = {}
    kept = []
    for r in manifest.rows:
        if r.video_id in banned:
            removed[r.split] = removed.get(r.split, 0) + 1
        else:
            kept.append(r)
    return DatasetManifest(kept, base_dir=manifest.base_dir), removed


def build_app_split(manifest: DatasetManifest) -> DatasetManifest:
    """Per emotion class, sort video_ids ascending (bytewise) and send the
    first ceil(0.95 * m) to train, the rest to validation."""
    by_class: dict[EmotionLabel, list[ManifestRow]] = {}
    for r in manifest.rows:
        by_class.setdefault(r.label, []).append(r)

    out: list[ManifestRow] = []
    for label in sorted(by_class):
        rows = sorted(by_class[label], key=lambda r: r.video_id.encode("utf-8"))
        m = len(rows)
        n_train = math.ceil(0.95 * m)
        if m < 2:
            log.warning(
                "class %s has %d video(s); its validation share is empty", label.label_name, m
            )
        for i, r in enumerate(rows):
            split = "train" if i < n_train else "validation"
            out.append(ManifestRow(r.video_id, r.label, split, r.path))
    return DatasetManifest(out, base_dir=manifest.base_dir)


def carve_validation(
    manifest: DatasetManifest, fraction: float = 0.10, seed: int = 0
) -> tuple[DatasetManifest, DatasetManifest]:
    """Move round(fraction * m) train rows per class to validation.

    Selection is a seeded shuffle within each class (rounding is
    half-up). Rows outside the train split pass through untouched on the
    train side.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    train_rows = [r for r in manifest.rows if r.split == "train"]
    other_rows = [r for r in manifest.rows if r.split != "train"]

    by_class: dict[EmotionLabel, list[ManifestRow]] = {}
    for r in train_rows:
        by_class.setdefault(r.label, []).append(r)

    rng = SplitMix64(seed).derive("carve_validation")
    val_ids: set[str] = set()
    for label in sorted(by_class):
        rows = by_class[label]
        n_val = int(math.floor(fraction * len(rows) + 0.5))
        shuffled = rng.derive(int(label)).shuffle(rows)
        val_ids.update(r.video_id for r in shuffled[:n_val])

    kept_train = [r for r in train_rows if r.video_id not in val_ids]
    val = [
        ManifestRow(r.video_id, r.label, "validation", r.path)
        for r in train_rows
        if r.video_id in val_ids
    ]
    train = DatasetManifest(kept_train + other_rows, base_dir=manifest.base_dir)
    validation = DatasetManifest(val, base_dir=manifest.base_dir)
    return train, validation
