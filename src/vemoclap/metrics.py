"""Classification metrics and run reports."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .container import CLASS_COUNT, EmotionLabel, atomic_write_bytes

CLASS_NAMES = [label.label_name for label in EmotionLabel]


@dataclass
class ConfusionMatrix:
    """6x6 counts (rows = true, columns = predicted) plus the row-normalized view."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (CLASS_COUNT, CLASS_COUNT):
            raise ValueError(f"confusion matrix must be {CLASS_COUNT}x{CLASS_COUNT}")
        if np.any(self.counts < 0):
            raise ValueError("confusion counts must be nonnegative")

    @property
    def normalized(self) -> np.ndarray:
        """Rows normalized over true labels; all-zero rows stay all zero."""
        sums = self.counts.sum(axis=1, keepdims=True)
        safe = np.where(sums == 0, 1, sums)
        out = self.counts.astype(np.float64) / safe
        return np.where(sums == 0, 0.0, out)

    def per_class_recall(self) -> np.ndarray:
        sums = self.counts.sum(axis=1)
        return np.where(sums == 0, 0.0, np.diag(self.counts) / np.where(sums == 0, 1, sums))

    def per_class_precision(self) -> np.ndarray:
        sums = self.counts.sum(axis=0)
        return np.where(sums == 0, 0.0, np.diag(self.counts) / np.where(sums == 0, 1, sums))


def confusion(preds: Sequence[int], labels: Sequence[int]) -> ConfusionMatrix:
    if len(preds) != len(labels):
        raise ValueError(f"got {len(preds)} predictions for {len(labels)} labels")
    if len(labels) < 1:
        raise ValueError("need at least one (prediction, label) pair")
    counts = np.zeros((CLASS_COUNT, CLASS_COUNT), dtype=np.int64)
    for p, t in zip(preds, labels):
        p, t = int(p), int(t)
        if not (0 <= p < CLASS_COUNT and 0 <= t < CLASS_COUNT):
            raise ValueError(f"class index out of range: pred={p}, true={t}")
        counts[t, p] += 1
    return ConfusionMatrix(counts)


@dataclass
class RunReport:
    accuracy: float
    confusion: ConfusionMatrix
    seed: int
    split: str
    split_sizes: dict[str, int]
    model_config_digest: str
    stats_digest: str

    def to_json_obj(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "accuracy_percent": round(self.accuracy * 100.0, 2),
            "class_names": CLASS_NAMES,
            "confusion_counts": self.confusion.counts.tolist(),
            "confusion_normalized": self.confusion.normalized.tolist(),
            "per_class_precision": self.confusion.per_class_precision().tolist(),
            "per_class_recall": self.confusion.per_class_recall().tolist(),
            "seed": self.seed,
            "split": self.split,
            "split_sizes": self.split_sizes,
            "model_config_digest": self.model_config_digest,
            "stats_digest": self.stats_digest,
        }


def write_report_json(report: RunReport, path) -> None:
    blob = json.dumps(report.to_json_obj(), sort_keys=True, indent=1)
    atomic_write_bytes(path, (blob + "\n").encode("utf-8"))


def confusion_csv(matrix: ConfusionMatrix) -> str:
    """Row-normalized confusion matrix as CSV, one row per true label."""
    buf = io.StringIO()
    buf.write("true\\pred," + ",".join(CLASS_NAMES) + "\n")
    normalized = matrix.normalized
    for i, name in enumerate(CLASS_NAMES):
        cells = ",".join(f"{v:.6f}" for v in normalized[i])
        buf.write(f"{name},{cells}\n")
    return buf.getvalue()


def write_confusion_csv(matrix: ConfusionMatrix, path) -> None:
    atomic_write_bytes(path, confusion_csv(matrix).encode("utf-8"))


def write_predictions_csv(
    path,
    video_ids: Sequence[str],
    true_labels: Sequence[int],
    predicted_labels: Sequence[int],
    probabilities: np.ndarray,
) -> None:
    """One CSV row per video: id, true and predicted class names, then each
    class's probability as the shortest repr that reads back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["video_id", "true", "predicted", *CLASS_NAMES])
    for vid, t, p, probs in zip(video_ids, true_labels, predicted_labels, probabilities):
        writer.writerow([vid, CLASS_NAMES[t], CLASS_NAMES[p], *(repr(float(x)) for x in probs)])
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def format_report_table(report: RunReport) -> str:
    """Aligned text table mirroring the JSON payload, percentages at 2 dp."""
    lines = [
        f"split: {report.split}    videos: {report.split_sizes.get(report.split, 0)}",
        f"accuracy: {report.accuracy * 100.0:.2f}%",
        "",
        f"{'class':<10}{'precision':>11}{'recall':>11}",
    ]
    precision = report.confusion.per_class_precision()
    recall = report.confusion.per_class_recall()
    for i, name in enumerate(CLASS_NAMES):
        lines.append(f"{name:<10}{precision[i] * 100.0:>10.2f}%{recall[i] * 100.0:>10.2f}%")
    lines.append("")
    lines.append("confusion (rows = true, normalized):")
    header = " " * 10 + "".join(f"{n[:8]:>10}" for n in CLASS_NAMES)
    lines.append(header)
    normalized = report.confusion.normalized
    for i, name in enumerate(CLASS_NAMES):
        cells = "".join(f"{v:>10.4f}" for v in normalized[i])
        lines.append(f"{name:<10}{cells}")
    return "\n".join(lines)
