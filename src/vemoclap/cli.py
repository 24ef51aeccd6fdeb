"""Command-line surface for reproducible experiments.

Subcommands: stats, train, eval, predict, clean, split-app, synth,
gradcheck. Every error path exits nonzero with a message on stderr, and
every file write goes through write-to-temp-then-rename, so a failed run
leaves no partial outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys

import numpy as np

from . import autograd as ag
from .container import MODALITY_NAMES, EmotionLabel, VideoFeatures, read_container
from .dataset import (
    apply_blacklist,
    build_app_split,
    carve_validation,
    compute_stats,
    load_stats,
    read_blacklist,
    read_manifest,
    save_stats,
    select_frames,
    write_manifest,
)
from .metrics import (
    RunReport,
    confusion,
    format_report_table,
    write_confusion_csv,
    write_predictions_csv,
    write_report_json,
)
from .model import (
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .rng import SplitMix64
from .synth import DEFAULT_DIMS, synth_dataset
from .training import TrainConfig, cross_entropy, evaluate, predict_label, train, write_history


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


@contextlib.contextmanager
def _logs_to_stderr(level):
    """Route the package's log records at `level` and above to stderr for
    the duration of one command; without a level, logging is left alone."""
    if level is None:
        yield
        return
    logger = logging.getLogger("vemoclap")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.setLevel(level)
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=16, help="frames/audio chunks per video")
    p.add_argument("--heads", type=int, default=4, help="attention heads")
    p.add_argument("--dim", type=int, default=512, help="common attention dimensionality")
    p.add_argument("--dropout", type=float, default=0.5, help="dropout probability")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vemoclap",
        description="Video emotion classification over pretrained multimodal features.",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        help="show the package's log records at this level and above on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "stats", help="compute per-channel min/max normalization statistics over the train split"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("train", help="train the fusion classifier")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument(
        "--val-fraction",
        type=float,
        default=0.10,
        help="train share carved off for validation when the manifest has none",
    )
    _add_model_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True, help="report base path; writes <out>.json and <out>.confusion.csv")
    p.add_argument(
        "--predictions",
        help="also write one CSV row per video: id, true and predicted label, class probabilities",
    )
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="classify one feature container")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--container", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("clean", help="drop blacklisted videos from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--blacklist", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_clean)

    p = sub.add_parser("split-app", help="per-class alphabetical 95/5 train/validation split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split_app)

    p = sub.add_parser("synth", help="generate a synthetic separable dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--videos-per-class", type=int, default=10)
    p.add_argument("--test-per-class", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=10.0)
    p.add_argument("--n", type=int, default=16, help="stored frames per video")
    p.add_argument(
        "--dims",
        default=None,
        help="comma list clip,beats,expression,sentiment channel dims "
        f"(default {DEFAULT_DIMS['clip']},{DEFAULT_DIMS['beats']},"
        f"{DEFAULT_DIMS['expression']},{DEFAULT_DIMS['ocr_sentiment']})",
    )
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("gradcheck", help="finite-difference verification at a tiny config")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--feature-dim", type=int, default=8)
    p.add_argument("--videos", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def cmd_stats(args) -> int:
    manifest = read_manifest(args.manifest)
    stats = compute_stats(manifest)
    save_stats(stats, args.out)
    print(f"stats over split 'train' written to {args.out} (digest {stats.digest()[:12]})")
    return 0


def _model_config_from_flags(args, input_dims) -> ModelConfig:
    return ModelConfig(
        input_dims=input_dims,
        d=args.dim,
        heads=args.heads,
        dropout_p=args.dropout,
        n=args.n,
    )


def cmd_train(args) -> int:
    manifest = read_manifest(args.manifest)
    stats = load_stats(args.stats)
    config = _model_config_from_flags(args, stats.channel_dims())
    tconf = TrainConfig(
        batch_size=args.batch_size,
        lr=args.lr,
        max_epochs=args.max_epochs,
        patience=args.patience,
        seed=args.seed,
    )
    train_manifest, val_videos = manifest, manifest.load_split("validation")
    if not val_videos:
        train_manifest, val_manifest = carve_validation(
            manifest, fraction=args.val_fraction, seed=args.seed
        )
        val_videos = val_manifest.load_split("validation")
        if not val_videos:
            raise ValueError(
                f"--val-fraction {args.val_fraction:g} carves no validation videos from the "
                "train split; raise it or give the manifest a validation split"
            )
        print(f"carved {len(val_videos)} validation videos from the train split")
    train_videos = train_manifest.load_split("train")

    params = init_params(config, seed=args.seed)
    print(f"model has {param_count(params)} trainable parameters")
    result = train(train_videos, val_videos, params, config, tconf, stats)
    save_checkpoint(args.out, result.params, config, seed=args.seed, stats_digest=stats.digest())
    history_path = args.history or f"{args.out}.history.csv"
    write_history(result.history, history_path)
    print(
        f"best epoch {result.best_epoch} with validation accuracy "
        f"{result.best_val_accuracy * 100.0:.2f}%"
    )
    print(f"checkpoint: {args.out}\nhistory: {history_path}")
    return 0


def _load_checkpoint_with_stats(checkpoint_path, stats_path):
    params, config, header = load_checkpoint(checkpoint_path)
    stats = load_stats(stats_path)
    if header.get("stats_digest") != stats.digest():
        raise ValueError(
            "stats file digest does not match the digest recorded in the checkpoint; "
            "normalization would differ from training"
        )
    return params, config, header, stats


def cmd_eval(args) -> int:
    manifest = read_manifest(args.manifest)
    params, config, header, stats = _load_checkpoint_with_stats(args.checkpoint, args.stats)
    videos = manifest.load_split(args.split)
    if not videos:
        raise ValueError(f"split {args.split!r} of manifest {args.manifest} has no videos to evaluate")
    result = evaluate(videos, params, config, stats)
    matrix = confusion(result.predicted_labels, result.true_labels)
    report = RunReport(
        accuracy=result.accuracy,
        confusion=matrix,
        seed=int(header.get("seed", 0)),
        split=args.split,
        split_sizes=manifest.split_sizes(),
        model_config_digest=config.digest(),
        stats_digest=stats.digest(),
    )
    write_report_json(report, f"{args.out}.json")
    write_confusion_csv(matrix, f"{args.out}.confusion.csv")
    if args.predictions:
        write_predictions_csv(
            args.predictions,
            result.video_ids,
            result.true_labels,
            result.predicted_labels,
            result.probabilities,
        )
    print(format_report_table(report))
    print(f"\nreport: {args.out}.json\nconfusion: {args.out}.confusion.csv")
    if args.predictions:
        print(f"predictions: {args.predictions}")
    return 0


def cmd_predict(args) -> int:
    params, config, _header, stats = _load_checkpoint_with_stats(args.checkpoint, args.stats)
    vf = read_container(args.container)
    label, probs = predict_label(vf, params, config, stats)
    payload = {
        "video_id": vf.video_id,
        "predicted": EmotionLabel(label).label_name,
        "probabilities": {
            EmotionLabel(i).label_name: float(p) for i, p in enumerate(probs)
        },
    }
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def cmd_clean(args) -> int:
    manifest = read_manifest(args.manifest)
    blacklist = read_blacklist(args.blacklist)
    cleaned, removed = apply_blacklist(manifest, blacklist)
    write_manifest(cleaned, args.out)
    print(f"removed {removed.get('train', 0)} train / {removed.get('test', 0)} test")
    extra = {k: v for k, v in removed.items() if k not in ("train", "test")}
    for split, count in sorted(extra.items()):
        print(f"removed {count} {split}")
    print(f"cleaned manifest: {args.out} ({len(cleaned)} rows)")
    return 0


def cmd_split_app(args) -> int:
    manifest = read_manifest(args.manifest)
    split = build_app_split(manifest)
    write_manifest(split, args.out)
    sizes = split.split_sizes()
    print(
        f"app split: {sizes.get('train', 0)} train / {sizes.get('validation', 0)} validation "
        f"-> {args.out}"
    )
    return 0


def cmd_synth(args) -> int:
    dims = None
    if args.dims:
        parts = [int(x) for x in args.dims.split(",")]
        if len(parts) != 4:
            raise ValueError("--dims needs exactly 4 integers: clip,beats,expression,sentiment")
        dims = {
            "clip": parts[0],
            "beats": parts[1],
            "expression": parts[2],
            "ocr_sentiment": parts[3],
            "asr_sentiment": parts[3],
        }
    result = synth_dataset(
        args.out,
        videos_per_class=args.videos_per_class,
        test_videos_per_class=args.test_per_class,
        seed=args.seed,
        margin=args.margin,
        n_stored=args.n,
        dims=dims,
    )
    print(
        f"wrote {len(result.manifest)} containers to {args.out} "
        f"(nearest-mean oracle accuracy {result.oracle_accuracy:.4f})"
    )
    return 0


def cmd_gradcheck(args) -> int:
    fd = args.feature_dim
    dims = {name: fd for name in MODALITY_NAMES}
    config = ModelConfig(
        input_dims=dims, d=args.dim, heads=args.heads, dropout_p=0.0, n=args.n
    )
    params = init_params(config, seed=args.seed, dtype=np.float64)
    rng = SplitMix64(args.seed).derive("gradcheck-data")

    videos = []
    for v in range(args.videos):
        k = v % (args.n + 1)
        videos.append(
            VideoFeatures(
                video_id=f"gc{v}",
                label=v % 6,
                clip=rng.uniform(0.0, 1.0, (args.n, fd), dtype=np.float32),
                beats=rng.uniform(0.0, 1.0, (args.n, fd), dtype=np.float32),
                expression=rng.uniform(0.0, 1.0, (k, fd), dtype=np.float32),
                expression_frame_index=np.arange(k, dtype=np.int64),
                ocr_sentiment=rng.uniform(0.0, 1.0, (fd,), dtype=np.float32),
                asr_sentiment=rng.uniform(0.0, 1.0, (fd,), dtype=np.float32),
            )
        )
    labels = [int(vf.label) for vf in videos]
    # Every frame, as stored; the features are drawn in [0, 1] like
    # normalized ones, so they go to the model as they are.
    rows, faces = select_frames(videos, [np.arange(args.n)] * len(videos))

    def loss_fn(_ignored):
        return cross_entropy(forward(rows, faces, params, config), labels)

    failures = 0
    worst = 0.0
    for name, tensor in params.named_tensors():
        report = ag.grad_check(loss_fn, tensor, eps=args.eps, tol=args.tol)
        worst = max(worst, report.max_rel_err)
        status = "PASS" if report.passed else "FAIL"
        if not report.passed:
            failures += 1
        print(f"{status}  {name:<24} max rel err {report.max_rel_err:.3e} ({report.checked} entries)")
    print(
        f"\n{'PASS' if failures == 0 else 'FAIL'}: {len(params.named_tensors()) - failures}/"
        f"{len(params.named_tensors())} parameter tensors within tol {args.tol:g} "
        f"(worst {worst:.3e})"
    )
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _logs_to_stderr(args.log_level):
            return args.fn(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surface every failure as exit code + stderr line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
