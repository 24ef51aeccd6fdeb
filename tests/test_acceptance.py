"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 1 (the published 65.28% test accuracy on the real
Ekman-6 features) needs the released feature dump and is recorded as an
explicit skip; everything else runs at desk scale with pinned tolerances.
"""

import math
import time

import numpy as np
import pytest

from vemoclap.autograd import Tensor
from vemoclap.cli import main
from vemoclap.container import EmotionLabel, read_container, write_container
from vemoclap.dataset import (
    DatasetManifest,
    ManifestRow,
    compute_stats,
    read_manifest,
    sample_indices,
    write_manifest,
)
from vemoclap.model import ModelConfig, cross_attention, init_params
from vemoclap.training import TrainConfig, cross_entropy, evaluate, train

from conftest import make_video


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def test_criterion_1_paper_scale_accuracy_documented():
    print(
        "\nACCEPTANCE 1 SKIP: the 65.28% Ekman-6 test accuracy needs the published "
        "feature dump (expected 65.28 +/- 1.5 when converted and run; see README)"
    )
    pytest.skip("paper-scale run requires the released Ekman-6 features")


def test_criterion_2_gradient_integrity(capsys):
    # The criterion names the gradcheck entry point itself: run it at the
    # tiny config (d=8, heads=2, n=4, dims 8/8/8/8, dropout off, float64).
    started = time.time()
    code = main(
        ["gradcheck", "--dim", "8", "--heads", "2", "--n", "4",
         "--feature-dim", "8", "--videos", "2", "--tol", "1e-4"]
    )
    elapsed = time.time() - started
    out = capsys.readouterr().out
    per_param_lines = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
    all_pass = code == 0 and all(line.startswith("PASS") for line in per_param_lines)
    report(
        2,
        all_pass and len(per_param_lines) == 32 and elapsed < 60.0,
        f"gradcheck exit {code}, {sum(l.startswith('PASS') for l in per_param_lines)}/"
        f"{len(per_param_lines)} parameter tensors within rel tol 1e-4 in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_overfit_sanity(tmp_path):
    started = time.time()
    from vemoclap.synth import synth_dataset

    dims = {"clip": 24, "beats": 16, "expression": 16, "ocr_sentiment": 8, "asr_sentiment": 8}
    synth_dataset(
        tmp_path / "d", videos_per_class=10, test_videos_per_class=5,
        seed=42, margin=10.0, n_stored=16, dims=dims,
    )
    manifest = read_manifest(tmp_path / "d" / "manifest.csv")
    train_videos = manifest.load_split("train")
    test_videos = manifest.load_split("test")
    stats = compute_stats(None, videos=train_videos)
    config = ModelConfig(input_dims=stats.channel_dims(), d=32, heads=4, dropout_p=0.5, n=8)
    params = init_params(config, seed=1)
    # Validation == train set: early stopping then tracks train-set fit,
    # which is exactly what an overfit-capacity check wants.
    tconf = TrainConfig(batch_size=32, lr=1e-3, max_epochs=500, patience=30, seed=7)
    result = train(train_videos, train_videos, params, config, tconf, stats)
    train_acc = evaluate(train_videos, result.params, config, stats).accuracy
    test_acc = evaluate(test_videos, result.params, config, stats).accuracy
    elapsed = time.time() - started
    report(
        3,
        train_acc == 1.0 and test_acc >= 0.90 and len(result.history) <= 500 and elapsed < 300.0,
        f"train accuracy {train_acc:.3f} (need 1.0) after {len(result.history)} epochs "
        f"(<= 500), held-out accuracy {test_acc:.3f} (need >= 0.90), {elapsed:.0f}s (< 300s)",
    )


def test_criterion_4_attention_invariants():
    dims = {name: 8 for name in ("clip", "beats", "expression", "ocr_sentiment", "asr_sentiment")}
    config = ModelConfig(input_dims=dims, d=8, heads=4, dropout_p=0.0, n=4)
    worst_perm = 0.0
    worst_mask = 0.0
    data_rng = np.random.default_rng(2024)
    for trial in range(100):
        params = init_params(config, seed=trial, dtype=np.float64).pairings[0]
        t_q = int(data_rng.integers(1, 6))
        t_kv = int(data_rng.integers(2, 7))
        q_seq = data_rng.standard_normal((t_q, 8))
        kv_seq = data_rng.standard_normal((t_kv, 8))

        def attend(kv, kv_mask=None):
            return cross_attention(
                [(Tensor(q_seq, dtype=np.float64), Tensor(kv, dtype=np.float64), params)],
                heads=4,
                kv_masks=None if kv_mask is None else [kv_mask],
            )[0]

        base = attend(kv_seq)
        perm = data_rng.permutation(t_kv)
        permuted = attend(kv_seq[perm])
        worst_perm = max(worst_perm, float(np.max(np.abs(permuted.data - base.data))))

        extended = np.vstack([kv_seq, data_rng.standard_normal((1, 8))])
        mask = np.append(np.ones(t_kv, dtype=bool), False)
        masked = attend(extended, mask)
        worst_mask = max(worst_mask, float(np.max(np.abs(masked.data - base.data))))
    report(
        4,
        worst_perm <= 1e-5 and worst_mask <= 1e-6,
        f"100 trials: kv-permutation deviation {worst_perm:.2e} (<= 1e-5), "
        f"masked-row-append deviation {worst_mask:.2e} (<= 1e-6)",
    )


def test_criterion_5_data_plumbing(tmp_path):
    rng = np.random.default_rng(99)
    # 500 randomized container round trips, bit-exact.
    exact = 0
    for trial in range(500):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        dims = {
            "clip": int(rng.integers(1, 10)),
            "beats": int(rng.integers(1, 10)),
            "expression": int(rng.integers(1, 10)),
            "ocr_sentiment": int(rng.integers(1, 10)),
            "asr_sentiment": 0,
        }
        dims["asr_sentiment"] = dims["ocr_sentiment"]
        vf = make_video(rng, n_stored=n, k=k, dims=dims, label=trial % 6, video_id=f"rt{trial}")
        if trial % 7 == 0:
            vf.ocr_sentiment = np.zeros_like(vf.ocr_sentiment)
            vf.ocr_present = False
        path = tmp_path / "rt.vmf"
        write_container(vf, path)
        if read_container(path) == vf:
            exact += 1

    # compute_stats against an independent brute-force scan.
    videos = [
        make_video(rng, n_stored=int(rng.integers(1, 5)), k=int(rng.integers(0, 3)), video_id=f"s{i}")
        for i in range(12)
    ]
    stats = compute_stats(None, videos=videos)
    stats_ok = True
    gathered = {name: [] for name in ("clip", "beats", "expression", "ocr_sentiment", "asr_sentiment")}
    for vf in videos:
        gathered["clip"].extend(vf.clip)
        gathered["beats"].extend(vf.beats)
        gathered["expression"].extend(vf.expression)
        gathered["ocr_sentiment"].append(vf.ocr_sentiment)
        gathered["asr_sentiment"].append(vf.asr_sentiment)
    for name, rows in gathered.items():
        stacked = np.stack(rows)
        stats_ok &= np.array_equal(stats.minima[name], stacked.min(axis=0))
        stats_ok &= np.array_equal(stats.maxima[name], stacked.max(axis=0))

    equidistant_ok = sample_indices(32, 4).tolist() == [0, 10, 20, 31]
    report(
        5,
        exact == 500 and stats_ok and equidistant_ok,
        f"round trips bit-exact {exact}/500, stats == brute-force scan: {stats_ok}, "
        f"equidistant(32, 4) == [0, 10, 20, 31]: {equidistant_ok}",
    )


def test_criterion_6_paper_bookkeeping(tmp_path, capsys):
    rows = [
        ManifestRow(f"tr{i:04d}", EmotionLabel(i % 6), "train", "x.vmf") for i in range(819)
    ] + [
        ManifestRow(f"te{i:04d}", EmotionLabel(i % 6), "test", "x.vmf") for i in range(818)
    ]
    manifest_path = tmp_path / "manifest.csv"
    write_manifest(DatasetManifest(rows), manifest_path)
    blacklist_path = tmp_path / "ekman_blacklist.txt"
    banned = [f"tr{i:04d}" for i in range(128)] + [f"te{i:04d}" for i in range(130)]
    blacklist_path.write_text("\n".join(banned) + "\n", encoding="utf-8")

    cleaned_path = tmp_path / "cleaned.csv"
    code = main(
        ["clean", "--manifest", str(manifest_path), "--blacklist", str(blacklist_path), "--out", str(cleaned_path)]
    )
    out = capsys.readouterr().out
    cleaned = read_manifest(cleaned_path)
    counts_ok = (
        code == 0
        and "removed 128 train / 130 test" in out
        and len(cleaned.split_rows("train")) == 691
        and len(cleaned.split_rows("test")) == 688
    )

    app_path = tmp_path / "app.csv"
    code2 = main(["split-app", "--manifest", str(cleaned_path), "--out", str(app_path)])
    capsys.readouterr()
    app = read_manifest(app_path)
    split_ok = code2 == 0
    for label in EmotionLabel:
        total = sum(1 for r in app.rows if r.label == label)
        n_train = sum(1 for r in app.rows if r.label == label and r.split == "train")
        split_ok &= n_train == math.ceil(0.95 * total)
    report(
        6,
        counts_ok and split_ok,
        f"clean: 819->691 train, 818->688 test with printed counts ({counts_ok}); "
        f"split-app: ceil(0.95*m) per class ({split_ok})",
    )


def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    artifacts = []
    for run in ("one", "two"):
        base = tmp_path / run
        data = base / "data"
        assert main(
            ["synth", "--out", str(data), "--videos-per-class", "3", "--test-per-class", "2",
             "--seed", "11", "--margin", "9", "--n", "6", "--dims", "10,6,6,4"]
        ) == 0
        stats = base / "stats.json"
        assert main(["stats", "--manifest", str(data / "manifest.csv"), "--out", str(stats)]) == 0
        ckpt = base / "model.ckpt"
        assert main(
            ["train", "--manifest", str(data / "manifest.csv"), "--stats", str(stats),
             "--out", str(ckpt), "--seed", "13", "--n", "4", "--dim", "8", "--heads", "2",
             "--dropout", "0.5", "--lr", "1e-3", "--batch-size", "8", "--max-epochs", "3",
             "--patience", "3", "--val-fraction", "0.2"]
        ) == 0
        rep = base / "report"
        assert main(
            ["eval", "--manifest", str(data / "manifest.csv"), "--stats", str(stats),
             "--checkpoint", str(ckpt), "--split", "test", "--out", str(rep)]
        ) == 0
        capsys.readouterr()
        artifacts.append(
            {
                "history": (base / "model.ckpt.history.csv").read_bytes(),
                "checkpoint": ckpt.read_bytes(),
                "report": (base / "report.json").read_bytes(),
                "confusion": (base / "report.confusion.csv").read_bytes(),
            }
        )
    same = {key: artifacts[0][key] == artifacts[1][key] for key in artifacts[0]}
    report(7, all(same.values()), f"bitwise-identical across two seeded runs: {same}")


def test_criterion_8_loss_calibration():
    probs = Tensor(np.full((5, 6), 1.0 / 6.0, dtype=np.float64))
    uniform_loss = float(cross_entropy(probs, [0, 1, 2, 3, 4]).data)
    ce_ok = abs(uniform_loss - math.log(6.0)) < 1e-6

    from vemoclap.training import AdamState, adam_step

    class OneTensor:
        def __init__(self, t):
            self.t = t

        def named_tensors(self):
            return [("theta", self.t)]

    theta = Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
    holder = OneTensor(theta)
    state = AdamState.for_params(holder)
    tconf = TrainConfig(lr=1e-5)
    adam_step(holder, {"theta": np.ones(64, dtype=np.float32)}, state, tconf)
    step_dev = float(np.max(np.abs(theta.data.astype(np.float64) + tconf.lr)))
    adam_ok = step_dev < 1e-9
    report(
        8,
        ce_ok and adam_ok,
        f"uniform cross-entropy |{uniform_loss:.8f} - ln 6| < 1e-6 ({ce_ok}); "
        f"first Adam step deviation from -lr {step_dev:.2e} < 1e-9 ({adam_ok})",
    )
