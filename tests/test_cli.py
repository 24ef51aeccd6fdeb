import csv
import json

import numpy as np
import pytest

import vemoclap.autograd as ag
from vemoclap.cli import main
from vemoclap.container import EmotionLabel
from vemoclap.dataset import DatasetManifest, ManifestRow, read_manifest, write_manifest
from vemoclap.metrics import CLASS_NAMES

SMALL_DIMS = "8,6,6,4"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def synth_dir(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, err = run(
        [
            "synth", "--out", str(out), "--videos-per-class", "2", "--test-per-class", "1",
            "--seed", "3", "--margin", "9", "--n", "4", "--dims", SMALL_DIMS,
        ],
        capsys,
    )
    assert code == 0, err
    return out


def test_synth_stats_train_eval_predict_pipeline(synth_dir, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    code, out, err = run(
        ["stats", "--manifest", str(synth_dir / "manifest.csv"), "--out", str(stats_path)], capsys
    )
    assert code == 0, err
    assert stats_path.exists()

    ckpt = tmp_path / "model.ckpt"
    code, out, err = run(
        [
            "train", "--manifest", str(synth_dir / "manifest.csv"), "--stats", str(stats_path),
            "--out", str(ckpt), "--seed", "5", "--n", "4", "--dim", "8", "--heads", "2",
            "--dropout", "0.0", "--lr", "1e-3", "--batch-size", "6", "--max-epochs", "2",
            "--val-fraction", "0.25",
        ],
        capsys,
    )
    assert code == 0, err
    assert ckpt.exists()
    assert (tmp_path / "model.ckpt.history.csv").exists()
    assert "trainable parameters" in out

    report_base = tmp_path / "report"
    code, out, err = run(
        [
            "eval", "--manifest", str(synth_dir / "manifest.csv"), "--stats", str(stats_path),
            "--checkpoint", str(ckpt), "--split", "test", "--out", str(report_base),
        ],
        capsys,
    )
    assert code == 0, err
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert (tmp_path / "report.confusion.csv").exists()
    assert "accuracy:" in out

    container = next(p for p in synth_dir.iterdir() if p.suffix == ".vmf")
    code, out, err = run(
        ["predict", "--checkpoint", str(ckpt), "--stats", str(stats_path), "--container", str(container)],
        capsys,
    )
    assert code == 0, err
    payload = json.loads(out)
    probs = list(payload["probabilities"].values())
    assert abs(sum(probs) - 1.0) < 1e-6
    assert payload["predicted"] in [l.label_name for l in EmotionLabel]


def test_eval_accuracy_matches_library_evaluate(synth_dir, tmp_path, capsys):
    from vemoclap.dataset import load_stats
    from vemoclap.model import load_checkpoint
    from vemoclap.training import evaluate

    stats_path = tmp_path / "stats.json"
    run(["stats", "--manifest", str(synth_dir / "manifest.csv"), "--out", str(stats_path)], capsys)
    ckpt = tmp_path / "model.ckpt"
    run(
        [
            "train", "--manifest", str(synth_dir / "manifest.csv"), "--stats", str(stats_path),
            "--out", str(ckpt), "--seed", "5", "--n", "4", "--dim", "8", "--heads", "2",
            "--dropout", "0.0", "--lr", "1e-3", "--max-epochs", "1", "--val-fraction", "0.25",
        ],
        capsys,
    )
    base = tmp_path / "rep"
    predictions = tmp_path / "preds.csv"
    code, out, err = run(
        [
            "eval", "--manifest", str(synth_dir / "manifest.csv"), "--stats", str(stats_path),
            "--checkpoint", str(ckpt), "--split", "test", "--out", str(base),
            "--predictions", str(predictions),
        ],
        capsys,
    )
    assert code == 0, err
    report = json.loads((tmp_path / "rep.json").read_text())
    assert f"predictions: {predictions}" in out
    with open(predictions, newline="") as fh:
        rows = list(csv.reader(fh))

    manifest = read_manifest(synth_dir / "manifest.csv")
    params, config, _ = load_checkpoint(ckpt)
    stats = load_stats(stats_path)
    lib = evaluate(manifest.load_split("test"), params, config, stats)
    assert report["accuracy"] == lib.accuracy
    # One predictions row per video, exactly what evaluate() returned.
    assert rows[0] == ["video_id", "true", "predicted", *CLASS_NAMES]
    assert len(rows) - 1 == len(lib.video_ids) > 0
    for row, vid, t, p, probs in zip(
        rows[1:], lib.video_ids, lib.true_labels, lib.predicted_labels, lib.probabilities
    ):
        assert row[:3] == [vid, CLASS_NAMES[t], CLASS_NAMES[p]]
        assert [float(x) for x in row[3:]] == [float(x) for x in probs]


def test_clean_prints_paper_counts(tmp_path, capsys):
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

    out_path = tmp_path / "cleaned.csv"
    code, out, err = run(
        ["clean", "--manifest", str(manifest_path), "--blacklist", str(blacklist_path), "--out", str(out_path)],
        capsys,
    )
    assert code == 0, err
    assert "removed 128 train / 130 test" in out
    cleaned = read_manifest(out_path)
    assert len(cleaned.split_rows("train")) == 691
    assert len(cleaned.split_rows("test")) == 688


def test_split_app_95_5(tmp_path, capsys):
    rows = [
        ManifestRow(f"v{i:04d}", EmotionLabel(i % 6), "train", "x.vmf") for i in range(120)
    ]
    manifest_path = tmp_path / "m.csv"
    write_manifest(DatasetManifest(rows), manifest_path)
    out_path = tmp_path / "app.csv"
    code, out, err = run(["split-app", "--manifest", str(manifest_path), "--out", str(out_path)], capsys)
    assert code == 0, err
    split = read_manifest(out_path)
    assert len(split.split_rows("train")) == 114  # ceil(0.95 * 20) = 19 per class
    assert len(split.split_rows("validation")) == 6


SMALL_GRADCHECK = ["gradcheck", "--dim", "4", "--heads", "2", "--n", "2", "--feature-dim", "4", "--videos", "1"]


def test_gradcheck_command_passes_small_config(capsys):
    code, out, err = run(SMALL_GRADCHECK, capsys)
    assert code == 0, err
    assert "PASS" in out
    assert "FAIL" not in out.replace("PASS", "")


CRITERION_TWO_GRADCHECK = [
    "gradcheck", "--dim", "8", "--heads", "2", "--n", "4", "--feature-dim", "8",
    "--videos", "2", "--tol", "1e-4",
]


# At these seeds the key biases' zero gradients move the loss by 1 and 2
# ulps; without a rounding-noise floor they read as relative errors above tol.
@pytest.mark.parametrize("seed", [1, 2])
def test_gradcheck_passes_where_zero_gradients_meet_loss_rounding(capsys, seed):
    code, out, err = run(CRITERION_TWO_GRADCHECK + ["--seed", str(seed)], capsys)
    assert code == 0, out + err
    assert "PASS: 32/32" in out


def run_bad_gradcheck(flag, capsys):
    code, out, err = run(SMALL_GRADCHECK + [flag], capsys)
    assert code == 1
    assert out == ""
    return err


# eps = 0 and 1e-30 used to divide by zero, and a negative eps printed FAIL.
@pytest.mark.parametrize("flag", ["--eps=0", "--eps=-1e-4", "--eps=nan", "--eps=inf"])
def test_gradcheck_rejects_an_eps_that_is_not_finite_and_positive(capsys, flag):
    assert "error: eps must be finite and positive" in run_bad_gradcheck(flag, capsys)


@pytest.mark.parametrize("flag", ["--tol=-1", "--tol=nan", "--tol=inf"])
def test_gradcheck_rejects_a_tol_that_is_not_finite_and_nonnegative(capsys, flag):
    assert "error: tol must be finite and nonnegative" in run_bad_gradcheck(flag, capsys)


# The first tensor checked, pairings.0.w_q, holds float64 Glorot draws of
# order 0.1, where 1e-30 is far below one ulp.
def test_gradcheck_rejects_an_eps_that_moves_no_entry_of_x(capsys):
    err = run_bad_gradcheck("--eps=1e-30", capsys)
    assert "error: eps 1e-30 is too small for x: x[i] + eps == x[i] - eps" in err


def test_gradcheck_fails_a_layer_norm_vjp_missing_a_term(capsys, monkeypatch):
    def layer_norm_missing_term(x, gamma, beta):
        xd = x.data
        mu = xd.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.square(xd - mu).mean(axis=-1, keepdims=True) + ag.LAYER_NORM_EPS)
        xhat = (xd - mu) * inv

        def vjp(g):
            dxhat = g * gamma.data
            grad_x = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True))  # lacks - xhat * m2
            return (grad_x, (g * xhat).sum(axis=0), g.sum(axis=0))

        return ag._emit(xhat * gamma.data + beta.data, (x, gamma, beta), vjp, "layer_norm")

    monkeypatch.setattr(ag, "layer_norm", layer_norm_missing_term)
    code, out, _ = run(SMALL_GRADCHECK, capsys)
    assert code == 1
    assert "FAIL  pairings.0.w_q" in out


def test_missing_manifest_exits_nonzero_without_partial_output(tmp_path, capsys):
    out_path = tmp_path / "stats.json"
    code, out, err = run(["stats", "--manifest", str(tmp_path / "nope.csv"), "--out", str(out_path)], capsys)
    assert code == 1
    assert "error:" in err
    assert not out_path.exists()
    assert not any(p.name.startswith(".tmp") for p in tmp_path.iterdir())


def test_stats_digest_mismatch_refuses_eval(synth_dir, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    run(["stats", "--manifest", str(synth_dir / "manifest.csv"), "--out", str(stats_path)], capsys)
    ckpt = tmp_path / "model.ckpt"
    run(
        [
            "train", "--manifest", str(synth_dir / "manifest.csv"), "--stats", str(stats_path),
            "--out", str(ckpt), "--n", "4", "--dim", "8", "--heads", "2", "--dropout", "0.0",
            "--max-epochs", "1", "--val-fraction", "0.25",
        ],
        capsys,
    )
    # Corrupt the stats file: digest no longer matches the checkpoint.
    obj = json.loads(stats_path.read_text())
    obj["clip"]["max"][0] += 1.0
    stats_path.write_text(json.dumps(obj))
    code, out, err = run(
        [
            "eval", "--manifest", str(synth_dir / "manifest.csv"), "--stats", str(stats_path),
            "--checkpoint", str(ckpt), "--split", "test", "--out", str(tmp_path / "r"),
        ],
        capsys,
    )
    assert code == 1
    assert "digest" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("digest", ["", None], ids=["empty", "missing"])
def test_checkpoint_without_stats_digest_refuses_predict(synth_dir, tmp_path, capsys, digest):
    from vemoclap.container import entry_json, json_entry, read_blocks, write_blocks
    from vemoclap.dataset import load_stats
    from vemoclap.model import ModelConfig, init_params, save_checkpoint

    stats_path = tmp_path / "stats.json"
    run(["stats", "--manifest", str(synth_dir / "manifest.csv"), "--out", str(stats_path)], capsys)
    dims = load_stats(stats_path).channel_dims()
    config = ModelConfig(input_dims=dims, d=8, heads=2, dropout_p=0.0, n=4)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_params(config, seed=1), config, seed=1, stats_digest="")
    if digest is None:
        entries = read_blocks(ckpt)
        header = entry_json(entries[0])
        del header["stats_digest"]
        entries[0] = json_entry("config", header)
        write_blocks(ckpt, entries)
    container = next(p for p in synth_dir.iterdir() if p.suffix == ".vmf")
    code, out, err = run(
        ["predict", "--checkpoint", str(ckpt), "--stats", str(stats_path), "--container", str(container)],
        capsys,
    )
    assert code == 1
    assert "digest" in err
    assert out == ""


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_stats_refuses_a_split_other_than_train(synth_dir, tmp_path, capsys):
    # Normalization statistics come from the train split only: stats over
    # test videos would leak them into the model.
    stats_path = tmp_path / "stats.json"
    argv = [
        "stats", "--manifest", str(synth_dir / "manifest.csv"), "--split", "test",
        "--out", str(stats_path),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code != 0
    assert not stats_path.exists()


def test_train_refuses_an_empty_carved_validation_split(tmp_path, capsys):
    # 4 train videos per class: round(0.10 * 4) carves none.
    data = tmp_path / "data"
    code, _, err = run(
        ["synth", "--out", str(data), "--videos-per-class", "4", "--n", "4", "--dims", SMALL_DIMS],
        capsys,
    )
    assert code == 0, err
    stats_path = tmp_path / "stats.json"
    run(["stats", "--manifest", str(data / "manifest.csv"), "--out", str(stats_path)], capsys)
    ckpt = tmp_path / "model.ckpt"
    code, out, err = run(
        [
            "train", "--manifest", str(data / "manifest.csv"), "--stats", str(stats_path),
            "--out", str(ckpt), "--n", "4", "--dim", "8", "--heads", "2", "--max-epochs", "1",
        ],
        capsys,
    )
    assert code == 1
    assert "--val-fraction" in err
    assert "trainable parameters" not in out
    assert not ckpt.exists()
    assert not (tmp_path / "model.ckpt.history.csv").exists()


def test_synth_rejects_a_negative_test_count(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, err = run(
        ["synth", "--out", str(out), "--test-per-class", "-2", "--n", "4", "--dims", SMALL_DIMS], capsys
    )
    assert code == 1
    assert "test_videos_per_class must be >= 0, got -2" in err
    assert not out.exists()


def test_eval_on_an_empty_split_names_the_split_and_the_manifest(tmp_path, capsys):
    from vemoclap.dataset import load_stats
    from vemoclap.model import ModelConfig, init_params, save_checkpoint

    # No --test-per-class: the manifest holds train rows only.
    data = tmp_path / "data"
    code, _, err = run(["synth", "--out", str(data), "--n", "4", "--dims", SMALL_DIMS], capsys)
    assert code == 0, err
    manifest = data / "manifest.csv"
    stats_path = tmp_path / "stats.json"
    run(["stats", "--manifest", str(manifest), "--out", str(stats_path)], capsys)
    stats = load_stats(stats_path)
    config = ModelConfig(input_dims=stats.channel_dims(), d=8, heads=2, dropout_p=0.0, n=4)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_params(config, seed=1), config, seed=1, stats_digest=stats.digest())
    code, out, err = run(
        [
            "eval", "--manifest", str(manifest), "--stats", str(stats_path),
            "--checkpoint", str(ckpt), "--split", "test", "--out", str(tmp_path / "r"),
        ],
        capsys,
    )
    assert code == 1
    assert f"split 'test' of manifest {manifest} has no videos" in err
    assert out == ""
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--lr", "nan"], "lr must be finite"), (["--dim", "32", "--heads", "3"], "divisible by heads")],
)
def test_train_rejects_bad_flags_before_reading_any_container(synth_dir, tmp_path, capsys, flags, message):
    stats_path = tmp_path / "stats.json"
    run(["stats", "--manifest", str(synth_dir / "manifest.csv"), "--out", str(stats_path)], capsys)
    ckpt = tmp_path / "model.ckpt"
    # --val-fraction 0.25 carves one video per class, so a flag checked
    # only after the carve would follow a "carved 6 ..." line on stdout.
    code, out, err = run(
        [
            "train", "--manifest", str(synth_dir / "manifest.csv"), "--stats", str(stats_path),
            "--out", str(ckpt), "--n", "4", "--dim", "8", "--heads", "2", "--max-epochs", "1",
            "--val-fraction", "0.25", *flags,
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert message in err
    assert not ckpt.exists()


def test_log_level_shows_training_progress_on_stderr(synth_dir, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    run(["stats", "--manifest", str(synth_dir / "manifest.csv"), "--out", str(stats_path)], capsys)
    argv = [
        "train", "--manifest", str(synth_dir / "manifest.csv"), "--stats", str(stats_path),
        "--out", str(tmp_path / "model.ckpt"), "--n", "4", "--dim", "8", "--heads", "2",
        "--dropout", "0.0", "--max-epochs", "1", "--val-fraction", "0.25",
    ]
    code, _, err = run(["--log-level", "INFO", *argv], capsys)
    assert code == 0, err
    assert "epoch 1: train loss" in err
    # Without the option the CLI leaves logging alone: no INFO records.
    code, _, err = run(argv, capsys)
    assert code == 0, err
    assert "epoch 1: train loss" not in err
