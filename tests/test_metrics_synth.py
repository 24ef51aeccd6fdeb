import numpy as np
import pytest

from vemoclap.dataset import compute_stats, read_manifest
from vemoclap.metrics import (
    RunReport,
    confusion,
    confusion_csv,
    format_report_table,
)
from vemoclap.model import init_params
from vemoclap.synth import class_means, nearest_mean_label, synth_dataset
from vemoclap.training import evaluate


# ---------------------------------------------------------------------------
# confusion / accuracy


def test_perfect_predictions_give_identity_normalized():
    labels = [0, 1, 2, 3, 4, 5, 0, 3]
    m = confusion(labels, labels)
    assert np.array_equal(m.normalized, np.eye(6))


def test_constant_predictor_fills_column_zero():
    labels = list(range(6)) * 3
    preds = [0] * len(labels)
    m = confusion(preds, labels)
    assert np.all(m.normalized[:, 0] == 1.0)
    assert np.all(m.normalized[:, 1:] == 0.0)


def test_confusion_matches_counting_loop_oracle(rng):
    preds = rng.integers(0, 6, 100).tolist()
    labels = rng.integers(0, 6, 100).tolist()
    m = confusion(preds, labels)
    oracle = np.zeros((6, 6), dtype=np.int64)
    for p, t in zip(preds, labels):
        oracle[t][p] += 1
    assert np.array_equal(m.counts, oracle)
    rows = oracle.sum(axis=1)
    for i in range(6):
        if rows[i]:
            assert np.allclose(m.normalized[i], oracle[i] / rows[i])
            assert abs(m.normalized[i].sum() - 1.0) < 1e-9
        else:
            assert np.all(m.normalized[i] == 0.0)


def test_confusion_validates_input():
    with pytest.raises(ValueError):
        confusion([0, 1], [0])
    with pytest.raises(ValueError):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([9], [0])


def test_precision_recall_definitions():
    # true: two 0s predicted [0, 1]; one 1 predicted 1.
    m = confusion([0, 1, 1], [0, 0, 1])
    assert m.per_class_recall()[0] == 0.5
    assert m.per_class_recall()[1] == 1.0
    assert m.per_class_precision()[0] == 1.0
    assert m.per_class_precision()[1] == 0.5


def test_report_render_has_two_decimal_percent():
    m = confusion([0, 1, 2], [0, 1, 1])
    report = RunReport(
        accuracy=2 / 3,
        confusion=m,
        seed=7,
        split="test",
        split_sizes={"test": 3},
        model_config_digest="m" * 8,
        stats_digest="s" * 8,
    )
    table = format_report_table(report)
    assert "66.67%" in table
    obj = report.to_json_obj()
    assert obj["accuracy_percent"] == 66.67
    csv_text = confusion_csv(m)
    assert csv_text.splitlines()[0].startswith("true\\pred,anger,")


# ---------------------------------------------------------------------------
# synthetic data


def test_synth_margin10_oracle_is_perfect(tmp_path):
    result = synth_dataset(
        tmp_path / "data", videos_per_class=10, seed=5, margin=10.0, n_stored=6,
        dims={"clip": 16, "beats": 8, "expression": 8, "ocr_sentiment": 8, "asr_sentiment": 8},
    )
    assert result.oracle_accuracy == 1.0
    assert len(result.manifest) == 60


def test_synth_same_seed_identical_bytes(tmp_path):
    dims = {"clip": 8, "beats": 4, "expression": 4, "ocr_sentiment": 4, "asr_sentiment": 4}
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    ra = synth_dataset(a_dir, videos_per_class=2, seed=9, margin=6.0, n_stored=4, dims=dims)
    rb = synth_dataset(b_dir, videos_per_class=2, seed=9, margin=6.0, n_stored=4, dims=dims)
    assert ra.oracle_accuracy == rb.oracle_accuracy
    for fa in sorted(a_dir.iterdir()):
        fb = b_dir / fa.name
        assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_synth_margin_zero_is_chance_level(tmp_path):
    result = synth_dataset(
        tmp_path / "flat", videos_per_class=100, seed=2, margin=0.0, n_stored=2,
        dims={"clip": 8, "beats": 2, "expression": 2, "ocr_sentiment": 2, "asr_sentiment": 2},
    )
    assert abs(result.oracle_accuracy - 1.0 / 6.0) <= 0.1


def test_synth_containers_decode_and_match_manifest(tmp_path):
    dims = {"clip": 8, "beats": 4, "expression": 4, "ocr_sentiment": 4, "asr_sentiment": 4}
    out = tmp_path / "data"
    synth_dataset(out, videos_per_class=2, test_videos_per_class=1, seed=1, margin=8.0, n_stored=4, dims=dims)
    manifest = read_manifest(out / "manifest.csv")
    assert len(manifest.split_rows("train")) == 12
    assert len(manifest.split_rows("test")) == 6
    for row in manifest.rows:
        vf = manifest.load_video(row)
        assert vf.video_id == row.video_id


def test_synth_trains_into_evaluate_consistency(tmp_path):
    # Cross-module consistency: trainer accuracy equals the confusion-trace
    # ratio computed downstream from the same predictions.
    dims = {"clip": 8, "beats": 4, "expression": 4, "ocr_sentiment": 4, "asr_sentiment": 4}
    out = tmp_path / "data"
    synth_dataset(out, videos_per_class=3, seed=4, margin=9.0, n_stored=4, dims=dims)
    manifest = read_manifest(out / "manifest.csv")
    videos = manifest.load_split("train")
    stats = compute_stats(None, videos=videos)
    from vemoclap.model import ModelConfig

    config = ModelConfig(input_dims=stats.channel_dims(), d=8, heads=2, dropout_p=0.0, n=4)
    params = init_params(config, seed=0)
    result = evaluate(videos, params, config, stats)
    m = confusion(result.predicted_labels, result.true_labels)
    assert result.accuracy == np.trace(m.counts) / len(videos)


def test_class_means_pairwise_distance_is_margin():
    means = class_means(margin=10.0, d_clip=8)
    for i in range(6):
        for j in range(i + 1, 6):
            assert abs(np.linalg.norm(means[i] - means[j]) - 10.0) < 1e-9


def test_nearest_mean_label_recovers_clean_video(rng):
    means = class_means(margin=50.0, d_clip=8)
    from conftest import make_video, tiny_dims

    vf = make_video(rng, n_stored=4, dims=tiny_dims(8), label=2)
    vf.clip = (means[2][None, :] + rng.standard_normal((4, 8))).astype(np.float32)
    assert nearest_mean_label(vf, means) == 2
