import json
import logging
import math
import weakref

import numpy as np
import pytest

import vemoclap.dataset as dataset
from vemoclap.container import EmotionLabel, write_container
from vemoclap.dataset import (
    DatasetManifest,
    ManifestRow,
    ModalityStats,
    apply_blacklist,
    build_app_split,
    carve_validation,
    compute_stats,
    load_stats,
    normalize,
    read_manifest,
    sample_indices,
    save_stats,
    select_frames,
    write_manifest,
)
from vemoclap.rng import SplitMix64

from conftest import make_video, tiny_dims


def manifest_of(labels_splits, path="x.vmf"):
    rows = [
        ManifestRow(f"vid{i:04d}", EmotionLabel(lab), split, path)
        for i, (lab, split) in enumerate(labels_splits)
    ]
    return DatasetManifest(rows)


# ---------------------------------------------------------------------------
# compute_stats / normalize


def test_stats_single_video_known_minmax(rng):
    vf = make_video(rng, n_stored=2, k=0, dims={**tiny_dims(2)})
    vf.clip = np.array([[0.0, 2.0], [4.0, 6.0]], dtype=np.float32)
    stats = compute_stats(None, videos=[vf])
    assert np.array_equal(stats.minima["clip"], [0.0, 2.0])
    assert np.array_equal(stats.maxima["clip"], [4.0, 6.0])


def test_stats_fold_is_associative_over_videos(rng):
    videos = [make_video(rng, n_stored=3, k=2, video_id=f"v{i}") for i in range(2)]
    both = compute_stats(None, videos=videos)
    first = compute_stats(None, videos=[videos[0]])
    second = compute_stats(None, videos=[videos[1]])
    for name in both.minima:
        assert np.array_equal(both.minima[name], np.minimum(first.minima[name], second.minima[name]))
        assert np.array_equal(both.maxima[name], np.maximum(first.maxima[name], second.maxima[name]))


def test_stats_match_brute_force_scan(rng):
    videos = [
        make_video(rng, n_stored=int(rng.integers(1, 6)), k=int(rng.integers(0, 3)), video_id=f"v{i}")
        for i in range(10)
    ]
    stats = compute_stats(None, videos=videos)

    # Brute-force oracle: gather every vector occurrence and scan.
    rows = {name: [] for name in tiny_dims()}
    for vf in videos:
        rows["clip"].extend(vf.clip)
        rows["beats"].extend(vf.beats)
        rows["expression"].extend(vf.expression)
        if vf.ocr_present:
            rows["ocr_sentiment"].append(vf.ocr_sentiment)
        if vf.asr_present:
            rows["asr_sentiment"].append(vf.asr_sentiment)
    for name, collected in rows.items():
        stacked = np.stack(collected)
        assert np.array_equal(stats.minima[name], stacked.min(axis=0)), name
        assert np.array_equal(stats.maxima[name], stacked.max(axis=0)), name


def test_stats_permutation_invariant(rng):
    videos = [make_video(rng, n_stored=3, k=1, video_id=f"v{i}") for i in range(5)]
    a = compute_stats(None, videos=videos)
    b = compute_stats(None, videos=videos[::-1])
    for name in a.minima:
        assert np.array_equal(a.minima[name], b.minima[name])
        assert np.array_equal(a.maxima[name], b.maxima[name])


def test_stats_from_a_manifest_fold_one_decoded_video_at_a_time(tmp_path, rng, monkeypatch):
    videos = [
        make_video(rng, n_stored=4, k=i % 3, label=i % 6, video_id=f"vid{i:04d}") for i in range(8)
    ]
    rows = []
    for vf in videos:
        path = tmp_path / f"{vf.video_id}.vmf"
        write_container(vf, path)
        rows.append(ManifestRow(vf.video_id, vf.label, "train", str(path)))
    alive = []  # a weak reference to every decoded video
    most_alive = 0
    real = dataset.read_container

    def tracked(path):
        nonlocal most_alive
        vf = real(path)
        alive.append(weakref.ref(vf))
        most_alive = max(most_alive, sum(ref() is not None for ref in alive))
        return vf

    monkeypatch.setattr(dataset, "read_container", tracked)
    streamed = compute_stats(DatasetManifest(rows), split="train")
    assert len(alive) == len(videos) and most_alive == 1
    in_memory = compute_stats(None, videos=videos)
    assert streamed.digest() == in_memory.digest()
    for name in in_memory.minima:
        assert streamed.minima[name].tobytes() == in_memory.minima[name].tobytes()
        assert streamed.maxima[name].tobytes() == in_memory.maxima[name].tobytes()


def test_stats_empty_split_rejected():
    manifest = manifest_of([(0, "test")])
    with pytest.raises(ValueError, match="empty"):
        compute_stats(manifest, split="train")


def make_stats(lo, hi):
    dims = {name: len(lo) for name in tiny_dims()}
    minima = {name: np.asarray(lo, dtype=np.float32) for name in dims}
    maxima = {name: np.asarray(hi, dtype=np.float32) for name in dims}
    return ModalityStats(minima, maxima)


def test_normalize_endpoints_and_constant_channel():
    stats = make_stats([0.0, 1.0, 5.0], [2.0, 3.0, 5.0])
    assert np.allclose(normalize(np.array([0.0, 1.0, 5.0]), "clip", stats), [0.0, 0.0, 0.5])
    assert np.allclose(normalize(np.array([2.0, 3.0, 5.0]), "clip", stats), [1.0, 1.0, 0.5])


def test_normalize_clamps_out_of_range():
    stats = make_stats([0.0], [1.0])
    assert normalize(np.array([99.0]), "clip", stats)[0] == 2.0
    assert normalize(np.array([-99.0]), "clip", stats)[0] == -1.0


def test_normalize_dim_mismatch():
    stats = make_stats([0.0, 1.0], [2.0, 3.0])
    with pytest.raises(ValueError, match="channel dim"):
        normalize(np.zeros((4, 3)), "clip", stats)


def test_stats_json_round_trip(tmp_path, rng):
    videos = [make_video(rng, video_id=f"v{i}") for i in range(3)]
    stats = compute_stats(None, videos=videos)
    path = tmp_path / "stats.json"
    save_stats(stats, path)
    loaded = load_stats(path)
    for name in stats.minima:
        assert np.array_equal(loaded.minima[name], stats.minima[name])
        assert np.array_equal(loaded.maxima[name], stats.maxima[name])
    assert loaded.digest() == stats.digest()


@pytest.mark.parametrize(
    "clip",
    [
        [],
        {"min": [0.0]},
        {"min": [[0.0]], "max": [[1.0]]},
        {"min": [float("nan")], "max": [1.0]},
        {"min": [0.0], "max": [float("inf")]},
        {"min": [0.0], "max": [1e39]},
        {"min": [0.0], "max": [10**400]},
        {"min": [False], "max": [True]},
        {"min": ["0"], "max": [1.0]},
        {"min": [0.0, 1.0], "max": [1.0]},
        {"min": [2.0], "max": [1.0]},
    ],
    ids=["not-object", "no-max", "2-d", "nan", "inf", "float32-overflow", "huge-int", "bool",
         "string", "lengths-differ", "min-above-max"],
)
def test_bad_stats_bounds_are_value_errors_naming_the_modality(tmp_path, clip):
    obj = make_stats([0.0], [1.0]).to_json_obj()
    obj["clip"] = clip
    path = tmp_path / "stats.json"
    # json writes NaN/Infinity tokens and Python ints of any size, as a hand-edited file may hold.
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="'clip'"):
        load_stats(path)


def test_stats_file_must_be_an_object(tmp_path):
    for text in ("[1, 2]", "3", "[" * 100_000):
        path = tmp_path / "stats.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_stats(path)


# ---------------------------------------------------------------------------
# temporal sampling


def test_equidistant_full_range():
    assert sample_indices(16, 16).tolist() == list(range(16))


def test_equidistant_formula_case():
    assert sample_indices(32, 4).tolist() == [0, 10, 20, 31]


def test_short_video_pads_with_last_index():
    expected = [0, 1, 2, 3, 4, 4, 4, 4]
    assert sample_indices(5, 8, mode="equidistant").tolist() == expected
    assert sample_indices(5, 8, mode="random", rng=SplitMix64(0)).tolist() == expected


def test_equidistant_endpoints_and_monotone():
    for total in (2, 7, 33, 100):
        for n in (2, 3, 16):
            if total < n:
                continue
            idx = sample_indices(total, n)
            assert idx[0] == 0 and idx[-1] == total - 1
            assert np.all(np.diff(idx) >= 0)


def test_single_frame_request():
    assert sample_indices(10, 1).tolist() == [0]


def test_random_sampling_distinct_sorted_deterministic():
    a = sample_indices(40, 8, mode="random", rng=SplitMix64(77).derive("frames"))
    b = sample_indices(40, 8, mode="random", rng=SplitMix64(77).derive("frames"))
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 8
    assert np.all(np.diff(a) > 0)
    assert a.min() >= 0 and a.max() < 40


def test_sample_indices_validates_arguments():
    with pytest.raises(ValueError):
        sample_indices(0, 4)
    with pytest.raises(ValueError):
        sample_indices(4, 0)
    with pytest.raises(ValueError):
        sample_indices(4, 2, mode="sideways")
    with pytest.raises(ValueError):
        sample_indices(10, 4, mode="random")  # rng required


# ---------------------------------------------------------------------------
# select_frames


def test_select_all_frames_is_identity(rng):
    vf = make_video(rng, n_stored=5, k=3)
    out = select_frames(vf, np.arange(5))
    assert out == vf


def test_select_keeps_only_expression_rows_in_set(rng):
    vf = make_video(rng, n_stored=8, k=2)
    vf.expression_frame_index = np.array([2, 7], dtype=np.int64)
    out = select_frames(vf, [0, 2, 4])
    assert out.k == 1
    assert np.array_equal(out.expression[0], vf.expression[0])
    assert out.expression_frame_index.tolist() == [1]  # frame 2 sits at position 1


def test_select_random_case_matches_gather_oracle(rng):
    vf = make_video(rng, n_stored=10, k=4)
    idx = np.array([1, 3, 3, 9])
    out = select_frames(vf, idx)
    assert np.array_equal(out.clip, vf.clip[idx])
    assert np.array_equal(out.beats, vf.beats[idx])
    kept = [i for i, f in enumerate(vf.expression_frame_index) if f in set(idx.tolist())]
    assert np.array_equal(out.expression, vf.expression[kept])
    assert np.array_equal(out.ocr_sentiment, vf.ocr_sentiment)


def test_select_frames_out_of_range(rng):
    vf = make_video(rng, n_stored=4)
    with pytest.raises(ValueError):
        select_frames(vf, [0, 4])


# ---------------------------------------------------------------------------
# blacklist and splits


def test_blacklist_removes_paper_counts():
    rows = [(i % 6, "train") for i in range(819)] + [(i % 6, "test") for i in range(818)]
    manifest = manifest_of(rows)
    train_ids = [r.video_id for r in manifest.split_rows("train")]
    test_ids = [r.video_id for r in manifest.split_rows("test")]
    blacklist = train_ids[:128] + test_ids[:130]
    cleaned, removed = apply_blacklist(manifest, blacklist)
    assert removed == {"train": 128, "test": 130}
    assert len(cleaned.split_rows("train")) == 691
    assert len(cleaned.split_rows("test")) == 688


def test_blacklist_empty_is_identity():
    manifest = manifest_of([(0, "train"), (1, "test")])
    cleaned, removed = apply_blacklist(manifest, [])
    assert removed == {}
    assert cleaned.rows == manifest.rows


def test_blacklist_idempotent():
    manifest = manifest_of([(i % 6, "train") for i in range(30)])
    blacklist = [r.video_id for r in manifest.rows[:7]]
    once, _ = apply_blacklist(manifest, blacklist)
    twice, removed_again = apply_blacklist(once, blacklist)
    assert twice.rows == once.rows
    assert removed_again == {}


def test_blacklist_unknown_id_warns_not_raises(caplog):
    manifest = manifest_of([(0, "train")])
    with caplog.at_level(logging.WARNING):
        cleaned, removed = apply_blacklist(manifest, ["ghost"])
    assert removed == {}
    assert len(cleaned) == 1
    assert any("ghost" in rec.message for rec in caplog.records)


def test_app_split_20_ids_puts_last_alphabetical_in_validation():
    rows = [ManifestRow(ch, EmotionLabel.JOY, "train", "p") for ch in "abcdefghijklmnopqrst"]
    split = build_app_split(DatasetManifest(rows))
    val = split.split_rows("validation")
    assert len(split.split_rows("train")) == 19
    assert [r.video_id for r in val] == ["t"]


def test_app_split_singleton_class_warns(caplog):
    rows = [ManifestRow("only", EmotionLabel.FEAR, "train", "p")]
    with caplog.at_level(logging.WARNING):
        split = build_app_split(DatasetManifest(rows))
    assert len(split.split_rows("train")) == 1
    assert len(split.split_rows("validation")) == 0
    assert any("fear" in rec.message for rec in caplog.records)


def test_app_split_hundred_ids_gives_95_5():
    rows = [ManifestRow(f"id{i:03d}", EmotionLabel.ANGER, "train", "p") for i in range(100)]
    split = build_app_split(DatasetManifest(rows))
    assert len(split.split_rows("train")) == 95
    assert len(split.split_rows("validation")) == 5


def test_app_split_is_a_partition_and_sorted_bytewise():
    rng = np.random.default_rng(3)
    rows = []
    for i in range(120):
        label = EmotionLabel(int(rng.integers(0, 6)))
        rows.append(ManifestRow(f"{rng.integers(0, 10 ** 9):09d}", label, "train", "p"))
    manifest = DatasetManifest(rows)
    split = build_app_split(manifest)
    assert sorted(r.video_id for r in split.rows) == sorted(r.video_id for r in manifest.rows)
    for label in EmotionLabel:
        ids = sorted(r.video_id for r in manifest.rows if r.label == label)
        m = len(ids)
        boundary = math.ceil(0.95 * m)
        train_ids = {r.video_id for r in split.rows if r.label == label and r.split == "train"}
        assert train_ids == set(ids[:boundary])


def test_carve_validation_stratified_counts_and_determinism():
    rows = [(i % 6, "train") for i in range(819)]
    manifest = manifest_of(rows)
    train_a, val_a = carve_validation(manifest, fraction=0.10, seed=5)
    train_b, val_b = carve_validation(manifest, fraction=0.10, seed=5)
    assert [r.video_id for r in val_a.rows] == [r.video_id for r in val_b.rows]
    # Per-class half-up rounding: classes of 137 -> 14, of 136 -> 14.
    per_class = {label: sum(1 for r in manifest.rows if r.label == label) for label in EmotionLabel}
    expected_val = sum(int(math.floor(0.10 * m + 0.5)) for m in per_class.values())
    assert len(val_a) == expected_val
    assert len(train_a) + len(val_a) == 819
    assert {r.split for r in val_a.rows} == {"validation"}
    different_seed, _ = carve_validation(manifest, fraction=0.10, seed=6)
    assert [r.video_id for r in different_seed.rows] != [r.video_id for r in train_a.rows]


def test_carve_validation_rejects_degenerate_fraction():
    manifest = manifest_of([(0, "train")])
    with pytest.raises(ValueError):
        carve_validation(manifest, fraction=0.0)
    with pytest.raises(ValueError):
        carve_validation(manifest, fraction=1.0)


# ---------------------------------------------------------------------------
# manifest io


def test_manifest_csv_round_trip(tmp_path, rng):
    videos = [make_video(rng, video_id=f"v{i}", label=i % 6) for i in range(4)]
    rows = []
    for i, vf in enumerate(videos):
        fname = f"{vf.video_id}.vmf"
        write_container(vf, tmp_path / fname)
        split = "train" if i % 2 == 0 else "test"
        rows.append(ManifestRow(vf.video_id, vf.label, split, fname))
    path = tmp_path / "manifest.csv"
    write_manifest(DatasetManifest(rows), path)

    loaded = read_manifest(path)
    assert [r.video_id for r in loaded.rows] == [r.video_id for r in rows]
    assert loaded.base_dir == str(tmp_path)
    vf = loaded.load_video(loaded.rows[0])
    assert vf == videos[0]


def test_manifest_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,label\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_manifest(path)


def test_manifest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "video_id,label,split,path\nv1,joy,train,a.vmf\nv1,anger,test,b.vmf\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="duplicate"):
        read_manifest(path)


def test_manifest_names_the_row_of_an_unknown_label(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "video_id,label,split,path\nv1,joy,train,a.vmf\nv2,joyful,train,b.vmf\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match=r"m\.csv:3: unknown emotion label 'joyful'"):
        read_manifest(path)


def test_manifest_env_var_path_resolution(tmp_path, rng, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    vf = make_video(rng, video_id="v0")
    write_container(vf, data_dir / "v0.vmf")
    manifest = DatasetManifest([ManifestRow("v0", vf.label, "train", "v0.vmf")], base_dir=None)
    monkeypatch.setenv("VEMOCLAP_DATA_DIR", str(data_dir))
    assert manifest.load_video(manifest.rows[0]) == vf


def test_manifest_dir_beats_env_var_when_file_exists(tmp_path, rng, monkeypatch):
    local = tmp_path / "local"
    elsewhere = tmp_path / "elsewhere"
    local.mkdir()
    elsewhere.mkdir()
    vf_local = make_video(rng, video_id="v0", label=1)
    vf_other = make_video(rng, video_id="v0", label=1)
    vf_other.clip = vf_other.clip + 1.0
    write_container(vf_local, local / "v0.vmf")
    write_container(vf_other, elsewhere / "v0.vmf")
    manifest = DatasetManifest(
        [ManifestRow("v0", vf_local.label, "train", "v0.vmf")], base_dir=str(local)
    )
    monkeypatch.setenv("VEMOCLAP_DATA_DIR", str(elsewhere))
    assert manifest.load_video(manifest.rows[0]) == vf_local  # local wins
    (local / "v0.vmf").unlink()
    assert manifest.load_video(manifest.rows[0]) == vf_other  # env is the fallback
