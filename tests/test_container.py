import dataclasses
import struct
import zlib

import numpy as np
import pytest

from vemoclap.container import (
    BadMagicError,
    ChecksumError,
    ContainerError,
    EmotionLabel,
    RawEntry,
    SchemaError,
    TruncatedError,
    VersionError,
    array_entry,
    json_entry,
    read_blocks,
    read_container,
    validate_features,
    write_blocks,
    write_container,
)

from conftest import make_video


def test_round_trip_equal_field_for_field(tmp_path, rng):
    vf = make_video(rng, n_stored=6, k=3, label=4, video_id="clip 0001")
    path = tmp_path / "v.vmf"
    write_container(vf, path)
    assert read_container(path) == vf


def test_round_trip_absent_modalities(tmp_path, rng):
    vf = make_video(rng, n_stored=3, k=0)
    vf.ocr_sentiment = np.zeros_like(vf.ocr_sentiment)
    vf.ocr_present = False
    path = tmp_path / "v.vmf"
    write_container(vf, path)
    back = read_container(path)
    assert back == vf
    assert back.k == 0 and not back.ocr_present and back.asr_present


def test_round_trip_randomized_shapes(tmp_path, rng):
    # Property: read(write(vf)) == vf bit-exactly across randomized shapes.
    for trial in range(60):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        dims = {
            "clip": int(rng.integers(1, 12)),
            "beats": int(rng.integers(1, 12)),
            "expression": int(rng.integers(1, 12)),
            "ocr_sentiment": int(rng.integers(1, 12)),
            "asr_sentiment": int(rng.integers(1, 12)),
        }
        dims["asr_sentiment"] = dims["ocr_sentiment"]
        vf = make_video(rng, n_stored=n, k=k, dims=dims, label=trial % 6, video_id=f"v{trial}")
        path = tmp_path / f"{trial}.vmf"
        write_container(vf, path)
        assert read_container(path) == vf


def test_bad_magic(tmp_path, rng):
    path = tmp_path / "v.vmf"
    write_container(make_video(rng), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        read_container(path)


def test_version_mismatch(tmp_path, rng):
    path = tmp_path / "v.vmf"
    vf = make_video(rng)
    entries = [
        json_entry("meta", {"video_id": vf.video_id, "label": vf.label.label_name}),
        array_entry("clip", vf.clip),
    ]
    write_blocks(path, entries)
    body = bytearray(path.read_bytes()[:-4])
    body[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(VersionError):
        read_blocks(path)


def test_truncated_payload(tmp_path, rng):
    path = tmp_path / "v.vmf"
    write_container(make_video(rng), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises((TruncatedError, ChecksumError)):
        read_container(path)


def test_checksum_detects_flipped_byte(tmp_path, rng):
    path = tmp_path / "v.vmf"
    write_container(make_video(rng), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        read_container(path)


def test_trailing_garbage_rejected(tmp_path, rng):
    path = tmp_path / "v.vmf"
    write_container(make_video(rng), path)
    blob = path.read_bytes()
    # Keep the checksum consistent so only the trailing-bytes check can fire.
    body = blob[:-4] + b"\x00\x00\x00\x00"
    patched = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    path.write_bytes(patched)
    with pytest.raises(SchemaError):
        read_container(path)


def test_k_exceeding_stored_frames_rejected(tmp_path, rng):
    vf = make_video(rng, n_stored=4, k=2)
    path = tmp_path / "v.vmf"
    # Craft a container whose expression block claims more rows than frames.
    expr = np.zeros((6, vf.expression.shape[1]), dtype=np.float32)
    entry = array_entry("expression", expr)
    entry.frame_indices = tuple(range(6))
    entries = [
        json_entry("meta", {"video_id": vf.video_id, "label": vf.label.label_name}),
        array_entry("clip", vf.clip),
        array_entry("beats", vf.beats),
        entry,
        array_entry("ocr_sentiment", vf.ocr_sentiment),
        array_entry("asr_sentiment", vf.asr_sentiment),
    ]
    write_blocks(path, entries)
    with pytest.raises(SchemaError, match="exceed"):
        read_container(path)


def test_unknown_entry_rejected(tmp_path, rng):
    vf = make_video(rng)
    path = tmp_path / "v.vmf"
    entries = [
        json_entry("meta", {"video_id": vf.video_id, "label": vf.label.label_name}),
        array_entry("clip", vf.clip),
        array_entry("beats", vf.beats),
        array_entry("expression", vf.expression),
        array_entry("ocr_sentiment", vf.ocr_sentiment),
        array_entry("asr_sentiment", vf.asr_sentiment),
        array_entry("surprise_extra", vf.ocr_sentiment),
    ]
    entries[3].frame_indices = tuple(int(i) for i in vf.expression_frame_index)
    write_blocks(path, entries)
    with pytest.raises(SchemaError, match="surprise_extra"):
        read_container(path)


@pytest.mark.parametrize(
    "name, presence, dims",
    [
        ("clip", 0, None),
        ("beats", 0, None),
        ("expression", 0, None),  # absent, yet it holds 2 rows
        ("expression", 1, (0, 8)),  # present, yet it holds none
        ("ocr_sentiment", 2, (0,)),  # a JSON flag whose empty payload fits its dims
        ("asr_sentiment", 2, (0,)),
    ],
    ids=["clip-absent", "beats-absent", "expression-absent-with-rows",
         "expression-present-without-rows", "ocr-json", "asr-json"],
)
def test_presence_flags_the_writer_never_writes_are_schema_errors(tmp_path, rng, name, presence, dims):
    path = tmp_path / "v.vmf"
    write_container(make_video(rng, n_stored=4, k=2), path)
    entries = read_blocks(path)
    i = [e.name for e in entries].index(name)
    entries[i] = dataclasses.replace(entries[i], presence=presence)
    if dims is not None:
        entries[i] = dataclasses.replace(entries[i], dims=dims, payload=b"", frame_indices=())
    write_blocks(path, entries)
    with pytest.raises(SchemaError, match=f"'{name}': presence flag {presence}"):
        read_container(path)


def test_repeated_entry_name_rejected(tmp_path, rng):
    path = tmp_path / "v.vmf"
    write_container(make_video(rng), path)
    entries = read_blocks(path)
    clip = entries[1]
    assert clip.name == "clip"
    entries.append(array_entry("clip", np.full(clip.dims, 7.0, dtype=np.float32)))
    write_blocks(path, entries)
    with pytest.raises(SchemaError, match="'clip' appears twice"):
        read_blocks(path)
    with pytest.raises(SchemaError, match="'clip' appears twice"):
        read_container(path)


# 200,000 levels: deeper than any recursion limit json.loads can reach.
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize(
    "payload, match",
    [
        (DEEP_JSON, "nests too deeply"),
        # Past Python's 4,300-digit limit on int conversion.
        (b'{"video_id": ' + b"1" * 5000 + b"}", "invalid JSON payload"),
    ],
    ids=["deep", "long-int"],
)
def test_unparsable_meta_json_is_a_schema_error(tmp_path, rng, payload, match):
    path = tmp_path / "v.vmf"
    write_container(make_video(rng), path)
    entries = read_blocks(path)
    assert entries[0].name == "meta"
    entries[0] = RawEntry("meta", 2, (len(payload),), payload)
    write_blocks(path, entries)
    with pytest.raises(SchemaError, match=f"'meta'.*{match}"):
        read_container(path)


def test_deeply_nested_checkpoint_config_json_is_a_schema_error(tmp_path):
    from vemoclap.model import ModelConfig, init_params, load_checkpoint, save_checkpoint

    dims = {"clip": 2, "beats": 2, "expression": 2, "ocr_sentiment": 1, "asr_sentiment": 1}
    config = ModelConfig(input_dims=dims, d=2, heads=1, dropout_p=0.0, n=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(config, seed=4), config, seed=4, stats_digest="s")
    entries = read_blocks(path)
    assert entries[0].name == "config"
    entries[0] = RawEntry("config", 2, (len(DEEP_JSON),), DEEP_JSON)
    write_blocks(path, entries)
    with pytest.raises(SchemaError, match="'config'.*nests too deeply"):
        load_checkpoint(path)


def test_validate_features_catches_bad_invariants(rng):
    vf = make_video(rng, n_stored=4, k=2)
    vf.beats = vf.beats[:3]
    with pytest.raises(SchemaError, match="temporal lengths differ"):
        validate_features(vf)

    vf = make_video(rng, n_stored=4, k=2)
    vf.expression_frame_index = np.array([2, 2], dtype=np.int64)
    with pytest.raises(SchemaError, match="strictly increasing"):
        validate_features(vf)

    vf = make_video(rng, n_stored=4, k=2)
    vf.expression_frame_index = np.array([1, 9], dtype=np.int64)
    with pytest.raises(SchemaError, match="out of range"):
        validate_features(vf)

    vf = make_video(rng)
    vf.ocr_present = False
    with pytest.raises(SchemaError, match="flagged absent"):
        validate_features(vf)


def test_write_rejects_invalid_features(tmp_path, rng):
    vf = make_video(rng, n_stored=2, k=1)
    vf.clip = vf.clip[:0]
    with pytest.raises(SchemaError):
        write_container(vf, tmp_path / "bad.vmf")
    assert list(tmp_path.iterdir()) == []  # nothing partial left behind


def test_emotion_labels_alphabetical_and_fixed():
    names = [label.label_name for label in EmotionLabel]
    assert names == ["anger", "disgust", "fear", "joy", "sadness", "surprise"]
    assert [int(label) for label in EmotionLabel] == [0, 1, 2, 3, 4, 5]
    assert EmotionLabel.from_name("JOY") is EmotionLabel.JOY
    with pytest.raises(ValueError):
        EmotionLabel.from_name("happiness")


def test_json_entry_round_trip(tmp_path):
    path = tmp_path / "j.vmf"
    payload = {"a": [1, 2, 3], "b": "text"}
    write_blocks(path, [json_entry("config", payload), array_entry("w", np.eye(2, dtype=np.float32))])
    back = read_blocks(path)
    from vemoclap.container import entry_array, entry_json

    assert entry_json(back[0]) == payload
    assert np.array_equal(entry_array(back[1]), np.eye(2, dtype=np.float32))


@pytest.mark.parametrize(
    "dims",
    [
        # 2**31 * 2**31 * 4 wraps to 0 in int64: parsed as an empty entry.
        (2**31, 2**31, 4),
        # (2**32 - 1)**4 * 4 wraps negative in int64: the cursor moved back.
        (2**32 - 1,) * 4,
    ],
)
def test_crafted_dims_overflowing_int64_fail_with_container_error(tmp_path, dims):
    path = tmp_path / "crafted.vmf"
    # write_blocks stores the dims as given and a valid crc32 over them.
    write_blocks(path, [RawEntry("clip", 1, dims, b"")])
    with pytest.raises(ContainerError) as caught:
        read_blocks(path)
    # The payload these dims declare is larger than the file.
    assert isinstance(caught.value, TruncatedError), caught.value


def test_cursor_rejects_negative_and_oversized_counts():
    from vemoclap.container import _Cursor

    cur = _Cursor(b"abcd")
    with pytest.raises(SchemaError):
        cur.take(-1, "a field")
    with pytest.raises(TruncatedError):
        cur.take(5, "a field")
    assert cur.take(4, "a field") == b"abcd"
