"""Seeded fuzzing of the file readers.

A VMF1 mutation flips a byte, truncates the file, or rewrites an aligned
u32 (dims, lengths, counts) with a boundary or random value, then
recomputes the trailing crc32 so the damage reaches the parser instead
of the checksum. Containers may fail only with `ContainerError`;
checkpoints, whose header is checked by the model code, only with
`ContainerError` or `ValueError`.

A text mutation (stats JSON, manifest CSV, blacklist) flips a byte,
truncates the file, or overwrites a byte with one that means something
to JSON or CSV. Those readers may fail only with `ValueError`.
"""

import struct
import zlib

import numpy as np
import pytest

from vemoclap.container import ContainerError, EmotionLabel, read_container, write_container
from vemoclap.dataset import (
    DatasetManifest,
    ManifestRow,
    compute_stats,
    load_stats,
    read_blacklist,
    read_manifest,
    save_stats,
    write_manifest,
)
from vemoclap.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from vemoclap.rng import SplitMix64

from conftest import make_video

MUTATIONS = 3000
U32_VALUES = (0, 1, 2, 3, 0xFF, 0xFFFF, 2**31 - 1, 2**31, 2**32 - 1)
TEXT_BYTES = b'"\',:[]{}-+.eE019\n\r\x00\xff#'
DIMS = {"clip": 2, "beats": 2, "expression": 2, "ocr_sentiment": 1, "asr_sentiment": 1}


def mutate(blob: bytes, rng: SplitMix64) -> bytes:
    """One damaged copy of `blob` (a whole file), with a valid crc32."""
    body = bytearray(blob[:-4])
    kind, where, what = (int(x) for x in rng.next_raw(3))
    # Half the mutations land in the first 256 bytes, where the headers are.
    span = len(body) if kind & 4 else min(len(body), 256)
    pos = where % span
    if kind % 3 == 0:
        body[pos] ^= 1 + what % 255
    elif kind % 3 == 1:
        del body[pos:]
    else:
        pos = min(pos, len(body) - 4)
        value = U32_VALUES[what % len(U32_VALUES)] if what & 1 else (what >> 32)
        body[pos:pos + 4] = struct.pack("<I", value)
    return bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def mutate_text(blob: bytes, rng: SplitMix64) -> bytes:
    """One damaged copy of a text file."""
    body = bytearray(blob)
    kind, where, what = (int(x) for x in rng.next_raw(3))
    pos = where % len(body)
    if kind % 3 == 0:
        body[pos] ^= 1 + what % 255
    elif kind % 3 == 1:
        del body[pos:]
    else:
        body[pos] = TEXT_BYTES[what % len(TEXT_BYTES)]
    return bytes(body)


def fuzz(tmp_path, original: bytes, read, allowed, seed: int, damage=mutate) -> int:
    """Feed MUTATIONS damaged copies to `read`; returns how many it accepted."""
    rng = SplitMix64(seed).derive("fuzz")
    path = tmp_path / "fuzzed"
    accepted = 0
    for trial in range(MUTATIONS):
        blob = damage(original, rng)
        path.write_bytes(blob)
        try:
            read(path)
        except allowed:
            continue
        except Exception as exc:  # noqa: BLE001 - the escape is the finding
            pytest.fail(f"mutation {trial} escaped as {type(exc).__name__}: {exc}")
        accepted += 1
    return accepted


def test_damaged_containers_fail_with_container_error(tmp_path):
    source = tmp_path / "source.vmf"
    write_container(make_video(np.random.default_rng(3), n_stored=3, k=2), source)
    accepted = fuzz(tmp_path, source.read_bytes(), read_container, ContainerError, seed=1)
    # Flipped payload floats that stay finite still decode.
    assert accepted < MUTATIONS


def test_damaged_checkpoints_fail_with_container_or_value_error(tmp_path):
    config = ModelConfig(input_dims=DIMS, d=2, heads=1, dropout_p=0.5, n=2)
    source = tmp_path / "source.vmf"
    save_checkpoint(source, init_params(config, seed=4), config, seed=4, stats_digest="s")
    accepted = fuzz(
        tmp_path, source.read_bytes(), load_checkpoint, (ContainerError, ValueError), seed=2
    )
    assert accepted < MUTATIONS


def test_damaged_stats_fail_with_value_error(tmp_path):
    rng = np.random.default_rng(5)
    videos = [make_video(rng, n_stored=2, k=1, dims=DIMS) for _ in range(2)]
    source = tmp_path / "stats.json"
    save_stats(compute_stats(None, videos=videos), source)
    accepted = fuzz(tmp_path, source.read_bytes(), load_stats, ValueError, seed=3, damage=mutate_text)
    assert accepted < MUTATIONS


def test_damaged_manifests_fail_with_value_error(tmp_path):
    rows = [
        ManifestRow(f"vid{i}", EmotionLabel(i % 6), ("train", "test", "validation")[i % 3], f"v{i}.vmf")
        for i in range(6)
    ]
    source = tmp_path / "manifest.csv"
    write_manifest(DatasetManifest(rows), source)
    accepted = fuzz(tmp_path, source.read_bytes(), read_manifest, ValueError, seed=4, damage=mutate_text)
    assert accepted < MUTATIONS


def test_damaged_blacklists_fail_with_value_error(tmp_path):
    source = tmp_path / "blacklist.txt"
    source.write_text("# dropped videos\nvid0\n\nvid3\n", encoding="utf-8")
    fuzz(tmp_path, source.read_bytes(), read_blacklist, ValueError, seed=5, damage=mutate_text)
