"""On-disk feature container: the "VMF1" binary format.

One file stores the five pretrained-feature arrays for one video. Layout
(all integers little-endian):

    magic          4 bytes, b"VMF1"
    version        u32
    entry count    u8
    per entry:
        name length    u16
        name           UTF-8 bytes
        presence       u8   (0 = absent/zeroed, 1 = array data,
                             2 = raw UTF-8 JSON payload)
        ndim           u8
        dims           u32 * ndim
        frame indices  u32 * dims[0], only when name == "expression"
        payload        raw f32 LE (presence 0/1: prod(dims) values)
                       or raw bytes (presence 2: dims = [byte count])
    crc32          u32, over every preceding byte

Entry names are unique within a file; a repeated name is a SchemaError.

Feature containers hold six entries in canonical order: a "meta" JSON
entry carrying video_id and label, then clip, beats, expression,
ocr_sentiment, asr_sentiment. Model checkpoints reuse the same codec with
parameter names as entry names and a "config" JSON entry (see
`vemoclap.model`). Presence value 2 realizes both JSON entries. Feature
arrays use 1 for clip and beats, 1 for expression exactly when it has
rows, and 0/1 for sentiment; `read_container` rejects any other flag.

Containers are immutable after write; concurrent readers are safe.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

MAGIC = b"VMF1"
FORMAT_VERSION = 1
PAYLOAD_DTYPE = np.dtype("<f4")

MODALITY_NAMES = ("clip", "beats", "expression", "ocr_sentiment", "asr_sentiment")
SEQUENTIAL_MODALITIES = ("clip", "beats", "expression")
META_ENTRY = "meta"


class ContainerError(Exception):
    """Base class for container encode/decode failures."""


class BadMagicError(ContainerError):
    pass


class VersionError(ContainerError):
    pass


class TruncatedError(ContainerError):
    pass


class ChecksumError(ContainerError):
    pass


class SchemaError(ContainerError):
    """Shape or invariant violation in an otherwise well-formed file."""


class EmotionLabel(IntEnum):
    """The six emotion classes, encoded alphabetically."""

    ANGER = 0
    DISGUST = 1
    FEAR = 2
    JOY = 3
    SADNESS = 4
    SURPRISE = 5

    @property
    def label_name(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "EmotionLabel":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            valid = ", ".join(m.label_name for m in cls)
            raise ValueError(f"unknown emotion label {name!r}; expected one of: {valid}") from None


CLASS_COUNT = len(EmotionLabel)


@dataclass(eq=False)
class VideoFeatures:
    """One video's pretrained features plus identity and label.

    clip and beats are [n_stored, channels] sequences sharing a temporal
    length; expression holds k <= n_stored rows, one per frame where a face
    was found, with `expression_frame_index` naming those frames. The two
    sentiment vectors are single vectors; their presence flags record
    whether any OCR/ASR text existed upstream (absent => zeros).
    """

    video_id: str
    label: EmotionLabel
    clip: np.ndarray
    beats: np.ndarray
    expression: np.ndarray
    expression_frame_index: np.ndarray
    ocr_sentiment: np.ndarray
    asr_sentiment: np.ndarray
    ocr_present: bool = True
    asr_present: bool = True

    def __post_init__(self):
        self.label = EmotionLabel(self.label)
        self.clip = np.asarray(self.clip, dtype=np.float32)
        self.beats = np.asarray(self.beats, dtype=np.float32)
        self.expression = np.asarray(self.expression, dtype=np.float32)
        self.expression_frame_index = np.asarray(self.expression_frame_index, dtype=np.int64)
        self.ocr_sentiment = np.asarray(self.ocr_sentiment, dtype=np.float32)
        self.asr_sentiment = np.asarray(self.asr_sentiment, dtype=np.float32)

    @property
    def n_stored(self) -> int:
        return int(self.clip.shape[0])

    @property
    def k(self) -> int:
        return int(self.expression.shape[0])

    def modality_arrays(self) -> dict[str, np.ndarray]:
        return {
            "clip": self.clip,
            "beats": self.beats,
            "expression": self.expression,
            "ocr_sentiment": self.ocr_sentiment,
            "asr_sentiment": self.asr_sentiment,
        }

    def channel_dims(self) -> dict[str, int]:
        return {
            "clip": int(self.clip.shape[1]),
            "beats": int(self.beats.shape[1]),
            "expression": int(self.expression.shape[1]),
            "ocr_sentiment": int(self.ocr_sentiment.shape[0]),
            "asr_sentiment": int(self.asr_sentiment.shape[0]),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, VideoFeatures):
            return NotImplemented
        return (
            self.video_id == other.video_id
            and self.label == other.label
            and self.ocr_present == other.ocr_present
            and self.asr_present == other.asr_present
            and self.clip.shape == other.clip.shape
            and np.array_equal(self.clip, other.clip)
            and self.beats.shape == other.beats.shape
            and np.array_equal(self.beats, other.beats)
            and self.expression.shape == other.expression.shape
            and np.array_equal(self.expression, other.expression)
            and np.array_equal(self.expression_frame_index, other.expression_frame_index)
            and np.array_equal(self.ocr_sentiment, other.ocr_sentiment)
            and np.array_equal(self.asr_sentiment, other.asr_sentiment)
        )


def validate_features(vf: VideoFeatures) -> None:
    """Raise SchemaError on any violated VideoFeatures invariant."""
    if not vf.video_id:
        raise SchemaError("video_id must be a nonempty string")
    if vf.clip.ndim != 2 or vf.beats.ndim != 2 or vf.expression.ndim != 2:
        raise SchemaError("clip/beats/expression must be 2-D [time, channels] arrays")
    if vf.ocr_sentiment.ndim != 1 or vf.asr_sentiment.ndim != 1:
        raise SchemaError("sentiment features must be 1-D vectors")
    n = vf.clip.shape[0]
    if n < 1:
        raise SchemaError("clip/beats must have at least one temporal row")
    if vf.beats.shape[0] != n:
        raise SchemaError(
            f"clip and beats temporal lengths differ: {n} vs {vf.beats.shape[0]}"
        )
    k = vf.expression.shape[0]
    if k > n:
        raise SchemaError(f"expression rows k={k} exceed stored frames n={n}")
    idx = vf.expression_frame_index
    if idx.shape != (k,):
        raise SchemaError(f"expression_frame_index must have length k={k}, got {idx.shape}")
    if k > 0:
        if np.any(np.diff(idx) <= 0):
            raise SchemaError("expression_frame_index must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= n:
            raise SchemaError(f"expression frame index out of range [0, {n})")
    for name, arr in vf.modality_arrays().items():
        if not np.all(np.isfinite(arr)):
            raise SchemaError(f"non-finite value in modality {name!r}")
    if not vf.ocr_present and np.any(vf.ocr_sentiment != 0.0):
        raise SchemaError("ocr_sentiment flagged absent but holds nonzero values")
    if not vf.asr_present and np.any(vf.asr_sentiment != 0.0):
        raise SchemaError("asr_sentiment flagged absent but holds nonzero values")


# ---------------------------------------------------------------------------
# Low-level block codec (shared by feature containers and checkpoints)


@dataclass
class RawEntry:
    name: str
    presence: int
    dims: tuple[int, ...]
    payload: bytes | memoryview  # read_blocks gives array payloads as memoryviews
    frame_indices: tuple[int, ...] = field(default_factory=tuple)


def _encode_entry(entry: RawEntry) -> bytes:
    name_bytes = entry.name.encode("utf-8")
    parts = [struct.pack("<H", len(name_bytes)), name_bytes]
    parts.append(struct.pack("<BB", entry.presence, len(entry.dims)))
    parts.append(struct.pack(f"<{len(entry.dims)}I", *entry.dims))
    if entry.name == "expression":
        if len(entry.frame_indices) != (entry.dims[0] if entry.dims else 0):
            raise SchemaError("expression entry needs dims[0] frame indices")
        parts.append(struct.pack(f"<{len(entry.frame_indices)}I", *entry.frame_indices))
    parts.append(entry.payload)
    return b"".join(parts)


def write_blocks(path, entries: Sequence[RawEntry]) -> None:
    """Serialize entries to `path` atomically (temp file + rename)."""
    if len(entries) > 255:
        raise SchemaError("at most 255 entries per container")
    body = [MAGIC, struct.pack("<IB", FORMAT_VERSION, len(entries))]
    body.extend(_encode_entry(e) for e in entries)
    blob = b"".join(body)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    atomic_write_bytes(path, blob)


def atomic_write_bytes(path, blob: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Cursor:
    def __init__(self, blob: memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, count: int, what: str) -> memoryview:
        if count < 0:
            raise SchemaError(f"negative size {count} for {what}")
        if count > len(self.blob) - self.pos:
            raise TruncatedError(f"file ends inside {what} (wanted {count} bytes)")
        out = self.blob[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_blocks(path) -> list[RawEntry]:
    """Parse a container file, verifying structure, checksum and that no
    entry name repeats.

    Array payloads are read-only memoryviews into the file's bytes, not
    copies; `entry_array` makes the one copy a caller needs."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < len(MAGIC):
        raise TruncatedError("file shorter than magic")
    if blob[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic {bytes(blob[:len(MAGIC)])!r}, expected {MAGIC!r}")
    if len(blob) < len(MAGIC) + 4 + 1 + 4:
        raise TruncatedError("file too short for header and checksum")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    actual_crc = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ChecksumError(f"crc32 mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}")

    cur = _Cursor(blob[:-4])
    cur.pos = len(MAGIC)
    (version, count) = cur.unpack("<IB", "header")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported format version {version}, expected {FORMAT_VERSION}")

    entries = []
    names: set[str] = set()
    for _ in range(count):
        (name_len,) = cur.unpack("<H", "entry name length")
        try:
            name = bytes(cur.take(name_len, "entry name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"entry name is not valid UTF-8: {exc}") from None
        if name in names:
            raise SchemaError(f"entry name {name!r} appears twice")
        names.add(name)
        presence, ndim = cur.unpack("<BB", f"entry {name!r} header")
        if presence not in (0, 1, 2):
            raise SchemaError(f"entry {name!r}: unknown presence flag {presence}")
        dims = cur.unpack(f"<{ndim}I", f"entry {name!r} dims") if ndim else ()
        frame_indices: tuple[int, ...] = ()
        if name == "expression":
            k = dims[0] if dims else 0
            frame_indices = cur.unpack(f"<{k}I", "expression frame indices") if k else ()
        if presence == 2:
            if ndim != 1:
                raise SchemaError(f"JSON entry {name!r} must be 1-D byte-sized")
            payload = bytes(cur.take(dims[0], f"entry {name!r} payload"))
        else:
            # Python ints: a product of u32 dims cannot overflow here.
            payload = cur.take(math.prod(dims) * PAYLOAD_DTYPE.itemsize, f"entry {name!r} payload")
        entries.append(RawEntry(name, presence, tuple(int(d) for d in dims), payload, frame_indices))
    if cur.pos != len(cur.blob):
        raise SchemaError(f"{len(cur.blob) - cur.pos} unexpected trailing bytes before checksum")
    return entries


def array_entry(name: str, arr: np.ndarray, presence: int = 1) -> RawEntry:
    # tobytes writes row-major order whatever arr's memory layout.
    payload = np.asarray(arr, dtype=PAYLOAD_DTYPE).tobytes()
    return RawEntry(name, presence, tuple(int(d) for d in arr.shape), payload)


def json_entry(name: str, obj) -> RawEntry:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return RawEntry(name, 2, (len(payload),), payload)


def entry_array(entry: RawEntry, order: str = "C") -> np.ndarray:
    """A fresh float32 array of the entry's (row-major) payload, laid out
    in memory `order` ("C" or "F"); one copy either way."""
    if len(entry.payload) != math.prod(entry.dims) * PAYLOAD_DTYPE.itemsize:
        raise SchemaError(f"entry {entry.name!r}: payload size does not match dims {entry.dims}")
    arr = np.frombuffer(entry.payload, dtype=PAYLOAD_DTYPE).reshape(entry.dims)
    return arr.astype(np.float32, order=order)


def entry_json(entry: RawEntry):
    if entry.presence != 2:
        raise SchemaError(f"entry {entry.name!r} is not a JSON entry")
    try:
        return json.loads(entry.payload.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, an int over Python's digit limit
        raise SchemaError(f"entry {entry.name!r}: invalid JSON payload: {exc}") from None
    except RecursionError:
        raise SchemaError(f"entry {entry.name!r}: JSON payload nests too deeply") from None


# ---------------------------------------------------------------------------
# Feature container layer


def write_container(vf: VideoFeatures, path) -> None:
    """Write one video's features; read_container inverts this bit-exactly."""
    validate_features(vf)
    meta = {"video_id": vf.video_id, "label": vf.label.label_name}
    expr = array_entry("expression", vf.expression, presence=1 if vf.k > 0 else 0)
    expr.frame_indices = tuple(int(i) for i in vf.expression_frame_index)
    entries = [
        json_entry(META_ENTRY, meta),
        array_entry("clip", vf.clip),
        array_entry("beats", vf.beats),
        expr,
        array_entry("ocr_sentiment", vf.ocr_sentiment, presence=1 if vf.ocr_present else 0),
        array_entry("asr_sentiment", vf.asr_sentiment, presence=1 if vf.asr_present else 0),
    ]
    write_blocks(path, entries)


def read_container(path) -> VideoFeatures:
    entries = {e.name: e for e in read_blocks(path)}
    expected = {META_ENTRY, *MODALITY_NAMES}
    if set(entries) != expected:
        raise SchemaError(
            f"feature container must hold entries {sorted(expected)}, got {sorted(entries)}"
        )
    meta = entry_json(entries[META_ENTRY])
    if not isinstance(meta, dict) or "video_id" not in meta or "label" not in meta:
        raise SchemaError("meta entry must carry video_id and label")
    has_faces = int(entries["expression"].dims[:1] not in ((), (0,)))
    for name, flags in zip(MODALITY_NAMES, ([1], [1], [has_faces], [0, 1], [0, 1])):
        if entries[name].presence not in flags:
            raise SchemaError(f"entry {name!r}: presence flag {entries[name].presence}, expected one of {flags}")
    arrays = {name: entry_array(entries[name]) for name in MODALITY_NAMES}
    try:
        label = EmotionLabel.from_name(str(meta["label"]))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    vf = VideoFeatures(
        video_id=str(meta["video_id"]),
        label=label,
        clip=arrays["clip"],
        beats=arrays["beats"],
        expression=arrays["expression"],
        expression_frame_index=np.asarray(entries["expression"].frame_indices, dtype=np.int64),
        ocr_sentiment=arrays["ocr_sentiment"],
        asr_sentiment=arrays["asr_sentiment"],
        ocr_present=entries["ocr_sentiment"].presence == 1,
        asr_present=entries["asr_sentiment"].presence == 1,
    )
    validate_features(vf)
    return vf
