"""Deterministic random number generation.

Every stochastic choice in this package (weight init, dropout masks, frame
sampling, shuffles) is drawn from :class:`SplitMix64`, a counter-based
generator that is fully specified here so results are bit-reproducible
across machines and library versions:

    output(i) = mix64(seed + (i + 1) * GOLDEN)        (all mod 2**64)

where GOLDEN = 0x9E3779B97F4A7C15 and mix64 is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Substreams are derived by folding tags into the seed (see
:meth:`SplitMix64.derive`), which keeps per-epoch / per-video streams
independent of how much randomness earlier code consumed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF
_DERIVE_SALT = np.uint64(0x5851F42D4C957F2D)

# `next_raw` mixes its outputs in place, this many at a time, so its one
# scratch buffer stays cache-sized whatever the count.
RAW_CHUNK = 16384
_STEPS = np.arange(RAW_CHUNK, dtype=np.uint64) * _GOLDEN  # j * GOLDEN, wrapped

# 64-bit FNV-1a, used to hash string tags into u64 stream labels.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # wraparound mod 2**64 is the point
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _fold_tag(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    if isinstance(tag, str):
        h = _FNV_OFFSET
        for byte in tag.encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        return h
    raise TypeError(f"rng tags must be int or str, got {type(tag).__name__}")


class SplitMix64:
    """Counter-based PRNG with an explicit 64-bit seed.

    The generator is a pure function of (seed, counter); `derive` creates
    statistically independent child streams without touching the parent's
    counter.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._counter = 0
        self._end: Optional[int] = None  # counter limit of a `split` stream

    @property
    def seed(self) -> int:
        return self._seed

    def derive(self, *tags) -> "SplitMix64":
        """Child stream keyed by the tag sequence.

        child_seed starts from mix64(seed ^ SALT) and absorbs each tag t as
        ``s = mix64(s ^ (fold(t) + GOLDEN))`` with fold = identity for ints
        and FNV-1a for strings.
        """
        s = _mix64(np.uint64(self._seed) ^ _DERIVE_SALT)
        with np.errstate(over="ignore"):
            for tag in tags:
                folded = np.uint64(_fold_tag(tag)) + _GOLDEN
                s = _mix64(s ^ folded)
        return SplitMix64(int(s))

    def split(self, counts: Sequence[int]) -> list["SplitMix64"]:
        """Streams that yield, in turn, the next counts[i] outputs of this one.

        Stream i gives exactly the outputs that this stream would give
        after the first sum(counts[:i]) of those it has still to give, and
        this stream moves past all sum(counts) of them. So the streams can
        be drawn from in any order, or on separate threads, with the same
        results as drawing them one after another from this stream. Drawing
        past counts[i] from stream i is a ValueError.
        """
        streams = []
        for count in counts:
            if count < 0:
                raise ValueError("counts must be nonnegative")
            stream = SplitMix64(self._seed)
            stream._counter = self._counter
            self._counter += int(count)
            stream._end = self._counter
            streams.append(stream)
        return streams

    def next_raw(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit outputs as a uint64 array.

        Output i is seed + (counter + i + 1) * GOLDEN put through mix64 in
        place, RAW_CHUNK outputs at a time with one scratch buffer.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if self._end is not None and self._counter + count > self._end:
            raise ValueError(f"split stream has {self._end - self._counter} outputs left, {count} asked")
        out = np.empty(count, dtype=np.uint64)
        tmp = np.empty(min(count, RAW_CHUNK), dtype=np.uint64)
        first = self._counter + 1
        self._counter += count
        with np.errstate(over="ignore"):
            for lo in range(0, count, RAW_CHUNK):
                z = out[lo:lo + RAW_CHUNK]
                t = tmp[: z.size]
                base = (self._seed + (first + lo) * int(_GOLDEN)) & _MASK64
                np.add(_STEPS[: z.size], np.uint64(base), out=z)
                for shift, mult in ((30, _MIX1), (27, _MIX2)):
                    np.right_shift(z, np.uint64(shift), out=t)
                    z ^= t
                    z *= mult
                np.right_shift(z, np.uint64(31), out=t)
                z ^= t
        return out

    def random(self, shape=(), dtype=np.float64) -> np.ndarray:
        """Uniform floats in [0, 1): top 53 bits / 2**53 (24 bits for f32)."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = self.next_raw(n)
        if np.dtype(dtype) == np.float32:
            vals = (raw >> np.uint64(40)).astype(np.float32) * np.float32(2.0**-24)
        else:
            vals = (raw >> np.uint64(11)).astype(np.float64) * (2.0**-53)
        return vals.reshape(shape) if shape else vals[0]

    def uniform(self, low: float, high: float, shape=(), dtype=np.float64) -> np.ndarray:
        u = self.random(shape, dtype=np.float64)
        out = low + u * (high - low)
        return np.asarray(out, dtype=dtype)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) via argsort of raw outputs."""
        keys = self.next_raw(n)
        return np.argsort(keys, kind="stable")

    def sample_without_replacement(self, total: int, n: int) -> np.ndarray:
        """n distinct values from range(total), ascending. Requires n <= total."""
        if n > total:
            raise ValueError(f"cannot draw {n} distinct values from range({total})")
        picked = self.permutation(total)[:n]
        return np.sort(picked)

    def shuffle(self, items: list) -> list:
        """New list with items in permuted order (input untouched)."""
        order = self.permutation(len(items))
        return [items[i] for i in order]
