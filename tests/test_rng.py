import numpy as np
import pytest

from vemoclap.rng import RAW_CHUNK, SplitMix64


def test_same_seed_same_stream():
    a = SplitMix64(123456789).next_raw(16)
    b = SplitMix64(123456789).next_raw(16)
    assert np.array_equal(a, b)


def test_known_first_outputs_are_frozen():
    # Reference values computed once from the documented recurrence
    # mix64(seed + i * GOLDEN); they pin the stream across refactors.
    got = SplitMix64(0).next_raw(3)
    expected = np.array(
        [16294208416658607535, 7960286522194355700, 487617019471545679], dtype=np.uint64
    )
    assert np.array_equal(got, expected)


GOLDEN, MASK64 = 0x9E3779B97F4A7C15, 2**64 - 1


def closed_form(seed: int, first: int, count: int) -> np.ndarray:
    """mix64(seed + i * GOLDEN) for i = first .. first + count - 1, in wrapping uint64."""
    i = np.arange(count, dtype=np.uint64) + np.uint64(first)
    with np.errstate(over="ignore"):
        z = i * np.uint64(GOLDEN) + np.uint64(seed)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def test_closed_form_helper_agrees_with_python_ints():
    seed, i = 2**64 - 5, 7
    z = (seed + i * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    assert int(closed_form(seed, i, 1)[0]) == z ^ (z >> 31)


@pytest.mark.parametrize("count", [0, 1, RAW_CHUNK - 1, RAW_CHUNK, RAW_CHUNK + 1, 262_144])
@pytest.mark.parametrize("skip", [0, 3 * RAW_CHUNK - 2])
def test_next_raw_matches_closed_form_bit_for_bit(count, skip):
    seed = 0xFEEDFACE12345678
    r = SplitMix64(seed)
    r.next_raw(skip)
    got = r.next_raw(count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert np.array_equal(got, closed_form(seed, skip + 1, count))
    # The counter advanced by exactly `count`.
    assert r.next_raw(1)[0] == closed_form(seed, skip + count + 1, 1)[0]


def test_counter_continuation_matches_one_shot():
    r = SplitMix64(99)
    first = r.next_raw(5)
    second = r.next_raw(5)
    combined = SplitMix64(99).next_raw(10)
    assert np.array_equal(np.concatenate([first, second]), combined)


@pytest.mark.parametrize(
    "counts",
    [[0], [1], [RAW_CHUNK - 1], [RAW_CHUNK + 1], [3, 0, RAW_CHUNK - 1, 1, RAW_CHUNK + 1]],
)
def test_split_streams_give_the_parents_next_draws_bit_for_bit(counts):
    rng, reference = SplitMix64(77), SplitMix64(77)
    rng.next_raw(5)
    reference.next_raw(5)
    streams = rng.split(counts)
    # Drawn last stream first: each stream's draws do not depend on the order.
    drawn = [s.next_raw(c) for s, c in reversed(list(zip(streams, counts)))][::-1]
    assert np.array_equal(np.concatenate(drawn), reference.next_raw(sum(counts)))
    # The parent has moved past every split draw.
    assert np.array_equal(rng.next_raw(4), reference.next_raw(4))


def test_split_stream_cannot_draw_past_its_share():
    first, second = SplitMix64(3).split([4, 2])
    first.next_raw(3)
    with pytest.raises(ValueError):
        first.next_raw(2)
    first.next_raw(1)
    assert np.array_equal(second.next_raw(2), SplitMix64(3).next_raw(6)[4:])
    with pytest.raises(ValueError):
        SplitMix64(3).split([1, -1])


def test_derive_is_stable_and_tag_sensitive():
    base = SplitMix64(42)
    assert base.derive("dropout", 3).seed == base.derive("dropout", 3).seed
    assert base.derive("dropout", 3).seed != base.derive("dropout", 4).seed
    assert base.derive("dropout").seed != base.derive("shuffle").seed
    # Deriving does not advance the parent stream.
    before = SplitMix64(42).next_raw(2)
    base.derive("anything")
    assert np.array_equal(base.next_raw(2), before)


def test_random_is_in_unit_interval():
    vals = SplitMix64(5).random(10_000)
    assert vals.min() >= 0.0
    assert vals.max() < 1.0
    assert abs(vals.mean() - 0.5) < 0.02


def test_uniform_respects_bounds_and_dtype():
    vals = SplitMix64(5).uniform(-2.0, 3.0, (100,), dtype=np.float32)
    assert vals.dtype == np.float32
    assert vals.min() >= -2.0 and vals.max() < 3.0


def test_permutation_is_a_permutation():
    perm = SplitMix64(11).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_sample_without_replacement_sorted_distinct():
    picked = SplitMix64(13).sample_without_replacement(50, 12)
    assert len(set(picked.tolist())) == 12
    assert np.all(np.diff(picked) > 0)
    with pytest.raises(ValueError):
        SplitMix64(13).sample_without_replacement(5, 6)


def test_shuffle_returns_new_list():
    items = list("abcdef")
    out = SplitMix64(3).shuffle(items)
    assert sorted(out) == sorted(items)
    assert items == list("abcdef")


def test_rejects_unknown_tag_type():
    with pytest.raises(TypeError):
        SplitMix64(0).derive(3.14)
