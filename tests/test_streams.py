"""Re-keyed block streams against numpy's own ``SeedSequence``-seeded
``PCG64``: the vectorized seed hash for one- and two-word seeds, every draw
of a chunk on both sides of the stream crossover, re-keying after partial
draws, keys past 32 bits, and that a chunk constructs no generator per
block."""

import math
import re
import sys
import threading

import numpy as np
import pytest

from irs_cache_dof import SystemParams, channel, run_episode
from irs_cache_dof.channel import STREAM_CROSSOVER, _pcg64_seeds, fill_block_streams

TOP = 2**32 - 1

#: (seed, stream, blocks): 250 random chunks of 8 blocks, 2,000 triples in
#: all, then every triple with 0, 2**32 - 1 or a random word in each position
_RNG = np.random.default_rng(20_261_018)
CHUNKS = [
    (int(seed), int(stream), [int(b) for b in _RNG.integers(0, TOP, 8, endpoint=True)])
    for seed, stream in _RNG.integers(0, TOP, (250, 2), endpoint=True)
]
_WORD = int(_RNG.integers(0, TOP, endpoint=True))
CHUNKS += [(seed, stream, [0, TOP, _WORD]) for seed in (0, TOP, _WORD) for stream in (0, TOP, _WORD)]
#: two-word seeds: 2**32, 2**64 - 1 and 200 random ones in between, each with
#: random chunks of 8 blocks and the extreme block and stream words
_SEEDS64 = [2**32, 2**64 - 1, *(int(s) for s in _RNG.integers(2**32, 2**64 - 1, 200, dtype=np.uint64))]
CHUNKS64 = [
    (seed, int(_RNG.integers(0, TOP, endpoint=True)), [int(b) for b in _RNG.integers(0, TOP, 8, endpoint=True)])
    for seed in _SEEDS64
]
CHUNKS64 += [(seed, stream, [0, TOP, _WORD]) for seed in _SEEDS64[:2] for stream in (0, TOP)]


def numpy_generator(seed, block, stream):
    """The generator numpy builds from the entropy tuple itself."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block, stream))))


def test_seed_hash_equals_seed_sequence():
    assert sum(len(blocks) for _, _, blocks in CHUNKS[:250]) == 2000
    for seed, stream, blocks in CHUNKS + CHUNKS64:
        got = np.array(_pcg64_seeds(seed, blocks, stream), dtype=np.uint64)
        for block, words in zip(blocks, got):
            want = np.random.SeedSequence((seed, block, stream)).generate_state(4, np.uint64)
            assert np.array_equal(words, want), (seed, block, stream)


@pytest.mark.parametrize("length", [1, STREAM_CROSSOVER - 1, STREAM_CROSSOVER, STREAM_CROSSOVER + 1, 80])
def test_normal_and_uniform_rows_equal_numpy_streams(length):
    for seed, stream, _ in CHUNKS[::25]:
        blocks = list(range(TOP - length + 1, TOP + 1)) if seed % 2 else list(range(length))
        normals = fill_block_streams(np.empty((length, 2, 5)), seed, blocks, stream)
        phases = fill_block_streams(np.empty((length, 7)), seed, blocks, stream, "random") * (2.0 * math.pi)
        for block, row, phase in zip(blocks, normals, phases):
            assert np.array_equal(row, numpy_generator(seed, block, stream).standard_normal((2, 5)))
            assert np.array_equal(phase, numpy_generator(seed, block, stream).uniform(0.0, 2.0 * math.pi, 7))


def test_rekey_after_a_partial_draw():
    """Leftovers in the shared generator (a buffered half word from a 32-bit
    draw, a stream drawn part way) never reach the next fill."""
    seed, stream, blocks = CHUNKS[0]
    want = fill_block_streams(np.empty((8, 9)), seed, blocks, stream)
    channel._rekeyed().integers(0, 2**32, dtype=np.uint32)
    assert channel._rekeyed().bit_generator.state["has_uint32"] == 1
    got = fill_block_streams(np.empty((8, 9)), seed, blocks, stream)
    assert np.array_equal(got, want)
    # a short fill leaves each stream part way through; the next re-keys from scratch
    fill_block_streams(np.empty((8, 3)), seed, blocks, stream)
    assert np.array_equal(fill_block_streams(np.empty((8, 9)), seed, blocks, stream), want)
    for row, block in zip(want, blocks):
        assert np.array_equal(row, numpy_generator(seed, block, stream).standard_normal(9))


def test_keys_past_32_bits_take_block_rng(monkeypatch):
    """A block or stream past 32 bits, or a seed past 64, is drawn through
    ``block_rng`` per block; a two-word seed is re-keyed like a one-word one."""
    calls = []
    real = channel.block_rng

    def counted(seed, block, stream=0):
        calls.append((seed, block, stream))
        return real(seed, block, stream)

    monkeypatch.setattr(channel, "block_rng", counted)
    blocks = list(range(40))
    rekeyed = ((2**32, 0, blocks), (2**64 - 1, 1, blocks))
    per_block = ((2**64, 0, blocks), (3, 2**32, blocks), (3, 0, [*blocks, 2**32]))
    for seed, stream, chunk in rekeyed + per_block:
        calls.clear()
        out = fill_block_streams(np.empty((len(chunk), 6)), seed, chunk, stream)
        assert calls == ([] if (seed, stream, chunk) in rekeyed else [(seed, block, stream) for block in chunk])
        for row, block in zip(out, chunk):
            assert np.array_equal(row, numpy_generator(seed, block, stream).standard_normal(6))
    with pytest.raises(ValueError):
        fill_block_streams(np.empty((40, 6)), 3, [-1, *blocks[1:]], 0)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, False, -1, np.int64(-1), np.float64(2.0), "3", None])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused(seed):
    """Every draw refuses such a seed, on either side of the stream
    crossover, instead of drawing the streams of a truncated one."""
    message = rf"^seed must be (an integer|nonnegative), got {re.escape(repr(seed))}$"
    for length in (1, STREAM_CROSSOVER):
        with pytest.raises(ValueError, match=message):
            fill_block_streams(np.empty((length, 3)), seed, list(range(length)), 0)
    with pytest.raises(ValueError, match=message):
        channel.block_rng(seed, 1, 0)
    with pytest.raises(ValueError, match=message):
        run_episode(SystemParams(3, 4, 12, 12, 1, 1, 6), "thm1", seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint32(2**32 - 1), np.uint64(2**64 - 1), np.int8(0)])
def test_numpy_integer_seeds_draw_as_the_equal_int(seed):
    for length in (1, STREAM_CROSSOVER, 20):
        blocks = list(range(length))
        want = fill_block_streams(np.empty((length, 5)), int(seed), blocks, 1, "random")
        assert np.array_equal(fill_block_streams(np.empty((length, 5)), seed, blocks, 1, "random"), want)
    want = channel.block_rng(int(seed), 3, 2).standard_normal(4)
    assert np.array_equal(channel.block_rng(seed, 3, 2).standard_normal(4), want)


def test_a_chunk_constructs_no_seed_sequence_per_block(monkeypatch):
    constructed = []

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            constructed.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    for length in (STREAM_CROSSOVER, 80):
        constructed.clear()
        fill_block_streams(np.empty((length, 4)), 11, list(range(length)), 1)
        assert constructed == []
    # the block_rng path, for comparison, constructs one per block
    monkeypatch.setattr(channel, "STREAM_CROSSOVER", 81)
    fill_block_streams(np.empty((80, 4)), 11, list(range(80)), 1)
    assert len(constructed) == 80


def test_concurrent_fills_do_not_interleave():
    """Threads re-keying the one shared generator at once each get their own
    streams, with the interpreter switching threads as often as it can."""
    jobs = [(seed, list(range(seed, seed + 20))) for seed in range(6)]
    want = {seed: fill_block_streams(np.empty((20, 16)), seed, blocks, 0) for seed, blocks in jobs}
    mismatches = []

    def work(seed, blocks):
        for _ in range(30):
            if not np.array_equal(fill_block_streams(np.empty((20, 16)), seed, blocks, 0), want[seed]):
                mismatches.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=job) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
