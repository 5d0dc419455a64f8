"""Per-block fading channels, the IRS-composed equivalent channel, and the
binary topology matrix derived from it."""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .params import SystemParams, as_count

_SQRT2 = np.sqrt(2.0)

#: zero-classification threshold, relative to the largest direct-channel entry
DEFAULT_ZERO_TOL = 1e-9


class SingularChannelError(RuntimeError):
    """A sampled channel produced a numerically singular solve (a
    probability-zero event for continuous fading). Nothing resamples: the
    message names the seed and block, the episode aborts, and the command
    line exits with code 3."""


def solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.solve`` over a stack of square systems ``a`` (S, n, n)
    with right-hand sides ``b`` (S, n, k), and which of them LAPACK found
    singular. One singular system does not stop the others: they are then
    solved one at a time, and its solution is NaN, which fails every
    residual check."""
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan, dtype=np.result_type(a, b))
        singular = np.zeros(len(a), dtype=bool)
        for s in range(len(a)):
            try:
                x[s] = np.linalg.solve(a[s], b[s])
            except np.linalg.LinAlgError:
                singular[s] = True
        return x, singular


def as_seed(seed: int) -> int:
    """``seed`` as a Python int, or a :class:`ParameterError` (a
    ``ValueError``) naming it when it is not a nonnegative integer."""
    return as_count(seed, "seed")


def block_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for one (seed, block) pair.

    Separate ``stream`` values isolate channel draws from symbol/noise draws
    so sampling one never perturbs the other. Streams are splittable: blocks
    can be generated concurrently with identical results.

    The entropy is ``(seed, block, stream)``. When each fits in 32 bits it
    goes in as one uint32 word apiece, which is how ``SeedSequence`` reads
    such integers anyway, minus its per-integer conversion.

    This is the one-block constructor. Chunks of blocks draw the same
    streams through :func:`fill_block_streams`, which hashes all their
    keys at once and re-keys one generator per block instead of building
    one; below :data:`STREAM_CROSSOVER` blocks, and for a block or stream
    past 32 bits or a seed past 64, it calls this function per block.
    """
    entropy = (as_seed(seed), block, stream)
    if 0 <= min(entropy) and max(entropy) <= 0xFFFFFFFF:
        return np.random.default_rng(np.random.SeedSequence(np.array(entropy, dtype=np.uint32)))
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def _uint32_powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for ``k < count``, as a uint32 column."""
    powers = [init]
    for _ in range(count - 1):
        powers.append(powers[-1] * mult & 0xFFFFFFFF)
    return np.array(powers, dtype=np.uint32)[:, None]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): every
# ``hashmix`` call uses the next power of MULT_A, every output word the next
# power of MULT_B, whatever the data, so both sequences are fixed here
_POOL = 4
_HASH_A = _uint32_powers(0x43B0D7E5, 0x931E8875, _POOL + _POOL * (_POOL - 1) + 1)
_HASH_B = _uint32_powers(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
#: the pool words each source word is mixed into, in the hash's order
_MIX_TARGETS = tuple(np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL))
#: the pool words read, cyclically, for the eight uint32 output words
_OUTPUT_WORDS = np.arange(2 * _POOL) % _POOL

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: chunks of fewer blocks than this draw through :func:`block_rng` one block
#: at a time. Hashing a chunk's keys costs a fixed ~58 us (about 40 numpy
#: calls) and re-keying saves ~12 us per block against constructing a
#: generator, so the two break even at 6 blocks (timeit, 2-vCPU x86-64,
#: numpy 2.4, rows of 5 uniforms and of 360 normals)
STREAM_CROSSOVER = 7

#: keeps concurrent fills from interleaving the re-keyed generator's states
_REKEY_LOCK = threading.Lock()


@functools.cache
def _rekeyed() -> np.random.Generator:
    """The one generator :func:`fill_block_streams` re-keys, never handed
    out. It is built on first use: importing the package does not load
    ``numpy.random``."""
    return np.random.Generator(np.random.PCG64(0))


def _hashmix(words: np.ndarray, first: int, rows: int) -> np.ndarray:
    """``hashmix`` of ``rows`` words in turn, from the ``first``-th hash
    constant: the rows of ``words``, or one row of it broadcast."""
    mixed = words ^ _HASH_A[first : first + rows]
    mixed *= _HASH_A[first + 1 : first + rows + 1]
    mixed ^= mixed >> _XSHIFT
    return mixed


def _pcg64_seeds(seed: int, blocks: Sequence[int], stream: int) -> list[list[int]]:
    """``SeedSequence((seed, block, stream)).generate_state(4, np.uint64)``
    for every block, computed for all blocks at once; the seed fits in 64
    bits, the block and stream in 32. uint32 arithmetic wraps as the hash's
    C code does.

    ``SeedSequence`` reads each integer as its uint32 words, low word first,
    so the pool is ``(seed, block, stream, 0)`` for a one-word seed and
    ``(seed_low, seed_high, block, stream)`` for a two-word one; a zero word
    and an absent one hash alike."""
    pool = np.empty((_POOL, len(blocks)), dtype=np.uint32)
    if seed <= 0xFFFFFFFF:
        pool[0], pool[1], pool[2], pool[3] = seed, blocks, stream, 0
    else:
        pool[0], pool[1], pool[2], pool[3] = seed & 0xFFFFFFFF, seed >> 32, blocks, stream
    pool = _hashmix(pool, 0, _POOL)
    for src, targets in enumerate(_MIX_TARGETS):
        # the hashmixes of one source word into each target, then the mixes
        y = _hashmix(pool[src], _POOL + (_POOL - 1) * src, _POOL - 1)
        mixed = pool[targets] * _MIX_L
        mixed -= y * _MIX_R
        mixed ^= mixed >> _XSHIFT
        pool[targets] = mixed
    words = pool[_OUTPUT_WORDS]
    words ^= _HASH_B[:-1]
    words *= _HASH_B[1:]
    words ^= words >> _XSHIFT
    # little-endian word pairs make the four uint64s of each block
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist()


def fill_block_streams(
    out: np.ndarray, seed: int, blocks: Sequence[int], stream: int, draw: str = "standard_normal"
) -> np.ndarray:
    """Fill row ``b`` of ``out`` with ``block_rng(seed, blocks[b],
    stream).<draw>(out=out[b])``: standard normals, or uniforms on [0, 1)
    with ``draw="random"``. Every row equals that call's bit for bit.

    From :data:`STREAM_CROSSOVER` blocks on, with the seed within 64 bits
    and every block and the stream within 32, the ``SeedSequence`` hashes of
    all blocks run as one vectorized pass and one ``PCG64`` is re-keyed per
    block by setting the state its seeding would produce, instead of
    constructing a generator per block.
    """
    if draw not in ("standard_normal", "random"):
        raise ValueError(f"unknown draw {draw!r}")
    seed = as_seed(seed)
    if len(blocks) < STREAM_CROSSOVER or not (
        0 <= min(seed, stream, *blocks)
        and seed <= 0xFFFFFFFFFFFFFFFF
        and max(stream, *blocks) <= 0xFFFFFFFF
    ):
        for row, block in zip(out, blocks):
            getattr(block_rng(seed, block, stream), draw)(out=row)
        return out
    generator = _rekeyed()
    fill = getattr(generator, draw)
    with _REKEY_LOCK:
        for row, (s0_high, s0_low, s1_high, s1_low) in zip(out, _pcg64_seeds(seed, blocks, stream)):
            # PCG64's seeding: inc = 2*s1 + 1, then two LCG steps around adding s0
            inc = ((s1_high << 65) | (s1_low << 1) | 1) & _MASK128
            state = ((((s0_high << 64) | s0_low) + inc) * _PCG64_MULT + inc) & _MASK128
            generator.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            fill(out=row)
    return out


@dataclass(frozen=True)
class ChannelRealization:
    """Sampled complex channels of one communication block.

    ``direct[j-1, i-1]`` is the transmitter-``i`` to receiver-``j`` link,
    ``tx_to_irs[u-1, i-1]`` the link into IRS element ``u``, and
    ``irs_to_rx[j-1, u-1]`` the link out of it.
    """

    direct: np.ndarray
    tx_to_irs: np.ndarray
    irs_to_rx: np.ndarray
    block_index: int
    seed: int
    #: largest direct-channel magnitude; reference for relative tolerances
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", float(np.abs(self.direct).max()))


@dataclass(frozen=True)
class IrsConfig:
    """Complex coefficient per IRS element (amplitude times phase factor).

    The surface is active, so magnitudes are unconstrained; only the product
    of amplitude and phase shift enters the received signal.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.q).all():
            raise ValueError("IRS coefficients must be finite")


def zero_irs(q_elements: int) -> IrsConfig:
    return IrsConfig(q=np.zeros(q_elements, dtype=complex))


class ChannelStack(NamedTuple):
    """The channels of several blocks of one seed, stacked along a leading
    block axis: ``direct[b]``, ``tx_to_irs[b]`` and ``irs_to_rx[b]`` are the
    legs of block ``blocks[b]``, laid out as in :class:`ChannelRealization`,
    and ``scale[b]`` is its largest direct-channel magnitude."""

    direct: np.ndarray
    tx_to_irs: np.ndarray
    irs_to_rx: np.ndarray
    blocks: tuple[int, ...]
    seed: int
    scale: np.ndarray

    @classmethod
    def of(cls, ch: ChannelRealization) -> "ChannelStack":
        """The stack of one realization."""
        legs = ch.direct[None], ch.tx_to_irs[None], ch.irs_to_rx[None]
        return cls(*legs, (ch.block_index,), ch.seed, np.array([ch.scale]))


def _draw(params: SystemParams, blocks: Sequence[int], seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three legs of every block, stacked. Each block's stream 0 fills
    its own row of one buffer, the legs in turn, row-major, each entry
    taking consecutive (real, imaginary) normals."""
    k_t, k_r, q, n = params.k_t, params.k_r, params.q_elements, len(blocks)
    n_direct, n_in = k_r * k_t, q * k_t
    draws = fill_block_streams(np.empty((n, 2 * (n_direct + n_in + k_r * q))), seed, blocks, 0)
    h = draws.view(complex)
    h /= _SQRT2
    h.setflags(write=False)
    return (
        h[:, :n_direct].reshape(n, k_r, k_t),
        h[:, n_direct : n_direct + n_in].reshape(n, q, k_t),
        h[:, n_direct + n_in :].reshape(n, k_r, q),
    )


def sample_channels(params: SystemParams, blocks: Sequence[int], seed: int) -> ChannelStack:
    """Draw i.i.d. unit-variance circularly-symmetric complex Gaussian
    coefficients for each of ``blocks``.

    Deterministic given ``(seed, block)``; different blocks use independent
    streams (time-selective fading), and a block's draw does not depend on
    which blocks share the call.
    """
    direct, tx_to_irs, irs_to_rx = _draw(params, blocks, seed)
    return ChannelStack(direct, tx_to_irs, irs_to_rx, tuple(blocks), seed, np.abs(direct).max(axis=(1, 2)))


def sample_block_channels(params: SystemParams, block: int, seed: int) -> ChannelRealization:
    """The channels of one block: the one-block case of :func:`sample_channels`."""
    direct, tx_to_irs, irs_to_rx = _draw(params, (block,), seed)
    return ChannelRealization(direct[0], tx_to_irs[0], irs_to_rx[0], block_index=block, seed=seed)


def equivalent_channels(ch: ChannelStack | ChannelRealization, q: np.ndarray) -> np.ndarray:
    """Effective receiver-by-transmitter channel after the surface acts:
    of every block of a :class:`ChannelStack` with block ``b``'s
    coefficients ``q[b]``, or of one realization with ``q``.

    Entry ``(j, i)`` is the direct link plus the sum over elements of
    (tx->element) * coefficient * (element->rx); linear in the coefficients.
    """
    if q.shape[-1] == 0:
        return ch.direct.copy()
    return ch.direct + (ch.irs_to_rx * q[..., None, :]) @ ch.tx_to_irs


def equivalent_channel(ch: ChannelRealization, irs: IrsConfig) -> np.ndarray:
    """The one-block case of :func:`equivalent_channels`."""
    q_count = irs.q.shape[0]
    if ch.tx_to_irs.shape[0] != q_count or ch.irs_to_rx.shape[1] != q_count:
        raise ValueError(
            f"IRS size mismatch: {q_count} coefficients vs channels for "
            f"{ch.tx_to_irs.shape[0]}/{ch.irs_to_rx.shape[1]} elements"
        )
    return equivalent_channels(ch, irs.q)


def network_indicator(h_eq: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Binary topology matrix of an equivalent channel: entry ``[i-1, j-1]``
    is 1 iff the transmitter-``i`` to receiver-``j`` link survives (its
    gain exceeds ``tol``), as uint8.

    Without an explicit ``tol``, zero is classified relative to the largest
    entry so the matrix is invariant to overall channel scale.
    """
    if tol is None:
        tol = DEFAULT_ZERO_TOL * float(np.abs(h_eq).max())
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return (np.abs(h_eq.T) > tol).astype(np.uint8)
