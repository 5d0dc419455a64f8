"""The subfile-key codec: round trips, key order against pair order, the
multi-word layout past 63 bits, and range checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_cache_dof.combinatorics import enumerate_subsets, subset_ranks, subsets_of_ranks
from irs_cache_dof.params import SystemParams
from irs_cache_dof.placement import ORDERED_MODE, SUBSET_MODE, SubfileId
from irs_cache_dof.scheduler import SchedulingError, SubfileKeyCodec

FIG3 = SystemParams(k_t=26, k_r=26, n_files=26, f_packets=1, mu_t=2, mu_r=12)

#: (params, mode, zf_size, irs_size); fig3's shape with a surface split of 6
#: needs about 63.4 bits, so its keys take two words
SHAPES = [
    (SystemParams(k_t=3, k_r=4, n_files=12, f_packets=1, mu_t=1, mu_r=1), SUBSET_MODE, 0, 2),
    (SystemParams(k_t=6, k_r=6, n_files=6, f_packets=1, mu_t=2, mu_r=1), ORDERED_MODE, 1, 2),
    (SystemParams(k_t=8, k_r=9, n_files=9, f_packets=1, mu_t=4, mu_r=3), SUBSET_MODE, 3, 2),
    (FIG3, SUBSET_MODE, 1, 0),
    (FIG3, SUBSET_MODE, 1, 6),
    (FIG3, SUBSET_MODE, 1, 12),
]


@st.composite
def shape_and_pairs(draw):
    params, mode, zf_size, irs_size = draw(st.sampled_from(SHAPES))
    codec = SubfileKeyCodec(params, mode, zf_size, irs_size)
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        order = draw(st.permutations(range(1, params.k_r + 1)))
        cuts = np.cumsum([1, params.mu_r, zf_size, irs_size])
        rx, rx_set, zf_set, irs_set = (tuple(sorted(order[a:b])) for a, b in zip([0, *cuts[:-1]], cuts))
        if mode == SUBSET_MODE:
            tx = tuple(sorted(draw(st.permutations(range(1, params.k_t + 1)))[: params.mu_t]))
        else:
            tx = draw(st.integers(1, codec.radices[1]))
        file = draw(st.integers(1, params.n_files))
        pairs.append((SubfileId(file, tx, rx_set, zf_set, irs_set), rx[0]))
    return codec, pairs


@settings(max_examples=200, deadline=None)
@given(shape_and_pairs())
def test_codec_round_trip_and_order(case):
    codec, pairs = case
    digits = np.array([codec.pair_digits(pair) for pair in pairs]).T
    assert (digits >= 0).all()
    rows = codec.encode(*digits)
    assert rows.shape == (len(pairs), codec.width)
    assert codec.pairs(rows) == pairs
    # rows order exactly as the pairs do, word 0 first
    order = np.lexsort(rows.T[::-1])
    assert [pairs[i] for i in order] == sorted(pairs)


def test_fig3_keys_take_two_words():
    bits = {irs: math.log2(math.prod(SubfileKeyCodec(FIG3, SUBSET_MODE, 1, irs).radices)) for irs in (0, 6, 12)}
    widths = {irs: SubfileKeyCodec(FIG3, SUBSET_MODE, 1, irs).width for irs in (0, 6, 12)}
    assert bits[0] < 63 < bits[6] and widths == {0: 1, 6: 2, 12: 2}
    codec = SubfileKeyCodec(FIG3, SUBSET_MODE, 1, 6)
    # the largest digit of every field at once: no word wraps
    top = codec.encode(*(radix - 1 for radix in codec.radices))[0]
    assert [top[w] // weight % radix for (w, weight), radix in zip(codec.places, codec.radices)] == [
        radix - 1 for radix in codec.radices
    ]
    pair = (SubfileId(26, (25, 26), tuple(range(14, 26)), (13,), tuple(range(7, 13))), 26)
    assert codec.pairs(codec.encode(*codec.pair_digits(pair))) == [pair]


def test_out_of_range_digits():
    params, mode, zf_size, irs_size = SHAPES[0]
    codec = SubfileKeyCodec(params, mode, zf_size, irs_size)
    good = (SubfileId(1, (2,), (1,), (), (3, 4)), 2)
    assert min(codec.pair_digits(good)) == 0  # file 1 is digit 0
    bad = [
        (SubfileId(13, (2,), (1,), (), (3, 4)), 2),  # file past n_files
        (SubfileId(0, (2,), (1,), (), (3, 4)), 2),  # file 0
        (SubfileId(1, (4,), (1,), (), (3, 4)), 2),  # transmitter past k_t
        (SubfileId(1, (1, 2), (1,), (), (3, 4)), 2),  # wrong tx subset size
        (SubfileId(1, 2, (1,), (), (3, 4)), 2),  # an arrangement number in subset mode
        (SubfileId(1, (2,), (5,), (), (3, 4)), 2),  # receiver past k_r in a set
        (SubfileId(1, (2,), (1,), (), (4, 3)), 2),  # set out of order
        (SubfileId(1, (2,), (1,), (), (3, 3)), 2),  # a receiver twice in a set
        (SubfileId(1, (2,), (1,), (), (3,)), 2),  # wrong surface-set size
        (SubfileId(1, (2,), (1,), (), (3, 4)), 0),  # receiver 0
        (SubfileId(1, (2,), (1,), (), (3, 4)), 5),  # receiver past k_r
    ]
    for pair in bad:
        assert min(codec.pair_digits(pair)) == -1, pair
    with pytest.raises(ValueError, match="outside"):
        codec.encode(12, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="outside"):
        codec.encode(0, 0, 0, 0, 0, -1)


def test_a_digit_past_one_word_is_refused():
    # 64 receivers choose 32 is about 2**60.7 and takes a word of its own
    # (with the transmitter digit); 68 choose 34 is about 2**64.8
    assert SubfileKeyCodec(SystemParams(2, 64, 64, 1, 1, 32), SUBSET_MODE, 0, 0).width == 3
    with pytest.raises(SchedulingError, match="does not fit one int64 word"):
        SubfileKeyCodec(SystemParams(2, 68, 68, 1, 1, 34), SUBSET_MODE, 0, 0)


@pytest.mark.parametrize("n, k", [(1, 1), (6, 0), (9, 4), (16, 11), (26, 12)])
def test_subset_ranks_are_enumeration_positions(n, k):
    if math.comb(n, k) <= 5000:
        subsets = np.array(enumerate_subsets(n, k), dtype=np.int64).reshape(math.comb(n, k), k)
        assert subset_ranks(subsets, n).tolist() == list(range(len(subsets)))
    ranks = np.unique(np.r_[0, math.comb(n, k) - 1, np.random.default_rng(n).integers(0, math.comb(n, k), 200)])
    subsets = subsets_of_ranks(ranks, n, k)
    assert (np.diff(subsets, axis=1) > 0).all() and subset_ranks(subsets, n).tolist() == ranks.tolist()
    assert [tuple(s) for s in subsets.tolist()] == sorted(tuple(s) for s in subsets.tolist())
