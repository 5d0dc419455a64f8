"""Channel sampling, equivalent-channel composition, and topology matrix."""

import numpy as np
import pytest

from irs_cache_dof.channel import (
    IrsConfig,
    equivalent_channel,
    network_indicator,
    sample_block_channels,
    sample_channels,
    zero_irs,
)
from irs_cache_dof.params import SystemParams

P34 = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)


def test_same_seed_and_block_is_bit_identical():
    a = sample_block_channels(P34, block=5, seed=123)
    b = sample_block_channels(P34, block=5, seed=123)
    assert np.array_equal(a.direct, b.direct)
    assert np.array_equal(a.tx_to_irs, b.tx_to_irs)
    assert np.array_equal(a.irs_to_rx, b.irs_to_rx)


def test_different_blocks_are_different():
    a = sample_block_channels(P34, block=1, seed=123)
    b = sample_block_channels(P34, block=2, seed=123)
    assert not np.array_equal(a.direct, b.direct)
    assert not np.array_equal(a.tx_to_irs, b.tx_to_irs)


def test_dimensions_match_params():
    ch = sample_block_channels(P34, block=1, seed=0)
    assert ch.direct.shape == (4, 3)
    assert ch.tx_to_irs.shape == (6, 3)
    assert ch.irs_to_rx.shape == (4, 6)


def test_unit_variance_monte_carlo():
    # empirical second moment of one entry over 1e5 independent blocks
    p = SystemParams(k_t=1, k_r=2, n_files=2, f_packets=1, mu_t=1, mu_r=1, q_elements=0)
    stack = sample_channels(p, range(100_000), seed=99)
    for b in (*range(50), 99_999):
        assert np.array_equal(stack.direct[b], sample_block_channels(p, block=b, seed=99).direct)
    draws = stack.direct[:, 0, 0]
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02
    assert abs(np.mean(draws)) < 0.02


def test_zero_irs_returns_direct_matrix():
    ch = sample_block_channels(P34, block=1, seed=7)
    h_eq = equivalent_channel(ch, zero_irs(6))
    assert np.allclose(h_eq, ch.direct)


def test_single_element_hand_case():
    p = SystemParams(k_t=1, k_r=2, n_files=2, f_packets=1, mu_t=1, mu_r=1, q_elements=1)
    ch = sample_block_channels(p, block=1, seed=3)
    # forcing all channels to one: equivalent entry is direct + 1*1*q
    ones = type(ch)(
        direct=np.ones((2, 1), dtype=complex),
        tx_to_irs=np.ones((1, 1), dtype=complex),
        irs_to_rx=np.ones((2, 1), dtype=complex),
        block_index=1,
        seed=3,
    )
    h_eq = equivalent_channel(ones, IrsConfig(q=np.array([1.0 + 0j])))
    assert np.allclose(h_eq, 2.0)


def test_equivalent_channel_is_linear_in_coefficients():
    rng = np.random.default_rng(5)
    ch = sample_block_channels(P34, block=2, seed=11)
    q1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    q2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    h0 = equivalent_channel(ch, zero_irs(6))
    lhs = equivalent_channel(ch, IrsConfig(q=a * q1 + b * q2)) - h0
    rhs = a * (equivalent_channel(ch, IrsConfig(q=q1)) - h0) + b * (
        equivalent_channel(ch, IrsConfig(q=q2)) - h0
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_irs_size_mismatch_rejected():
    ch = sample_block_channels(P34, block=1, seed=0)
    with pytest.raises(ValueError):
        equivalent_channel(ch, zero_irs(5))


def test_network_indicator_classifies_zero_and_nonzero():
    h = np.array([[0.0 + 0j, 1.2 - 0.3j], [3e-12 + 0j, -0.5j]])
    nm = network_indicator(h, tol=1e-9)
    # indicator is transmitter-by-receiver
    assert nm.shape == (2, 2)
    assert nm[0, 0] == 0 and nm[0, 1] == 0
    assert nm[1, 0] == 1 and nm[1, 1] == 1
    with pytest.raises(ValueError):
        network_indicator(h, tol=0.0)


def test_network_indicator_default_is_scale_relative():
    h = np.array([[1e-12 + 0j, 1.0 + 0j]])
    for scale in (1.0, 1e6, 1e-6):
        nm = network_indicator(h * scale)
        assert nm[0, 0] == 0 and nm[1, 0] == 1


def test_indicator_all_ones_without_surface():
    # continuous fading never lands on zero: 1000 draws, all links present
    p = SystemParams(k_t=3, k_r=4, n_files=4, f_packets=1, mu_t=1, mu_r=1, q_elements=0)
    for block in range(1, 1001):
        ch = sample_block_channels(p, block=block, seed=2024)
        nm = network_indicator(equivalent_channel(ch, zero_irs(0)), tol=1e-6)
        assert nm.all()
