"""Reference per-block arithmetic: the dictionary-based block path the
dense kernel replaced, kept as a test oracle.

Everything here walks ``Delivery`` objects: three separate channel draws,
null-steering rows built link by link, beamformers keyed by
``(SubfileId, transmitter)``, one symbol per subfile in a dict, and a
scalar cache-subtract decode per receiver. ``reference_simulate_block``
returns the same ``BlockRecord`` as ``simulate_block``.
"""

from __future__ import annotations

import math

import numpy as np

from irs_cache_dof.channel import (
    ChannelRealization,
    IrsConfig,
    SingularChannelError,
    block_rng,
    equivalent_channel,
    zero_irs,
)
from irs_cache_dof.irs import STATUS_EXACT, STATUS_INFEASIBLE
from irs_cache_dof.simulator import IRS_DISABLED, BlockRecord


def reference_channels(params, block, seed):
    rng = block_rng(seed, block)

    def cgauss(rows, cols):
        z = rng.standard_normal((rows, 2 * cols))
        return (z[:, ::2] + 1j * z[:, 1::2]) / np.sqrt(2.0)

    return ChannelRealization(
        direct=cgauss(params.k_r, params.k_t),
        tx_to_irs=cgauss(params.q_elements, params.k_t),
        irs_to_rx=cgauss(params.k_r, params.q_elements),
        block_index=block,
        seed=seed,
    )


def reference_solve_irs(ch, links):
    """Surface coefficients, status and residual for the sorted ``links``."""
    q_count = ch.tx_to_irs.shape[0]
    if not links:
        return IrsConfig(q=np.zeros(q_count, dtype=complex)), STATUS_EXACT, 0.0
    rows = np.array([ch.tx_to_irs[:, i - 1] * ch.irs_to_rx[j - 1, :] for i, j in links])
    rhs = np.array([-ch.direct[j - 1, i - 1] for i, j in links])
    if len(links) == q_count:
        q = np.linalg.solve(rows, rhs)
    else:
        q = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    residual = float(np.abs(rows @ q - rhs).max())
    status = STATUS_EXACT if len(links) <= q_count else STATUS_INFEASIBLE
    return IrsConfig(q=q), status, residual


def _solve(a, b):
    x = np.linalg.solve(a, b)
    if not np.all(np.isfinite(x)) or np.abs(a @ x - b).max() > 1e-8:
        raise SingularChannelError("reference zero-forcing system is singular")
    return x


def _single_zf(h_eq, serving, intended, zf_targets):
    rows = (intended, *sorted(zf_targets))
    a = np.array([[h_eq[r - 1, t - 1] for t in serving] for r in rows])
    b = np.zeros(len(serving), dtype=complex)
    b[0] = 1.0
    return _solve(a, b)


def _joint_zf(h_eq, serving, receivers, subfiles):
    mu_t = len(serving)
    n_slots = len(receivers)
    mu_r = n_slots - mu_t
    dim = n_slots * mu_t
    a = np.zeros((dim, dim), dtype=complex)
    b = np.zeros(dim, dtype=complex)

    def gain_row(row, rx, slot):
        for p, tx in enumerate(serving):
            a[row, slot * mu_t + p] = h_eq[rx - 1, tx - 1]

    row = 0
    gain_row(row, receivers[0], 0)
    b[row] = 1.0
    row += 1
    for slot in range(mu_r + 1, n_slots):
        gain_row(row, receivers[0], slot)
        row += 1
    for slot in range(1, mu_r + 1):
        gain_row(row, receivers[slot], slot)
        b[row] = 1.0
        row += 1
    for slot in range(mu_r + 1, n_slots):
        rx = receivers[slot]
        gain_row(row, rx, slot)
        b[row] = 1.0
        row += 1
        for other in range(0, mu_r + 1):
            gain_row(row, rx, other)
            row += 1
        for other in range(mu_r + 1, n_slots):
            if other != slot:
                gain_row(row, rx, other)
                row += 1
    x = _solve(a, b)
    return {
        (subfiles[slot], tx): complex(x[slot * mu_t + p])
        for slot in range(n_slots)
        for p, tx in enumerate(serving)
    }


def reference_beams(plan, h_eq, mu_t):
    """Coefficient per ``(SubfileId, transmitter)``."""
    if mu_t == 1:
        return {(dl.subfile, dl.serving_txs[0]): 1.0 + 0.0j for dl in plan.deliveries}
    group_size = 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
    lead = plan.deliveries[:group_size]
    coeffs = _joint_zf(
        h_eq, lead[0].serving_txs, [dl.intended_rx for dl in lead], [dl.subfile for dl in lead]
    )
    for dl in plan.deliveries[group_size:]:
        v = _single_zf(h_eq, dl.serving_txs, dl.intended_rx, plan.zf_rxs)
        for p, tx in enumerate(dl.serving_txs):
            coeffs[(dl.subfile, tx)] = complex(v[p])
    return coeffs


def reference_symbols(plan, seed):
    rng = block_rng(seed, plan.block_index, stream=1)
    phases = rng.uniform(0.0, 2.0 * math.pi, len(plan.deliveries))
    return {dl.subfile: complex(np.exp(1j * phases[n])) for n, dl in enumerate(plan.deliveries)}


def reference_transmit(beams, symbols, k_t):
    x = np.zeros(k_t, dtype=complex)
    for (sub, tx), v in beams.items():
        x[tx - 1] += v * symbols[sub]
    return x


def _gain(dl, rx, h_eq, beams):
    return sum(h_eq[rx - 1, tx - 1] * beams.get((dl.subfile, tx), 0.0) for tx in dl.serving_txs)


def reference_own_and_cached(own, plan, h_eq, beams, symbols):
    rx = own.intended_rx
    cached_sum = 0.0 + 0.0j
    for dl in plan.deliveries:
        if dl is own or rx not in dl.subfile.rx_set:
            continue
        cached_sum += _gain(dl, rx, h_eq, beams) * symbols[dl.subfile]
    return _gain(own, rx, h_eq, beams), cached_sum


def reference_decode_error(y, own, plan, h_eq, beams, symbols):
    own_gain, cached_sum = reference_own_and_cached(own, plan, h_eq, beams, symbols)
    if abs(own_gain) < 1e-300:
        return float("inf")
    return abs((y - cached_sum) / own_gain - symbols[own.subfile])


def reference_simulate_block(plan, params, seed, options):
    ch = reference_channels(params, plan.block_index, seed)
    links = sorted(plan.null_links)
    if options.disable_irs:
        irs_cfg, status, residual = zero_irs(params.q_elements), IRS_DISABLED, 0.0
    else:
        irs_cfg, status, residual = reference_solve_irs(ch, links)
    h_eq = equivalent_channel(ch, irs_cfg)
    beams = reference_beams(plan, h_eq, params.mu_t)
    symbols = reference_symbols(plan, seed)
    y = h_eq @ reference_transmit(beams, symbols, params.k_t)
    if options.noise_variance > 0.0:
        rng = block_rng(seed, plan.block_index, stream=2)
        noise = rng.standard_normal(params.k_r) + 1j * rng.standard_normal(params.k_r)
        y = y + noise * math.sqrt(options.noise_variance / 2.0)
    errors = tuple(
        (dl.intended_rx, reference_decode_error(y[dl.intended_rx - 1], dl, plan, h_eq, beams, symbols))
        for dl in plan.deliveries
    )
    return BlockRecord(
        block_index=plan.block_index,
        n_nulls=len(links),
        q_elements=params.q_elements,
        irs_status=status,
        irs_residual=residual,
        channel_scale=ch.scale,
        decode_errors=errors,
        delivered=sum(e < options.success_threshold for _, e in errors),
    )
