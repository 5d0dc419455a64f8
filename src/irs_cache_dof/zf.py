"""Beamforming coefficient solves.

With disjoint transmitter caches (mu_t = 1) the coefficients are a binary
subfile selection. With overlapping caches a serving group of ``mu_t``
transmitters solves small complex linear systems: unit aggregate gain at
each intended receiver and zero aggregate gain at each constrained
unintended one. Each block carries one representative symbol per subfile;
the per-symbol systems are identical and decouple, so one solve is enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import SingularChannelError, solve_each
from .lowering import PlanStack, joint_zf_layout, lower
from .placement import SubfileId
from .scheduler import BlockPlan, Delivery


@dataclass(frozen=True, eq=False)
class BeamformerSet:
    """Complex coefficients, one row per delivery of ``deliveries`` and one
    column per transmitter of its serving group (in group order);
    transmitters outside a delivery's group send nothing of it."""

    deliveries: tuple[Delivery, ...]
    weights: np.ndarray

    def weight(self, subfile: SubfileId, tx: int) -> complex:
        for dl, row in zip(self.deliveries, self.weights):
            if dl.subfile == subfile and tx in dl.serving_txs:
                return complex(row[dl.serving_txs.index(tx)])
        return 0.0 + 0.0j


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stack of systems ``a x = b`` and tell which hold.

    Backward-stable LAPACK happily "solves" singular systems with huge
    garbage, so a system holds only if its constraints actually do (they
    are O(1)-scaled); a singular system's NaN solution fails too.
    """
    x, _ = solve_each(a, b)
    return x, np.abs(a @ x - b).max(axis=(1, 2)) <= 1e-8


def zero_forcing_weights(plans: PlanStack, h_eq: np.ndarray, blocks: Sequence[int], mu_t: int) -> np.ndarray:
    """Coefficients for every delivery of each plan of ``plans``, as an
    ``(S, D, G)`` array, given plan ``s``'s equivalent channel ``h_eq[s]``
    (the plan is block ``blocks[s]``, which errors name).

    Binary selection when serving groups are single transmitters;
    otherwise, per plan, a joint solve for the lead group and a square
    solve for each idle-receiver group, which reaches its own receiver and
    nulls the zero-forcing ones. Each kind of system is filled by one
    scatter and solved in one stacked call; the first block with a
    singular system raises.
    """
    n, d, g = len(h_eq), plans.n_deliveries, plans.group
    if mu_t == 1:
        if g != 1:
            raise ValueError("binary selection applies to single-transmitter serving groups")
        return np.ones((n, d, 1), dtype=complex)
    layout = joint_zf_layout(plans.n_joint, g)
    # one unknown per (slot, serving transmitter), slot-major; one scatter fills every system
    a = np.zeros((n, layout.dim**2), dtype=complex)
    a[:, layout.pos] = h_eq[np.arange(n)[:, None], plans.joint_rx, plans.joint_tx]
    x, joint_ok = _solve(a.reshape(n, layout.dim, layout.dim), layout.rhs[None, :, None].repeat(n, axis=0))
    weights = [x.reshape(n, plans.n_joint, g)]
    idle_ok = True
    n_idle = d - plans.n_joint
    if n_idle:
        a = h_eq[np.arange(n)[:, None], plans.idle_rx, plans.idle_tx].reshape(n * n_idle, g, g)
        b = np.zeros((n * n_idle, g, 1), dtype=complex)
        b[:, 0] = 1.0  # gain 1 at the idle receiver, 0 at the zero-forcing ones
        x, ok = _solve(a, b)
        idle_ok = ok.reshape(n, n_idle).all(axis=1)
        weights.append(x.reshape(n, n_idle, g))
    failed = ~(joint_ok & idle_ok)
    if failed.any():
        s = np.flatnonzero(failed)[0]
        kind = "idle-group" if joint_ok[s] else "joint"
        raise SingularChannelError(f"block {blocks[s]}: {kind} zero-forcing system is singular; the episode aborts")
    return np.concatenate(weights, axis=1)


def beamformers_for_block(plan: BlockPlan, h_eq: np.ndarray, mu_t: int) -> BeamformerSet:
    """Coefficients for every delivery of a block: the one-block case of
    :func:`zero_forcing_weights`."""
    weights = zero_forcing_weights(lower([plan]), h_eq[None], (plan.block_index,), mu_t)
    return BeamformerSet(plan.deliveries, weights[0])
