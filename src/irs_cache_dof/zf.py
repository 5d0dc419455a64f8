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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import SingularChannelError, solve_each
from .lowering import PlanStack, lower
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


def joint_zf_rows(n_slots: int, mu_t: int) -> list[tuple[int, int]]:
    """Row pattern of the joint zero-forcing system of one serving group
    delivering ``n_slots`` subfiles (lead, ``mu_r`` cache-covered slots,
    ``mu_t - 1`` zero-forcing slots, in that order).

    Row ``(s, u)`` holds slot ``s``'s receiver's channel from the serving
    group, placed on the unknowns of slot ``u``: unit gain when ``s == u``,
    zero otherwise. The lead and every zero-forcing target cut each slot
    their cache does not cover; cache-covered cross terms stay
    unconstrained (the receiver subtracts them).
    """
    mu_r = n_slots - mu_t
    if mu_r < 0:
        raise ValueError("receiver list shorter than the serving group")
    zf_slots = range(mu_r + 1, n_slots)
    rows = [(0, 0)] + [(0, u) for u in zf_slots]
    rows += [(s, s) for s in range(1, mu_r + 1)]
    for s in zf_slots:
        rows.append((s, s))
        rows += [(s, u) for u in range(mu_r + 1)]
        rows += [(s, u) for u in zf_slots if u != s]
    return rows


class JointLayout(NamedTuple):
    """Where the nonzeros of a joint zero-forcing system go: the receiver
    slot each one reads (its serving transmitter cycles through the group),
    its flat position in the square matrix, and the right-hand side."""

    rx_slot: tuple[int, ...]
    pos: np.ndarray
    rhs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.rhs)


@lru_cache(maxsize=None)
def joint_zf_layout(n_slots: int, mu_t: int) -> JointLayout:
    """The layout of ``joint_zf_rows(n_slots, mu_t)``, shared by every
    block with the same group shape."""
    rows = joint_zf_rows(n_slots, mu_t)
    dim = len(rows)
    pos = np.array([row * dim + u * mu_t + p for row, (_, u) in enumerate(rows) for p in range(mu_t)])
    rhs = np.array([1.0 if s == u else 0.0 for s, u in rows], dtype=complex)
    pos.setflags(write=False)
    rhs.setflags(write=False)
    return JointLayout(tuple(s for s, _ in rows for _ in range(mu_t)), pos, rhs)


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stack of systems ``a x = b`` and tell which hold.

    Backward-stable LAPACK happily "solves" singular systems with huge
    garbage, so a system holds only if its constraints actually do (they
    are O(1)-scaled); a singular system's NaN solution fails too.
    """
    x, _ = solve_each(a, b)
    return x, np.abs(a @ x - b).max(axis=(1, 2)) <= 1e-8


def zf_systems(plans: PlanStack, h_eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The zero-forcing systems of each plan of ``plans`` (serving groups of
    two or more), gathered from its equivalent channel ``h_eq[s]`` through
    the plan's row.

    The joint system of the lead group's ``n_joint`` deliveries, ``(S, dim,
    dim)``: one unknown per (slot, serving transmitter), slot-major, and
    each nonzero of ``joint_zf_layout`` the channel from the lead group's
    transmitter to its slot's receiver. The square system of each idle
    delivery after them, ``(S, D - n_joint, G, G)``: rows its own receiver
    then the zero-forcing ones, columns its own serving group.
    """
    n, g, n_joint = len(h_eq), plans.group, plans.n_joint
    layout = joint_zf_layout(n_joint, g)
    s = np.arange(n)[:, None]
    joint = np.zeros((n, layout.dim**2), dtype=complex)
    joint[:, layout.pos] = h_eq[s, plans.delivery_rx[:, layout.rx_slot], np.tile(plans.serving_tx[:, 0], layout.dim)]
    zf_rxs = np.broadcast_to(plans.zf_rxs[:, None], (n, plans.n_deliveries - n_joint, g - 1))
    rx = np.concatenate([plans.delivery_rx[:, n_joint:, None], zf_rxs], axis=2)
    idle = h_eq[s[:, :, None, None], rx[..., None], plans.serving_tx[:, n_joint:, None, :]]
    return joint.reshape(n, layout.dim, layout.dim), idle


def zero_forcing_weights(stack: PlanStack, h_eq: np.ndarray, mu_t: int) -> np.ndarray:
    """Coefficients for every delivery of each block of ``stack``, as an
    ``(S, D, G)`` array, given row ``s``'s equivalent channel ``h_eq[s]``.

    Binary selection when serving groups are single transmitters;
    otherwise, per block, a joint solve for the lead group and a square
    solve for each idle-receiver group, which reaches its own receiver and
    nulls the zero-forcing ones. Each kind of system is filled by one
    scatter and solved in one stacked call; the first block with a
    singular system raises.
    """
    n, d, g = len(h_eq), stack.n_deliveries, stack.group
    if mu_t == 1:
        if g != 1:
            raise ValueError("binary selection applies to single-transmitter serving groups")
        return np.ones((n, d, 1), dtype=complex)
    joint, idle = zf_systems(stack, h_eq)
    layout = joint_zf_layout(stack.n_joint, g)
    x, joint_ok = _solve(joint, layout.rhs[None, :, None].repeat(n, axis=0))
    weights = [x.reshape(n, stack.n_joint, g)]
    idle_ok = True
    n_idle = d - stack.n_joint
    if n_idle:
        a = idle.reshape(n * n_idle, g, g)
        b = np.zeros((n * n_idle, g, 1), dtype=complex)
        b[:, 0] = 1.0  # gain 1 at the idle receiver, 0 at the zero-forcing ones
        x, ok = _solve(a, b)
        idle_ok = ok.reshape(n, n_idle).all(axis=1)
        weights.append(x.reshape(n, n_idle, g))
    failed = ~(joint_ok & idle_ok)
    if failed.any():
        s = np.flatnonzero(failed)[0]
        kind = "idle-group" if joint_ok[s] else "joint"
        raise SingularChannelError(f"block {stack.blocks[s]}: {kind} zero-forcing system is singular; the episode aborts")
    return np.concatenate(weights, axis=1)


def beamformers_for_block(plan: BlockPlan, h_eq: np.ndarray, mu_t: int) -> BeamformerSet:
    """Coefficients for every delivery of a block: the one-block case of
    :func:`zero_forcing_weights`. A node past ``h_eq``'s raises a ValueError."""
    weights = zero_forcing_weights(lower([plan], h_eq.shape[::-1]), h_eq[None], mu_t)
    return BeamformerSet(plan.deliveries, weights[0])
