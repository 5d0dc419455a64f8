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
from .combinatorics import Subset
from .lowering import JointLayout, LoweredPlan, PlanStack, joint_zf_layout, lower_plan
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


def select_binary_beamformers(plan: BlockPlan) -> BeamformerSet:
    """Unit coefficient for every scheduled (subfile, serving transmitter);
    a transmitter serving several subfiles sends their sum."""
    low = lower_plan(plan)
    if low.group != 1:
        raise ValueError("binary selection applies to single-transmitter serving groups")
    return BeamformerSet(plan.deliveries, np.ones((low.n_deliveries, 1), dtype=complex))


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the stack of systems ``a x = b`` and tell which hold.

    Backward-stable LAPACK happily "solves" singular systems with huge
    garbage, so a system holds only if its constraints actually do (they
    are O(1)-scaled); a singular system's NaN solution fails too.
    """
    x, _ = solve_each(a, b)
    return x, np.abs(a @ x - b).max(axis=(1, 2)) <= 1e-8


def _joint_systems(h_eq: np.ndarray, h_rx, h_tx, layout: JointLayout) -> np.ndarray:
    """One joint system per channel ``h_eq[s]``, filled by one scatter of
    its entries ``(h_rx[s], h_tx[s])`` onto ``layout.pos``; one unknown per
    (slot, serving transmitter), slot-major."""
    n = len(h_eq)
    a = np.zeros((n, layout.dim**2), dtype=complex)
    a[:, layout.pos] = h_eq[np.arange(n)[:, None], h_rx, h_tx]
    return a.reshape(n, layout.dim, layout.dim)


def _stacked_rhs(rhs: np.ndarray, n: int) -> np.ndarray:
    """``rhs`` as the right-hand side of each of ``n`` stacked systems."""
    return rhs[None, :, None].repeat(n, axis=0)


def _singular(what: str) -> SingularChannelError:
    return SingularChannelError(f"{what} system is singular; the episode aborts")


def solve_single_subfile_zf(
    h_eq: np.ndarray, serving: Subset, intended: int, zf_targets: Subset
) -> np.ndarray:
    """Coefficients (one per serving transmitter) giving aggregate gain 1 at
    the intended receiver and 0 at each zero-forcing target.

    Square system of size ``len(serving)``; requires exactly
    ``len(serving) - 1`` targets, none of them the intended receiver.
    """
    mu_t = len(serving)
    if len(zf_targets) != mu_t - 1:
        raise ValueError(f"need {mu_t - 1} zero-forcing targets, got {len(zf_targets)}")
    if intended in zf_targets:
        raise ValueError("intended receiver cannot be a zero-forcing target")
    rows = np.array((intended, *sorted(zf_targets))) - 1
    a = h_eq[np.ix_(rows, np.array(serving) - 1)]
    b = np.zeros((1, mu_t, 1), dtype=complex)
    b[0, 0] = 1.0
    x, ok = _solve(a[None], b)
    if not ok[0]:
        raise _singular("zero-forcing")
    return x[0, :, 0]


def solve_joint_block_zf(
    h_eq: np.ndarray,
    serving: Subset,
    receivers: Sequence[int],
    subfiles: Sequence[SubfileId],
) -> BeamformerSet:
    """Joint coefficients for one serving group delivering a subfile to each
    of ``mu_t + mu_r`` receivers simultaneously.

    ``receivers`` lists the lead first, then the ``mu_r`` receivers whose
    caches cover the other lead-family subfiles, then the ``mu_t - 1``
    zero-forcing targets; ``subfiles[s]`` is what ``receivers[s]`` decodes.
    The constraints (see ``joint_zf_rows``) are: unit gain at every
    receiver for its own subfile; zero gain at the lead and at each target
    for every subfile the receiver's cache does not cover. Cache-covered
    cross terms stay unconstrained (the receiver subtracts them).
    """
    if len(subfiles) != len(receivers):
        raise ValueError("need one subfile per receiver slot")
    layout = joint_zf_layout(len(receivers), len(serving))
    h_rx = [receivers[s] - 1 for s in layout.rx_slot]
    a = _joint_systems(h_eq[None], [h_rx], [[tx - 1 for tx in serving] * layout.dim], layout)
    x, ok = _solve(a, _stacked_rhs(layout.rhs, 1))
    if not ok[0]:
        raise _singular("joint zero-forcing")
    deliveries = tuple(Delivery(sub, rx, tuple(serving)) for sub, rx in zip(subfiles, receivers))
    return BeamformerSet(deliveries, x.reshape(len(receivers), len(serving)))


def zero_forcing_weights(
    plans: PlanStack | LoweredPlan, h_eq: np.ndarray, blocks: Sequence[int], mu_t: int
) -> np.ndarray:
    """Coefficients for every delivery of each plan of ``plans``, as an
    ``(S, D, G)`` array, given plan ``s``'s equivalent channel ``h_eq[s]``
    (the plan is block ``blocks[s]``, which errors name). One lowered plan
    counts as a stack of one.

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
    a = _joint_systems(h_eq, plans.joint_rx, plans.joint_tx, layout)
    x, joint_ok = _solve(a, _stacked_rhs(layout.rhs, n))
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
        raise _singular(f"block {blocks[s]}: {'idle-group' if joint_ok[s] else 'joint'} zero-forcing")
    return np.concatenate(weights, axis=1)


def beamformers_for_block(plan: BlockPlan, h_eq: np.ndarray, mu_t: int) -> BeamformerSet:
    """Coefficients for every delivery of a block: the one-block case of
    :func:`zero_forcing_weights`."""
    weights = zero_forcing_weights(lower_plan(plan), h_eq[None], (plan.block_index,), mu_t)
    return BeamformerSet(plan.deliveries, weights[0])
