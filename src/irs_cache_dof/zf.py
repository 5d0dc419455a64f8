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

from .channel import SingularChannelError
from .combinatorics import Subset
from .lowering import JointLayout, joint_zf_layout, lower_plan
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
    return BeamformerSet(plan.deliveries, np.ones((len(low.rx), 1), dtype=complex))


def _solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    # backward-stable LAPACK happily "solves" singular systems with huge
    # garbage, so check the constraints actually hold (they are O(1)-scaled);
    # a non-finite solution fails the comparison too
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError(f"{what} system is singular; the episode aborts") from exc
    if not np.abs(a @ x - b).max() <= 1e-8:
        raise SingularChannelError(f"{what} system is singular; the episode aborts")
    return x


def _solve_joint(h_eq: np.ndarray, h_rx, h_tx, layout: JointLayout, what: str) -> np.ndarray:
    """Fill the joint system by one scatter of the ``h_eq`` entries
    ``(h_rx, h_tx)`` onto ``layout.pos`` and solve it; one weight per
    (slot, serving transmitter), slot-major."""
    a = np.zeros(layout.dim**2, dtype=complex)
    a[layout.pos] = h_eq[h_rx, h_tx]
    return _solve(a.reshape(layout.dim, layout.dim), layout.rhs, what)


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
    b = np.zeros(mu_t, dtype=complex)
    b[0] = 1.0
    return _solve(a, b, "zero-forcing")


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
    x = _solve_joint(h_eq, h_rx, [tx - 1 for tx in serving] * layout.dim, layout, "joint zero-forcing")
    deliveries = tuple(Delivery(sub, rx, tuple(serving)) for sub, rx in zip(subfiles, receivers))
    return BeamformerSet(deliveries, x.reshape(len(receivers), len(serving)))


def beamformers_for_block(plan: BlockPlan, h_eq: np.ndarray, mu_t: int) -> BeamformerSet:
    """Coefficients for every delivery of a block: binary selection when
    serving groups are single transmitters, otherwise a joint solve for the
    lead group plus one batched solve over the idle-receiver groups, each
    of which reaches its own receiver and nulls the zero-forcing ones."""
    if mu_t == 1:
        return select_binary_beamformers(plan)
    low = lower_plan(plan)
    try:
        layout = joint_zf_layout(low.n_joint, low.group)
        x = _solve_joint(h_eq, low.joint_rx, low.joint_tx, layout, "joint zero-forcing")
        weights = x.reshape(low.n_joint, low.group)
        n_idle = len(low.rx) - low.n_joint
        if n_idle:
            a = h_eq[low.idle_rx, low.idle_tx].reshape(n_idle, low.group, low.group)
            b = np.zeros((n_idle, low.group, 1), dtype=complex)
            b[:, 0] = 1.0
            weights = np.concatenate((weights, _solve(a, b, "idle-group zero-forcing")[..., 0]))
    except SingularChannelError as exc:
        raise SingularChannelError(f"block {plan.block_index}: {exc}") from exc
    return BeamformerSet(plan.deliveries, weights)
