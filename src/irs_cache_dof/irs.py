"""Active-surface null steering: which cross-links each block must cut, and
the complex coefficient solve that cuts them.

Cutting the link from transmitter ``i`` to receiver ``j`` means choosing
coefficients ``q`` with ``sum_u tx_to_irs[u,i] * irs_to_rx[j,u] * q[u] =
-direct[j,i]``, one linear equation per link. With at most as many links as
elements the system is solvable almost surely for continuous fading; with
more links than elements it is generically unsolvable, which the solver
reports rather than hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .channel import ChannelRealization, IrsConfig, SingularChannelError, equivalent_channel
from .lowering import lower_plan

if TYPE_CHECKING:
    from .scheduler import BlockPlan

STATUS_EXACT = "exact"
STATUS_INFEASIBLE = "infeasible"


class NullSet:
    """Transmitter-receiver pairs whose links the surface must cut.

    Given as ``links`` (1-based pairs) or as ``pairs``, the same links
    sorted, as 0-based indices: transmitters in row 0, receivers in row 1.
    The other form is derived on first use.
    """

    def __init__(self, links: Iterable[tuple[int, int]] | None = None, *, pairs: np.ndarray | None = None):
        if (links is None) == (pairs is None):
            raise TypeError("give exactly one of links and pairs")
        self._links = None if links is None else frozenset(links)
        self._pairs = pairs

    @property
    def links(self) -> frozenset[tuple[int, int]]:
        if self._links is None:
            self._links = frozenset((tx + 1, rx + 1) for tx, rx in zip(*self._pairs.tolist()))
        return self._links

    @property
    def pairs(self) -> np.ndarray:
        if self._pairs is None:
            self._pairs = np.array(self.sorted_links(), dtype=np.intp).reshape(-1, 2).T - 1
        return self._pairs

    def __len__(self) -> int:
        return self._pairs.shape[1] if self._links is None else len(self._links)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullSet) and self.links == other.links

    def __hash__(self) -> int:
        return hash(self.links)

    def __repr__(self) -> str:
        return f"NullSet({self.sorted_links()})"

    def sorted_links(self) -> list[tuple[int, int]]:
        return sorted(self.links)


def required_nulls(plan: "BlockPlan") -> NullSet:
    """Cross-links a block's topology eliminates (``BlockPlan.null_links``).

    A plan already lowered for simulation hands over its sorted index pairs
    as they are; a fresh one is not lowered here.
    """
    if plan.lowering is None:
        return NullSet(plan.null_links)
    return NullSet(pairs=lower_plan(plan).null_pairs)


@dataclass(frozen=True)
class IrsSolveInfo:
    status: str
    residual: float
    n_links: int
    q_elements: int


def _singular(ch: ChannelRealization, what: str) -> SingularChannelError:
    return SingularChannelError(f"seed {ch.seed}, block {ch.block_index}: {what}; the episode aborts")


def solve_irs(ch: ChannelRealization, nulls: NullSet) -> tuple[IrsConfig, IrsSolveInfo]:
    """Solve for surface coefficients that cut every link in ``nulls``.

    Returns the minimum-norm exact solution when the element budget covers
    the links (status ``exact``), otherwise the least-squares compromise
    with its residual (status ``infeasible``). An exactly singular system
    with enough elements is a probability-zero channel event and raises.
    """
    q_count = ch.tx_to_irs.shape[0]
    if not len(nulls):
        q = np.zeros(q_count, dtype=complex)
        return IrsConfig(q=q), IrsSolveInfo(STATUS_EXACT, 0.0, 0, q_count)

    tx, rx = nulls.pairs
    rows = ch.tx_to_irs.T[tx] * ch.irs_to_rx[rx]
    rhs = -ch.direct[rx, tx]
    n_links = len(rhs)

    if n_links == q_count:
        try:
            q = np.linalg.solve(rows, rhs)
        except np.linalg.LinAlgError as exc:
            raise _singular(ch, f"square null-steering system of size {n_links} is singular") from exc
    else:
        q, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
        if n_links <= q_count and rank < n_links:
            raise _singular(ch, f"null-steering system rank {rank} < {n_links} equations")
    residual = float(np.abs(rows @ q - rhs).max())
    # a non-finite q leaves a non-finite residual, which fails the comparison
    if n_links <= q_count and not residual <= 1e-6 * ch.scale:
        raise _singular(ch, f"null-steering solve left residual {residual:.3e}")
    status = STATUS_EXACT if n_links <= q_count else STATUS_INFEASIBLE
    return IrsConfig(q=q), IrsSolveInfo(status, residual, n_links, q_count)


def residuals(irs: IrsConfig, ch: ChannelRealization, nulls: NullSet) -> float:
    """Largest surviving equivalent-channel magnitude over the null set."""
    if not nulls.links:
        return 0.0
    h_eq = equivalent_channel(ch, irs)
    return max(abs(h_eq[j - 1, i - 1]) for i, j in nulls.links)
