"""Toolkit for cache-aided interference channels assisted by an active
reconfigurable surface: combinatorial delivery schedules, per-block
null-steering and zero-forcing solves, end-to-end decode verification, and
exact closed-form rate evaluation."""

from .analytics import (
    DofPoint,
    dof_benchmark_ndt,
    dof_benchmark_oneshot,
    dof_memory_sharing,
    dof_theorem1,
    dof_theorem2,
    max_feasible_L,
    required_elements,
    sweep,
)
from .channel import (
    ChannelRealization,
    IrsConfig,
    SingularChannelError,
    equivalent_channel,
    network_indicator,
    sample_block_channels,
)
from .combinatorics import (
    OrderedPartitionSystem,
    SubsetPartitionSystem,
    enumerate_ordered_partitions,
    enumerate_subsets,
    find_subset_partition,
    verify_subset_partition,
)
from .irs import required_nulls, solve_irs
from .params import ParameterError, SystemParams
from .placement import (
    CacheAssignment,
    SubfileId,
    SubfileUniverse,
    place_caches,
    split_library,
    verify_cache_budgets,
)
from .scheduler import (
    BlockPlan,
    DemandVector,
    Delivery,
    Design,
    Schedule,
    SchedulingError,
    demanded_for_schedule,
    make_schedule,
    verify_schedule_partition,
    worst_case_demand,
)
from .simulator import (
    EpisodeReport,
    SimOptions,
    build_schedule,
    estimate_dof_slope,
    receiver_decode,
    run_episode,
    transmit_block,
)
from .zf import BeamformerSet

__all__ = [name for name in dir() if not name.startswith("_")]
