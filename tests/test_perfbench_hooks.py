"""The benchmark in ``perfbench/`` wraps and calls library functions by
name (see ``perfbench/tracing.py``). These tests run its traced paths on
tiny networks, so a renamed or re-signed function fails here and not only
in the benchmark's own runs."""

from pathlib import Path

import pytest

from irs_cache_dof.analytics import STRICT_Q, SUFFICIENT_Q
from irs_cache_dof.simulator import build_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``tracing`` and ``workloads`` modules, imported from its
    directory as its runner imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


@pytest.mark.parametrize(
    "mu_t, q, regime, strictness",
    [(1, 6, "thm1", STRICT_Q), (2, 4, "thm2-ordered", SUFFICIENT_Q)],
    ids=["thm1", "thm2-ordered"],
)
def test_traced_episode_times_and_replays_every_block(perfbench, mu_t, q, regime, strictness):
    tracing, workloads = perfbench
    network = workloads.Network(4, mu_t, 1, q, regime, strictness)
    params = network.params()
    options = network.options(workloads.Seeds(1).demand(params.k_r))
    schedule = build_schedule(params, regime, options)
    trace = tracing.SimTrace(workloads.SimSetup(network, params, options, schedule, [0.0]))
    trace.episode(5, 1.0)
    assert trace.mismatches == []
    assert len(trace.block_s) == trace.blocks == schedule.h_blocks


@pytest.mark.parametrize("regime", ["thm2-partition", "thm2-ordered"])
def test_traced_design_constructors(perfbench, regime):
    tracing, workloads = perfbench
    spans = tracing.Spans()
    params = workloads.Network(4, 2, 1, 4, regime, SUFFICIENT_Q).params()
    with tracing.designs_traced(spans):
        build_schedule(params, regime, workloads.SimOptions(strictness=SUFFICIENT_Q))
    assert len(spans.samples["combinatorics.design"]) == 1
