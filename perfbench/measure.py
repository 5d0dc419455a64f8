"""Timed phases of the untraced and the traced run, the metrics each one
reports, and the environment record."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import sys
import time
from statistics import median

import numpy as np

from tracing import SimTrace, Spans, designs_traced, floor_us_per_block, irs_shapes, percentile, zf_shapes
from workloads import SETUP_REPEATS, Seeds, Tally, plan_verify_pass, sim_episode, sim_setup

clock = time.perf_counter

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "blocks_per_s": "blocks/s", "peak_rss_mb": "MB"}

#: every per-layer metric and its unit; a layer the workload does not
#: exercise reads 0
PER_LAYER_UNITS = {
    "channel.sample_us": "us",
    "channel.h_eq_us": "us",
    "irs.nulls_us": "us",
    "irs.solve_us": "us",
    "irs.solve_us_p50": "us",
    "irs.solve_us_p99": "us",
    "irs.solves": "count",
    "irs.square_ratio": "ratio",
    "irs.exact_ratio": "ratio",
    "irs.floor_us": "us",
    "irs.solve_over_floor": "ratio",
    "zf.beam_us": "us",
    "zf.solves": "count",
    "zf.floor_us": "us",
    "zf.beam_over_floor": "ratio",
    "simulator.tx_us": "us",
    "simulator.decode_us": "us",
    "simulator.block_us_p50": "us",
    "simulator.block_us_p99": "us",
    "simulator.episode_self_s": "s",
    "simulator.decode_margin_log10": "log10",
    "combinatorics.design_s": "s",
    "combinatorics.designs_found_ratio": "ratio",
    "placement.split_s": "s",
    "placement.place_s": "s",
    "placement.subfiles": "count",
    "scheduler.build_s": "s",
    "scheduler.demanded_s": "s",
    "scheduler.cover_s": "s",
    "scheduler.blocks": "count",
    "scheduler.deliveries": "count",
    "analytics.sweep_s": "s",
    "analytics.points": "count",
    "trace.overhead_ratio": "ratio",
}


def time_boxed(seconds: float, unit) -> tuple[float, list[float]]:
    """Run ``unit()`` back to back, at least once, and start another only
    while one more of average length still ends within ``seconds``; return
    the phase wall time and each unit's wall time."""
    times: list[float] = []
    start = clock()
    while not times or clock() - start + sum(times) / len(times) <= seconds:
        t = clock()
        unit()
        times.append(clock() - t)
    return clock() - start, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record(workload, seed, trace, tally: Tally, metrics: dict, units: dict, counts: dict, extra: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "notes": tally.notes,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "counts": counts,
        **extra,
    }


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics


def run_untraced(workload: str, seed: int, seconds: float, import_s: float) -> dict:
    """End-to-end metrics; ``import_s`` is the import time that set-up
    starts with."""
    tally = Tally()
    if workload == "plan_verify":
        # set-up is the import alone; each unit redoes all planning
        setup_s = import_s
        done = []
        wall, times = time_boxed(seconds, lambda: done.append(plan_verify_pass(seed, tally)))
        counts = {"blocks_per_unit": done[0].blocks, "deliveries_per_unit": done[0].deliveries}
        extra = {}
    else:
        seeds = Seeds(seed)
        setup = sim_setup(workload, seeds)
        setup_s = import_s + median(setup.build_s)
        outcomes = []
        wall, times = time_boxed(seconds, lambda: outcomes.append(sim_episode(setup, seeds.episode_seed(), tally)))
        counts = {
            "blocks_per_unit": setup.schedule.h_blocks,
            "deliveries_per_unit": setup.deliveries,
            "schedule_regime": setup.schedule.regime,
            "l_size": setup.schedule.l_size,
            "demand": list(setup.options.demand.d),
        }
        done = [o for o in outcomes if o.completed]
        margins = [o.margin_log10 for o in done]
        extra = {"decode_margin_log10": min(margins) if margins else None, "build_s": setup.build_s}
    counts.update(
        units=len(times),
        blocks=sum(o.blocks for o in done),
        deliveries=sum(o.deliveries for o in done),
    )
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall / len(times),
        "blocks_per_s": counts["blocks"] / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra.update(phase_s=wall, unit_s=times)
    return _record(workload, seed, 0, tally, metrics, END_TO_END_UNITS, counts, extra)


# --------------------------------------------------------------------------
# traced run: per-layer metrics


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    tally = Tally()
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if workload == "plan_verify":
        extra = _trace_plan(seed, seconds, tally, metrics)
    else:
        extra = _trace_sim(workload, seed, seconds, tally, metrics)
    counts = {
        "blocks_per_unit": int(metrics["scheduler.blocks"]),
        "deliveries_per_unit": int(metrics["scheduler.deliveries"]),
        "units": extra.pop("units"),
    }
    return _record(workload, seed, 1, tally, metrics, PER_LAYER_UNITS, counts, extra)


def _trace_sim(workload: str, seed: int, seconds: float, tally: Tally, m: dict) -> dict:
    seeds = Seeds(seed)
    spans = Spans()
    with designs_traced(spans):
        setup = sim_setup(workload, seeds, spans)
    trace = SimTrace(setup)
    margins = []

    def unit():
        episode_seed = seeds.episode_seed()
        start = clock()
        outcome = sim_episode(setup, episode_seed, tally)
        untraced_s = clock() - start
        if outcome.completed:
            margins.append(outcome.margin_log10)
            trace.episode(episode_seed, untraced_s)

    _, times = time_boxed(seconds, unit)
    for note in trace.mismatches:
        tally.check(False, f"traced replay differs from simulate_block: {note}")
    tally.check(trace.blocks > 0, "no block was traced")
    if not trace.blocks:
        return {"units": len(times)}

    stage_us = trace.stage_us()
    m.update(stage_us)
    blocks = setup.schedule.h_blocks
    rng = np.random.default_rng(seed)
    irs_floor = floor_us_per_block(irs_shapes(setup), blocks, rng)
    zf = zf_shapes(setup)
    zf_floor = floor_us_per_block(zf, blocks, rng)
    design_calls = len(spans.samples["combinatorics.design"])
    m.update(
        {
            "irs.solve_us_p50": 1e6 * percentile(trace.solve_s, 50),
            "irs.solve_us_p99": 1e6 * percentile(trace.solve_s, 99),
            "irs.solves": len(trace.solve_s),
            "irs.square_ratio": trace.square / trace.blocks,
            "irs.exact_ratio": trace.exact / trace.blocks,
            "irs.floor_us": irs_floor,
            "irs.solve_over_floor": m["irs.solve_us"] / irs_floor,
            "zf.solves": sum(zf.values()) / blocks,
            "zf.floor_us": zf_floor,
            "zf.beam_over_floor": m["zf.beam_us"] / zf_floor if zf_floor else 0.0,
            "simulator.block_us_p50": 1e6 * percentile(trace.block_s, 50),
            "simulator.block_us_p99": 1e6 * percentile(trace.block_s, 99),
            "simulator.episode_self_s": median(trace.episode_self_s),
            "simulator.decode_margin_log10": min(margins),
            # build_schedule makes the design call, and only a found design
            # lets it return
            "combinatorics.design_s": spans.total("combinatorics.design") / SETUP_REPEATS,
            "combinatorics.designs_found_ratio": 1.0 if design_calls else 0.0,
            "scheduler.build_s": spans.self_s["scheduler.build"] / SETUP_REPEATS,
            "scheduler.blocks": blocks,
            "scheduler.deliveries": setup.deliveries,
            "trace.overhead_ratio": median(trace.overhead),
        }
    )
    block_us = sum(stage_us.values())
    shares = {name: us / block_us for name, us in stage_us.items()}
    return {"units": len(times), "stage_share": shares, "fidelity_blocks": trace.blocks}


def _trace_plan(seed: int, seconds: float, tally: Tally, m: dict) -> dict:
    spans = Spans()
    outcomes = []
    overhead = []

    def unit():
        start = clock()
        plan_verify_pass(seed, tally)
        untraced_s = clock() - start
        start = clock()
        with designs_traced(spans):
            outcomes.append(plan_verify_pass(seed, tally, spans))
        overhead.append((clock() - start) / untraced_s)

    time_boxed(seconds, unit)
    n = len(outcomes)
    out = outcomes[0]
    m.update(
        {
            "irs.nulls_us": 1e6 * spans.total("irs.nulls") / (n * out.blocks),
            "combinatorics.design_s": spans.total("combinatorics.design") / n,
            "combinatorics.designs_found_ratio": out.designs_found / out.designs_attempted,
            "placement.split_s": spans.total("placement.split") / n,
            "placement.place_s": spans.total("placement.place") / n,
            "placement.subfiles": out.subfiles,
            "scheduler.build_s": spans.self_s["scheduler.build"] / n,
            "scheduler.demanded_s": spans.total("scheduler.demanded") / n,
            "scheduler.cover_s": spans.total("scheduler.cover") / n,
            "scheduler.blocks": out.blocks,
            "scheduler.deliveries": out.deliveries,
            "analytics.sweep_s": spans.total("analytics.sweep") / n,
            "analytics.points": out.points,
            "trace.overhead_ratio": median(overhead),
        }
    )
    return {"units": n}


# --------------------------------------------------------------------------
# environment


def _openblas_runtime() -> dict | None:
    """Thread count and core type from the loaded OpenBLAS itself, when the
    library and its query functions can be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"library": os.path.basename(path), "threads": threads(), "config": config().decode()}
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload: str, seed: int, blas_env: tuple[str, ...]) -> dict:
    build = getattr(np, "__config__", None)
    blas_build = getattr(build, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_build": {k: blas_build.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": _openblas_runtime(),
        "blas_threads_pinned": {var: os.environ.get(var) for var in blas_env},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
