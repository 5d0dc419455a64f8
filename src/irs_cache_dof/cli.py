"""Command-line front end.

Four subcommands: ``partition-find`` constructs and verifies a
parallel-class design, ``schedule-verify`` builds placement plus schedule
and checks the exact-cover and cache-budget properties, ``simulate`` runs a
full seeded episode, and ``dof-sweep`` writes the closed-form rate curves as
CSV.

Exit codes: 0 pass, 2 verification failure, 3 solver infeasibility,
4 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

from .analytics import (
    AXIS_KR,
    AXIS_MUR,
    AXIS_Q,
    STRICT_Q,
    SUFFICIENT_Q,
    SWEEP_AXES,
    sweep,
    write_sweep_csv,
)
from .channel import SingularChannelError
from .combinatorics import find_subset_partition, verify_subset_partition
from .params import ParameterError, SystemParams
from .placement import assignment_to_jsonable, place_caches, split_library, verify_cache_budgets
from .scheduler import (
    Design,
    SchedulingError,
    demanded_for_schedule,
    schedule_to_jsonable,
    verify_schedule_partition,
)
from .simulator import SimOptions, build_schedule, episode_to_jsonable, run_episode

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INFEASIBLE = 3
EXIT_CONFIG = 4

PRESETS: dict[str, dict] = {
    "fig2": {"k_t": 26, "k_r": 26, "mu_t": 1, "mu_r": 5, "axis": AXIS_Q, "values": list(range(0, 421))},
    "fig3": {"k_t": 26, "k_r": 26, "mu_t": 2, "mu_r": 12, "axis": AXIS_Q, "values": list(range(0, 421))},
    "fig4": {"k_t": 20, "k_r": 26, "mu_t": 1, "mu_r": 5, "axis": AXIS_KR, "values": list(range(6, 31)), "q_elements": 420},
    "fig5": {"k_t": 20, "k_r": 26, "mu_t": 2, "mu_r": 5, "axis": AXIS_KR, "values": list(range(6, 31)), "q_elements": 420},
    "fig6": {"k_t": 16, "k_r": 16, "mu_t": 1, "mu_r": 1, "axis": AXIS_MUR, "values": list(range(1, 16)), "q_elements": 420},
    "fig7": {"k_t": 16, "k_r": 16, "mu_t": 2, "mu_r": 1, "axis": AXIS_MUR, "values": list(range(1, 16)), "q_elements": 420},
}

PARAM_KEYS = ("k_t", "k_r", "n_files", "f_packets", "mu_t", "mu_r", "q_elements")

#: the JSON type of each setting that is not a string
SETTING_TYPES = {
    **dict.fromkeys(PARAM_KEYS, "integer"),
    **dict.fromkeys(("seed", "l_size", "m", "design_mu_t", "axis_start", "axis_stop", "axis_step"), "integer"),
    "noise_variance": "number",
    "disable_irs": "boolean",
}
_PYTHON_TYPES = {"integer": int, "number": (int, float), "boolean": bool, "string": str}


@dataclass
class RunConfig:
    """Validated settings for one command invocation."""

    command: str
    params: SystemParams | None = None
    regime: str | None = None
    seed: int = 0
    strictness: str = STRICT_Q
    out: str | None = None
    block_csv: str | None = None
    noise_variance: float = 0.0
    l_size: int | None = None
    disable_irs: bool = False
    preset: str | None = None
    axis: str | None = None
    axis_values: list[int] | None = None
    design_m: int | None = None
    design_mu_t: int | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irs-cache-dof",
        description="Cache-aided interference channel toolkit: designs, schedules, episodes, rate sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with flat key/value settings; flags override it")
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed (default 0)")
        p.add_argument("--out", default=None, help="output path for the command's artifact")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict-q", dest="strictness", action="store_const", const=STRICT_Q)
        mode.add_argument("--sufficient-q", dest="strictness", action="store_const", const=SUFFICIENT_Q)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k-t", type=int, dest="k_t")
        p.add_argument("--k-r", type=int, dest="k_r")
        p.add_argument("--n-files", type=int, dest="n_files")
        p.add_argument("--f-packets", type=int, dest="f_packets")
        p.add_argument("--mu-t", type=int, dest="mu_t")
        p.add_argument("--mu-r", type=int, dest="mu_r")
        p.add_argument("--q-elements", type=int, dest="q_elements")
        p.add_argument("--regime", choices=[design.value for design in Design], default=None)
        p.add_argument("--l-size", type=int, default=None, help="override the element-derived null count L")

    p_find = sub.add_parser("partition-find", help="construct a parallel-class transmitter design")
    add_common(p_find)
    p_find.add_argument("--m", type=int, default=None, help="number of groups")
    p_find.add_argument("--design-mu-t", type=int, default=None, help="group size")

    p_ver = sub.add_parser("schedule-verify", help="build placement+schedule and verify cover and budgets")
    add_common(p_ver)
    add_params(p_ver)

    p_sim = sub.add_parser("simulate", help="run one seeded delivery episode end to end")
    add_common(p_sim)
    add_params(p_sim)
    p_sim.add_argument("--noise-variance", type=float, default=None)
    p_sim.add_argument("--disable-irs", action="store_true", default=None)
    p_sim.add_argument("--block-csv", default=None, help="also write one CSV row per block")

    p_sweep = sub.add_parser("dof-sweep", help="write closed-form rate curves as CSV")
    add_common(p_sweep)
    add_params(p_sweep)
    p_sweep.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, default=None)
    p_sweep.add_argument("--axis-start", type=int, default=None)
    p_sweep.add_argument("--axis-stop", type=int, default=None, help="inclusive")
    p_sweep.add_argument("--axis-step", type=int, default=None)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParameterError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: line {exc.lineno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ParameterError(f"config file {path} must hold a flat JSON object")
    return data


def _check_types(settings: dict) -> None:
    """Reject a setting whose JSON type is not its key's (see
    ``SETTING_TYPES``); a boolean is no integer or number."""
    for key, value in settings.items():
        kind = SETTING_TYPES.get(key, "string")
        if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _PYTHON_TYPES[kind]):
            raise ParameterError(f"setting {key!r} must be a JSON {kind}, got {json.dumps(value)}")


def _merged(args: argparse.Namespace) -> dict:
    """Config-file values overridden by any flag the user actually set. A
    config key must be the destination of one of the subcommand's flags."""
    merged: dict = {}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
        unknown = sorted(set(merged) - set(vars(args)) - {"command", "config"})
        if unknown:
            raise ParameterError(f"config file {args.config} has unknown keys: {', '.join(unknown)}")
        _check_types(merged)
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        merged[key] = value
    return merged


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge config file and flags into a validated RunConfig."""
    merged = _merged(args)
    cfg = RunConfig(command=args.command)
    cfg.seed = merged.get("seed", 0)
    if not 0 <= cfg.seed <= 0xFFFFFFFFFFFFFFFF:
        raise ParameterError("seed must be a nonnegative 64-bit integer")
    cfg.strictness = merged.get("strictness", STRICT_Q)
    if cfg.strictness not in (STRICT_Q, SUFFICIENT_Q):
        raise ParameterError(f"unknown strictness {cfg.strictness!r}")
    cfg.out = merged.get("out")
    cfg.block_csv = merged.get("block_csv")
    cfg.noise_variance = float(merged.get("noise_variance", 0.0))
    cfg.l_size = merged.get("l_size")
    cfg.disable_irs = merged.get("disable_irs", False)
    cfg.regime = merged.get("regime")
    cfg.preset = merged.get("preset")
    if cfg.preset is not None and cfg.preset not in PRESETS:
        raise ParameterError(f"unknown preset {cfg.preset!r}; expected one of {', '.join(sorted(PRESETS))}")

    preset = dict(PRESETS[cfg.preset]) if cfg.preset else {}
    for key in PARAM_KEYS:
        if key in merged:
            preset[key] = merged[key]

    if args.command == "partition-find":
        if "m" not in merged or "design_mu_t" not in merged:
            raise ParameterError("partition-find needs --m and --design-mu-t")
        cfg.design_m, cfg.design_mu_t = merged["m"], merged["design_mu_t"]
        return cfg

    if args.command == "dof-sweep":
        cfg.axis = merged.get("axis", preset.get("axis"))
        if cfg.axis is None:
            raise ParameterError("dof-sweep needs --preset or --axis")
        if cfg.axis not in SWEEP_AXES:
            raise ParameterError(f"unknown sweep axis {cfg.axis!r}; expected one of {', '.join(SWEEP_AXES)}")
        if "axis_start" in merged or "axis_stop" in merged:
            if "axis_start" not in merged or "axis_stop" not in merged:
                raise ParameterError("custom sweeps need both --axis-start and --axis-stop")
            step = merged.get("axis_step", 1)
            cfg.axis_values = list(range(merged["axis_start"], merged["axis_stop"] + 1, step))
        else:
            cfg.axis_values = preset.get("values")
        if not cfg.axis_values:
            raise ParameterError("sweep has no axis values")

    needed = {
        "k_t": preset.get("k_t"),
        "k_r": preset.get("k_r"),
        "mu_t": preset.get("mu_t"),
        "mu_r": preset.get("mu_r"),
    }
    missing = [k for k, v in needed.items() if v is None]
    if missing:
        raise ParameterError(f"missing required parameters: {', '.join(missing)}")
    n_files = preset.get("n_files", max(needed["k_r"], 1))
    f_packets = preset.get("f_packets", 1)
    cfg.params = SystemParams(
        k_t=needed["k_t"],
        k_r=needed["k_r"],
        n_files=n_files,
        f_packets=f_packets,
        mu_t=needed["mu_t"],
        mu_r=needed["mu_r"],
        q_elements=preset.get("q_elements", 0),
    )
    # the regime default follows the cache regime; an explicit choice is kept
    # (and rejected downstream if it contradicts mu_t)
    if cfg.regime is None:
        cfg.regime = (Design.THM1 if cfg.params.mu_t == 1 else Design.THM2_PARTITION).value
    return cfg


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_partition_find(cfg: RunConfig) -> int:
    try:
        system = find_subset_partition(cfg.design_m, cfg.design_mu_t)
    except ValueError as exc:  # m or mu_t out of range
        raise ParameterError(str(exc)) from None
    check = verify_subset_partition(system)
    payload = {
        "m": system.m,
        "mu_t": system.mu_t,
        "found": True,
        "valid": check.ok,
        "violation": check.violation,
        "num_classes": len(system.classes),
        "classes": [[list(s) for s in cls] for cls in system.classes],
    }
    _write_json(payload, cfg.out)
    return EXIT_OK if check.ok else EXIT_VERIFICATION


def _cmd_schedule_verify(cfg: RunConfig) -> int:
    params = cfg.params
    options = SimOptions(strictness=cfg.strictness, l_size=cfg.l_size)
    schedule = build_schedule(params, cfg.regime, options)
    universe = split_library(params, mode=schedule.tx_mode)
    assignment = place_caches(universe)
    budget_report = verify_cache_budgets(assignment, params)
    demanded = demanded_for_schedule(universe, schedule)
    partition_report = verify_schedule_partition(schedule, demanded)
    payload = {
        "schedule": schedule_to_jsonable(schedule),
        "cache_assignment": assignment_to_jsonable(assignment),
        "cache_budgets": {"ok": budget_report.ok, "messages": list(budget_report.messages)},
        "partition": {"ok": partition_report.ok, "summary": partition_report.summary()},
    }
    _write_json(payload, cfg.out)
    return EXIT_OK if budget_report.ok and partition_report.ok else EXIT_VERIFICATION


def _cmd_simulate(cfg: RunConfig) -> int:
    options = SimOptions(
        noise_variance=cfg.noise_variance,
        strictness=cfg.strictness,
        disable_irs=cfg.disable_irs,
        l_size=cfg.l_size,
    )
    report = run_episode(cfg.params, cfg.regime, cfg.seed, options)
    payload = episode_to_jsonable(report)
    _write_json(payload, cfg.out)
    if cfg.block_csv:
        records = payload["blocks"]  # every schedule has at least one block
        with open(cfg.block_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(records[0].keys())
            for record in records:
                writer.writerow(f"{v:.6e}" if isinstance(v, float) else v for v in record.values())
    if report.all_passed:
        return EXIT_OK
    return EXIT_INFEASIBLE if report.infeasible_blocks else EXIT_VERIFICATION


def _cmd_dof_sweep(cfg: RunConfig) -> int:
    points = sweep(cfg.axis, cfg.axis_values, cfg.params, cfg.strictness)
    out = cfg.out or (f"{cfg.preset}.csv" if cfg.preset else "sweep.csv")
    write_sweep_csv(points, cfg.axis, out)
    return EXIT_OK


def run_command(cfg: RunConfig) -> int:
    handlers = {
        "partition-find": _cmd_partition_find,
        "schedule-verify": _cmd_schedule_verify,
        "simulate": _cmd_simulate,
        "dof-sweep": _cmd_dof_sweep,
    }
    return handlers[cfg.command](cfg)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args)
    except (ParameterError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_command(cfg)
    except (ParameterError, SchedulingError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularChannelError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
