"""Command-line front end.

Four subcommands: ``partition-find`` constructs and verifies a
parallel-class design, ``schedule-verify`` builds placement plus schedule
and checks the exact-cover and cache-budget properties, ``simulate`` runs a
full seeded episode, and ``dof-sweep`` writes the closed-form rate curves as
CSV.

Each subcommand's parser is the one table of its settings: a ``--config``
key is valid for a command only when it is the destination of one of that
command's flags, and its JSON type follows the flag (``type=int`` an
integer, ``type=float`` a number, ``store_true`` a boolean, anything else a
string).

Exit codes: 0 pass, 2 verification failure, 3 solver infeasibility,
4 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .analytics import (
    AXIS_KR,
    AXIS_MUR,
    AXIS_Q,
    STRICT_Q,
    SUFFICIENT_Q,
    SWEEP_AXES,
    SWEEP_FIELDS,
    as_strictness,
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


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and each subcommand's own parser by name.
    A subcommand's flags are the one table of its settings."""
    parser = argparse.ArgumentParser(
        prog="irs-cache-dof",
        description="Cache-aided interference channel toolkit: designs, schedules, episodes, rate sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file with flat key/value settings; flags override it")
        p.add_argument("--out", help="output path for the command's artifact")
        return p

    def add_network(p: argparse.ArgumentParser) -> None:
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict-q", dest="strictness", action="store_const", const=STRICT_Q)
        mode.add_argument("--sufficient-q", dest="strictness", action="store_const", const=SUFFICIENT_Q)
        for flag in ("--k-t", "--k-r", "--n-files", "--f-packets", "--mu-t", "--mu-r", "--q-elements"):
            p.add_argument(flag, type=int)

    def add_schedule(p: argparse.ArgumentParser) -> None:
        add_network(p)
        p.add_argument("--regime", choices=[design.value for design in Design])
        p.add_argument("--l-size", type=int, help="override the element-derived null count L")

    p_find = command("partition-find", "construct a parallel-class transmitter design")
    p_find.add_argument("--m", type=int, help="number of groups")
    p_find.add_argument("--design-mu-t", type=int, help="group size")

    p_ver = command("schedule-verify", "build placement+schedule and verify cover and budgets")
    p_ver.add_argument("--seed", type=int, help="accepted and unused: a schedule draws nothing at random")
    add_schedule(p_ver)

    p_sim = command("simulate", "run one seeded delivery episode end to end")
    p_sim.add_argument("--seed", type=int, help="64-bit RNG seed (default 0)")
    add_schedule(p_sim)
    p_sim.add_argument("--noise-variance", type=float)
    p_sim.add_argument("--disable-irs", action="store_true", default=None)
    p_sim.add_argument("--block-csv", help="also write one CSV row per block")

    p_sweep = command("dof-sweep", "write closed-form rate curves as CSV")
    add_network(p_sweep)
    p_sweep.add_argument("--preset", choices=sorted(PRESETS))
    p_sweep.add_argument("--axis", choices=SWEEP_AXES)
    p_sweep.add_argument("--axis-start", type=int)
    p_sweep.add_argument("--axis-stop", type=int, help="inclusive")
    p_sweep.add_argument("--axis-step", type=int)
    return parser, sub.choices


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


def _json_type(flag: argparse.Action) -> tuple[str, type | tuple[type, ...]]:
    """The JSON type of a config value for ``flag``'s destination, by name
    and as the Python types that hold it: an integer for ``type=int``, a
    number for ``type=float``, a boolean for ``store_true``, else a string."""
    if flag.type is int:
        return "integer", int
    if flag.type is float:
        return "number", (int, float)
    if flag.const is True:
        return "boolean", bool
    return "string", str


def _settings(command: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Config-file values overridden by every flag the user set, keyed by
    flag destination. A config key must be a destination of one of
    ``command``'s flags and hold that flag's JSON type; a boolean is no
    integer or number."""
    flags = {action.dest: action for action in command._actions if action.dest not in ("help", "config")}
    settings = {}
    if args.config:
        settings = _load_config_file(args.config)
        unknown = sorted(set(settings) - set(flags))
        if unknown:
            raise ParameterError(f"config file {args.config} has unknown keys: {', '.join(unknown)}")
        for key, value in settings.items():
            kind, types = _json_type(flags[key])
            if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, types):
                raise ParameterError(f"setting {key!r} must be a JSON {kind}, got {json.dumps(value)}")
    settings.update((dest, getattr(args, dest)) for dest in flags if getattr(args, dest) is not None)
    if not 0 <= settings.get("seed", 0) <= 0xFFFFFFFFFFFFFFFF:
        raise ParameterError("seed must be a nonnegative 64-bit integer")
    as_strictness(settings.get("strictness", STRICT_Q))
    return settings


def _preset(settings: dict) -> dict:
    """The values of the preset the settings name; none without one."""
    name = settings.get("preset")
    if name is None:
        return {}
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}; expected one of {', '.join(sorted(PRESETS))}")
    return PRESETS[name]


def _params(settings: dict) -> SystemParams:
    """The network of a run: the preset's values overridden by the
    settings, with N = K_R files, F = 1 packet and Q = 0 elements unless
    given."""
    values = {**_preset(settings), **settings}
    missing = [key for key in ("k_t", "k_r", "mu_t", "mu_r") if key not in values]
    if missing:
        raise ParameterError(f"missing required parameters: {', '.join(missing)}")
    return SystemParams(
        k_t=values["k_t"],
        k_r=values["k_r"],
        n_files=values.get("n_files", max(values["k_r"], 1)),
        f_packets=values.get("f_packets", 1),
        mu_t=values["mu_t"],
        mu_r=values["mu_r"],
        q_elements=values.get("q_elements", 0),
    )


def _episode(settings: dict) -> tuple[SystemParams, str, SimOptions]:
    """The network, design and options of a scheduled run."""
    params = _params(settings)
    # the regime default follows the cache regime; an explicit choice is kept
    # (and rejected downstream if it contradicts mu_t)
    regime = settings.get("regime", (Design.THM1 if params.mu_t == 1 else Design.THM2_PARTITION).value)
    options = SimOptions(
        noise_variance=float(settings.get("noise_variance", 0.0)),
        strictness=settings.get("strictness", STRICT_Q),
        disable_irs=settings.get("disable_irs", False),
        l_size=settings.get("l_size"),
    )
    return params, regime, options


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_partition_find(settings: dict) -> int:
    if "m" not in settings or "design_mu_t" not in settings:
        raise ParameterError("partition-find needs --m and --design-mu-t")
    try:
        system = find_subset_partition(settings["m"], settings["design_mu_t"])
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
    _write_json(payload, settings.get("out"))
    return EXIT_OK if check.ok else EXIT_VERIFICATION


def _cmd_schedule_verify(settings: dict) -> int:
    params, regime, options = _episode(settings)
    schedule = build_schedule(params, regime, options)
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
    _write_json(payload, settings.get("out"))
    return EXIT_OK if budget_report.ok and partition_report.ok else EXIT_VERIFICATION


def _cmd_simulate(settings: dict) -> int:
    params, regime, options = _episode(settings)
    report = run_episode(params, regime, settings.get("seed", 0), options)
    payload = episode_to_jsonable(report)
    _write_json(payload, settings.get("out"))
    if settings.get("block_csv"):
        records = payload["blocks"]  # every schedule has at least one block
        with open(settings["block_csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(records[0].keys())
            for record in records:
                writer.writerow(f"{v:.6e}" if isinstance(v, float) else v for v in record.values())
    if report.all_passed:
        return EXIT_OK
    return EXIT_INFEASIBLE if report.infeasible_blocks else EXIT_VERIFICATION


def _cmd_dof_sweep(settings: dict) -> int:
    preset = _preset(settings)
    axis = settings.get("axis", preset.get("axis"))
    if axis is None:
        raise ParameterError("dof-sweep needs --preset or --axis")
    if axis not in SWEEP_AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {', '.join(SWEEP_AXES)}")
    step = settings.get("axis_step", 1)
    if step < 1:
        raise ParameterError(f"--axis-step must be at least 1, got {step}")
    if "axis_start" in settings or "axis_stop" in settings:
        if "axis_start" not in settings or "axis_stop" not in settings:
            raise ParameterError("custom sweeps need both --axis-start and --axis-stop")
        values = list(range(settings["axis_start"], settings["axis_stop"] + 1, step))
    elif "axis_step" in settings:
        raise ParameterError("--axis-step needs --axis-start and --axis-stop")
    elif axis != preset.get("axis", axis):
        raise ParameterError(
            f"--axis {axis} is not preset {settings['preset']}'s axis {preset['axis']}; "
            "give --axis-start and --axis-stop"
        )
    elif preset and SWEEP_FIELDS[axis] in settings:
        # the preset's axis values replace the network's value of that parameter
        raise ParameterError(
            f"--{SWEEP_FIELDS[axis].replace('_', '-')} is the parameter preset {settings['preset']} sweeps "
            f"along its {axis} axis; give --axis-start and --axis-stop to sweep a custom range"
        )
    else:
        values = preset.get("values")
    if not values:
        raise ParameterError("sweep has no axis values")
    points = sweep(axis, values, _params(settings), settings.get("strictness", STRICT_Q))
    out = settings.get("out") or f"{settings.get('preset', 'sweep')}.csv"
    write_sweep_csv(points, axis, out)
    return EXIT_OK


_COMMANDS = {
    "partition-find": _cmd_partition_find,
    "schedule-verify": _cmd_schedule_verify,
    "simulate": _cmd_simulate,
    "dof-sweep": _cmd_dof_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_settings(commands[args.command], args))
    except (ParameterError, SchedulingError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingularChannelError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
