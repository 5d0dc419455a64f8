"""Benchmark of the irs_cache_dof block pipeline, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]

Run from the repository root; the package is imported from ``src/`` next to
this directory. BLAS is pinned to one thread before numpy loads. ``--trace 0``
times the untraced program and prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a separate traced run. Either way every
result is checked exactly, the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit code
is 0 only when nothing failed. ``--out`` also writes the full record
(environment, counts, every metric) as JSON. See README.md in this
directory for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: run in a fresh interpreter: the import a run pays before any set-up
IMPORT_PROBE = "import time; t = time.perf_counter(); import measure; print(time.perf_counter() - t)"

EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_PROGRAM = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def import_program():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import irs_cache_dof

    found = Path(irs_cache_dof.__file__).resolve().parent.parent
    if found != SRC:
        raise ImportError(f"irs_cache_dof came from {found}, not {SRC}")


def import_seconds(repeats: int) -> list[float]:
    """Import time of the benchmark and, through it, the package, in
    ``repeats`` fresh interpreters with the same BLAS pinning."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(HERE), str(SRC))))
    times = []
    for _ in range(repeats):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
        )
        times.append(float(probe.stdout))
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import workloads
    from measure import environment, run_traced, run_untraced

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return EXIT_USAGE
    if args.trace:
        record = run_traced(args.workload, args.seed, args.seconds)
    else:
        imports = import_seconds(workloads.SETUP_REPEATS)
        record = run_untraced(args.workload, args.seed, args.seconds, median(imports))
        record["import_s"] = imports
    record["environment"] = environment(args.workload, args.seed, BLAS_ENV)

    for name, metric in record["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} failed_ratio = {record['failed_ratio']:.6g} "
        f"({record['failed']}/{record['attempted']} operations)"
    )
    for note in record["notes"]:
        print(f"{args.workload} FAILED: {note}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if record["correct"] else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
