"""End-to-end and per-layer benchmark of the repro VDBMS.

    python3 perfbench/run.py --workload graph_ann --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout: the program is imported from
``src/``.  One workload runs in this process and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  ``--workload all`` runs every workload in a fresh process
and prints a table.  Exit status: 0 on success, 1 when the program's output
disagrees with the benchmark's oracle, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("graph_ann", "hybrid_filtered", "churn", "serving")

# One single-threaded client: numpy's BLAS pool would otherwise compete
# with itself and with the machine's other load, and widen the spread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import Violation, run_workload

    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORK_ROOT)
    except Violation as exc:
        print(f"benchmark: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload:16s} {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:16s} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a table, then one JSON object per workload."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print(f"{name}: attempted={result['attempted']} failed={result['failed']}"
              f" correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
