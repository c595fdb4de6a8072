"""Steadiness check: run each workload repeatedly in fresh processes.

    python3 perfbench/steady.py --runs 10 --seconds 12
    python3 perfbench/steady.py --runs 5 --workloads graph_ann,churn --seed0 101

Run ``r`` uses seed ``seed0 + r`` and visits the workloads in forward
order on even runs and reverse order on odd ones.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median against the metric's bound in
``BENCHMARK.json``; a spread above a third of the bound is flagged.  It
also prints each workload's wall time per run and failed share.  The raw
results are written to ``.bench_work/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for r in range(args.runs):
        for name in names if r % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *config["command"][1:], "--workload", name,
                 "--seed", str(args.seed0 + r), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {args.seed0 + r}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs[name].append(result)
            print(f"run {r} {name}: {wall:.1f}s", flush=True)
    for name, results in runs.items():
        walls = [r["wall_s"] for r in results]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{name}: wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s,"
              f" failed shares {sorted(shares)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            flag = "  <-- above bound/3" if spread > bound / 3 else ""
            print(f"  {metric:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}  bound {bound:.0%}{flag}")
    out = ROOT / ".bench_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
