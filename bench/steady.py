"""Run one workload several times and report how steady each end-to-end metric is.

    python3 bench/steady.py --workload reach_knn --runs 10 [--first-seed 0] [--seconds S]

Runs `bench/run.py` once per seed (first-seed, first-seed + 1, ...), one after
another, and prints for every end-to-end metric in BENCHMARK.json its median,
first and third quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and whether that spread is inside the metric's bound
(setup_s has no spread limit; its bound applies to the median between two
sets of runs). The raw results go to .bench_runs/steady/<workload>-<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(common.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = run_once(args.workload, seed, args.seconds)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} wall={r['wall_s']:.1f}s", flush=True)

    out = common.RUNS / "steady" / f"{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, failed shares {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in results)}")
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s}  inside")
    ok = len(shares) == 1 and all(r["correct"] for r in results)
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        inside = m["name"] == "setup_s" or spread <= m["bound"]
        ok &= inside
        print(f"{m['name']:24s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{m['bound']:6.2f}  {'yes' if inside else 'NO'}"
              f"{'  (< bound/3)' if spread < m['bound'] / 3 else ''}")
    print(f"raw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
