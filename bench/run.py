"""Benchmark entry point.

    python3 bench/run.py --workload fit|reach_knn|clutter_clf --seed N --seconds S --trace 0|1

Runs one workload in this process, single-threaded, on inputs made from
--seed, for about --seconds of timed work, checks its outputs, and prints one
JSON line last: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from spans recorded around the program's calls, and the spans are
written under .bench_runs/traces/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

WORKLOAD_NAMES = ("fit", "reach_knn", "clutter_clf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="safectl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.prepare()
    except common.NoProgram as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), T_START)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
