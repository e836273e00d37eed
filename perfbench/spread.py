"""Every end-to-end metric of every workload, over several seeds.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Makes one `run.py` run per workload and seed, as BENCHMARK.json's command
does, and prints each run's metrics.  For each workload it then prints the
failed calls against those attempted, and for each end-to-end metric its
unit, median, quartiles and spread, (Q3 - Q1) / median, next to the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)

    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"  seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {failed} of {attempted} calls failed, "
              f"seeds {args.first_seed}..{args.first_seed + args.seeds - 1}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else values * 3)
            print(f"  {metric['name']:<22} {metric['unit']:<4} median {median:<12.6g}"
                  f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {(q3 - q1) / median:7.4f}"
                  f"  bound {metric['bound']}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
