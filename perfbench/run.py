"""Benchmark of regulartri: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is taken from its
`src/` directory.  Every call into the package runs in a fresh process (see
workloads.py), one after another, so a run is single-process and
single-threaded.

With `--trace 0` the run first sets up the inputs SETUP_SAMPLES times, then
repeats the timed call until S seconds have passed (at least once) and
reports the medians of the end-to-end metrics in BENCHMARK.json.  With
`--trace 1` it makes one untraced and one traced call and reports the
per-layer metrics.  The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

End-to-end times are scaled to a fixed reference speed: each process also
times a pure-Python reference loop before its set-up and after its call,
and its seconds are multiplied by REF_NOMINAL_S / (that loop's time).  On a
shared machine whose speed drifts this halves the spread of `wall_s`
between runs; the line before the result gives the unscaled medians.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
#: Times are reported at the speed where one reference sample (see
#: workloads.reference_s) takes this many seconds.
REF_NOMINAL_S = 0.03
#: A run starts no call that could end after this many seconds.
TIME_LIMIT_S = 170.0


def run_child(workload, seed, mode, workdir, deadline):
    """One call in a fresh process; a crash or a timeout is a failed record."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(workdir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"{mode} call timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"{mode} call exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def timed_run(workload, seed, seconds, workdir):
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [run_child(workload, seed, "setup", workdir, deadline)
              for _ in range(SETUP_SAMPLES)]
    calls = []
    start = time.monotonic()
    while not calls or time.monotonic() - start < seconds:
        record = run_child(workload, seed, "timed", workdir, deadline)
        calls.append(record)
        if not record.get("ok") or time.monotonic() + 1.5 * record["wall_s"] > deadline:
            break
    done = [r for r in calls if "wall_s" in r]
    set_up = [r for r in setups + done if "setup_s" in r]
    values = {
        "wall_s": _median(scaled(r, "wall_s") for r in done),
        "triangulations_per_s": _median(r["count"] / scaled(r, "wall_s") for r in done),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in done),
        "setup_s": _median(scaled(r, "setup_s") for r in set_up),
    }
    print(f"unscaled: wall_s {_median(r['wall_s'] for r in done):.6g},"
          f" setup_s {_median(r['setup_s'] for r in set_up):.6g},"
          f" reference sample {_median(r['ref_s'] for r in set_up):.6g} s")
    return calls, values


def trace_run(workload, seed, workdir):
    deadline = time.monotonic() + TIME_LIMIT_S
    plain = run_child(workload, seed, "timed", workdir, deadline)
    traced = run_child(workload, seed, "traced", workdir, deadline)
    values = dict(traced.get("layers", {}))
    if "wall_s" in plain and "wall_s" in traced:
        values["trace.overhead_frac"] = scaled(traced, "wall_s") / scaled(plain, "wall_s") - 1
    print("trace: missing hooks " + json.dumps(traced.get("missing", []))
          + ", violations " + json.dumps(traced.get("violations", [])))
    return [plain, traced], values


def scaled(record, key):
    """A time of the record, in seconds at the reference speed."""
    return record[key] * REF_NOMINAL_S / record["ref_s"]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def result(calls, values, specs):
    """The result object; a metric the run could not measure reads 0."""
    failed = sum(1 for r in calls if not r.get("ok"))
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in specs},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "regulartri" / "__init__.py").is_file():
        print(f"no regulartri sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        if args.trace:
            calls, values = trace_run(args.workload, args.seed, workdir)
        else:
            calls, values = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for record in calls:
        if not record.get("ok"):
            print(f"failed call: {record.get('error')}", file=sys.stderr)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps(result(calls, values, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
