"""Run the benchmark once per seed and summarize the spread of each metric.

Usage, from the root of a source checkout:

    python3 perfbench/repeat.py --workload cli-pipeline --seeds 1-10

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  With ``--json``
the summary is also written to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--json", help="write the summary to this file")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append((seed, result))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {"workload": args.workload, "seconds": seconds,
               "seeds": [s for s, _ in runs], "all_correct": all(r["correct"] for _, r in runs),
               "metrics": {}}
    for name in runs[0][1]["metrics"]:
        values = [r["metrics"][name]["value"] for _, r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        summary["metrics"][name] = {
            "unit": runs[0][1]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": spread, "values": values,
        }
        bound = bounds.get(name)
        flag = "" if bound is None else f"bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  {flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
