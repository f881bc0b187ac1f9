#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads suite-warm,serve --seeds 1-10 --seconds 15

Run it from the repository root. For every workload it runs
`bash perfbench/run.sh` once per seed, prints the median, the first and
third quartiles and the spread (quartile distance over median) of every
metric, and appends the raw result lines to --log (JSON lines) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="suite-warm,suite-cold,serve,verify")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log", default="")
    args = ap.parse_args()
    failed = False
    for w in args.workloads.split(","):
        values = {}
        for s in seeds(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(s),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                failed = True
                continue
            res = json.loads(lines[-1])
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": s, "result": res}) + "\n")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"## {w} ({args.seeds}, {args.seconds} s)")
        print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
        print()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
