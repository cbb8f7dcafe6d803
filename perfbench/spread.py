#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median over the
seeds and the distance between the first and third quartile as a share of
the median (`statistics.quantiles(values, n=4)`), next to the metric's
bound from BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --workloads serve-mixed
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for wl in workloads:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            elapsed = time.monotonic() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{wl} seed {seed}: exit {proc.returncode}, correct {result['correct']}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med != 0:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print(f"  {wl:12} {name:24} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
