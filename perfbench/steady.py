"""Steadiness: run each workload repeatedly and summarise the spread.

    python3 perfbench/steady.py --runs 10 --first-seed 1

Every workload runs ``--runs`` times, each a separate ``run.py`` process of
BENCHMARK.json's run_seconds with its own seed, one after the other.  For
every end-to-end metric the table gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  The last
line is the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import ROOT, WORKLOADS, run_subprocess


def summarise(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds.get(name), "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in WORKLOADS:
        results = [run_subprocess(workload, seed, spec["run_seconds"], traced=False)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        stats = summarise(results, bounds)
        report[workload] = {
            "correct": all(r["correct"] for r in results),
            "failed_shares": shares,
            "metrics": stats,
        }
        print(f"== {workload}: runs={len(results)} "
              f"correct={report[workload]['correct']} failed shares={shares}")
        for name, s in stats.items():
            flag = ""
            if s["bound"] is not None:
                flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"   {name:20s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}"
                  f"  q3 {s['q3']:12.6g}  spread {s['spread']:7.4f}"
                  f"  bound {s['bound']}  {flag}")
        sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
