#!/usr/bin/env python3
"""Steadiness check for the session benchmark.

Runs each workload once per seed, stores each run's result line under
sessbench/results/<label>/, and prints, per end-to-end metric, the median
and the quartile spread (Q3 - Q1) / median that BENCHMARK.json bounds
are judged against.

    python3 sessbench/steady.py --label parent --seeds 1-10
    python3 sessbench/steady.py --label check --seeds 101-110 --workloads exec-heavy
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    out = os.path.join(HERE, "results", args.label)
    os.makedirs(out, exist_ok=True)
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    summary = {}
    for w in args.workloads.split(","):
        runs = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if p.returncode != 0:
                sys.exit(f"{w} seed {s}: exit {p.returncode}\n{p.stderr}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            detail = json.loads(p.stdout.strip().splitlines()[-2])
            rec = {"workload": w, "seed": s, "detail": detail, "result": result}
            with open(os.path.join(out, f"{w}-seed{s}.json"), "w") as f:
                json.dump(rec, f, indent=1)
            runs.append(result["metrics"])
            print(f"{w} seed {s}: " + ", ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics),
                flush=True)
        summary[w] = {}
        for m in metrics:
            vals = [r[m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else float("nan")
            else:
                spread = float("nan")
            summary[w][m["name"]] = {"median": med, "spread": spread, "bound": m.get("bound"),
                                     "values": vals}
            print(f"  {w:13s} {m['name']:22s} median {med:12.4f}  spread {spread:7.4f}"
                  + (f"  bound {m['bound']}" if "bound" in m else ""), flush=True)
    with open(os.path.join(out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
