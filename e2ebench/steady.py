#!/usr/bin/env python3
"""Repeat each workload over several seeds and report each end-to-end
metric's spread against its bound in BENCHMARK.json.

    python3 e2ebench/steady.py --workloads recommend-mix --seeds 1-10

Run from the root of the repository. The spread of a metric is the distance
between the first and third quartile of its values (statistics.quantiles,
n=4) as a share of their median. Every metric with a bound, setup_s
included, is steady when its spread is below a third of its bound; the
command exits 1 if any is not, if a run fails, or if the share of failed
operations differs between runs. Raw result lines go to
.bench_build/steady-<workload>.jsonl.
"""
import argparse
import json
import os
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
    ap.add_argument("--workloads", help="comma-separated workloads (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    os.makedirs(".bench_build", exist_ok=True)
    ok = True
    for w in names:
        results = []
        with open(f".bench_build/steady-{w}.jsonl", "a") as raw:
            for s in seeds(args.seeds):
                cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                          "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
                p = subprocess.run(cmd, capture_output=True, text=True)
                if p.returncode != 0:
                    print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                    ok = False
                    continue
                line = p.stdout.strip().splitlines()[-1]
                raw.write(line + "\n")
                r = json.loads(line)
                results.append(r)
                print(f"{w} seed {s}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            ok = False
        print(f"\n{w}: {len(results)} runs, failed shares {sorted(shares)}")
        print(f"  {'metric':40} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
            if len(vals) < 2:
                print(f"  {m['name']:40} missing")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif spread < bound / 3:
                verdict = "steady"
            else:
                verdict = "WIDE"
                ok = False
            b = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {m['name']:40} {med:12.4f} {spread:8.4f} {b}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
