#!/usr/bin/env python3
"""Run one perfbench workload several times and summarise every metric.

Run from the repository root:

    python3 perfbench/repeat.py --workload kv_bigheap --runs 10
    python3 perfbench/repeat.py --workload sim_jbb --runs 3 --same-seed
    python3 perfbench/repeat.py --workload kv_churn --runs 5 --traced

Each run goes through run.py with its own seed (--seed, --seed+1, ...; or
the same seed with --same-seed). For every metric the tool prints the median,
the quartiles as statistics.quantiles(values, n=4) gives them, and the
quartile spread as a share of the median — the figure that shows whether the
benchmark is steady. With --traced it adds one traced run and prints each of
its end-to-end metrics next to the untraced median, which states the tracing
overhead. With --same-seed it also checks that the simulator's virtual-time
outputs are identical across the runs. It exits 1 if any run fails, reports
an incorrect result, or breaks determinism.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repeat: run {cmd} exited {proc.returncode}")
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        if tag in ("context", "traced_e2e"):
            tagged[tag] = json.loads(rest)
    return json.loads(lines[-1]), tagged


def summarise(name, values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else float("nan")
    return f"{name:34s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  spread {spread:7.2%}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    values, units, digests = {}, {}, set()
    bad = 0
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        res, tagged = run_once(args.workload, seed, args.seconds, 0)
        ctx = tagged.get("context", {})
        print(f"run {i + 1}/{args.runs} seed {seed}: correct {res['correct']} "
              f"attempted {res['attempted']} failed {res['failed']} "
              f"steal {ctx.get('steal_pct', 0):.2f}%  " +
              " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(res["metrics"].items())),
              flush=True)
        if not res["correct"] or res["failed"]:
            bad += 1
        if "sim_window_digest" in ctx:
            digests.add(ctx["sim_window_digest"])
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs, {args.seconds}s each")
    for k in sorted(values):
        print(summarise(f"{k} ({units[k]})", values[k]))
    if args.same_seed and digests:
        same = len(digests) == 1
        print(f"virtual-time outputs identical across runs: {same} {sorted(digests)}")
        bad += 0 if same else 1

    if args.traced:
        res, tagged = run_once(args.workload, args.seed, args.seconds, 1)
        traced = tagged.get("traced_e2e", {})
        print(f"\ntraced run (seed {args.seed}): correct {res['correct']} failed {res['failed']}")
        print(f"{'metric':34s} {'untraced median':>16s} {'traced':>14s} {'overhead':>9s}")
        for k in sorted(traced):
            med = statistics.median(values[k]) if k in values else float("nan")
            t = traced[k]["value"]
            over = (t - med) / med if med else float("nan")
            print(f"{k:34s} {med:16.4f} {t:14.4f} {over:9.2%}")
        for k in sorted(res["metrics"]):
            m = res["metrics"][k]
            print(f"layer {k:34s} {m['value']:16.4f} {m['unit']}")
        if not res["correct"] or res["failed"]:
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
