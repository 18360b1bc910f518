#!/usr/bin/env python3
"""Held-out seed check of the cold-path service benchmark.

Run from the repository root:

    python3 servicebench/heldout_check.py --seeds 1,101

For every workload of BENCHMARK.json, with its run_seconds, runs the benchmark untraced and traced once per seed
and checks that each seed after the first gives the same metric names,
zero failed ops, and the same ordering of layers by share of traced time.
Layers under 5% share are not ordered, and two layers whose shares are
within 20% of each other count as tied. Exits 1 if any check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "BENCHMARK.json")
MIN_SHARE = 0.05
TIE = 1.2


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {out.returncode}")
    return json.loads(lines[-1])


def shares(result):
    return {name[:-len("_share")]: metric["value"]
            for name, metric in result["metrics"].items()
            if name.endswith("_share")}


def order_conflicts(reference, other):
    """Layer pairs the reference orders clearly but `other` reverses."""
    layers = [l for l in reference if reference[l] >= MIN_SHARE]
    conflicts = []
    for a in layers:
        for b in layers:
            if reference[a] > TIE * reference[b] and other[a] <= other[b]:
                conflicts.append(f"{a} ({reference[a]:.3f} -> {other[a]:.3f})"
                                 f" vs {b} ({reference[b]:.3f} -> "
                                 f"{other[b]:.3f})")
    return conflicts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,101")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(BENCHMARK_JSON) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    ok = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        results = {(seed, trace): run(workload, seed, seconds, trace)
                   for seed in seeds for trace in (0, 1)}
        for (seed, trace), result in results.items():
            if result["failed"] or not result["correct"]:
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{result['failed']} failed ops")
                ok = False
        base = seeds[0]
        for seed in seeds:
            ranking = sorted(shares(results[(seed, 1)]).items(),
                             key=lambda item: -item[1])
            print(f"{workload} seed {seed} shares: " + ", ".join(
                f"{layer} {share:.3f}" for layer, share in ranking
                if share >= MIN_SHARE))
        for seed in seeds[1:]:
            for trace in (0, 1):
                if (results[(seed, trace)]["metrics"].keys()
                        != results[(base, trace)]["metrics"].keys()):
                    print(f"{workload} seed {seed} trace {trace}: "
                          "metric names differ")
                    ok = False
            conflicts = order_conflicts(shares(results[(base, 1)]),
                                        shares(results[(seed, 1)]))
            for conflict in conflicts:
                print(f"{workload} seed {seed}: order differs: {conflict}")
            ok = ok and not conflicts
            print(f"{workload} seed {seed}: "
                  f"{'same' if not conflicts else 'different'} layer order, "
                  f"failed ops {results[(seed, 0)]['failed']} + "
                  f"{results[(seed, 1)]['failed']}")
    print("held-out check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
