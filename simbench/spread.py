#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the root of the repository:

    python3 simbench/spread.py --workloads dense,validated --seeds 1-10 [--trace 1]

For every workload and metric it prints the median of the per-run values,
the distance between their first and third quartiles as a share of that
median (what BENCHMARK.json's bounds are checked against), and the bound.
Raw results are appended as JSON lines to .bench_build/spread.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "spread.jsonl"), "a")
    ok = True
    for name in names:
        values = {}
        digests = set()
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            digest = next((l.split()[-1] for l in lines if l.startswith("sim_digest")), "")
            digests.add(digest)
            log.write(json.dumps({"workload": name, "seed": seed, "sim_digest": digest, "result": res}) + "\n")
            log.flush()
            if not res["correct"] or res["failed"]:
                print(f"{name} seed {seed}: {res['failed']} of {res['attempted']} failed", file=sys.stderr)
                ok = False
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            spread = 0.0
            if len(vs) >= 2 and med:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{name:10s} {k:32s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        print(f"{name:10s} runs {len(next(iter(values.values()), []))}, {len(digests)} distinct sim_digests")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
