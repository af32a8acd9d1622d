#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 kvbench/steadiness.py --seeds 1-10 --out set1.jsonl
    python3 kvbench/steadiness.py --compare set1.jsonl set2.jsonl

For every workload and end-to-end metric it prints the median of the runs,
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, and that spread against the metric's bound
in BENCHMARK.json. --compare reports how far the second set's median moved
from the first's, in the direction that counts as worse.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_sets(bench, workloads, seeds, out):
    with open(out, "a") as f:
        for w in workloads:
            for seed in seeds:
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                diag = [l for l in lines if l.startswith("diag ")]
                last = json.loads(lines[-1]) if lines else None
                rec = {"workload": w, "seed": seed, "exit": proc.returncode,
                       "diag": diag, "result": last}
                f.write(json.dumps(rec) + "\n")
                f.flush()
                status = "ok" if proc.returncode == 0 and last and last["correct"] else "FAIL"
                print(f"{w} seed={seed} {status} {' '.join(diag)}", file=sys.stderr)
                if status != "ok":
                    print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["result"] and rec["result"]["correct"]:
                runs.setdefault(rec["workload"], []).append(rec["result"]["metrics"])
    return runs


def spread_table(bench, runs):
    ok = True
    for w, results in sorted(runs.items()):
        print(f"\n{w} ({len(results)} runs)")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'/bound':>7}")
        for m in bench["end_to_end"]:
            vals = [r[m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ratio = spread / m["bound"]
            flag = "" if ratio < 1 / 3 or m["name"] == "setup_s" else "  <-- above a third of the bound"
            if ratio >= 1 / 3 and m["name"] != "setup_s":
                ok = False
            print(f"  {m['name']:22} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.2f} {ratio:7.3f}{flag}")
    return ok


def compare(bench, first, second):
    print("\nmedian shift, second set against the first (positive = worse)")
    for w in sorted(first):
        for m in bench["end_to_end"]:
            a = statistics.median(r[m["name"]]["value"] for r in first[w])
            b = statistics.median(r[m["name"]]["value"] for r in second.get(w, []))
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  <-- beyond the bound"
            print(f"  {w:15} {m['name']:22} {a:12.6g} -> {b:12.6g} {worse:+8.4f} (bound {m['bound']}){flag}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", help="append run records to this JSON-lines file and summarize it")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        first, second = load(args.compare[0]), load(args.compare[1])
        spread_table(bench, first)
        spread_table(bench, second)
        compare(bench, first, second)
        return
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    run_sets(bench, workloads, args.seeds, args.out)
    spread_table(bench, load(args.out))


if __name__ == "__main__":
    main()
