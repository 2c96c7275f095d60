#!/usr/bin/env python3
"""Per-layer diff of traced benchmark runs.

    python3 perfbench/diff.py --base base/*.txt --new new/*.txt

Each file is the saved stdout of one `perfbench/run.py ... --trace 1`
run.  Runs are grouped by the workload named in their provenance line;
with several runs of one workload on a side, each metric's median is
used.  For every workload and per-layer metric that is non-zero on
either side, prints the base value, the new value, the delta and the
delta as a share of the base, so a change can show in which layer a
saving (or a cost) landed.  Counts and times are listed apart.
"""
import argparse
import json
import statistics
import sys

TIME_UNITS = {"s", "ms", "thread-s"}


def load(path):
    workload, result = None, None
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    for line in lines:
        if line.startswith("# provenance "):
            prov = json.loads(line[len("# provenance "):])
            workload = prov["workload"]
            if not prov.get("trace"):
                sys.exit(f"{path}: not a traced (--trace 1) run")
    if workload is None or not lines:
        sys.exit(f"{path}: no provenance line; not a benchmark output")
    result = json.loads(lines[-1])
    return workload, result["metrics"]


def medians(paths):
    runs = {}
    for path in paths:
        workload, metrics = load(path)
        runs.setdefault(workload, []).append(metrics)
    out = {}
    for workload, all_metrics in runs.items():
        names = all_metrics[0].keys()
        out[workload] = {
            n: (statistics.median(m[n]["value"] for m in all_metrics),
                all_metrics[0][n]["unit"], len(all_metrics))
            for n in names
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = medians(args.base), medians(args.new)
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"== {workload}: only on one side, skipped")
            continue
        b, n = base[workload], new[workload]
        print(f"== {workload} (base runs: {next(iter(b.values()))[2]}, "
              f"new runs: {next(iter(n.values()))[2]})")
        for title, is_time in (("times", True), ("counts and ratios", False)):
            print(f"-- {title}")
            print(f"{'metric':40} {'unit':9} {'base':>14} {'new':>14} "
                  f"{'delta':>14} {'delta/base':>10}")
            for name in b:
                if name not in n or (b[name][1] in TIME_UNITS) != is_time:
                    continue
                bv, unit, _ = b[name]
                nv = n[name][0]
                if bv == 0 and nv == 0:
                    continue
                share = f"{(nv - bv) / bv:+.1%}" if bv else "n/a"
                print(f"{name:40} {unit:9} {bv:14.6g} {nv:14.6g} "
                      f"{nv - bv:+14.6g} {share:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
