#!/usr/bin/env python3
"""Compares two serving-benchmark snapshots written by bench_snapshot.sh.

    scripts/bench_compare.py SNAPSHOT            # its tree vs its baseline
    scripts/bench_compare.py BASE CHANGE         # CHANGE's tree vs BASE's
    scripts/bench_compare.py --benchmark FILE …  # bounds (BENCHMARK.json)

Per workload and end-to-end metric it prints both medians, the move of
the change's median, the per-seed paired ratios (change / base, seeds
present on both sides), how many pairs the change won, and whether the
move is larger than the metric's BENCHMARK.json bound and larger than
the baseline's interquartile range.

Exit status: 0 when no metric is worse than its bound, 1 when one is (or
when the change reports incorrect answers or a larger failed share), 2
when the input cannot be used: unreadable files, a snapshot without a
baseline, no workload or seed in common, or host stamps that differ in
nproc, simd_tier or build_type (numbers from different hosts or builds
do not compare).
"""

import argparse
import json
import os
import sys

HOST_KEYS = ("nproc", "simd_tier", "build_type")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Unusable(Exception):
    pass


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Unusable("%s: %s" % (path, e))


def side(snapshot, name, path):
    try:
        return snapshot["host"], snapshot[name]["label"], \
            snapshot[name]["workloads"]
    except (KeyError, TypeError):
        raise Unusable("%s: no '%s' side with workloads" % (path, name))


def paired(base, change):
    """(base, change) value pairs of one metric, matched by seed."""
    by_seed = dict(zip(base["seeds"], base["values"]))
    return [(by_seed[s], v) for s, v in zip(change["seeds"], change["values"])
            if s in by_seed]


def compare(base_workloads, change_workloads, bounds):
    """Prints the report; returns the number of out-of-bound regressions."""
    common = sorted(set(base_workloads) & set(change_workloads))
    if not common:
        raise Unusable("no workload in common")
    for name in sorted(set(base_workloads) ^ set(change_workloads)):
        print("note: workload %s is on one side only; skipped" % name)
    header = ("%-15s %-19s %12s %12s %8s %6s %6s %5s  %s" %
              ("workload", "metric", "base", "change", "move", "won",
               ">bound", ">IQR", "paired ratios (change/base)"))
    print(header)
    print("-" * len(header))
    regressions = 0
    any_pairs = False
    for workload in common:
        b, c = base_workloads[workload], change_workloads[workload]
        b_share = b["failed"] / max(1, b["attempted"])
        c_share = c["failed"] / max(1, c["attempted"])
        if not c["correct"] or c_share > b_share:
            print("%-15s FAIL: change correct=%s, failed %d of %d "
                  "(base %d of %d)" % (workload, c["correct"], c["failed"],
                                       c["attempted"], b["failed"],
                                       b["attempted"]))
            regressions += 1
        for metric, (better, bound) in bounds.items():
            if metric not in b["metrics"] or metric not in c["metrics"]:
                continue
            bm, cm = b["metrics"][metric], c["metrics"][metric]
            pairs = paired({"seeds": b["seeds"], "values": bm["values"]},
                           {"seeds": c["seeds"], "values": cm["values"]})
            any_pairs = any_pairs or bool(pairs)
            sign = 1.0 if better == "higher" else -1.0
            won = sum(1 for x, y in pairs if sign * (y - x) > 0)
            ratios = " ".join("%.2f" % (y / x) if x else "inf"
                              for x, y in pairs)
            move = (cm["median"] / bm["median"] - 1.0) if bm["median"] \
                else 0.0
            beyond_bound = abs(move) > bound
            beyond_iqr = abs(cm["median"] - bm["median"]) > bm["q3"] - bm["q1"]
            worse = sign * move < 0
            if worse and beyond_bound:
                regressions += 1
            print("%-15s %-19s %12.6g %12.6g %+7.1f%% %3d/%-2d %6s %5s  %s%s" %
                  (workload, metric, bm["median"], cm["median"], 100 * move,
                   won, len(pairs), "yes" if beyond_bound else "no",
                   "yes" if beyond_iqr else "no", ratios,
                   "  <- worse than bound" if worse and beyond_bound else ""))
    if not any_pairs:
        raise Unusable("no seed in common: nothing pairs")
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("snapshots", nargs="+", metavar="SNAPSHOT")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    try:
        if len(args.snapshots) > 2:
            raise Unusable("give one snapshot or two")
        spec = load(args.benchmark)
        bounds = {m["name"]: (m["better"], m["bound"])
                  for m in spec.get("end_to_end", [])}
        if not bounds:
            raise Unusable("%s: no end_to_end metrics" % args.benchmark)
        if len(args.snapshots) == 1:
            path = args.snapshots[0]
            snap = load(path)
            host, base_label, base = side(snap, "baseline", path)
            _, change_label, change = side(snap, "tree", path)
            change_host = host
        else:
            base_path, change_path = args.snapshots
            host, base_label, base = side(load(base_path), "tree", base_path)
            change_host, change_label, change = side(load(change_path),
                                                     "tree", change_path)
        if not isinstance(host, dict) or not isinstance(change_host, dict):
            raise Unusable("missing host stamp")
        differ = [k for k in HOST_KEYS if host.get(k) != change_host.get(k)]
        if differ:
            raise Unusable("host stamps differ in %s: %s vs %s" % (
                ", ".join(differ), {k: host.get(k) for k in differ},
                {k: change_host.get(k) for k in differ}))
        print("base %s vs change %s on %s" % (
            base_label, change_label,
            ", ".join("%s=%s" % (k, host.get(k)) for k in HOST_KEYS)))
        regressions = compare(base, change, bounds)
    except (Unusable, KeyError, TypeError, ZeroDivisionError) as e:
        print("bench_compare: unusable input: %s" % e, file=sys.stderr)
        return 2
    if regressions:
        print("bench_compare: %d regression(s) beyond their bound" %
              regressions)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
