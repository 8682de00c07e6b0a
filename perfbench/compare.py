#!/usr/bin/env python3
"""Compares two sets of benchmark results, or reports the spread of one.

    python3 perfbench/compare.py BASE            # spread of one set
    python3 perfbench/compare.py BASE CHANGE     # verdicts, one row per workload

A set is a directory of run.py result files (perfbench/results/<name>/, or
just <name>), normally ten --trace 0 runs per workload with distinct seeds.

Spread mode prints, per workload and end-to-end metric, the median, the
quartiles and the spread (interquartile distance as a share of the median)
beside the metric's bound from BENCHMARK.json.  It exits 1 when a spread
exceeds its bound.

Compare mode gives every (workload, end-to-end metric) pair one verdict:

  improved    the change wins at least 9 of 10 seed pairs and its median is
              better than the base's by more than the base's interquartile
              distance;
  regressed   the change's median is worse than the base's by more than the
              bound (when the base's spread exceeds the bound, only if every
              change run is also worse than every base run);
  unresolved  the base's own spread exceeds the bound and neither of the
              above holds, or a side has fewer than two runs;
  unchanged   otherwise.

It exits 1 when any pair regressed.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def resolve(path):
    if os.path.isdir(path):
        return path
    candidate = os.path.join(HERE, "results", path)
    if os.path.isdir(candidate):
        return candidate
    raise SystemExit("compare.py: no result set at %s" % path)


def load_set(path):
    """{workload: {seed: {metric: value}}} from a set's untraced runs."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json") or name.endswith(".spans.json"):
            continue
        with open(os.path.join(path, name)) as f:
            doc = json.load(f)
        meta = doc.get("meta", {})
        if meta.get("trace") != 0:
            continue
        runs.setdefault(meta["workload"], {})[meta["seed"]] = doc["end_to_end"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base, change, bound, lower_is_better):
    """base, change: {seed: value}.  Returns (verdict, relative change of
    the median, signed so that positive is worse)."""
    b, c = list(base.values()), list(change.values())
    if len(b) < 2 or len(c) < 2:
        return "unresolved", float("nan")
    sign = 1.0 if lower_is_better else -1.0
    mb, mc = statistics.median(b), statistics.median(c)
    worse = sign * (mc - mb) / mb if mb else float("inf")

    def better(x, y):
        return sign * (x - y) < 0

    all_worse = all(better(max(b) if lower_is_better else min(b), x) for x in c)
    # Pair runs by seed when the sets share seeds, else in seed order.
    shared = sorted(set(base) & set(change))
    if len(shared) >= 2:
        pairs = [(base[s], change[s]) for s in shared]
    else:
        pairs = list(zip([base[s] for s in sorted(base)],
                         [change[s] for s in sorted(change)]))
    wins = sum(1 for x, y in pairs if better(y, x))
    q1, _, q3 = quartiles(b)
    if wins >= 0.9 * len(pairs) and worse < 0 and abs(mc - mb) > q3 - q1:
        return "improved", worse
    base_spread = spread(b)
    if worse > bound and (base_spread <= bound or all_worse):
        return "regressed", worse
    if base_spread > bound:
        return "unresolved", worse
    return "unchanged", worse


def spread_report(spec, runs):
    bad = False
    print("%-18s %-20s %5s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound"))
    for w in (x["name"] for x in spec["workloads"]):
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs.get(w, {}).values()]
            if not values:
                continue
            q1, _, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if s > m["bound"]:
                flag, bad = "  TOO WIDE", True
            elif s > m["bound"] / 3:
                flag = "  (> bound/3)"
            print("%-18s %-20s %5d %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s" % (
                w, m["name"], len(values), q1, statistics.median(values), q3,
                100 * s, 100 * m["bound"], flag))
    return 1 if bad else 0


def compare_report(spec, base, change):
    regressed = False
    for w in (x["name"] for x in spec["workloads"]):
        if w not in base and w not in change:
            continue
        cells = []
        for m in spec["end_to_end"]:
            b = {s: r[m["name"]] for s, r in base.get(w, {}).items()}
            c = {s: r[m["name"]] for s, r in change.get(w, {}).items()}
            v, worse = verdict(b, c, m["bound"], m["better"] == "lower")
            regressed = regressed or v == "regressed"
            # Print the plain change of the median: throughput up reads "+".
            change_pct = 100 * worse * (1 if m["better"] == "lower" else -1)
            cells.append("%s %s (%+.1f%%)" % (m["name"], v, change_pct)
                         if worse == worse else "%s %s" % (m["name"], v))
        print("%-18s | %s" % (w, " | ".join(cells)))
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    args = ap.parse_args()
    spec = load_spec()
    base = load_set(resolve(args.base))
    if args.change is None:
        return spread_report(spec, base)
    return compare_report(spec, base, load_set(resolve(args.change)))


if __name__ == "__main__":
    sys.exit(main())
