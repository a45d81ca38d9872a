#!/usr/bin/env python3
"""Compare two bench_pipeline result files, metric by metric.

Usage:

    python3 bench/pipeline/bench_diff.py BASE.json NEW.json [--benchmark BENCHMARK.json]

For every (workload, end-to-end metric) pair it prints better, worse, same
or unresolved, judged with the direction and bound BENCHMARK.json gives the
metric (the bound is a share of the base value). Each side is judged on the
better half of its reps, the ones its reported value is the median of:

  * unresolved: the spread of either side (interquartile range over median)
    is wider than the bound, and not every run on one side beats every run
    on the other;
  * worse / better: the median moved by more than the bound;
  * same: otherwise.

The host-speed probe (host.probe_s, a fixed CPU kernel timed in every rep)
is compared too. When the host itself ran more than HOST_BAND slower or
faster, a timing verdict that moved the same way as the host reads as
unresolved: a set run on a slow host is not a regression. The probe never
rescales a metric. Deterministic values (model hash, error percentages,
record counts) are listed when they differ. Exits 1 when any pair is worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HOST_BAND = 0.05
TIME_UNITS = {"s", "req/s"}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def better_half(values, metric):
    v = sorted(values, reverse=metric["better"] == "higher")
    return v[:(len(v) + 1) // 2]


def verdict(base, new, metric, host_ratio):
    worse_sign = 1.0 if metric["better"] == "lower" else -1.0
    change = (statistics.median(new) - statistics.median(base)) / statistics.median(base)
    worse_by = worse_sign * change
    bound = metric["bound"]
    separated = max(new) < min(base) or min(new) > max(base)
    if max(spread(base), spread(new)) > bound and not separated:
        return change, "unresolved"
    if abs(worse_by) <= bound:
        return change, "same"
    # A slower host (ratio > 1) makes every time longer and every rate
    # lower, so it pushes each timing towards "worse".
    if (metric["unit"] in TIME_UNITS and abs(host_ratio - 1.0) > HOST_BAND
            and (worse_by > 0) == (host_ratio > 1.0)):
        return change, f"unresolved (host x{host_ratio:.3f})"
    return change, "worse" if worse_by > 0 else "better"


def main():
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(here.parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    for name, doc in (("base", base), ("new", new)):
        m = doc["manifest"]
        print(f"{name}: seed {m['seed']}, {m['reps']} reps, {m['threads']} thread(s), "
              f"{m['build_type']}, {m['git_describe']}, "
              f"host.probe_s {m['host_probe_s_median']:.4f}")
    host_ratio = new["manifest"]["host_probe_s_median"] / base["manifest"]["host_probe_s_median"]
    print(f"host probe ratio new/base: {host_ratio:.3f}\n")

    print(f"{'workload':16}{'metric':20}{'base':>12}{'new':>12}{'change':>9}"
          f"{'spread':>9}{'bound':>7}  verdict")
    worse = 0
    for wname, bw in base["workloads"].items():
        nw = new["workloads"].get(wname)
        if nw is None:
            print(f"{wname:16}missing from {args.new}")
            continue
        for metric in spec["end_to_end"]:
            b = better_half(bw["end_to_end"][metric["name"]]["values"], metric)
            n = better_half(nw["end_to_end"][metric["name"]]["values"], metric)
            change, v = verdict(b, n, metric, host_ratio)
            worse += v == "worse"
            print(f"{wname:16}{metric['name']:20}{statistics.median(b):12.6g}"
                  f"{statistics.median(n):12.6g}{100 * change:+8.2f}%"
                  f"{100 * max(spread(b), spread(n)):8.2f}%{100 * metric['bound']:6.0f}%  {v}")
        bd, nd = bw["deterministic"], nw["deterministic"]
        diffs = [k for k in sorted(set(bd) | set(nd)) if bd.get(k) != nd.get(k)]
        for k in diffs:
            print(f"{wname:16}deterministic {k}: {bd.get(k)} -> {nd.get(k)}")
        if not diffs:
            print(f"{wname:16}deterministic values identical")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
