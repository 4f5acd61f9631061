#!/usr/bin/env python3
"""Compare benchmark result records of two commits, metric by metric.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [...]

Records come from `perfbench/run.py ... --out FILE`.  Each side may hold
several runs per workload (e.g. ten seeds); the comparison uses each
side's median and reports each side's spread (quartile distance over
median).  Verdicts use the bounds in BENCHMARK.json:

  worse    the new median is worse than the base median by more than
           the bound — a regression
  better   the new median is better by more than the bound
  ok       within the bound
  unresolved
           a side has fewer than 3 runs, or a side's own spread exceeds
           the bound, so the pair cannot tell a change from noise —
           unless every new run is worse (or better) than every base
           run, which no noise of that size explains

Results are only comparable when they were measured the same way.  The
comparison refuses (exit 2) when any record's provenance differs from
the others in host cores, engine threads or their source, build type,
compiler, -march=native, run length or trace mode, or when the two sides
did not run the same seeds.  Only the commit and source digest may
differ: they are what is being compared.  Exit 1 if any metric is worse.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MATCHED = ("host_cores", "engine_threads", "threads_source", "build_type",
           "compiler", "march_native", "seconds", "trace")


def load(paths):
    records = []
    for p in paths:
        rec = json.loads(Path(p).read_text())
        if rec.get("schema") != "vsbench-result-v1":
            sys.exit(f"compare: {p} is not a vsbench-result-v1 record")
        rec["path"] = p
        records.append(rec)
    return records


MIN_RUNS = 3


def spread(values):
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """One metric's verdict; `better` is "lower" or "higher"."""
    if len(base) < MIN_RUNS or len(new) < MIN_RUNS:
        return "unresolved"
    sign = -1.0 if better == "lower" else 1.0
    b = [sign * x for x in base]  # higher is better from here on
    n = [sign * x for x in new]
    mb = statistics.median(b)
    gain = (statistics.median(n) - mb) / abs(mb) if mb else 0.0
    apart = min(n) > max(b) or max(n) < min(b)
    if max(spread(base), spread(new)) > bound and not apart:
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "ok"


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    base, new = load(argv[:split]), load(argv[split + 1:])
    if not base or not new:
        sys.exit("compare: each side needs at least one record")

    reference = base[0]["provenance"]
    refused = []
    for rec in base + new:
        for key in MATCHED:
            if rec["provenance"].get(key) != reference.get(key):
                refused.append(f"{rec['path']}: {key}="
                               f"{rec['provenance'].get(key)!r}, expected "
                               f"{reference.get(key)!r}")
    for workload in {r["provenance"]["workload"] for r in base + new}:
        seeds = [sorted(r["provenance"]["seed"] for r in side
                        if r["provenance"]["workload"] == workload)
                 for side in (base, new)]
        if seeds[0] != seeds[1]:
            refused.append(f"{workload}: seeds differ: base {seeds[0]}, "
                           f"new {seeds[1]}")
    if refused:
        print("compare: refusing to compare results measured differently:",
              file=sys.stderr)
        for line in refused:
            print("  " + line, file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = False
    for workload in sorted({r["provenance"]["workload"] for r in base}):
        print(f"# {workload}")
        print(f"{'metric':<44} {'base':>14} {'new':>14} {'change':>8} "
              f"{'spread b/n':>13}  verdict")
        sides = [[r["result"]["metrics"] for r in side
                  if r["provenance"]["workload"] == workload]
                 for side in (base, new)]
        for name in sides[0][0]:
            b = [m[name]["value"] for m in sides[0]]
            n = [m[name]["value"] for m in sides[1]]
            mb, mn = statistics.median(b), statistics.median(n)
            info = metrics.get(name, {})
            change = (mn - mb) / abs(mb) if mb else 0.0
            result = "-"
            if info.get("bound") is not None:
                result = verdict(b, n, info["better"], info["bound"])
                worse = worse or result == "worse"
            print(f"{name:<44} {mb:>14.6g} {mn:>14.6g} {change:>+8.2%} "
                  f"{spread(b):>6.3f}/{spread(n):<6.3f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
