"""Spread of one set of benchmark runs, or the comparison of two.

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines that ``run.py --record FILE`` appends, e.g.

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload tables --seed $seed --seconds 30 \\
          --trace 0 --record parent.jsonl
    done

With one file, every end-to-end metric of every workload gets its median,
quartiles and spread (quartile distance over the median) against the
bound in ``BENCHMARK.json``.

With two files, every workload and end-to-end metric gets one row: each
side's median and quartiles, the pairs the change won (runs paired by
seed, ties counting for neither side) and a verdict:

* improved: the change won at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the parent's quartile
  distance;
* unresolved: either side's spread exceeds the bound, unless every run of
  the change reads better than every run of the parent;
* regressed: the change's median is worse than the parent's by more than
  the bound;
* unchanged: otherwise.

Traced runs (``--trace 1``) add each layer's self time in seconds
(its ``self_share`` times ``trace.cpu_s``, median over the runs) on both
sides with the delta, largest first, and every count that differs, so a
change can show where its saving appeared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> dict:
    """{(workload, trace): {seed: metrics}} from a record file."""
    runs: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = metrics
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(parent: list[float], change: list[float], pairs, better: str, bound: float):
    """(verdict, wins) under the pairing rule and the metric's bound."""
    sign = 1 if better == "lower" else -1  # sign * (b - a) < 0 means b is better
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pmed - cmed) > pq3 - pq1:
        return "improved", wins
    all_better = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    worse = sign * (cmed - pmed) / abs(pmed) if pmed else (0.0 if cmed == pmed else float("inf"))
    if worse > bound:
        return "regressed", wins
    return "unchanged", wins


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_spread(runs: dict, bench: dict) -> None:
    print(f"{'workload':16s} {'metric':20s} {'runs':>4s} {'q1':>10s} {'median':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for (workload, trace), by_seed in sorted(runs.items()):
        if trace:
            continue
        for metric in bench["end_to_end"]:
            values = [m[metric["name"]] for m in by_seed.values()]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = "" if metric["name"] == "setup_s" or s <= metric["bound"] / 3 else "  > bound/3"
            print(
                f"{workload:16s} {metric['name']:20s} {len(values):4d} {_fmt(q1):>10s} "
                f"{_fmt(med):>10s} {_fmt(q3):>10s} {s:8.4f} {metric['bound']:6.3f}{flag}"
            )


def _pairs(a: dict, b: dict, name: str):
    common = sorted(set(a) & set(b))
    if common:
        return [(a[s][name], b[s][name]) for s in common]
    return list(zip((m[name] for m in a.values()), (m[name] for m in b.values())))


def report_compare(parent: dict, change: dict, bench: dict) -> None:
    print(
        f"{'workload':16s} {'metric':20s} {'parent q1/med/q3':>32s} "
        f"{'change q1/med/q3':>32s} {'won':>6s}  verdict"
    )
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if trace:
            continue
        a, b = parent[key], change[key]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pa = [m[name] for m in a.values()]
            pb = [m[name] for m in b.values()]
            pairs = _pairs(a, b, name)
            result, wins = verdict(pa, pb, pairs, metric["better"], metric["bound"])
            qa = "/".join(_fmt(v) for v in quartiles(pa))
            qb = "/".join(_fmt(v) for v in quartiles(pb))
            print(f"{workload:16s} {name:20s} {qa:>32s} {qb:>32s} {wins:>3d}/{len(pairs):<2d}  {result}")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if not trace:
            continue
        a, b = parent[key], change[key]
        names = sorted(set.intersection(*(set(m) for m in list(a.values()) + list(b.values()))))
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        deltas = []
        changed_counts = []
        for name in names:
            if name.endswith(".self_share"):
                ma = statistics.median(m[name] * m["trace.cpu_s"] for m in a.values())
                mb = statistics.median(m[name] * m["trace.cpu_s"] for m in b.values())
                deltas.append((mb - ma, name.replace(".self_share", ".self_s"), ma, mb))
                continue
            ma = statistics.median(m[name] for m in a.values())
            mb = statistics.median(m[name] for m in b.values())
            if units.get(name) in ("count", "frac") and ma != mb:
                changed_counts.append((name, ma, mb))
        print(f"\n{workload}: per-layer self time (s), median parent -> change (delta)")
        for delta, name, ma, mb in sorted(deltas, key=lambda d: -abs(d[0])):
            print(f"  {name:48s} {_fmt(ma):>10s} -> {_fmt(mb):>10s} ({delta:+.4g} s)")
        print(f"{workload}: counts that differ")
        for name, ma, mb in changed_counts:
            print(f"  {name:48s} {_fmt(ma):>10s} -> {_fmt(mb):>10s}")
        if not changed_counts:
            print("  (none)")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    if len(argv) == 1:
        report_spread(load_runs(argv[0]), bench)
    else:
        report_compare(load_runs(argv[0]), load_runs(argv[1]), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
