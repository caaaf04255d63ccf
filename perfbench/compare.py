"""Compare two result files written with ``run.py --out``.

For each workload and metric: the median of each side, their ratio, the
benchmark's bound and a verdict.

* ``worse``: the new median is worse than the base median by more than the
  bound.
* ``better``: it is better by more than the noise, which is the wider of the
  two sides' quartile spreads (as a share of the median) when both sides
  have at least four runs, and the bound otherwise.
* ``unresolved``: neither; no difference can be claimed either way.

Per-layer metrics have no bound and get only the ratio.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path):
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    runs[rec["workload"]][name].append(m["value"])
    return runs


def spread(values):
    """Quartile distance as a share of the median (0 with fewer than 4 runs)."""
    if len(values) < 4:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0:
        return "unresolved"
    change = (mn - mb) / abs(mb) * (1 if better == "lower" else -1)  # > 0 is worse
    if change > bound:
        return "worse"
    sb, sn = spread(base), spread(new)
    noise = bound if sb is None or sn is None else max(sb, sn)
    return "better" if -change > noise else "unresolved"


def main(base_path, new_path, bench_path):
    with open(bench_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(base_path), load(new_path)
    print(f"{'workload':11s} {'metric':38s} {'base':>12s} {'new':>12s} {'ratio':>7s} {'bound':>6s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for name in metrics:
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = f"{mn / mb:7.3f}" if mb else "    n/a"
            m = metrics[name]
            if "bound" in m:
                bound, v = f"{m['bound']:6.2f}", verdict(b, n, m["better"], m["bound"])
            else:
                bound, v = "     -", "-"
            print(f"{workload:11s} {name:38s} {mb:12.6g} {mn:12.6g} {ratio} {bound}  {v}")
    return 0
