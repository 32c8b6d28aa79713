"""Paired comparison of two commits' benchmark runs.

    python3 perfbench/run.py --compare parent.json change.json

Each file is what ``run.py --json-out`` wrote for one commit. Untraced runs of
the same workload and seed form a pair; run them alternately (parent first
for one pair, change first for the next) and with the same ``--seconds``.
For every workload and end-to-end metric in ``BENCHMARK.json`` it reports
each side's median and quartiles and the share of pairs the change won (ties
count for neither), and a verdict:

* ``gain``: the change won at least 9/10 of the pairs and the medians differ
  by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread (interquartile range over median)
  exceeds the bound, unless every change run beats every parent run;
* ``no regression`` otherwise.

A gain needs at least ten pairs and should be confirmed on the held-out
seed (``workloads.HELD_OUT_SEED``).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import HELD_OUT_SEED, WORKLOADS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Paired verdict for one metric; ``parent[i]`` and ``change[i]`` form pair i."""
    sign = 1.0 if better == "higher" else -1.0
    q1p, mp, q3p = quartiles(parent)
    q1c, mc, q3c = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    worse_by = sign * (mp - mc) / mp
    if len(parent) >= 10 and share >= 0.9 and sign * (mc - mp) > q3p - q1p:
        name = "gain"
    elif (q3p - q1p) / mp > bound:
        every = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
        name = "no regression" if every else "unresolved"
    elif worse_by > bound:
        name = "regression"
    else:
        name = "no regression"
    return {"verdict": name, "parent": [q1p, mp, q3p], "change": [q1c, mc, q3c],
            "won": wins, "pairs": len(parent), "better_pct": -100.0 * worse_by}


def _runs(path: str) -> dict[tuple[str, int], dict]:
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    return {(r["workload"], r["seed"]): r for r in runs if not r["trace"]}


def main(parent_path: str, change_path: str) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parent, change = _runs(parent_path), _runs(change_path)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no untraced runs with the same workload and seed in both files")
        return 1
    report = {}
    for workload in WORKLOADS:
        pairs = [k for k in keys if k[0] == workload]
        if not pairs:
            continue
        firsts = [parent[k]["started"] < change[k]["started"]
                  for k in sorted(pairs, key=lambda k: parent[k]["started"])]
        alternated = all(a != b for a, b in zip(firsts, firsts[1:]))
        cells = [f"{workload}: {len(pairs)} pairs, "
                 f"{'alternated' if alternated else 'NOT alternated'}, held-out seed "
                 f"{'in' if any(k[1] == HELD_OUT_SEED for k in pairs) else 'absent'}"]
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [(parent[k]["result"]["metrics"][name]["value"],
                       change[k]["result"]["metrics"][name]["value"]) for k in pairs]
            v = verdict([p for p, _ in values], [c for _, c in values],
                        metric["better"], metric["bound"])
            report[workload][name] = v
            cells.append(f"{name} {v['verdict']} ({v['better_pct']:+.1f}% better, "
                         f"won {v['won']}/{v['pairs']}, parent {v['parent'][1]:.4g} "
                         f"[{v['parent'][0]:.4g}, {v['parent'][2]:.4g}], change "
                         f"{v['change'][1]:.4g} [{v['change'][0]:.4g}, {v['change'][2]:.4g}])")
        failed = [sum(r["result"]["failed"] for r in side) for side in
                  ([parent[k] for k in pairs], [change[k] for k in pairs])]
        cells.append(f"failed operations {failed[0]} -> {failed[1]}")
        print(" | ".join(cells))
    print(json.dumps(report))
    return 0
