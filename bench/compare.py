"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds the JSON lines ``bench/run.py --out PATH`` appends, one
per workload run.  Runs pair up in file order within a workload, so
collect them alternating which commit runs first.  Direction and bound
come from ``BENCHMARK.json``.  Verdicts:

* ``improved`` - at least ten pairs, the new side wins at least nine
  tenths of them (ties count for neither), and the medians differ by
  more than the old side's inter-quartile distance;
* ``worse`` - the new median is worse than the old by more than the
  metric's bound (metrics without a bound: the mirror of ``improved``);
* ``unresolved`` - neither, and the old runs spread wider than the
  bound, unless every new run reads better than every old run;
* ``unchanged`` - otherwise.
"""

from __future__ import annotations

import collections
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(old: Sequence[float], new: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    q1, m_old, q3 = stats.quartiles(old)
    iqr = q3 - q1
    gain = sign * (stats.median(new) - m_old)
    needed = math.ceil(WIN_SHARE * len(pairs))
    if len(pairs) >= MIN_PAIRS and wins >= needed and gain > iqr:
        return "improved"
    if bound is None:
        if len(pairs) >= MIN_PAIRS and losses >= needed and -gain > iqr:
            return "worse"
        return "unchanged" if abs(gain) <= iqr else "unresolved"
    if -gain > bound * abs(m_old):
        return "worse"
    if iqr > bound * abs(m_old):
        all_better = (min(sign * n for n in new) > max(sign * o for o in old))
        return "unchanged" if all_better else "unresolved"
    return "unchanged"


def load_runs(path: str) -> Dict[Tuple[str, int], List[dict]]:
    runs: Dict[Tuple[str, int], List[dict]] = collections.defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                runs[(run["workload"], run["trace"])].append(run)
    return runs


def load_directions(path: str) -> Dict[str, Tuple[str, Optional[float]]]:
    with open(path) as fh:
        bench = json.load(fh)
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})
    return out


def compare(old_path: str, new_path: str, bench_path: str) -> List[str]:
    directions = load_directions(bench_path)
    old_runs, new_runs = load_runs(old_path), load_runs(new_path)
    rows = [f"{'workload':<16} {'metric':<40} {'old median [q1, q3]':>32} "
            f"{'new median [q1, q3]':>32} {'change':>8} {'wins':>7}  verdict"]
    for key in sorted(set(old_runs) & set(new_runs)):
        old, new = old_runs[key], new_runs[key]
        n = min(len(old), len(new))
        old, new = old[:n], new[:n]
        for name in old[0]["metrics"]:
            if name not in directions or name not in new[0]["metrics"]:
                continue
            better, bound = directions[name]
            a = [r["metrics"][name]["value"] for r in old]
            b = [r["metrics"][name]["value"] for r in new]
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            rows.append(f"{key[0]:<16} {name:<40} {_cell(qa):>32} "
                        f"{_cell(qb):>32} {change:>+8.1%} {wins:>3}/{n:<3}  "
                        f"{verdict(a, b, better, bound)}")
    return rows


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 bench/compare.py OLD.jsonl NEW.jsonl",
              file=sys.stderr)
        return 2
    for row in compare(argv[1], argv[2],
                       os.path.join(os.path.dirname(HERE),
                                    "BENCHMARK.json")):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
