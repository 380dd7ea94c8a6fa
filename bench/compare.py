"""Compare mode: ``run.py --compare BASE.jsonl [NEW.jsonl]``.

Each file holds result lines written by ``run.py --out``; runs are grouped
by workload and trace mode.  For every end-to-end metric and workload the
table gives each side's median over its runs, the ratio new/base with the
base value, and each side's spread: the distance between the first and
third quartile as a share of the median.  A metric is flagged

* ``WORSE``      when the new median is worse than the base by more than
  the bound in ``BENCHMARK.json``;
* ``unresolved`` when either side's spread is wider than the bound, unless
  every new run reads better than every base run.

With one file only the medians and spreads are printed.  Per-layer metrics
of traced runs are listed with their ratios and carry no bound.
"""

from __future__ import annotations

import json
import os
import statistics

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load(path: str) -> dict:
    """{(workload, traced): [metrics dict per run]}."""
    groups = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                key = (run["workload"], bool(run["trace"]))
                groups.setdefault(key, []).append(
                    {name: m["value"] for name, m in run["metrics"].items()})
    return groups


def spread(values: list) -> float:
    """(Q3 - Q1) / median; 0 for fewer than two runs or a zero median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def _worse_share(base: float, new: float, better: str) -> float:
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _all_better(base: list, new: list, better: str) -> bool:
    if better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def _rows(groups, declared, traced):
    for (workload, is_traced), runs in sorted(groups.items()):
        if is_traced != traced:
            continue
        for metric in declared:
            values = [r[metric["name"]] for r in runs if metric["name"] in r]
            if values:
                yield workload, metric, values


def summary(groups, spec):
    print(f"{'workload':14} {'metric':34} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  runs  flag")
    for traced, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        for workload, metric, values in _rows(groups, declared, traced):
            if not any(values):            # a layer this workload never reaches
                continue
            bound = metric.get("bound")
            sp = spread(values)
            flag = "unresolved" if bound is not None and sp > bound else ""
            print(f"{workload:14} {metric['name']:34} "
                  f"{statistics.median(values):12.6g} {sp:8.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6}  "
                  f"{len(values):4d}  {flag}")


def comparison(base, new, spec):
    print(f"{'workload':14} {'metric':34} {'base':>12} {'new':>12} "
          f"{'ratio':>7} {'spread b/n':>15} {'bound':>6}  flag")
    flagged = 0
    for traced, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        for workload, metric, b_vals in _rows(base, declared, traced):
            n_vals = [r[metric["name"]] for r in new.get((workload, traced), [])
                      if metric["name"] in r]
            if not n_vals or not any(b_vals + n_vals):
                continue
            b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
            ratio = n_med / b_med if b_med else float("nan")
            bound = metric.get("bound")
            flag = ""
            if bound is not None:
                if _worse_share(b_med, n_med, metric["better"]) > bound:
                    flag = "WORSE"
                elif (max(spread(b_vals), spread(n_vals)) > bound
                      and not _all_better(b_vals, n_vals, metric["better"])):
                    flag = "unresolved"
                flagged += bool(flag)
            print(f"{workload:14} {metric['name']:34} {b_med:12.6g} {n_med:12.6g} "
                  f"{ratio:7.3f} {spread(b_vals):7.2%}/{spread(n_vals):7.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6}  {flag}")
    print(f"ratio = new median / base median; base = the first file, "
          f"{flagged} end-to-end metric(s) flagged")
    return flagged


def main(paths: list) -> int:
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    if len(paths) == 1:
        summary(load(paths[0]), spec)
        return 0
    return 1 if comparison(load(paths[0]), load(paths[1]), spec) else 0
