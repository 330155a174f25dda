"""Before/after table of two result files written by ``run.py --out``.

Usage: ``python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl``

For every workload in both files and every metric in ``BENCHMARK.json``
order (end-to-end first, then per-layer), prints the median over each file's
records, the number of records and their spread (distance between the first
and third quartile as a share of the median), and the change of the medians.
An end-to-end metric whose median got worse by more than its bound is marked
``WORSE``. The table reports; it claims no gain.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, m in record["metrics"].items():
                    values.setdefault((record["workload"], name), []).append(m["value"])
    return values


def summary(values):
    """(median, count, spread) of a list of values, or None when it is empty."""
    if not values:
        return None
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, len(values), None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, len(values), (q3 - q1) / abs(med)


def cell(s):
    if s is None:
        return f"{'-':>24}"
    med, count, spread = s
    return f"{med:>12.5g} n={count:<2} {'' if spread is None else f'{spread:.3f}':>6}"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m, True) for m in declared["end_to_end"]] + [(m, False) for m in declared["per_layer"]]
    workloads = [w["name"] for w in declared["workloads"]]
    print(f"{'workload':<11} {'metric':<27} {'unit':<6} {'before (median n spread)':>24} "
          f"{'after (median n spread)':>24} {'change':>8}")
    for workload in workloads:
        for m, end_to_end in metrics:
            b = summary(before.get((workload, m["name"]), []))
            a = summary(after.get((workload, m["name"]), []))
            if b is None and a is None:
                continue
            change, mark = "", ""
            if a is not None and b is not None and b[0] != 0:
                ratio = a[0] / b[0] - 1.0
                change = f"{ratio:+.1%}"
                worse = ratio if m["better"] == "lower" else -ratio
                if end_to_end and worse > m["bound"]:
                    mark = f"  WORSE than bound {m['bound']}"
            print(f"{workload:<11} {m['name']:<27} {m['unit']:<6} {cell(b)} {cell(a)} {change:>8}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
