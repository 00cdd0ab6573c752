"""Compare two benchmark result files side by side.

    python3 benchmarks/compare.py before.jsonl after.jsonl

Each file is JSON lines as written by ``run.py --out``, one run per line.
For every workload x metric (traced and untraced runs alike) it prints
the run count, first quartile, median and third quartile of each file,
and the change of the median from the first file to the second.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict

from quantiles import quartiles


def load(path):
    """{(workload, metric): [values]} and {metric: unit} of one result file."""
    values, units = defaultdict(list), {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values[record["workload"], name].append(metric["value"])
                units[name] = metric["unit"]
            for name, value in record["extra"].items():
                values[record["workload"], name].append(value)
    return values, units


def _cell(values):
    if not values:
        return f"{'-':>6} {'-':>11} {'-':>11} {'-':>11}"
    q1, med, q3 = quartiles(values)
    return f"{len(values):>6} {q1:>11.5g} {med:>11.5g} {q3:>11.5g}"


def compare(path_a, path_b):
    (a, units_a), (b, units_b) = load(path_a), load(path_b)
    units = {**units_a, **units_b}
    lines = [
        f"{'workload':<10} {'metric':<46} {'unit':<10} "
        f"{'A runs':>6} {'A q1':>11} {'A median':>11} {'A q3':>11} "
        f"{'B runs':>6} {'B q1':>11} {'B median':>11} {'B q3':>11} {'B/A-1':>8}"
    ]
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, []), b.get(key, [])
        change = ""
        if va and vb and quartiles(va)[1]:
            change = f"{quartiles(vb)[1] / quartiles(va)[1] - 1:+.3f}"
        unit = units.get(key[1], "ms" if key[1].endswith("_ms") else "")
        lines.append(f"{key[0]:<10} {key[1]:<46} {unit:<10} {_cell(va)} {_cell(vb)} {change:>8}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    print(compare(args.before, args.after))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
