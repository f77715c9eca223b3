#!/usr/bin/env python3
"""Fail when one metric of a benchmark record is over its bound.

Usage:
    bash benchmark/run.sh --workload W ... | tail -n 1 \
        | python3 scripts/metric_bound.py W METRIC BOUND MESSAGE

Reads the record (the JSON line `benchmark/run.sh` prints last) on stdin and
prints `W METRIC = value`.  If the value is over BOUND it exits non-zero with
MESSAGE, formatted with `{workload}` and `{value}`, followed by
`(bound: BOUND)`.
"""

import json
import sys


def main(argv):
    if len(argv) != 5:
        sys.exit(__doc__)
    workload, metric, bound, message = argv[1], argv[2], float(argv[3]), argv[4]
    value = json.load(sys.stdin)["metrics"][metric]["value"]
    print(f"{workload} {metric} = {value}")
    if value > bound:
        what = message.format(workload=workload, value=value)
        sys.exit(f"{what} (bound: {bound:,.0f})")


if __name__ == "__main__":
    main(sys.argv)
