"""Counters of a Prometheus text dump, summed over the ``worker`` label.

``repro stats --format prom [...] | python benchmarks/prom_worker_totals.py
[PREFIX ...]`` prints one ``name{labels} total`` line per counter whose
name starts with a given prefix (default: every counter), with the
``worker="..."`` label a pool's adopted series carry dropped and the
values added up.  A serial run and a ``--jobs N`` run of the same
command must print the same lines: the check that catches a worker
pool dropping its telemetry.
"""

import re
import sys

_SAMPLE = re.compile(r"^(\w+)(?:\{(.*)\})? (\S+)$")


def worker_totals(text, prefixes=("",)):
    counters = set(re.findall(r"^# TYPE (\w+) counter$", text, re.M))
    totals = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if (not match or match.group(1) not in counters
                or not match.group(1).startswith(tuple(prefixes))):
            continue
        labels = ",".join(label for label in (match.group(2) or "").split(",")
                          if label and not label.startswith('worker="'))
        key = f"{match.group(1)}{{{labels}}}"
        totals[key] = totals.get(key, 0.0) + float(match.group(3))
    return [f"{key} {totals[key]:g}" for key in sorted(totals)]


if __name__ == "__main__":
    print("\n".join(worker_totals(sys.stdin.read(), sys.argv[1:] or ("",))))
