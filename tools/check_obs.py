#!/usr/bin/env python
"""CI gate for observability artifacts.

Usage::

    PYTHONPATH=src python tools/check_obs.py TRACE.json METRICS.json

Checks that a ``--obs --trace-out --metrics-out`` run produced

1. a structurally valid Chrome trace-event file (loadable in
   Perfetto) containing the per-block pipeline spans the docs promise
   (frontend, dependence, weights, schedule, regalloc, simulate), and
2. a metrics file whose stall histograms reconcile *exactly* with the
   headline cycle counters::

       sum(sim.load_stall_cycles) + sum(sim.other_stall_cycles)
           == sim.interlock_cycles
       sim.cycles == sim.instructions_issued + sim.interlock_cycles

Exit status is the number of problems found (0 = clean).
"""

import json
import sys

from repro.obs.export import validate_chrome_trace
from repro.obs.metrics import counter_total, exported_name

REQUIRED_SPANS = (
    "frontend",
    "dependence",
    "weights",
    "schedule",
    "regalloc",
    "simulate",
)


def check_trace(path: str) -> list:
    problems = []
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    problems += validate_chrome_trace(trace)
    names = {
        event.get("name")
        for event in trace.get("traceEvents", [])
        if isinstance(event, dict)
    }
    for span in REQUIRED_SPANS:
        if span not in names:
            problems.append(f"trace is missing the {span!r} pipeline span")
    return problems


def check_metrics(path: str) -> list:
    problems = []
    with open(path, encoding="utf-8") as handle:
        metrics = json.load(handle)
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})

    interlocks = counter_total(counters, "sim.interlock_cycles")
    cycles = counter_total(counters, "sim.cycles")
    issued = counter_total(counters, "sim.instructions_issued")
    stalls = sum(
        float(value) * count
        for key, hist in histograms.items()
        if exported_name(key)
        in ("sim.load_stall_cycles", "sim.other_stall_cycles")
        for value, count in hist.items()
    )

    if cycles <= 0:
        problems.append("no sim.cycles recorded -- did the run use --obs?")
    if cycles != issued + interlocks:
        problems.append(
            f"cycle ledger broken: cycles={cycles} != issued={issued} "
            f"+ interlocks={interlocks}"
        )
    if stalls != interlocks:
        problems.append(
            f"stall attribution broken: histogram total {stalls} != "
            f"interlock counter {interlocks}"
        )
    return problems


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    problems = check_trace(argv[1]) + check_metrics(argv[2])
    for problem in problems:
        print(f"check_obs: {problem}", file=sys.stderr)
    if not problems:
        print("check_obs: trace and metrics are valid and reconcile exactly")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
