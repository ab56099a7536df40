#!/usr/bin/env python
"""CI gate: fail on sustained benchmark regressions.

Compares freshly regenerated ``BENCH_*.json`` files against the
committed baselines (``git show HEAD:<file>``) and exits non-zero when
any metric regresses past its tolerance.  This is what keeps the perf
work behind the published numbers locked in: a PR that quietly halves
the batch-kernel speedup fails CI, not code review.

Two metric tiers, because CI runners are not the machines the
baselines were recorded on:

* **relative** metrics (``speedup*``, ``*_ratio``, ``*_over_disabled``,
  ``overhead_pct``) are machine-independent by construction -- both
  sides of the ratio ran on the same machine -- so they get the tight
  tolerance (default 0.35: fresh may drop at most 35% below baseline).
  So do call counts (``*_calls``, lower is better), which do not
  depend on the machine at all.
  The observation-overhead ratios (``*_over_disabled``: time with
  observability on over time with it off) are the exception: they
  swing far more from run to run (``decisions_over_disabled`` moves
  between 1.1 and 1.8 on one 2-core host), so they get
  :data:`OVERHEAD_TOLERANCE` (0.5: fresh may be at most twice the
  baseline);
* **absolute** metrics (``*_seconds``/``seconds``, ``*_ms``,
  ``requests_per_s``, ``instructions_per_second``, ``runs_per_second``,
  ``ns_per_call``) vary with the host, so they get a loose,
  catastrophic-only tolerance (default 0.85: an 85% drop) that still
  catches an order-of-magnitude cliff.

Workload descriptors (:data:`WORKLOAD_DESCRIPTORS`: a row's block,
trace and instruction counts, the scalar runs it timed, the reference
leg's call count) are not performance at all: they must *equal* the
baseline, and a mismatch fails with "workload changed; regenerate the
baseline".

Every comparison is normalised so that >= 1.0 means "fresh is no worse
than baseline": ``fresh/base`` for higher-is-better metrics,
``base/fresh`` for lower-is-better ones (seconds, ms, ns, overhead
percentages, ``*_over_disabled`` overhead ratios and ``*_calls``
counts).
``meta`` sections, nested lists (e.g. the superscalar per-block rows)
and non-positive values are skipped; so are metrics present on only
one side (schema drift is not a regression).  A baseline identical to
the fresh file -- e.g. ``BENCH_scale.json``, which CI does not
regenerate -- trivially passes.

Usage::

    python tools/check_bench.py [--repo DIR] [--ref HEAD]
        [--relative-tolerance 0.35] [--absolute-tolerance 0.85]
        [BENCH_foo.json ...]

With no files named, every ``BENCH_*.json`` in the repo is checked.
Exit status is the number of regressed metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
from typing import Dict, Iterator, List, Optional, Tuple

#: Metric-name suffixes where a *smaller* value is better.
LOWER_IS_BETTER = (
    "seconds", "_ms", "ns_per_call", "overhead_pct", "_over_disabled",
    "_calls",
)

#: Metric names (by suffix/prefix) that are ratios of two measurements
#: taken on the same machine -- comparable across hosts.
RELATIVE_MARKERS = (
    "speedup", "_ratio", "_over_disabled", "overhead_pct", "_calls",
)

#: Leaf names that describe the workload a row measured -- its size, or
#: the call count of the reference leg it is compared with -- rather
#: than how well it ran.  They are held to equality, not scored.
WORKLOAD_DESCRIPTORS = (
    "blocks", "traces", "instructions", "scalar_runs_timed",
    "per_table_calls", "per_block_calls",
)

#: Observation-overhead ratios: relative, lower is better, and noisy.
OVERHEAD_MARKER = "_over_disabled"

#: Floor for the overhead ratios: fresh may be at most 1/(1-0.5) = 2x
#: the baseline, which clears the observed 1.1-1.8 run-to-run spread.
OVERHEAD_TOLERANCE = 0.5


def is_descriptor(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in WORKLOAD_DESCRIPTORS


def is_relative(name: str) -> bool:
    return any(marker in name for marker in RELATIVE_MARKERS)


def lower_is_better(name: str) -> bool:
    return any(name.endswith(suffix) or name == suffix.lstrip("_")
               for suffix in LOWER_IS_BETTER)


def tolerance_for(
    name: str, relative_tolerance: float, absolute_tolerance: float
) -> float:
    if OVERHEAD_MARKER in name:
        return max(relative_tolerance, OVERHEAD_TOLERANCE)
    return relative_tolerance if is_relative(name) else absolute_tolerance


def walk_metrics(doc: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Flatten one BENCH document into ``(dotted.path, value)`` pairs.

    Skips ``meta`` sections (host facts, not measurements), lists
    (per-block detail rows), booleans, and non-positive numbers (a
    ratio of/with zero is meaningless and some overheads are
    legitimately negative)."""
    if not isinstance(doc, dict):
        return
    for key in sorted(doc):
        if key == "meta":
            continue
        value = doc[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from walk_metrics(value, prefix=f"{path}.")
        elif isinstance(value, bool) or isinstance(value, list):
            continue
        elif isinstance(value, (int, float)) and value > 0:
            yield path, float(value)


def baseline_text(repo: str, ref: str, relpath: str) -> Optional[str]:
    """The committed version of ``relpath``, or ``None`` when it is not
    tracked at ``ref`` (a brand-new benchmark has no baseline yet)."""
    try:
        out = subprocess.run(
            ["git", "-C", repo, "show", f"{ref}:{relpath}"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def compare_file(
    relpath: str,
    fresh: dict,
    base: dict,
    relative_tolerance: float,
    absolute_tolerance: float,
) -> List[str]:
    """Problems for one BENCH file (empty == within tolerance)."""
    problems: List[str] = []
    fresh_metrics: Dict[str, float] = dict(walk_metrics(fresh))
    base_metrics: Dict[str, float] = dict(walk_metrics(base))
    for name in sorted(set(fresh_metrics) & set(base_metrics)):
        fresh_value = fresh_metrics[name]
        base_value = base_metrics[name]
        if is_descriptor(name):
            if fresh_value != base_value:
                problems.append(
                    f"{relpath}: {name} is {fresh_value:g}, baseline "
                    f"{base_value:g}: workload changed; regenerate the "
                    f"baseline"
                )
            continue
        if lower_is_better(name):
            score = base_value / fresh_value
        else:
            score = fresh_value / base_value
        tolerance = tolerance_for(
            name, relative_tolerance, absolute_tolerance
        )
        floor = 1.0 - tolerance
        if score < floor:
            kind = "relative" if is_relative(name) else "absolute"
            problems.append(
                f"{relpath}: {name} regressed: baseline {base_value:g} -> "
                f"fresh {fresh_value:g} (score {score:.3f} < {floor:.2f}, "
                f"{kind} tolerance {tolerance:g})"
            )
    return problems


def check(
    repo: str,
    files: List[str],
    ref: str = "HEAD",
    relative_tolerance: float = 0.35,
    absolute_tolerance: float = 0.85,
) -> List[str]:
    problems: List[str] = []
    compared = 0
    for path in files:
        relpath = os.path.relpath(path, repo)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                fresh = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"{relpath}: unreadable fresh file: {exc}")
            continue
        base_text = baseline_text(repo, ref, relpath)
        if base_text is None:
            print(f"  {relpath}: no committed baseline at {ref}; skipped")
            continue
        try:
            base = json.loads(base_text)
        except json.JSONDecodeError as exc:
            problems.append(f"{relpath}: unreadable baseline: {exc}")
            continue
        file_problems = compare_file(
            relpath, fresh, base, relative_tolerance, absolute_tolerance
        )
        n = len(dict(walk_metrics(fresh)))
        compared += 1
        status = "ok" if not file_problems else "REGRESSED"
        print(f"  {relpath}: {n} metric(s) vs {ref}: {status}")
        problems.extend(file_problems)
    if not compared:
        problems.append("no BENCH files had committed baselines to compare")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        help="BENCH_*.json files to check (default: all in --repo)",
    )
    parser.add_argument(
        "--repo",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root holding the committed baselines",
    )
    parser.add_argument(
        "--ref", default="HEAD", help="git ref the baselines live at"
    )
    parser.add_argument(
        "--relative-tolerance",
        type=float,
        default=0.35,
        help="floor for machine-independent metrics (speedups, ratios)",
    )
    parser.add_argument(
        "--absolute-tolerance",
        type=float,
        default=0.85,
        help="floor for machine-dependent metrics (seconds, req/s)",
    )
    args = parser.parse_args(argv)
    files = args.files or sorted(
        glob.glob(os.path.join(args.repo, "BENCH_*.json"))
    )
    if not files:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1
    print(f"checking {len(files)} benchmark file(s) against {args.ref}")
    problems = check(
        args.repo,
        files,
        ref=args.ref,
        relative_tolerance=args.relative_tolerance,
        absolute_tolerance=args.absolute_tolerance,
    )
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if not problems:
        print("benchmarks within tolerance of committed baselines")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
