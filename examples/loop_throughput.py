"""Scenario 4: loop steady-state throughput and the recurrence bound.

How many cycles per iteration does a loop sustain once the pipeline is
full, and how close is that to the theoretical recurrence bound?  We
measure three loop shapes under both schedulers at a 6-cycle load
latency, using IR-level unrolling as the software-pipelining stand-in
(Section 6).

Run:  python examples/loop_throughput.py
"""

from repro.core.balanced import BalancedScheduler
from repro.core.traditional import TraditionalScheduler
from repro.frontend.lowering import compile_minif
from repro.simulate.throughput import recurrence_bound, throughput

LOOPS = {
    "stream  (no recurrence)": """
program p
  array a[64], c[64]
  kernel k freq 1
    t1 = a[i] * a[i+1]
    c[i] = t1 + t1
  end
end
""",
    "dot     (1-op recurrence)": """
program p
  array a[64], b[64]
  kernel k freq 1
    s = s + a[i] * b[i]
  end
end
""",
    "filter  (2-op recurrence)": """
program p
  array x[64]
  kernel k freq 1
    s = s * c0 + x[i]
  end
end
""",
}

LATENCY = 6


def main() -> None:
    print(
        f"steady-state cycles/iteration at load latency {LATENCY} "
        "(IR-level unrolling, factors 4/8/12)\n"
    )
    header = (
        f"  {'loop':28s}{'recurrence bound':>18s}"
        f"{'balanced':>12s}{'trad W=2':>12s}"
    )
    print(header)
    print("  " + "-" * (len(header) - 2))
    for name, source in LOOPS.items():
        body = compile_minif(source, pointer_loads=False).functions[0].blocks[0]
        bound = recurrence_bound(body, LATENCY)
        balanced = throughput(
            body, BalancedScheduler(), LATENCY, factors=(4, 8, 12)
        )
        traditional = throughput(
            body, TraditionalScheduler(2), LATENCY, factors=(4, 8, 12)
        )
        print(
            f"  {name:28s}{str(bound):>18s}"
            f"{balanced.cycles_per_iteration:12.2f}"
            f"{traditional.cycles_per_iteration:12.2f}"
        )
    print(
        "\nThe recurrence bound is what *any* scheduler could achieve;"
        "\nunrolling gives the balanced weights room to reach it even"
        "\nwhen each source iteration alone cannot hide the latency."
    )


if __name__ == "__main__":
    main()
