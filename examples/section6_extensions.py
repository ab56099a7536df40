"""Scenario 3: the Section 6 extensions, demonstrated together.

* balanced weights for a multi-cycle asynchronous FP unit,
* pinning loads whose latency is known (second access to a cache line),
* enlarging a basic block at the IR level before scheduling,
* balanced scheduling's advantage across superscalar issue widths.

Run:  python examples/section6_extensions.py
"""

from repro.analysis.dependence import build_dag
from repro.core.balanced import BalancedScheduler
from repro.experiments.ablations import run_superscalar_ablation
from repro.extensions.known_latency import (
    KnownLatencyScheduler,
    second_access_same_line,
)
from repro.extensions.multicycle import (
    MultiCycleBalancedScheduler,
    with_fp_latency,
)
from repro.extensions.unrolling import enlarge_block
from repro.frontend.lowering import compile_minif

SOURCE = """
program stencil
  array u[4096], w[4096]
  kernel relax freq 50
    t1 = u[i-1] + u[i+1]
    t2 = t1 * c0
    w[i] = t2 - u[i]
  end
end
"""


def main() -> None:
    program = compile_minif(SOURCE)
    block = program.functions[0].blocks[0]

    # ------------------------------------------------------------------
    # 1. Block enlarging: unroll at the IR level, then schedule.
    # ------------------------------------------------------------------
    big = enlarge_block(block, 4)
    print(f"enlarged {block.name}: {len(block)} -> {len(big)} instructions")
    result = BalancedScheduler().schedule_block(big)
    print("first 8 scheduled instructions:")
    for inst in result.block.instructions[:8]:
        print(f"    {inst}")

    # ------------------------------------------------------------------
    # 2. Known latencies: u[i-1], u[i], u[i+1] share cache lines across
    #    unrolled copies, so repeat accesses are pinned to the hit time.
    # ------------------------------------------------------------------
    oracle = second_access_same_line(hit_latency=2, line_elements=4)
    known_scheduler = KnownLatencyScheduler(oracle)
    dag = build_dag(big)
    known = known_scheduler.known_loads(dag)
    print(
        f"\nknown-latency oracle pinned {len(known)} of "
        f"{len(dag.load_nodes())} loads to the 2-cycle hit time"
    )

    # ------------------------------------------------------------------
    # 3. Multi-cycle FP: a 4-cycle asynchronous FP unit.  FP results
    #    now receive balanced weights too.
    # ------------------------------------------------------------------
    with_fp_latency(big.instructions, 4)
    mc = MultiCycleBalancedScheduler()
    dag = build_dag(big)
    weights = mc.load_weights(dag)
    weighted_fp = [
        (v, weights[v])
        for v in dag.nodes()
        if dag.instructions[v].is_fp and not dag.is_load(v)
    ]
    print(f"\nmulti-cycle extension weighted {len(weighted_fp)} FP operations,")
    print(f"e.g. node {weighted_fp[0][0]} gets weight {weighted_fp[0][1]}")

    # ------------------------------------------------------------------
    # 4. Trace scheduling: splice the hot path of a CFG and let the
    #    balanced weights see across block boundaries.
    # ------------------------------------------------------------------
    from repro.extensions.trace import compare_trace_vs_blocks
    from repro.machine.processor import UNLIMITED
    from repro.simulate.simulator import simulate_block
    from repro.workloads.cfg_demo import hot_path_cfg

    def cycles_at(block, latency=6):
        n = sum(1 for i in block if i.is_load)
        return simulate_block(block.instructions, [latency] * n, UNLIMITED).cycles

    per_block, traced = compare_trace_vs_blocks(
        hot_path_cfg(), BalancedScheduler, cycles_at
    )
    print(
        f"\ntrace scheduling at latency 6: hot path takes {per_block:.0f}"
        f" cycles block-by-block, {traced:.0f} as one trace"
        f" ({100 * (per_block - traced) / per_block:.0f}% saved)"
    )

    # ------------------------------------------------------------------
    # 5. Software pipelining: modulo-schedule a reduction loop.
    # ------------------------------------------------------------------
    from repro.extensions.modulo import modulo_schedule

    loop = compile_minif(
        """
program swp
  array a[64], b[64]
  kernel dot freq 1
    s = s + a[i] * b[i]
  end
end
""",
        pointer_loads=False,
    ).functions[0].blocks[0]
    kernel = modulo_schedule(loop, BalancedScheduler())
    print(f"\nmodulo scheduling the dot kernel:")
    print(kernel.format())

    # ------------------------------------------------------------------
    # 6. Superscalar issue widths on a real suite program: the
    #    ablation behind the rows of results/ablations.txt.
    # ------------------------------------------------------------------
    print("\nsuperscalar widths (MDG):")
    for label, improvement in run_superscalar_ablation("MDG").items():
        print(f"  {label}: {improvement:+.1f}%")


if __name__ == "__main__":
    main()
