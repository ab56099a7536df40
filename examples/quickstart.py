"""Quickstart: compile a block, weight it, schedule it, simulate it.

Run:  python examples/quickstart.py
"""

from repro import BalancedScheduler, TraditionalScheduler, build_dag
from repro.core import balanced_weights
from repro.frontend import compile_minif
from repro.ir import format_block
from repro.machine import CacheMemory, UNLIMITED
from repro.simulate import sample_block, spawn

SOURCE = """
program quickstart
  array a[64], b[64], c[64]
  kernel body freq 1
    c[i] = (a[i] + a[i+1]) * b[i]
  end
end
"""


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Compile a small basic block from a minif kernel.
    #    Two independent loads feed an add; a third load's value is
    #    multiplied in and the product stored -- a little of everything.
    #    (pointer_loads=False keeps the array base pointers live-in.)
    # ------------------------------------------------------------------
    block = compile_minif(SOURCE, pointer_loads=False).functions[0].blocks[0]

    print("source block:")
    print(format_block(block))

    # ------------------------------------------------------------------
    # 2. Compute balanced weights (the paper's Figure 6 algorithm).
    # ------------------------------------------------------------------
    dag = build_dag(block)
    weights = balanced_weights(dag)
    print("\nbalanced load weights (1 + distributed parallelism):")
    for node, weight in sorted(weights.items()):
        print(f"  node {node}: {dag.instructions[node]}  ->  weight {weight}")

    # ------------------------------------------------------------------
    # 3. Schedule under both policies.
    # ------------------------------------------------------------------
    balanced = BalancedScheduler().schedule_block(block)
    traditional = TraditionalScheduler(2).schedule_block(block)
    print("\nbalanced schedule:")
    print(format_block(balanced.block))
    print("\ntraditional (W=2) schedule:")
    print(format_block(traditional.block))

    # ------------------------------------------------------------------
    # 4. Simulate both on a cache machine with uncertain latency
    #    (80% hits at 2 cycles, 20% misses at 10).
    # ------------------------------------------------------------------
    memory = CacheMemory(hit_rate=0.80, hit_latency=2, miss_latency=10)
    for name, result in (("balanced", balanced), ("traditional", traditional)):
        samples = sample_block(
            result.block, UNLIMITED, memory, spawn("quickstart", name), runs=30
        )
        print(
            f"\n{name:11s}: mean {samples.cycles.mean():5.1f} cycles over 30 runs"
            f"  (interlocks {samples.interlocks.mean():4.1f})"
        )


if __name__ == "__main__":
    main()
