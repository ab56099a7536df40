"""A demonstration CFG for the trace-scheduling extension.

A hot path of small load-then-use blocks (none of which can hide any
latency locally) guarded by rarely-taken error exits -- the classic
shape trace scheduling was invented for.  Used by the Section 6
example, the ablation benchmark and the test suite.
"""

from __future__ import annotations

from ..ir.block import BasicBlock, Function
from ..ir.cfg import CFG
from ..ir.instructions import Instruction, Opcode, alu, load, store
from ..ir.operands import MemRef, RegClass


def hot_path_cfg(
    n_hot_blocks: int = 4,
    hot_probability: float = 0.95,
    entry_frequency: float = 200.0,
) -> CFG:
    """Build the demo CFG: ``b0 -> b1 -> ... -> b{n-1}`` on the hot
    path, each non-final block also branching to a cold error block.

    Every hot block loads one value, combines it, and stores the
    result -- three instructions with zero local padding, so per-block
    scheduling is helpless against multi-cycle latencies while the
    spliced trace can interleave all the blocks' loads.
    """
    if n_hot_blocks < 2:
        raise ValueError("need at least two hot blocks")
    fn = Function("hotpath")
    cfg = CFG(name="hotpath", entry="b0", entry_frequency=entry_frequency)

    cond = fn.new_vreg(RegClass.FP)
    for index in range(n_hot_blocks):
        region = f"R{index}"
        block = BasicBlock(f"b{index}")
        base = fn.new_vreg(RegClass.INT)
        block.live_in.append(base)
        if index < n_hot_blocks - 1:
            # The branch condition arrives from outside the region and
            # is live into every block that tests it.
            block.live_in.append(cond)
        value = fn.new_vreg(RegClass.FP)
        block.append(load(value, MemRef(region=region, base=base, offset=0)))
        result = fn.new_vreg(RegClass.FP)
        block.append(alu(Opcode.FADD, result, (value, value)))
        block.append(store(result, MemRef(region=region, base=base, offset=1)))
        if index < n_hot_blocks - 1:
            block.append(Instruction(Opcode.BRANCH, uses=(cond,)))
        cfg.add_block(block)

    cold = BasicBlock("cold")
    cold.append(alu(Opcode.ADD, fn.new_vreg(RegClass.INT), ()))
    cfg.add_block(cold)

    for index in range(n_hot_blocks - 1):
        cfg.add_edge(f"b{index}", f"b{index + 1}", hot_probability)
        cfg.add_edge(f"b{index}", "cold", 1.0 - hot_probability)
    cfg.add_edge("cold", f"b{n_hot_blocks - 1}", 1.0)
    cfg.propagate_frequencies()
    return cfg
