"""Random workload generators for property-based tests and stress runs.

Two levels:

* :func:`random_dag` -- a bare dependence DAG over synthetic
  instructions (loads and single-cycle ops) with forward random edges;
  used to cross-check the two weight implementations and the
  scheduler's dependence preservation on arbitrary shapes.
* :func:`random_block` -- a *well-formed* straight-line block of
  register code (loads, stores, ALU ops over live values), which
  passes the IR verifier and can run through the whole pipeline
  including register allocation and simulation.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis.dag import CodeDAG, DepKind
from repro.ir.block import BasicBlock
from repro.ir.instructions import Instruction, Opcode, alu, load, store
from repro.ir.operands import MemRef, RegClass, Register, VirtualReg

_REGIONS = ("A", "B", "C", "D")


def random_dag(
    rng: np.random.Generator,
    n_nodes: int = 12,
    edge_probability: float = 0.2,
    load_fraction: float = 0.4,
) -> CodeDAG:
    """A random forward-edge DAG with a mix of loads and unit ops.

    Instruction operands are synthetic (registers chosen so the code
    is *not* necessarily well-formed); only the DAG structure matters
    to the callers.
    """
    instructions: List[Instruction] = []
    for index in range(n_nodes):
        dst = VirtualReg(1000 + index, RegClass.INT)
        if rng.random() < load_fraction:
            mem = MemRef(
                region=str(rng.choice(_REGIONS)),
                base=None,
                offset=index,
                affine_coeff=0,
            )
            instructions.append(load(dst, mem))
        else:
            instructions.append(alu(Opcode.ADD, dst, ()))
    dag = CodeDAG(instructions)
    for src in range(n_nodes):
        for sink in range(src + 1, n_nodes):
            if rng.random() < edge_probability:
                kind = DepKind.TRUE if rng.random() < 0.8 else DepKind.ANTI
                dag.add_edge(src, sink, kind)
    return dag


def random_block(
    rng: np.random.Generator,
    n_instructions: int = 20,
    n_live_in: int = 3,
    store_probability: float = 0.2,
    load_probability: float = 0.4,
    name: str = "random",
) -> BasicBlock:
    """A verifier-clean random block exercising the full pipeline.

    The block starts from ``n_live_in`` live-in floating point values
    plus one live-in integer base pointer per region; each generated
    instruction is a load, a store of a live value, or a binary FP
    operation over live values.
    """
    block = BasicBlock(name, frequency=float(rng.integers(1, 100)))
    next_vreg = [0]

    def fresh(rclass: RegClass) -> VirtualReg:
        reg = VirtualReg(next_vreg[0], rclass)
        next_vreg[0] += 1
        return reg

    bases = {}
    for region in _REGIONS:
        base = fresh(RegClass.INT)
        bases[region] = base
        block.live_in.append(base)

    live_values: List[Register] = []
    for _ in range(n_live_in):
        value = fresh(RegClass.FP)
        live_values.append(value)
        block.live_in.append(value)

    def memref(offset: int) -> MemRef:
        region = str(rng.choice(_REGIONS))
        return MemRef(
            region=region, base=bases[region], offset=offset, affine_coeff=1
        )

    for index in range(n_instructions):
        roll = rng.random()
        if roll < load_probability:
            dst = fresh(RegClass.FP)
            block.append(load(dst, memref(int(rng.integers(0, 8)))))
            live_values.append(dst)
        elif roll < load_probability + store_probability and live_values:
            value = live_values[int(rng.integers(0, len(live_values)))]
            block.append(store(value, memref(int(rng.integers(0, 8)))))
        else:
            lhs = live_values[int(rng.integers(0, len(live_values)))]
            rhs = live_values[int(rng.integers(0, len(live_values)))]
            dst = fresh(RegClass.FP)
            opcode = (Opcode.FADD, Opcode.FMUL, Opcode.FSUB)[
                int(rng.integers(0, 3))
            ]
            block.append(alu(opcode, dst, (lhs, rhs)))
            live_values.append(dst)
        # Bound the live pool so pressure stays plausible.
        if len(live_values) > 24:
            live_values = live_values[-24:]

    if live_values:
        block.live_out.append(live_values[-1])
    return block
