"""Build the code DAG of a basic block.

Dependences recorded:

* register TRUE (def -> use), ANTI (use -> redef), OUTPUT (def ->
  redef) -- through both explicit operands and memory-operand base
  registers;
* memory TRUE / ANTI / OUTPUT between pairs of memory operations of
  which at least one is a store, when the alias model says the
  references may overlap;
* CONTROL edges pinning a block terminator after every other
  instruction.

Virtual-register code is effectively single-assignment per block in
practice, so ANTI/OUTPUT edges mostly appear in post-register-
allocation code -- exactly the "false dependences introduced by
register allocation" the paper discusses in Section 4.1.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..ir.block import BasicBlock
from ..ir.operands import Register
from .alias import AliasModel, may_alias
from .dag import CodeDAG, DepKind


def build_dag(
    block: BasicBlock,
    alias_model: AliasModel = AliasModel.FORTRAN,
    serialize_terminator: bool = True,
) -> CodeDAG:
    """Construct the dependence DAG for ``block``.

    The returned DAG's node ``k`` is ``block.instructions[k]``; node
    weights are initialised to each instruction's static latency (the
    scheduling policies supply their load weights as a separate map).
    """
    instructions = block.instructions
    dag = CodeDAG(instructions)

    last_def: Dict[Register, int] = {}
    uses_since_def: Dict[Register, List[int]] = {}
    mem_ops: List[int] = []

    for index, inst in enumerate(instructions):
        # --- register dependences -------------------------------------
        for reg in inst.all_uses():
            if reg in last_def:
                dag.add_edge(last_def[reg], index, DepKind.TRUE)
            uses_since_def.setdefault(reg, []).append(index)
        for reg in inst.defs:
            if reg in last_def:
                dag.add_edge(last_def[reg], index, DepKind.OUTPUT)
            for user in uses_since_def.get(reg, ()):
                if user != index:
                    dag.add_edge(user, index, DepKind.ANTI)
            last_def[reg] = index
            uses_since_def[reg] = []

        # --- memory dependences ---------------------------------------
        if inst.is_mem:
            for earlier in mem_ops:
                _add_memory_edge(dag, earlier, index, alias_model)
            mem_ops.append(index)

        # --- control dependences --------------------------------------
        if serialize_terminator and inst.is_terminator:
            for earlier in range(index):
                if dag.edge_kind(earlier, index) is None:
                    dag.add_edge(earlier, index, DepKind.CONTROL)

    return dag


def _add_memory_edge(
    dag: CodeDAG, earlier: int, later: int, model: AliasModel
) -> None:
    """Insert the memory dependence between two memory ops, if any."""
    a = dag.instructions[earlier]
    b = dag.instructions[later]
    if a.is_load and b.is_load:
        return  # load/load pairs never conflict
    assert a.mem is not None and b.mem is not None
    if not may_alias(a.mem, b.mem, model):
        return
    if a.is_store and b.is_load:
        kind = DepKind.MEM_TRUE
    elif a.is_load and b.is_store:
        kind = DepKind.MEM_ANTI
    else:
        kind = DepKind.MEM_OUTPUT
    dag.add_edge(earlier, later, kind)


def ordered_pairs(dag: CodeDAG) -> FrozenSet[Tuple[int, int]]:
    """Every (earlier, later) pair the DAG orders, transitively.

    The set of ordering constraints any legal schedule of ``dag`` must
    satisfy.  Used to cross-check the independent legality oracle
    (:mod:`repro.verify.oracle`): its pairwise conflict relation must
    be a subset of this closure, or it would reject legal schedules.
    """
    n = len(dag.instructions)
    pairs = set()
    for start in range(n):
        stack = list(dag.successors(start))
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            pairs.add((start, node))
            stack.extend(dag.successors(node))
    return frozenset(pairs)
