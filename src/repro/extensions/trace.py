"""Section 6 extension: trace scheduling.

"...techniques that enlarge basic blocks (trace scheduling and
software pipelining)..."

Trace scheduling picks the hottest control-flow path through a CFG,
splices its blocks into one long *trace*, and schedules the trace as a
unit -- giving the balanced weight computation far more load-level
parallelism to distribute.  Off-trace branches become *side exits*
inside the trace, and correctness across them is preserved by a
conservative, explicitly documented motion discipline:

* a **store** may not cross a side exit in either direction (the
  off-trace path must observe exactly the memory state its position
  implies);
* any instruction originally **above** a side exit may not sink below
  it (the off-trace path may consume its value);
* instructions from **below** a side exit may speculatively hoist
  above it -- loads are assumed non-faulting, and their targets are
  dead on the off-trace path (single-assignment virtual registers make
  that true by construction before allocation).

These rules are encoded as CONTROL edges in the trace's dependence
DAG, so the ordinary list scheduler -- balanced or traditional --
needs no changes at all, which is exactly the paper's modularity
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.alias import AliasModel
from ..analysis.dag import CodeDAG, DepKind
from ..analysis.dependence import build_dag
from ..core.policy import SchedulingPolicy
from ..core.scheduler import ScheduleResult
from ..ir.block import BasicBlock
from ..ir.cfg import CFG


class TraceError(ValueError):
    """Raised for traces that cannot be formed."""


@dataclass
class Trace:
    """A spliced hot path: one block, with side-exit positions."""

    block: BasicBlock
    #: Names of the blocks the trace was formed from, in order.
    source_blocks: List[str]
    #: Instruction indices of the side-exit branches inside ``block``.
    side_exits: List[int]


def form_trace(cfg: CFG, path: Optional[Sequence[str]] = None) -> Trace:
    """Splice the blocks along ``path`` (default: the hottest path).

    The terminating branch of every non-final block becomes a side
    exit retained in the instruction stream; the final block's
    terminator (if any) stays the trace terminator.  Blocks must come
    from one virtual-register space (one function).
    """
    cfg.validate()
    names = list(path) if path is not None else cfg.hottest_path()
    if not names:
        raise TraceError("empty trace path")
    for earlier, later in zip(names, names[1:]):
        if later not in {e.dst for e in cfg.successors(earlier)}:
            raise TraceError(f"{earlier!r} -> {later!r} is not a CFG edge")

    first = cfg.block(names[0])
    trace_block = BasicBlock(
        "+".join(names),
        frequency=first.frequency,
        live_in=list(first.live_in),
    )
    side_exits: List[int] = []
    for position, name in enumerate(names):
        block = cfg.block(name)
        # Later blocks' live-ins that are not defined on the trace are
        # genuine trace live-ins (values from before the region).
        if position > 0:
            defined = {
                reg for inst in trace_block.instructions for reg in inst.defs
            }
            for reg in block.live_in:
                if reg not in defined and reg not in trace_block.live_in:
                    trace_block.live_in.append(reg)
        for index, inst in enumerate(block.instructions):
            is_final_block = position == len(names) - 1
            if inst.is_terminator and not is_final_block:
                side_exits.append(len(trace_block.instructions))
            trace_block.append(inst)
        trace_block.live_out = list(block.live_out)
        trace_block.carried.update(block.carried)
    return Trace(
        block=trace_block, source_blocks=names, side_exits=side_exits
    )


def trace_dag(
    trace: Trace, alias_model: AliasModel = AliasModel.FORTRAN
) -> CodeDAG:
    """The trace's dependence DAG with side-exit motion constraints."""
    dag = build_dag(trace.block, alias_model=alias_model,
                    serialize_terminator=True)
    n = len(dag)
    for exit_index in trace.side_exits:
        for earlier in range(exit_index):
            # Nothing originally above the exit may sink below it.
            if dag.edge_kind(earlier, exit_index) is None:
                dag.add_edge(earlier, exit_index, DepKind.CONTROL)
        for later in range(exit_index + 1, n):
            # Stores must not hoist above the exit either.
            if dag.instructions[later].is_store:
                if dag.edge_kind(exit_index, later) is None:
                    dag.add_edge(exit_index, later, DepKind.CONTROL)
    return dag


def schedule_trace(
    trace: Trace,
    policy: SchedulingPolicy,
    alias_model: AliasModel = AliasModel.FORTRAN,
) -> ScheduleResult:
    """Weight and schedule the whole trace under ``policy``."""
    dag = trace_dag(trace, alias_model)
    return policy.schedule_dag(dag, trace.block)


def compare_trace_vs_blocks(
    cfg: CFG,
    policy_factory,
    simulate,
) -> Tuple[float, float]:
    """Helper for experiments: (block-by-block runtime, trace runtime).

    ``policy_factory`` builds a fresh policy; ``simulate(block) ->
    cycles`` evaluates one scheduled block.  Off-trace blocks are
    ignored (the comparison is over the hot path both ways).
    """
    path = cfg.hottest_path()
    per_block = 0.0
    for name in path:
        scheduled = policy_factory().schedule_block(cfg.block(name))
        per_block += simulate(scheduled.block)
    trace = form_trace(cfg, path)
    traced = schedule_trace(trace, policy_factory())
    return per_block, simulate(traced.block)
