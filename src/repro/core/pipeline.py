"""The two-pass compilation pipeline (schedule / allocate / re-schedule).

Section 4.1: "GCC performs instruction scheduling both before and
after register allocation.  Since register allocation may add spill
code and/or copy instructions, the second scheduling pass serves to
integrate these additional instructions into the final schedule."

:func:`compile_block` runs exactly that pipeline on one block;
:func:`compile_program` maps it over a whole program and aggregates
spill statistics.  Both scheduling passes use the same policy object
(traditional or balanced); the balanced policy recomputes its weights
on the post-allocation DAG, so spill reloads -- which are loads with
uncertain latency like any other -- are weighted too.

Every stage runs through a :class:`StageMemo` keyed on exactly what
the stage reads, so work that several compilations share -- the
machine-independent pass-1 DAG and balanced weights above all (Section
4.4: "the balanced scheduler has not been specifically configured for
any of the processor models") -- is done once per memo.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple

from ..analysis.alias import AliasModel
from ..analysis.dag import CodeDAG
from ..analysis.dependence import build_dag
from ..ir.block import BasicBlock, Program
from ..obs import recorder as _obs
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import span as _span
from ..regalloc.linear_scan import AllocationResult, LinearScanAllocator
from ..regalloc.target import DEFAULT_REGISTER_FILE, RegisterFile
from ..verify import hooks as _verify
from .policy import SchedulingPolicy
from .scheduler import ScheduleResult, Weight


@dataclass
class CompiledBlock:
    """Per-block pipeline artefacts."""

    source: BasicBlock
    final: BasicBlock
    pass1: ScheduleResult
    allocation: Optional[AllocationResult]
    pass2: Optional[ScheduleResult]

    @property
    def spill_count(self) -> int:
        """Static count of allocator-inserted instructions."""
        return self.final.count_spills()

    @property
    def dynamic_spills(self) -> float:
        """Profile-weighted spill instruction count."""
        return self.spill_count * self.final.frequency

    @property
    def dynamic_instructions(self) -> float:
        """Profile-weighted executed instruction count."""
        return len(self.final) * self.final.frequency


@dataclass
class CompilationResult:
    """Whole-program pipeline output."""

    program_name: str
    policy_name: str
    blocks: List[CompiledBlock] = field(default_factory=list)

    @property
    def final_blocks(self) -> List[BasicBlock]:
        return [b.final for b in self.blocks]

    @property
    def dynamic_instructions(self) -> float:
        return sum(b.dynamic_instructions for b in self.blocks)

    @property
    def dynamic_spills(self) -> float:
        return sum(b.dynamic_spills for b in self.blocks)

    @property
    def spill_percentage(self) -> float:
        """Spill instructions as a % of executed instructions (Table 4)."""
        total = self.dynamic_instructions
        if total == 0:
            return 0.0
        return 100.0 * self.dynamic_spills / total


#: One memo entry: the stage's value, the metrics computing it
#: recorded (``None`` when observability was off), and the block its
#: key names by identity, held so the id cannot be recycled.
_Entry = Tuple[object, Optional[MetricsRegistry], BasicBlock]

#: How many DAGs a :class:`StageMemo` keeps, least recently used first
#: out, each with the weights computed on it.  DAGs are the bulky stage
#: value (per-node adjacency dicts), and one is read again only when a
#: policy the memo has not seen schedules its block: on the paper suite
#: a ``run all`` then rebuilds none of them.
DAG_CAPACITY = 128


class _DagEntry(NamedTuple):
    dag: CodeDAG
    block: BasicBlock
    #: Weights computed on ``dag``, by policy memo key.
    weights: Dict[tuple, _Entry]


class StageMemo:
    """The pipeline's stages, each memoised on exactly what it reads.

    * **DAG** on (block, alias model): pass 1 builds it from the source
      block, pass 2 from the allocated block;
    * **weights** on (DAG, policy weight key);
    * **schedule** on (DAG, policy schedule key -- the weight key plus
      the direction);
    * **allocation** on (source block, pass-1 order, allocator key).

    A DAG is named by its (block, alias model) pair, a block by its
    identity, and every entry holds the block its key names.  A built
    DAG is never written (policies return their weights as maps), so
    one DAG serves every policy.  It is built only when a schedule
    misses, and only the :data:`DAG_CAPACITY` most recently used DAGs
    are kept, with their weights.  A policy whose ``weight_key`` /
    ``schedule_key`` is ``None``, or an allocator without a
    ``memo_key``, runs its stage every time.

    With a recorder on, a stage computes into a child
    :class:`~repro.obs.metrics.MetricsRegistry` that the entry keeps
    and that every later hit merges into the recorder, so a hit records
    exactly what the skipped work would have: ``regalloc.*`` for an
    allocation, and for a schedule the ``sched.*`` series of its
    selection and of its weights.  With observability off no registry
    is kept; a later hit under a recorder -- or under a decision log,
    which records every scheduling step -- runs the stage once more to
    observe it and keeps the first value, so identities downstream stay
    valid.

    :func:`compile_block` and :func:`compile_program` use a throwaway
    memo unless given one; the experiments share the process-wide one
    of :class:`repro.experiments.common.CompilationCache`.
    """

    def __init__(self) -> None:
        self._dags: "OrderedDict[tuple, _DagEntry]" = OrderedDict()
        self._schedules: Dict[tuple, _Entry] = {}
        self._allocations: Dict[tuple, _Entry] = {}

    def __len__(self) -> int:
        """Memoised stage values: DAGs, weights, schedules, allocations."""
        return (
            len(self._dags)
            + sum(len(entry.weights) for entry in self._dags.values())
            + len(self._schedules)
            + len(self._allocations)
        )

    def clear(self) -> None:
        self._dags.clear()
        self._schedules.clear()
        self._allocations.clear()

    # ------------------------------------------------------------------
    def _dag_entry(
        self, block: BasicBlock, alias_model: AliasModel
    ) -> _DagEntry:
        key = (id(block), alias_model)
        dags = self._dags
        entry = dags.get(key)
        if entry is not None:
            dags.move_to_end(key)
            return entry
        # build_dag records no metrics, so a hit has nothing to replay.
        with _span("dependence", block=block.name):
            entry = dags[key] = _DagEntry(
                build_dag(block, alias_model=alias_model), block, {}
            )
        if len(dags) > DAG_CAPACITY:
            dags.popitem(last=False)
        return entry

    def dag(self, block: BasicBlock, alias_model: AliasModel) -> CodeDAG:
        return self._dag_entry(block, alias_model).dag

    def weights(
        self, block: BasicBlock, alias_model: AliasModel,
        policy: SchedulingPolicy,
    ) -> Dict[int, Weight]:
        entry = self._dag_entry(block, alias_model)
        with _span("weights", policy=policy.name):
            key = _policy_key(policy, policy.weight_key)
            if key is None:
                return policy.load_weights(entry.dag)
            return self._run(
                entry.weights, key, block,
                lambda: policy.load_weights(entry.dag),
            )

    def schedule(
        self, block: BasicBlock, alias_model: AliasModel,
        policy: SchedulingPolicy,
    ) -> ScheduleResult:
        def compute() -> ScheduleResult:
            weights = self.weights(block, alias_model, policy)
            return policy.schedule_dag(
                self.dag(block, alias_model), block, weights
            )

        key = _policy_key(policy, policy.schedule_key)
        if key is None:
            return compute()
        return self._run(
            self._schedules, (id(block), alias_model) + key, block, compute
        )

    def allocate(
        self, source: BasicBlock, pass1: ScheduleResult, allocator
    ) -> AllocationResult:
        memo_key = getattr(allocator, "memo_key", None)
        if memo_key is None:
            return allocator.allocate(pass1.block)
        return self._run(
            self._allocations,
            (id(source), tuple(pass1.order), type(allocator), memo_key),
            source,
            lambda: allocator.allocate(pass1.block),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _run(
        table: Dict[tuple, _Entry],
        key: tuple,
        block: BasicBlock,
        compute: Callable[[], object],
    ):
        rec = _obs.get()
        entry = table.get(key)
        if entry is not None:
            if rec is None:
                return entry[0]
            if entry[1] is not None and rec.decisions is None:
                rec.metrics.merge(entry[1])
                return entry[0]
        if rec is None:
            value = compute()
            table[key] = (value, None, block)
            return value
        parent, rec.metrics = rec.metrics, MetricsRegistry()
        try:
            value = compute()
        finally:
            child, rec.metrics = rec.metrics, parent
            parent.merge(child)
        if entry is not None:
            value = entry[0]
        table[key] = (value, child, block)
        return value


def _policy_key(
    policy: SchedulingPolicy, key: Optional[Hashable]
) -> Optional[tuple]:
    """A policy's memo key: its class and name (the ``policy`` label on
    what it records) plus ``key``, or ``None`` when ``key`` is."""
    if key is None:
        return None
    return (type(policy), policy.name, key)


def compile_block(
    block: BasicBlock,
    policy: SchedulingPolicy,
    register_file: Optional[RegisterFile] = DEFAULT_REGISTER_FILE,
    alias_model: AliasModel = AliasModel.FORTRAN,
    second_pass: bool = True,
    allocator: Optional[object] = None,
    memo: Optional[StageMemo] = None,
) -> CompiledBlock:
    """Run schedule -> allocate -> re-schedule on one block.

    Pass ``register_file=None`` to skip allocation entirely (pure
    scheduling studies on virtual-register code, e.g. the worked
    figures of Sections 2-3).  ``allocator`` selects an alternative
    register allocator (any object with ``allocate(block) ->
    AllocationResult``, e.g.
    :class:`repro.regalloc.chaitin.ChaitinAllocator`); the default is
    linear scan over ``register_file``.  ``memo`` shares stage results
    with other compilations (a fresh one is used when omitted).
    """
    if memo is None:
        memo = StageMemo()
    with _span("compile_block", block=block.name, policy=policy.name):
        with _span("pass1"):
            pass1 = memo.schedule(block, alias_model, policy)

        if register_file is None and allocator is None:
            compiled = CompiledBlock(
                source=block, final=pass1.block, pass1=pass1, allocation=None, pass2=None
            )
            return _checked(compiled, alias_model)

        if allocator is None:
            allocator = LinearScanAllocator(register_file)
        with _span("regalloc"):
            allocation = memo.allocate(block, pass1, allocator)

        pass2: Optional[ScheduleResult] = None
        final = allocation.block
        if second_pass:
            with _span("pass2"):
                pass2 = memo.schedule(final, alias_model, policy)
            final = pass2.block

        compiled = CompiledBlock(
            source=block, final=final, pass1=pass1, allocation=allocation, pass2=pass2
        )
        return _checked(compiled, alias_model)


def _checked(compiled: CompiledBlock, alias_model: AliasModel) -> CompiledBlock:
    """Push the artefact through the legality oracle when verification
    is enabled (``balanced-sched run --verify`` / ``verify.hooks``);
    one attribute read when it is not."""
    hook = _verify.get()
    if hook is not None:
        with _span("verify", block=compiled.final.name):
            hook.check(compiled, alias_model)
    return compiled


def compile_program(
    program: Program,
    policy: SchedulingPolicy,
    register_file: Optional[RegisterFile] = DEFAULT_REGISTER_FILE,
    alias_model: AliasModel = AliasModel.FORTRAN,
    second_pass: bool = True,
    allocator: Optional[object] = None,
    memo: Optional[StageMemo] = None,
) -> CompilationResult:
    """Compile every block of every function under ``policy``, through
    ``memo`` (a fresh one when omitted)."""
    if memo is None:
        memo = StageMemo()
    result = CompilationResult(
        program_name=program.name, policy_name=policy.name
    )
    for function in program:
        for block in function:
            result.blocks.append(
                compile_block(
                    block,
                    policy,
                    register_file=register_file,
                    alias_model=alias_model,
                    second_pass=second_pass,
                    allocator=allocator,
                    memo=memo,
                )
            )
    return result
