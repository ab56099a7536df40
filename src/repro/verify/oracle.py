"""The schedule-legality oracle.

An *independent* checker for the output of the scheduling and register
allocation pipeline.  Given the block a transformation consumed and the
block it emitted, the oracle verifies four families of invariants:

1. **Completeness** -- the emitted block is a permutation of the input:
   no instruction dropped, duplicated, invented or rewritten (checked
   by the ``ident`` multiset plus a field-by-field comparison).
2. **Dependence preservation** -- every pair of input instructions
   whose relative order is semantically constrained (a register
   dependence, a possibly-overlapping memory access with a store
   involved, or a terminator) appears in the same relative order in
   the output.  The pairwise formulation is deliberately *simpler*
   than the production DAG builder: the direct-conflict relation here
   generates the same order as the DAG (their transitive closures are
   equal, a property the test suite cross-checks), and since schedule
   order is total, preserving every direct conflict preserves every
   chained one -- the check accepts every DAG-legal schedule and
   rejects everything else.
3. **Register-allocation soundness** -- after spill insertion the
   emitted block reads no register that was never assigned a value,
   and it computes the same thing as the virtual-register source: a
   compact symbolic executor compares store-event multisets and
   live-out values, with spill slots round-tripped through their
   compiler-private regions (a clobbered register changes a value
   expression and is caught here).
4. **Machine admissibility** -- the block is emittable on a target
   processor: no virtual no-ops, one terminator at most and only at
   the end, non-negative static latencies, and no issue slot packed
   beyond the processor's width (the paper's machines interlock in
   hardware, so dynamic stalls are always admissible; the static
   contract is what the simulators rely on).

Everything here is built from the IR data model (:mod:`repro.ir`) and
the published alias rules restated locally -- the oracle shares no
code with :mod:`repro.core.scheduler`, so it cannot inherit that
module's bugs.  Cross-checks between this module and the production
analyses live in ``tests/verify/``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.block import BasicBlock
from ..ir.instructions import Instruction, Opcode
from ..ir.operands import MemRef, Register

#: Restated from the alias model's contract: regions the register
#: allocator invents for spill slots are compiler-private and provably
#: disjoint from user memory.
SPILL_PREFIX = "__spill"
#: Spilled live-in values reload from a home slot indexed by live-in
#: position (the allocator's documented slot assignment).
SPILL_HOME_REGION = "__spill_home"
#: Spilled live-out values end the block in an out slot indexed by
#: live-out position; the live-out list keeps the virtual register as
#: a positional placeholder.
SPILL_OUT_REGION = "__spill_out"


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to act on."""

    rule: str      # "completeness" | "dependence" | "regalloc" | "machine"
    detail: str
    where: Tuple[int, ...] = ()   # instruction positions involved

    def __str__(self) -> str:
        at = f" @ {list(self.where)}" if self.where else ""
        return f"[{self.rule}]{at} {self.detail}"


class LegalityError(AssertionError):
    """Raised by :func:`assert_legal` (and the pipeline hook)."""

    def __init__(self, violations: Sequence[Violation], context: str = ""):
        self.violations = list(violations)
        head = f"{len(self.violations)} legality violation(s)"
        if context:
            head += f" in {context}"
        lines = [head] + [f"  {v}" for v in self.violations[:8]]
        if len(self.violations) > 8:
            lines.append(f"  ... and {len(self.violations) - 8} more")
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Alias rules, restated
# ----------------------------------------------------------------------
def _model_name(alias_model: object) -> str:
    """Accept an ``AliasModel`` enum member or its string value."""
    return str(getattr(alias_model, "value", alias_model))


def oracle_may_alias(a: MemRef, b: MemRef, alias_model: object = "fortran") -> bool:
    """The alias question, answered from first principles.

    Same-region references with the same base register and the same
    known induction coefficient differ only by constant offsets and
    alias exactly when those are equal; any less-structured same-region
    pair is assumed to overlap.  Spill regions never overlap user
    memory.  Across distinct user regions, FORTRAN semantics say never,
    C semantics say maybe.  (Deliberately a restatement, not an import,
    of :func:`repro.analysis.alias.may_alias`; the test suite asserts
    the two agree on random references.)
    """
    if a.region == b.region:
        if (
            a.base == b.base
            and a.affine_coeff is not None
            and a.affine_coeff == b.affine_coeff
        ):
            return a.offset == b.offset
        return True
    if a.region.startswith(SPILL_PREFIX) or b.region.startswith(SPILL_PREFIX):
        return False
    return _model_name(alias_model) != "fortran"


# ----------------------------------------------------------------------
# Completeness + dependence preservation
# ----------------------------------------------------------------------
_COMPARED_FIELDS = ("opcode", "defs", "uses", "mem", "imm", "latency", "tag")


def _fingerprint(inst: Instruction) -> Tuple:
    return tuple(getattr(inst, name) for name in _COMPARED_FIELDS)


def check_permutation(
    source: BasicBlock, scheduled: BasicBlock
) -> List[Violation]:
    """Is ``scheduled`` exactly a reordering of ``source``?"""
    violations: List[Violation] = []
    before = [i for i in source.instructions if i.opcode is not Opcode.NOP]
    after = [i for i in scheduled.instructions if i.opcode is not Opcode.NOP]
    counts_before = Counter(i.ident for i in before)
    counts_after = Counter(i.ident for i in after)
    for ident in sorted((counts_before - counts_after)):
        inst = next(i for i in before if i.ident == ident)
        violations.append(Violation(
            "completeness", f"dropped instruction {inst} (ident {ident})"
        ))
    for ident in sorted((counts_after - counts_before)):
        inst = next(i for i in after if i.ident == ident)
        word = "duplicated" if ident in counts_before else "invented"
        violations.append(Violation(
            "completeness", f"{word} instruction {inst} (ident {ident})"
        ))
    by_ident = {i.ident: i for i in before}
    for position, inst in enumerate(after):
        original = by_ident.get(inst.ident)
        if original is not None and _fingerprint(original) != _fingerprint(inst):
            violations.append(Violation(
                "completeness",
                f"instruction rewritten in place: {original} -> {inst}",
                where=(position,),
            ))
    return violations


def constrained_pairs(
    instructions: Sequence[Instruction], alias_model: object = "fortran"
) -> List[Tuple[int, int]]:
    """All position pairs (i, j), i < j, whose order must be preserved."""
    alias = lambda a, b: oracle_may_alias(a, b, alias_model)  # noqa: E731
    pairs: List[Tuple[int, int]] = []
    for j, later in enumerate(instructions):
        for i in range(j):
            if instructions[i].conflicts_with(later, may_alias=alias):
                pairs.append((i, j))
    return pairs


def check_schedule(
    source: BasicBlock,
    scheduled: BasicBlock,
    alias_model: object = "fortran",
) -> List[Violation]:
    """Completeness + dependence preservation for one scheduling pass."""
    violations = check_permutation(source, scheduled)
    if any(v.rule == "completeness" for v in violations):
        return violations  # positions are meaningless on a non-permutation

    before = [i for i in source.instructions if i.opcode is not Opcode.NOP]
    position: Dict[int, int] = {
        inst.ident: pos
        for pos, inst in enumerate(
            i for i in scheduled.instructions if i.opcode is not Opcode.NOP
        )
    }
    for i, j in constrained_pairs(before, alias_model):
        pos_i = position[before[i].ident]
        pos_j = position[before[j].ident]
        if pos_i >= pos_j:
            violations.append(Violation(
                "dependence",
                f"order inverted: {before[i]!s} (source {i}) must precede "
                f"{before[j]!s} (source {j}) but was emitted at "
                f"{pos_i} >= {pos_j}",
                where=(pos_j, pos_i),
            ))
    return violations


# ----------------------------------------------------------------------
# Register-allocation soundness
# ----------------------------------------------------------------------
Value = Tuple


def _block_effect(
    block: BasicBlock, alias_model: object
) -> Tuple[Counter, Tuple[Value, ...]]:
    """Store-event multiset + live-out values, by symbolic execution.

    A register holds a value expression; a load's value carries a
    version counting the prior may-aliasing stores, so store-to-load
    order is part of the value.  Version aliasing is judged on
    symbolic *address values*, not base registers: value expressions
    survive renaming and spill round-trips, so versions agree between
    a virtual-register block and its allocated form even when reloads
    moved a base pointer across spill-pool registers (where a
    register-identity judgement flips from provably-distinct to
    conservatively-overlapping and falsely rejects the allocation).
    Every value-aliasing pair is ordered in all legal schedules --
    by a memory edge when the base registers also alias, and by the
    register chain through the base redefinition otherwise -- so the
    counts are also schedule-invariant.  Spill traffic is transparent:
    stores into ``__spill*`` regions update a slot map instead of the
    effect, and reloads resolve to the slot's value (home slots of
    spilled live-ins resolve to the live-in's position, and spilled
    live-out placeholders resolve to the out slot at their live-out
    position, matching the allocator's documented slot assignment).
    """
    values: Dict[Register, Value] = {}
    for index, reg in enumerate(block.live_in):
        values[reg] = ("livein", index)
    defined = set()
    spill_slots: Dict[Tuple[str, int], Value] = {}
    prior_stores: List[Tuple[str, Value]] = []
    effect: Counter = Counter()
    fortran = _model_name(alias_model) == "fortran"

    def read(reg: Register) -> Value:
        if reg not in values:
            values[reg] = ("unknown", str(reg))
        return values[reg]

    def address(mem: MemRef) -> Value:
        base = read(mem.base) if mem.base is not None else ("imm", 0)
        return ("addr", base, mem.offset)

    def values_alias(region_a: str, addr_a: Value, region_b: str, addr_b: Value) -> bool:
        # Same base *value* names the same runtime pointer no matter
        # which register carries it, so constant offsets decide.
        if region_a == region_b:
            if addr_a[1] == addr_b[1]:
                return addr_a[2] == addr_b[2]
            return True
        return not fortran

    def version(mem: MemRef, addr: Value) -> int:
        return sum(
            1 for region, earlier in prior_stores
            if values_alias(region, earlier, mem.region, addr)
        )

    for inst in block.instructions:
        if inst.opcode is Opcode.NOP:
            continue
        defined.update(inst.defs)
        if inst.is_load:
            mem = inst.mem
            if mem.region.startswith(SPILL_PREFIX):
                key = (mem.region, mem.offset)
                if key in spill_slots:
                    values[inst.defs[0]] = spill_slots[key]
                elif mem.region == SPILL_HOME_REGION:
                    values[inst.defs[0]] = ("livein", mem.offset)
                else:
                    values[inst.defs[0]] = ("spill-uninitialized", mem.offset)
            else:
                addr = address(mem)
                values[inst.defs[0]] = (
                    "load", mem.region, addr, version(mem, addr)
                )
            continue
        if inst.is_store:
            mem = inst.mem
            stored = read(inst.uses[0])
            if mem.region.startswith(SPILL_PREFIX):
                # Compiler-private: tracked exactly, never versioned.
                spill_slots[(mem.region, mem.offset)] = stored
            else:
                addr = address(mem)
                effect[(mem.region, addr, stored, version(mem, addr))] += 1
                prior_stores.append((mem.region, addr))
            continue
        if inst.opcode is Opcode.LI:
            for reg in inst.defs:
                values[reg] = ("imm", inst.imm.value)
            continue
        if inst.opcode in (Opcode.MOV, Opcode.FMOV):
            values[inst.defs[0]] = read(inst.uses[0])
            continue
        operands = tuple(read(r) for r in inst.uses)
        if inst.imm is not None:
            operands = operands + (("imm", inst.imm.value),)
        for reg in inst.defs:
            values[reg] = (inst.opcode.value,) + operands

    # A live-out register no instruction defines is either a live-in
    # passed through, or a spilled live-out placeholder whose value
    # sits in a positional home/out slot (the allocator's slot-naming
    # contract, restated).  Anything else reads as unknown -- a value
    # the block claims to export but never produces anywhere findable.
    live_in_position: Dict[Register, int] = {}
    for index, reg in enumerate(block.live_in):
        live_in_position.setdefault(reg, index)

    def live_out_value(position: int, reg: Register) -> Value:
        if reg in defined:
            return read(reg)
        if reg in live_in_position:
            index = live_in_position[reg]
            return spill_slots.get((SPILL_HOME_REGION, index), ("livein", index))
        slot = (SPILL_OUT_REGION, position)
        if slot in spill_slots:
            return spill_slots[slot]
        return read(reg)

    live_out = tuple(
        live_out_value(position, reg)
        for position, reg in enumerate(block.live_out)
    )
    return effect, live_out


def check_definedness(block: BasicBlock) -> List[Violation]:
    """No instruction reads a register that nothing assigned.

    Only meaningful for blocks that declare their live-ins (all blocks
    produced by the frontend and the allocator do); a block with an
    empty live-in list and no definitions at all is left alone.
    """
    violations: List[Violation] = []
    defined = set(block.live_in)
    strict = bool(block.live_in)
    for position, inst in enumerate(block.instructions):
        if inst.opcode is Opcode.NOP:
            continue
        if strict:
            for reg in inst.all_uses():
                if reg not in defined:
                    violations.append(Violation(
                        "regalloc",
                        f"{inst} reads {reg} which is neither live-in "
                        "nor previously assigned",
                        where=(position,),
                    ))
        defined.update(inst.defs)
    return violations


def check_allocation(
    source: BasicBlock,
    final: BasicBlock,
    alias_model: object = "fortran",
) -> List[Violation]:
    """Is the allocated (possibly spill-rewritten) block sound?

    Compares the observable behaviour of ``final`` against the
    virtual-register ``source`` it was allocated from.  A wrong
    assignment, a clobbered spill-pool register or a mis-addressed
    spill slot all change a value expression and surface here.
    """
    violations = check_definedness(final)
    stores_a, live_out_a = _block_effect(source, alias_model)
    stores_b, live_out_b = _block_effect(final, alias_model)
    if stores_a != stores_b:
        missing = stores_a - stores_b
        extra = stores_b - stores_a
        violations.append(Violation(
            "regalloc",
            "store effects differ: "
            f"lost {sorted(missing.keys())[:3]!r}, "
            f"gained {sorted(extra.keys())[:3]!r}",
        ))
    if (
        source.live_out
        and final.live_out
        and len(source.live_out) == len(final.live_out)
    ):
        for k, (va, vb) in enumerate(zip(live_out_a, live_out_b)):
            if va != vb:
                violations.append(Violation(
                    "regalloc",
                    f"live-out #{k} ({source.live_out[k]} -> "
                    f"{final.live_out[k]}) computes {vb!r}, "
                    f"expected {va!r}",
                ))
    return violations


# ----------------------------------------------------------------------
# Machine admissibility
# ----------------------------------------------------------------------
def check_machine(
    block: BasicBlock,
    processor: object,
    slots: Optional[Dict[int, object]] = None,
    order: Optional[Sequence[int]] = None,
) -> List[Violation]:
    """Is the emitted block executable on ``processor`` as-is?

    ``processor`` is anything with an ``issue_width`` and a ``name``
    (a :class:`repro.machine.ProcessorModel`).  ``slots`` optionally
    maps scheduler DAG nodes to issue-time slots and ``order`` lists
    the nodes in emission order; when provided, per-slot occupancy is
    checked against the issue width.
    """
    violations: List[Violation] = []
    width = int(getattr(processor, "issue_width", 1))
    name = getattr(processor, "name", str(processor))

    terminator_positions = [
        pos for pos, inst in enumerate(block.instructions) if inst.is_terminator
    ]
    for position, inst in enumerate(block.instructions):
        if inst.opcode is Opcode.NOP:
            violations.append(Violation(
                "machine",
                f"virtual no-op reached the emitted block on {name}",
                where=(position,),
            ))
        if inst.latency < 0:
            violations.append(Violation(
                "machine",
                f"{inst} has negative static latency {inst.latency}",
                where=(position,),
            ))
        if inst.issue_slots > width:
            violations.append(Violation(
                "machine",
                f"{inst} needs {inst.issue_slots} issue slot(s) but "
                f"{name} is {width}-wide",
                where=(position,),
            ))
    if len(terminator_positions) > 1:
        violations.append(Violation(
            "machine",
            f"{len(terminator_positions)} terminators in one block",
            where=tuple(terminator_positions),
        ))
    elif terminator_positions and terminator_positions[0] != len(block) - 1:
        violations.append(Violation(
            "machine",
            "terminator is not the final instruction",
            where=(terminator_positions[0],),
        ))

    if slots is not None and order is not None:
        occupancy: Dict[object, int] = {}
        for node in order:
            if node in slots:
                occupancy[slots[node]] = occupancy.get(slots[node], 0) + 1
        for slot, count in sorted(occupancy.items(), key=lambda kv: str(kv[0])):
            if count > width:
                violations.append(Violation(
                    "machine",
                    f"issue slot {slot} holds {count} instructions but "
                    f"{name} issues at most {width}/cycle",
                ))
    return violations


# ----------------------------------------------------------------------
# Delay-tracking issue admissibility
# ----------------------------------------------------------------------
def hardware_ordered_pairs(
    instructions: Sequence[Instruction],
) -> List[Tuple[int, int]]:
    """All position pairs (i, j), i < j, that delay-tracking hardware
    must keep in issue order.

    Restated from the machine's perspective, independently of both
    engines' formulations (the scalar
    :func:`repro.simulate.simulator.conflict_successors` and the batch
    kernel's array-built conflict matrix): the issue
    logic has *no* compile-time alias knowledge, so any two memory
    references with a store involved are assumed to overlap; register
    true, anti and output dependences (including load/store base
    registers) order as usual; and a terminator never moves relative
    to anything.
    """
    # Each instruction's register sets and flags, built once.
    facts = [
        (
            set(inst.defs),
            set(inst.all_uses()),
            inst.mem is not None,
            inst.is_store,
            inst.is_terminator,
        )
        for inst in instructions
    ]
    pairs: List[Tuple[int, int]] = []
    for j, (defs_j, uses_j, mem_j, store_j, term_j) in enumerate(facts):
        for i in range(j):
            defs_i, uses_i, mem_i, store_i, term_i = facts[i]
            if (
                term_i
                or term_j
                or not defs_i.isdisjoint(uses_j)
                or not defs_i.isdisjoint(defs_j)
                or not uses_i.isdisjoint(defs_j)
                or (mem_i and mem_j and (store_i or store_j))
            ):
                pairs.append((i, j))
    return pairs


def check_delaytrack_issue(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: object,
    trace: Sequence[Tuple[int, int]],
    ordered_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> List[Violation]:
    """Is a delay-tracking issue trace admissible hardware behaviour?

    ``trace`` is ``(source_position, issue_cycle)`` per executed
    instruction in issue order, as produced by
    :func:`repro.simulate.simulator.delaytrack_issue_trace`.  The
    adaptive front end may reorder issue, but never beyond what the
    machine can actually do; the checker verifies, from the IR data
    model alone:

    * **completeness** -- the trace issues every non-NOP instruction
      exactly once, at a non-negative cycle, in non-decreasing cycle
      order;
    * **width** -- no cycle issues more instructions than the
      processor's ``issue_width``;
    * **ordering** -- every hardware-constrained pair
      (:func:`hardware_ordered_pairs`) issues in program order;
    * **timing** -- no instruction issues before the data it reads is
      computed: for each use, at least the latest program-order
      writer's issue cycle plus that writer's latency (the sampled
      per-load latency for loads, the static latency otherwise).

    The engine under test is stricter than this contract (it also
    models MAX-n/LEN-n resource stalls, which only delay issue
    further), so every engine trace must pass; a trace that issues too
    early, too densely or out of order cannot have come from admissible
    hardware.

    ``ordered_pairs``, when given, is :func:`hardware_ordered_pairs` of
    the executed (non-NOP) instructions, built once by a caller that
    checks many traces of one block; omitted, it is built here.
    """
    violations: List[Violation] = []
    executed = [
        (pos, inst)
        for pos, inst in enumerate(instructions)
        if inst.opcode is not Opcode.NOP
    ]
    expected = Counter(pos for pos, _ in executed)
    got = Counter(pos for pos, _ in trace)
    if expected != got:
        missing = sorted((expected - got).elements())
        extra = sorted((got - expected).elements())
        violations.append(Violation(
            "machine",
            "issue trace is not a permutation of the executed block: "
            f"missing positions {missing[:5]}, extra {extra[:5]}",
        ))
        return violations

    width = int(getattr(processor, "issue_width", 1))
    name = getattr(processor, "name", str(processor))
    per_cycle: Counter = Counter()
    previous_cycle = None
    for order_index, (pos, cycle) in enumerate(trace):
        if cycle < 0:
            violations.append(Violation(
                "machine",
                f"negative issue cycle {cycle} at trace entry {order_index}",
                where=(pos,),
            ))
        if previous_cycle is not None and cycle < previous_cycle:
            violations.append(Violation(
                "machine",
                f"issue cycles regress at trace entry {order_index}: "
                f"{previous_cycle} then {cycle}",
                where=(pos,),
            ))
        previous_cycle = cycle
        per_cycle[cycle] += 1
    for cycle, count in sorted(per_cycle.items()):
        if count > width:
            violations.append(Violation(
                "machine",
                f"cycle {cycle} issues {count} instructions but {name} "
                f"is {width}-wide",
            ))

    # Per-position issue cycles and sequence indices.
    issue_cycle = {pos: cycle for pos, cycle in trace}
    issue_index = {pos: k for k, (pos, _) in enumerate(trace)}
    body = [inst for _, inst in executed]
    positions = [pos for pos, _ in executed]

    if ordered_pairs is None:
        ordered_pairs = hardware_ordered_pairs(body)
    for i, j in ordered_pairs:
        pos_i, pos_j = positions[i], positions[j]
        if issue_index[pos_i] >= issue_index[pos_j]:
            violations.append(Violation(
                "dependence",
                f"hardware-ordered pair issued out of order: "
                f"{body[i]!s} (source {pos_i}) must issue before "
                f"{body[j]!s} (source {pos_j})",
                where=(pos_i, pos_j),
            ))

    # Latency of each executed instruction under this sampled run.
    load_index = 0
    n_loads = sum(1 for inst in body if inst.is_load)
    if len(latencies) < n_loads:
        violations.append(Violation(
            "machine",
            f"{n_loads} loads but only {len(latencies)} latencies",
        ))
        return violations
    lat: Dict[int, int] = {}
    for pos, inst in executed:
        if inst.is_load:
            lat[pos] = int(latencies[load_index])
            load_index += 1
        else:
            lat[pos] = inst.latency

    for j, inst_j in enumerate(body):
        for reg in inst_j.all_uses():
            writer = None
            for i in range(j - 1, -1, -1):
                if reg in body[i].defs:
                    writer = i
                    break
            if writer is None:
                continue
            pos_i, pos_j = positions[writer], positions[j]
            required = issue_cycle[pos_i] + lat[pos_i]
            if issue_cycle[pos_j] < required:
                violations.append(Violation(
                    "dependence",
                    f"{body[j]!s} (source {pos_j}) reads {reg} at cycle "
                    f"{issue_cycle[pos_j]} but its producer "
                    f"{body[writer]!s} (source {pos_i}) completes at "
                    f"{required}",
                    where=(pos_i, pos_j),
                ))
    return violations


# ----------------------------------------------------------------------
# Whole-pipeline entry points
# ----------------------------------------------------------------------
def check_compiled(
    compiled: object,
    alias_model: object = "fortran",
    processors: Sequence[object] = (),
) -> List[Violation]:
    """Run every applicable check over one pipeline artefact.

    ``compiled`` is duck-typed as :class:`repro.core.CompiledBlock`
    (attributes ``source`` / ``final`` / ``pass1`` / ``allocation`` /
    ``pass2``), so this module never imports the pipeline it checks.
    """
    violations: List[Violation] = []
    source: BasicBlock = compiled.source
    violations += check_schedule(source, compiled.pass1.block, alias_model)
    allocation = compiled.allocation
    if allocation is not None:
        if compiled.pass2 is not None:
            violations += check_schedule(
                allocation.block, compiled.pass2.block, alias_model
            )
        violations += check_allocation(source, compiled.final, alias_model)
    final_result = compiled.pass2 if compiled.pass2 is not None else compiled.pass1
    for processor in processors:
        violations += check_machine(
            compiled.final,
            processor,
            slots=final_result.slots,
            order=final_result.order,
        )
    return violations


def assert_legal(
    compiled: object,
    alias_model: object = "fortran",
    processors: Sequence[object] = (),
    context: str = "",
) -> None:
    """Raise :class:`LegalityError` when any invariant is broken."""
    violations = check_compiled(compiled, alias_model, processors)
    if violations:
        raise LegalityError(violations, context=context)
