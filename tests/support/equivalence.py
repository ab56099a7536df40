"""Translation validation: are two blocks semantically equivalent?

Scheduling permutes instructions and register allocation renames
registers and inserts spill code; neither may change what a block
*computes*.  This module checks that by symbolic execution:

* every register holds a *value expression* -- a hash-consed tree over
  opcodes, literals, live-in symbols and load events;
* a load's value is ``Load(region, address expression, version)``
  where the version counts the may-aliasing stores that precede it, so
  store-to-load ordering is part of the value.  Aliasing is judged on
  symbolic *address values*, not base registers: value expressions
  survive renaming and spill round-trips, so the count is the same
  before and after allocation even when the allocator moved a base
  pointer between registers (register-space aliasing is not -- two
  scatters through one virtual base are provably distinct at constant
  offsets, but conservatively overlap once reloads split the base
  across spill-pool registers);
* the block's *effect* is (a) the multiset of store events
  ``(region, address expression, stored value, version)`` and (b) the
  values of its live-out registers.

Two blocks are equivalent when their effects match.  Spill traffic is
invisible by construction: a spill store and its reloads round-trip
the same value expression through a ``__spill`` region, and spill
regions are excluded from the effect.  Spilled live-ins and live-outs
survive allocation as positional placeholders whose values live in
home/out slots (the allocator's slot-naming contract); the live-out
comparison resolves those slots, so spilling a live-out is as
invisible as any other spill.

The checker is *sound for this IR* (no arithmetic identities are
applied, so it never claims equivalence of genuinely different
computations) and complete enough for the transformations in this
repository: reordering under the dependence DAG, register renaming,
and spill insertion all validate; dropping, duplicating or rewiring a
computation does not.

The test suite uses it as a property check over random blocks and as
the reference that :func:`repro.verify.oracle._block_effect` must
agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.alias import SPILL_REGION_PREFIX, AliasModel
from repro.ir.block import BasicBlock
from repro.ir.instructions import Instruction, Opcode
from repro.ir.operands import MemRef, Register

#: A value expression: nested tuples, hash-consed by Python interning
#: of tuples.  Leaves: ("livein", k) for the k-th live-in register,
#: ("imm", value), ("unknown", ident) for uses of never-defined
#: registers (treated as implicit live-ins keyed by identity).
Value = Tuple


class EquivalenceError(AssertionError):
    """Raised by :func:`assert_equivalent` with a diagnosis."""


@dataclass(frozen=True)
class StoreEvent:
    """One memory write, in value space."""

    region: str
    address: Value
    value: Value
    version: int


@dataclass
class BlockEffect:
    """The observable behaviour of a block."""

    stores: List[StoreEvent]
    live_out: Tuple[Value, ...]

    def store_multiset(self) -> Dict[Tuple, int]:
        counts: Dict[Tuple, int] = {}
        for event in self.stores:
            key = (event.region, event.address, event.value, event.version)
            counts[key] = counts.get(key, 0) + 1
        return counts


def _values_may_alias(
    region_a: str,
    address_a: Value,
    region_b: str,
    address_b: Value,
    alias_model: AliasModel,
) -> bool:
    """May two references overlap, judged on symbolic address values?

    An address value is ``("addr", base value, constant offset)``.
    Equal base *values* name the same runtime pointer regardless of
    which register carries it, so distinct constant offsets are
    provably disjoint; different base values in one region must be
    assumed to overlap.  Spill slots are compiler-private and never
    alias user memory, and versioning never consults spill-to-spill
    aliasing (slot contents are tracked exactly).  Any pair this
    predicate calls aliasing is ordered in every legal schedule (by a
    memory edge when the registers also alias, by the register
    dependence chain through the base redefinition otherwise), so
    versions computed with it are schedule-invariant.
    """
    if region_a.startswith(SPILL_REGION_PREFIX) or region_b.startswith(
        SPILL_REGION_PREFIX
    ):
        return False
    if region_a == region_b:
        if address_a[1] == address_b[1]:
            return address_a[2] == address_b[2]
        return True
    return alias_model is not AliasModel.FORTRAN


class _SymbolicState:
    """Register file and memory-version bookkeeping during execution."""

    def __init__(self, block: BasicBlock, alias_model: AliasModel):
        self.alias_model = alias_model
        self.values: Dict[Register, Value] = {}
        for index, reg in enumerate(block.live_in):
            self.values[reg] = ("livein", index)
        #: (region, address value) of each store so far, in emission
        #: order (drives load/store versioning).
        self.stores: List[Tuple[str, Value]] = []
        self.effect_stores: List[StoreEvent] = []

    # ------------------------------------------------------------------
    def read(self, reg: Register) -> Value:
        if reg not in self.values:
            # A use of a never-defined register: an implicit live-in.
            self.values[reg] = ("unknown", str(reg))
        return self.values[reg]

    def _address(self, mem: MemRef) -> Value:
        base = self.read(mem.base) if mem.base is not None else ("imm", 0)
        return ("addr", base, mem.offset)

    def _version_for(self, mem: MemRef) -> int:
        """How many prior stores may alias this reference."""
        address = self._address(mem)
        return sum(
            1
            for region, earlier in self.stores
            if _values_may_alias(
                region, earlier, mem.region, address, self.alias_model
            )
        )

    # ------------------------------------------------------------------
    def execute(self, inst: Instruction) -> None:
        if inst.opcode is Opcode.NOP:
            return
        if inst.is_load:
            assert inst.mem is not None
            value: Value = (
                "load",
                inst.mem.region,
                self._address(inst.mem),
                self._version_for(inst.mem),
            )
            self.values[inst.defs[0]] = value
            return
        if inst.is_store:
            assert inst.mem is not None
            stored = self.read(inst.uses[0])
            version = self._version_for(inst.mem)
            self.stores.append((inst.mem.region, self._address(inst.mem)))
            if not inst.mem.region.startswith(SPILL_REGION_PREFIX):
                self.effect_stores.append(
                    StoreEvent(
                        region=inst.mem.region,
                        address=self._address(inst.mem),
                        value=stored,
                        version=version,
                    )
                )
            return
        # ALU / immediate / copy.
        if inst.opcode is Opcode.LI:
            assert inst.imm is not None
            for reg in inst.defs:
                self.values[reg] = ("imm", inst.imm.value)
            return
        if inst.opcode in (Opcode.MOV, Opcode.FMOV):
            self.values[inst.defs[0]] = self.read(inst.uses[0])
            return
        operands = tuple(self.read(r) for r in inst.uses)
        if inst.imm is not None:
            operands = operands + (("imm", inst.imm.value),)
        for reg in inst.defs:
            self.values[reg] = (inst.opcode.value,) + operands


#: The allocator's documented slot-naming contract (see
#: ``repro.regalloc.spill``): spilled live-ins round-trip through home
#: slots indexed by live-in position, spilled live-outs end their life
#: in out slots indexed by live-out position.
_SPILL_HOME_REGION = f"{SPILL_REGION_PREFIX}_home"
_SPILL_OUT_REGION = f"{SPILL_REGION_PREFIX}_out"


def block_effect(
    block: BasicBlock, alias_model: AliasModel = AliasModel.FORTRAN
) -> BlockEffect:
    """Symbolically execute ``block`` and return its observable effect."""
    state = _SymbolicState(block, alias_model)
    #: Track spill-slot contents so reloads resolve to stored values.
    spill_memory: Dict[Tuple[str, int], Value] = {}
    defined = set()
    for inst in block.instructions:
        defined.update(inst.defs)
        if (
            inst.is_store
            and inst.mem is not None
            and inst.mem.region.startswith(SPILL_REGION_PREFIX)
        ):
            spill_memory[(inst.mem.region, inst.mem.offset)] = state.read(
                inst.uses[0]
            )
            state.execute(inst)
            continue
        if (
            inst.is_load
            and inst.mem is not None
            and inst.mem.region.startswith(SPILL_REGION_PREFIX)
        ):
            key = (inst.mem.region, inst.mem.offset)
            if key in spill_memory:
                state.values[inst.defs[0]] = spill_memory[key]
            else:
                # Reload of a spilled live-in from its home slot: the
                # allocator indexes home slots by live-in position, so
                # this is exactly the k-th live-in value.
                state.values[inst.defs[0]] = ("livein", inst.mem.offset)
            continue
        state.execute(inst)

    # Live-out values.  A register the block defines (or a live-in it
    # passes through) is read directly.  A virtual register that no
    # instruction touches is a spilled placeholder (the allocator keeps
    # it in ``live_out`` positionally): its value sits in the home slot
    # of its live-in position when it is a live-in, or in the out slot
    # of its live-out position otherwise.
    live_in_position: Dict[Register, int] = {}
    for index, reg in enumerate(block.live_in):
        live_in_position.setdefault(reg, index)

    def _live_out_value(position: int, reg: Register) -> Value:
        if reg in defined:
            return state.read(reg)
        if reg in live_in_position:
            index = live_in_position[reg]
            return spill_memory.get(
                (_SPILL_HOME_REGION, index), ("livein", index)
            )
        slot = (_SPILL_OUT_REGION, position)
        if slot in spill_memory:
            return spill_memory[slot]
        return state.read(reg)

    live_out = tuple(
        _live_out_value(position, reg)
        for position, reg in enumerate(block.live_out)
    )
    return BlockEffect(stores=state.effect_stores, live_out=live_out)


def equivalent(
    before: BasicBlock,
    after: BasicBlock,
    alias_model: AliasModel = AliasModel.FORTRAN,
) -> bool:
    """True when the two blocks have the same observable effect.

    ``after`` may be a scheduled and/or register-allocated version of
    ``before``; live-out comparison is skipped when allocation dropped
    the live-out list (post-allocation blocks track physical live-outs
    only when the allocator preserved them).
    """
    effect_a = block_effect(before, alias_model)
    effect_b = block_effect(after, alias_model)
    if effect_a.store_multiset() != effect_b.store_multiset():
        return False
    if (
        before.live_out
        and after.live_out
        and len(before.live_out) == len(after.live_out)
    ):
        if effect_a.live_out != effect_b.live_out:
            return False
    return True


def assert_equivalent(
    before: BasicBlock,
    after: BasicBlock,
    alias_model: AliasModel = AliasModel.FORTRAN,
) -> None:
    """Raise :class:`EquivalenceError` with a diagnosis on mismatch."""
    effect_a = block_effect(before, alias_model)
    effect_b = block_effect(after, alias_model)
    stores_a = effect_a.store_multiset()
    stores_b = effect_b.store_multiset()
    if stores_a != stores_b:
        missing = {k: v for k, v in stores_a.items() if stores_b.get(k) != v}
        extra = {k: v for k, v in stores_b.items() if stores_a.get(k) != v}
        raise EquivalenceError(
            "store effects differ:\n"
            f"  only/changed in before: {sorted(missing)[:4]}\n"
            f"  only/changed in after:  {sorted(extra)[:4]}"
        )
    if before.live_out and after.live_out and effect_a.live_out != effect_b.live_out:
        raise EquivalenceError(
            f"live-out values differ:\n  before: {effect_a.live_out}\n"
            f"  after:  {effect_b.live_out}"
        )
