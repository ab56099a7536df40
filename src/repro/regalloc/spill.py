"""Spill-code insertion with a FIFO spill-register pool.

Spilled values live in compiler-private stack slots (region
``__spill``); every use is preceded by a reload and every definition is
followed by a store, both tagged ``"spill"`` -- matching the paper's
accounting: "A spill instruction is defined to be any instruction that
is inserted by the register allocator" (Table 4).

Reloads and stores borrow registers from the dedicated spill pool.
With ``fifo_pool`` enabled the pool is cycled round-robin ("a FIFO
queue-like ordering of the registers in the pool", Section 4.1), which
spaces out reuse of any one pool register and so leaves the second
scheduling pass freedom to overlap spill code with other instructions.
Without it, the lowest-numbered pool register is always grabbed first
-- GCC's unimproved behaviour -- chaining every reload through the
same register.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set

from ..analysis.alias import SPILL_REGION_PREFIX
from ..ir.block import BasicBlock
from ..ir.instructions import Instruction, load as make_load, store as make_store
from ..ir.operands import MemRef, PhysReg, RegClass, Register, VirtualReg
from .target import RegisterFile

#: Home slots of spilled live-in values; indexed by live-in position.
#: Part of the allocator's public contract -- the translation validator
#: and the legality oracle resolve reloads from this region to the
#: corresponding live-in value.
SPILL_HOME_REGION = f"{SPILL_REGION_PREFIX}_home"

#: Home slots of spilled live-*out* values; indexed by live-out
#: position.  A spilled live-out keeps its virtual register as a
#: placeholder in ``live_out`` (no physical register ever holds it),
#: so the slot position is the only way a consumer -- or a validator
#: -- can locate the value at block exit.  Spilled live-ins keep their
#: live-in home slot (it is updated on every redefinition), so this
#: region is used only for block-defined live-outs.
SPILL_OUT_REGION = f"{SPILL_REGION_PREFIX}_out"


@dataclass
class SpillStats:
    """Counts of allocator-inserted instructions."""

    loads: int = 0
    stores: int = 0
    slots: int = 0

    @property
    def total(self) -> int:
        return self.loads + self.stores


class _Pool:
    """One class's spill-register pool with FIFO or fixed-order reuse."""

    def __init__(self, registers: Sequence[PhysReg], fifo: bool):
        if not registers:
            raise ValueError("spill pool must contain at least one register")
        self._fifo = fifo
        self._queue: Deque[PhysReg] = deque(registers)

    def take(self, banned: Set[PhysReg]) -> PhysReg:
        """Borrow a pool register not in ``banned`` (same instruction)."""
        if self._fifo:
            for _ in range(len(self._queue)):
                reg = self._queue.popleft()
                self._queue.append(reg)
                if reg not in banned:
                    return reg
        else:
            for reg in self._queue:
                if reg not in banned:
                    return reg
        raise RuntimeError(
            "spill pool exhausted within a single instruction; "
            "increase RegisterFile.base_pool"
        )


class SpillRewriter:
    """Rewrites a block, substituting assigned registers and inserting
    spill code for the rest."""

    def __init__(
        self,
        register_file: RegisterFile,
        assigned: Dict[VirtualReg, PhysReg],
        spilled: Set[VirtualReg],
        live_in: Sequence[Register],
        live_out: Sequence[Register] = (),
    ):
        self.register_file = register_file
        self.assigned = dict(assigned)
        self.spilled = set(spilled)
        self.live_in = set(live_in)
        self.live_out = set(live_out)
        #: Position of each live-in register: a spilled live-in reloads
        #: from home slot = its live-in index, which keeps its symbolic
        #: identity recoverable (see ``_block_effect`` in
        #: repro.verify.oracle).
        self.live_in_order: Dict[Register, int] = {
            reg: index for index, reg in enumerate(live_in)
        }
        #: Likewise for live-outs: a spilled live-out's value ends its
        #: life in the out-slot at its live-out index.
        self.live_out_order: Dict[Register, int] = {
            reg: index for index, reg in enumerate(live_out)
        }
        #: *Every* position each register occupies.  A register may
        #: appear at several live-in/live-out positions (two source
        #: scalars carried by one value, e.g. after ``s0 = s2``); a
        #: spilled definition must then land in the slot at each
        #: position, or the value is unrecoverable at the positions the
        #: single store skipped.
        self.live_in_positions: Dict[Register, List[int]] = {}
        for index, reg in enumerate(live_in):
            self.live_in_positions.setdefault(reg, []).append(index)
        self.live_out_positions: Dict[Register, List[int]] = {}
        for index, reg in enumerate(live_out):
            self.live_out_positions.setdefault(reg, []).append(index)
        self._slots: Dict[VirtualReg, int] = {}
        self._pools = {
            rclass: _Pool(register_file.spill_pool(rclass), register_file.fifo_pool)
            for rclass in RegClass
        }
        self.stats = SpillStats()

    # ------------------------------------------------------------------
    def _slot(self, reg: VirtualReg) -> MemRef:
        # Live-in values reload from their caller-visible home slot
        # (indexed by live-in position) and live-out values land in
        # their caller-visible out slot (indexed by live-out position);
        # block-local values use sequentially assigned private slots.
        # Distinct offsets in one region are provably disjoint under
        # the alias model.
        if reg in self.live_in:
            return MemRef(
                region=SPILL_HOME_REGION,
                base=None,
                offset=self.live_in_order[reg],
                affine_coeff=0,
            )
        if reg in self.live_out:
            return MemRef(
                region=SPILL_OUT_REGION,
                base=None,
                offset=self.live_out_order[reg],
                affine_coeff=0,
            )
        if reg not in self._slots:
            self._slots[reg] = len(self._slots)
            self.stats.slots += 1
        return MemRef(
            region=SPILL_REGION_PREFIX,
            base=None,
            offset=self._slots[reg],
            affine_coeff=0,
        )

    def _def_slots(self, reg: VirtualReg) -> List[MemRef]:
        """Every slot a spilled definition of ``reg`` must be stored to.

        Usually one slot (the reload slot :meth:`_slot` names), but a
        register occupying several live-in or live-out positions owns
        the slot at *each* of them -- a consumer (or validator) resolves
        the value by position, so every position's slot must hold it.
        """
        if reg in self.live_in:
            positions = self.live_in_positions[reg]
            region = SPILL_HOME_REGION
        elif reg in self.live_out:
            positions = self.live_out_positions[reg]
            region = SPILL_OUT_REGION
        else:
            return [self._slot(reg)]
        return [
            MemRef(region=region, base=None, offset=index, affine_coeff=0)
            for index in positions
        ]

    def _substitute(self, reg: Register, reloads: Dict[VirtualReg, PhysReg]) -> Register:
        if isinstance(reg, PhysReg):
            return reg
        if reg in self.assigned:
            return self.assigned[reg]
        if reg in reloads:
            return reloads[reg]
        raise KeyError(f"register {reg} neither assigned nor reloaded")

    # ------------------------------------------------------------------
    def rewrite(self, block: BasicBlock) -> BasicBlock:
        """Produce the physical-register block with spill code inserted."""
        out: List[Instruction] = []
        for inst in block.instructions:
            banned: Set[PhysReg] = set()
            reloads: Dict[VirtualReg, PhysReg] = {}

            # Reload every spilled register this instruction reads.
            for reg in inst.all_uses():
                if isinstance(reg, VirtualReg) and reg in self.spilled and reg not in reloads:
                    pool_reg = self._pools[reg.rclass].take(banned)
                    banned.add(pool_reg)
                    out.append(make_load(pool_reg, self._slot(reg), tag="spill"))
                    self.stats.loads += 1
                    reloads[reg] = pool_reg

            new_uses = tuple(self._substitute(r, reloads) for r in inst.uses)
            mem_base: Optional[Register] = None
            if inst.mem is not None and inst.mem.base is not None:
                mem_base = self._substitute(inst.mem.base, reloads)

            # Spilled definitions land in a pool register, then store.
            stores_after: List[Instruction] = []
            new_defs: List[Register] = []
            for reg in inst.defs:
                if isinstance(reg, VirtualReg) and reg in self.spilled:
                    pool_reg = self._pools[reg.rclass].take(banned)
                    banned.add(pool_reg)
                    new_defs.append(pool_reg)
                    for slot in self._def_slots(reg):
                        stores_after.append(
                            make_store(pool_reg, slot, tag="spill")
                        )
                        self.stats.stores += 1
                else:
                    new_defs.append(self._substitute(reg, reloads))

            out.append(inst.with_registers(new_defs, new_uses, mem_base))
            out.extend(stores_after)

        rewritten = block.replaced(out)
        # Preserve live-in/live-out *positions*: an assigned register
        # maps to its physical register; a spilled register keeps its
        # virtual register as a placeholder (its value sits in memory
        # -- the home/out spill slot at the same index -- not in a
        # register).  Positional stability is what lets the translation
        # validator identify these values across allocation.
        rewritten.live_in = [self.assigned.get(r, r) for r in block.live_in]
        rewritten.live_out = [self.assigned.get(r, r) for r in block.live_out]
        return rewritten
