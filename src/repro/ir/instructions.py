"""Instructions and the opcode table of the RISC IR.

The instruction set is deliberately MIPS-flavoured (the paper's
compiler targeted the MIPS R-series): simple three-address ALU
operations, explicit loads and stores, and single-cycle issue for
everything.  Per the paper's simulation model "all of our instructions
execute in a single cycle" except loads, whose latency is drawn from
the memory-system model at simulation time.  Floating point opcodes
carry an optional multi-cycle latency so the Section 6 extension
(balanced weights for asynchronous FP units) can be exercised.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Tuple

from .operands import Immediate, MemRef, Register


class Opcode(enum.Enum):
    """The opcode vocabulary of the IR."""

    # Memory.
    LOAD = "load"      # rd <- mem
    STORE = "store"    # mem <- rs
    # Integer ALU.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"        # shift left logical
    SRL = "srl"        # shift right logical
    SLT = "slt"        # set-less-than (comparison)
    LI = "li"          # load immediate
    MOV = "mov"        # register copy
    # Floating point (single-cycle by default; multi-cycle via latency
    # override, used by the Section 6 extension).
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMA = "fma"        # fused multiply-add
    FMOV = "fmov"
    CVT = "cvt"        # int <-> fp conversion
    # Control (block terminators; never reordered).
    BRANCH = "branch"
    JUMP = "jump"
    RET = "ret"
    # Pseudo.
    NOP = "nop"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: Opcodes that read memory.
LOAD_OPCODES = frozenset({Opcode.LOAD})
#: Opcodes that write memory.
STORE_OPCODES = frozenset({Opcode.STORE})
_TERMINATORS = (Opcode.BRANCH, Opcode.JUMP, Opcode.RET)
#: Opcodes that terminate a basic block and anchor at its end.
TERMINATOR_OPCODES = frozenset(_TERMINATORS)
#: Floating point arithmetic (candidates for the multi-cycle extension).
FP_OPCODES = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FMA, Opcode.FMOV}
)

_ident_counter = itertools.count()


@dataclass(slots=True)
class Instruction:
    """One IR instruction.

    ``defs`` / ``uses`` are the registers written / read.  Memory
    operands live in ``mem``; loads have a single def and ``mem``,
    stores a single use (the stored value; plus the base register of
    ``mem`` as an additional use) and ``mem``.

    ``ident`` is the generation order within the function and is used
    by the list scheduler's final "earliest generated" tie-break.
    ``tag`` carries provenance, most importantly ``"spill"`` for
    instructions inserted by the register allocator (the definition
    the paper uses when counting spill code in Table 4).
    """

    opcode: Opcode
    defs: Tuple[Register, ...] = ()
    uses: Tuple[Register, ...] = ()
    mem: Optional[MemRef] = None
    imm: Optional[Immediate] = None
    latency: int = 1
    ident: int = field(default_factory=lambda: next(_ident_counter))
    tag: str = ""

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    # The hot classification checks compare by identity (one opcode
    # each) or scan a tuple, instead of hashing the Enum into the
    # frozensets above: the scheduler and the allocator ask them
    # hundreds of thousands of times per suite run.
    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_mem(self) -> bool:
        return self.mem is not None

    @property
    def is_terminator(self) -> bool:
        return self.opcode in _TERMINATORS

    @property
    def is_fp(self) -> bool:
        return self.opcode in FP_OPCODES

    @property
    def is_spill(self) -> bool:
        """True for instructions inserted by the register allocator."""
        return self.tag == "spill"

    @property
    def issue_slots(self) -> int:
        """Issue slots consumed (``IssueSlots`` in the paper's Figure 6).

        All instructions in our machine model occupy one issue slot;
        the accessor exists so the balanced-weight computation reads
        exactly like the published algorithm and so experiments can
        model dual-issue macros by overriding instruction latency.
        """
        return 1

    # ------------------------------------------------------------------
    # Register accessors
    # ------------------------------------------------------------------
    def all_uses(self) -> Tuple[Register, ...]:
        """Registers read, including the address base of a memory op."""
        if self.mem is not None and self.mem.base is not None:
            return self.uses + (self.mem.base,)
        return self.uses

    def all_regs(self) -> Tuple[Register, ...]:
        return self.defs + self.all_uses()

    def conflicts_with(self, other: "Instruction", may_alias=None) -> bool:
        """Must program order between ``self`` and ``other`` be kept?

        True when any reordering of the two could change behaviour: a
        register dependence (true, anti or output, including the
        address base of a memory operand), a pair of memory accesses
        that may overlap with at least one of them a store, or a block
        terminator (which anchors at the block end).  ``may_alias`` is
        a ``(MemRef, MemRef) -> bool`` predicate; when omitted, any two
        memory references are assumed to overlap (the conservative
        answer, correct under every alias model).
        """
        if self.is_terminator or other.is_terminator:
            return True
        defs = set(self.defs)
        if defs & set(other.defs) or defs & set(other.all_uses()):
            return True
        if set(self.all_uses()) & set(other.defs):
            return True
        if self.mem is not None and other.mem is not None and (
            self.is_store or other.is_store
        ):
            if may_alias is None:
                return True
            return bool(may_alias(self.mem, other.mem))
        return False

    def with_registers(
        self,
        defs: Sequence[Register],
        uses: Sequence[Register],
        mem_base: Optional[Register] = None,
    ) -> "Instruction":
        """Return a copy with rewritten registers (used by regalloc)."""
        new_mem = self.mem
        if self.mem is not None and self.mem.base is not None:
            new_mem = MemRef(
                region=self.mem.region,
                base=mem_base,
                offset=self.mem.offset,
                affine_coeff=self.mem.affine_coeff,
            )
        return replace(self, defs=tuple(defs), uses=tuple(uses), mem=new_mem)

    def copy(self) -> "Instruction":
        """A copy with a fresh ``ident`` (fresh generation order)."""
        return replace(self, ident=next(_ident_counter))

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        parts = [self.opcode.value]
        operands = []
        operands.extend(str(d) for d in self.defs)
        if self.opcode is Opcode.STORE:
            operands = [str(u) for u in self.uses]
            if self.mem is not None:
                operands.append(str(self.mem))
        else:
            operands.extend(str(u) for u in self.uses)
            if self.mem is not None:
                operands.append(str(self.mem))
        if self.imm is not None:
            operands.append(str(self.imm))
        text = f"{parts[0]} " + ", ".join(operands) if operands else parts[0]
        if self.tag:
            text += f"  ; {self.tag}"
        return text


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def load(dst: Register, mem: MemRef, tag: str = "") -> Instruction:
    """Build a load instruction ``dst <- mem``."""
    return Instruction(Opcode.LOAD, defs=(dst,), mem=mem, tag=tag)


def store(src: Register, mem: MemRef, tag: str = "") -> Instruction:
    """Build a store instruction ``mem <- src``."""
    return Instruction(Opcode.STORE, uses=(src,), mem=mem, tag=tag)


def alu(
    opcode: Opcode,
    dst: Register,
    srcs: Iterable[Register],
    imm: Optional[int] = None,
    latency: int = 1,
) -> Instruction:
    """Build a register-register (optionally reg-imm) ALU instruction."""
    immediate = Immediate(imm) if imm is not None else None
    return Instruction(
        opcode, defs=(dst,), uses=tuple(srcs), imm=immediate, latency=latency
    )


def li(dst: Register, value: int) -> Instruction:
    """Build a load-immediate instruction."""
    return Instruction(Opcode.LI, defs=(dst,), imm=Immediate(value))


def mov(dst: Register, src: Register, tag: str = "") -> Instruction:
    """Build a register copy."""
    return Instruction(Opcode.MOV, defs=(dst,), uses=(src,), tag=tag)


def nop() -> Instruction:
    """Build a no-op (virtual; removed before emission)."""
    return Instruction(Opcode.NOP)
