"""Operand kinds for the RISC intermediate representation.

The IR is register based, in the style of the MIPS back end the paper's
GCC port targeted.  Operands come in four flavours:

* :class:`VirtualReg` -- an SSA-ish virtual register produced by the
  frontend and consumed by the scheduler's first pass.
* :class:`PhysReg` -- a physical machine register assigned by the
  register allocator and consumed by the second scheduling pass.
* :class:`Immediate` -- an integer constant operand.
* :class:`MemRef` -- the address expression of a load or store: a base
  register plus a displacement, tagged with the *region* (array /
  symbol) it refers to so the alias analysis can reason about it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union


class RegClass(enum.Enum):
    """Register class: integer or floating point.

    The allocator maintains a separate pool per class, as real RISC
    machines (and GCC's MIPS target) do.
    """

    INT = "int"
    FP = "fp"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegClass.{self.name}"


@dataclass(frozen=True, slots=True)
class VirtualReg:
    """A virtual register.

    ``index`` is unique per function; ``rclass`` selects the allocation
    pool.  Virtual registers are value-compared so they may be used
    freely as dictionary keys and set members.
    """

    index: int
    rclass: RegClass = RegClass.INT

    @property
    def name(self) -> str:
        prefix = "v" if self.rclass is RegClass.INT else "vf"
        return f"{prefix}{self.index}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class PhysReg:
    """A physical register, produced by register allocation.

    ``is_spill_pool`` marks members of the dedicated spill-register
    pool (Section 4.1 of the paper: GCC draws spill temporaries from a
    small pool; the paper enlarges it by two and orders it FIFO).
    """

    index: int
    rclass: RegClass = RegClass.INT
    is_spill_pool: bool = False

    @property
    def name(self) -> str:
        prefix = "r" if self.rclass is RegClass.INT else "f"
        return f"{prefix}{self.index}"

    def __str__(self) -> str:
        return self.name


#: Anything usable as a register operand.
Register = Union[VirtualReg, PhysReg]


@dataclass(frozen=True, slots=True)
class Immediate:
    """An integer immediate operand."""

    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True, slots=True)
class MemRef:
    """A memory reference: ``region[base + offset]``.

    ``region`` names the array or symbol the reference belongs to (the
    frontend knows this; it is what makes the FORTRAN alias model of
    Section 4.2 possible).  ``base`` is the register holding the
    run-time address component (e.g. a pointer or scaled induction
    variable); ``offset`` is the compile-time constant displacement in
    *elements*.  ``affine_coeff`` records the coefficient of the loop
    induction variable in the index expression when the frontend knows
    it (used by the alias analysis to prove two references to the same
    region distinct); ``None`` means unknown.
    """

    region: str
    base: Optional[Register] = None
    offset: int = 0
    affine_coeff: Optional[int] = field(default=1)

    def displaced(self, delta: int) -> "MemRef":
        """Return a copy of this reference shifted by ``delta`` elements."""
        return MemRef(
            region=self.region,
            base=self.base,
            offset=self.offset + delta,
            affine_coeff=self.affine_coeff,
        )

    def __str__(self) -> str:
        base = str(self.base) if self.base is not None else "0"
        sign = "+" if self.offset >= 0 else "-"
        return f"{self.region}[{base}{sign}{abs(self.offset)}]"
