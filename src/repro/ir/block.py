"""Basic blocks, functions and programs.

Both the paper's schedulers and its simulator operate one basic block
at a time (Section 2: "Both the balanced scheduling algorithm and the
traditional scheduler operate on a basic block by basic block basis";
Section 4.3: the simulator "simulates instruction issue and completion
for each basic block").  Whole-program runtimes are profile-weighted
sums of block runtimes, so a :class:`BasicBlock` carries its profiled
execution frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

from .instructions import Instruction, Opcode
from .operands import Register, RegClass, VirtualReg


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions with a profile weight.

    ``frequency`` is the profiled execution count of the block
    (Section 4.3 scales per-block sample means "by the profiled
    execution frequency to compute the actual runtime of the block").
    ``live_in`` lists registers defined outside the block (array base
    pointers, loop induction variables); ``live_out`` lists registers
    whose values are consumed by later blocks and therefore must not be
    treated as dead by the allocator.
    """

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    frequency: float = 1.0
    live_in: List[Register] = field(default_factory=list)
    live_out: List[Register] = field(default_factory=list)
    #: Loop-carried wiring: live-out register -> the live-in register
    #: holding the same variable's value next iteration.  Populated by
    #: the frontend; consumed by block-enlarging transforms.
    carried: Dict[Register, Register] = field(default_factory=dict)

    def append(self, instruction: Instruction) -> Instruction:
        self.instructions.append(instruction)
        return instruction

    def extend(self, instructions: Iterable[Instruction]) -> None:
        self.instructions.extend(instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @property
    def loads(self) -> List[Instruction]:
        return [i for i in self.instructions if i.is_load]

    @property
    def stores(self) -> List[Instruction]:
        return [i for i in self.instructions if i.is_store]

    def count_spills(self) -> int:
        """Number of register-allocator-inserted instructions."""
        return sum(1 for i in self.instructions if i.is_spill)

    def without_nops(self) -> "BasicBlock":
        """A copy with virtual no-ops removed (pre-emission cleanup)."""
        block = BasicBlock(
            name=self.name,
            frequency=self.frequency,
            live_in=list(self.live_in),
            live_out=list(self.live_out),
            carried=dict(self.carried),
        )
        block.instructions = [
            i for i in self.instructions if i.opcode is not Opcode.NOP
        ]
        return block

    def replaced(self, instructions: List[Instruction]) -> "BasicBlock":
        """A copy of this block with a different instruction list."""
        block = BasicBlock(
            name=self.name,
            frequency=self.frequency,
            live_in=list(self.live_in),
            live_out=list(self.live_out),
            carried=dict(self.carried),
        )
        block.instructions = list(instructions)
        return block

    def __str__(self) -> str:
        header = f"{self.name}:  ; freq={self.frequency:g}"
        body = "\n".join(f"    {inst}" for inst in self.instructions)
        return f"{header}\n{body}" if body else header


@dataclass
class Function:
    """A function: a list of basic blocks plus a virtual-register pool."""

    name: str
    blocks: List[BasicBlock] = field(default_factory=list)
    _next_vreg: int = 0

    def new_vreg(self, rclass: RegClass = RegClass.INT) -> VirtualReg:
        """Allocate a fresh virtual register."""
        reg = VirtualReg(self._next_vreg, rclass)
        self._next_vreg += 1
        return reg

    def add_block(self, block: BasicBlock) -> BasicBlock:
        self.blocks.append(block)
        return block

    def block(self, name: str) -> BasicBlock:
        for candidate in self.blocks:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no block named {name!r} in function {self.name!r}")

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __str__(self) -> str:
        blocks = "\n".join(str(b) for b in self.blocks)
        return f"func {self.name} {{\n{blocks}\n}}"


@dataclass
class Program:
    """A whole program: named functions plus metadata.

    ``meta`` carries free-form provenance (e.g. which Perfect Club
    stand-in generated it and with what unroll factor).
    """

    name: str
    functions: List[Function] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def add_function(self, function: Function) -> Function:
        self.functions.append(function)
        return function

    def function(self, name: str) -> Function:
        for candidate in self.functions:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no function named {name!r} in program {self.name!r}")

    def all_blocks(self) -> List[BasicBlock]:
        return [block for function in self.functions for block in function]

    def total_instruction_count(self, weighted: bool = True) -> float:
        """Dynamic (profile-weighted) or static instruction count."""
        if weighted:
            return sum(len(b) * b.frequency for b in self.all_blocks())
        return float(sum(len(b) for b in self.all_blocks()))

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions)

    def __str__(self) -> str:
        return "\n\n".join(str(f) for f in self.functions)
