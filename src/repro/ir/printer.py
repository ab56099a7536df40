"""Textual form of the IR, for listings and CLI output.

The grammar is one instruction per line::

    load  vf3, A[v0+2]
    fadd  vf4, vf3, vf1
    store vf4, B[v1+0]
    li    v5, #7
    add   v6, v5, v0

Registers: ``vN`` (virtual int), ``vfN`` (virtual fp), ``rN`` / ``fN``
(physical).  Memory operands: ``region[base+offset]``.
"""

from __future__ import annotations

from typing import List

from .block import BasicBlock, Function
from .instructions import Instruction, Opcode


def format_instruction(instruction: Instruction) -> str:
    """Render a single instruction in the canonical textual form."""
    opcode = instruction.opcode.value
    operands: List[str] = []
    if instruction.opcode is Opcode.STORE:
        operands.extend(str(u) for u in instruction.uses)
        if instruction.mem is not None:
            operands.append(str(instruction.mem))
    else:
        operands.extend(str(d) for d in instruction.defs)
        operands.extend(str(u) for u in instruction.uses)
        if instruction.mem is not None:
            operands.append(str(instruction.mem))
    if instruction.imm is not None:
        operands.append(str(instruction.imm))
    line = f"{opcode:<6}" + ", ".join(operands)
    if instruction.tag:
        line = f"{line}  ; {instruction.tag}"
    return line.rstrip()


def format_block(block: BasicBlock) -> str:
    """Render a basic block (header comment + indented instructions)."""
    lines = [f"block {block.name} freq {block.frequency:g}:"]
    lines.extend("    " + format_instruction(i) for i in block.instructions)
    return "\n".join(lines)


def format_function(function: Function) -> str:
    lines = [f"func {function.name}:"]
    for block in function:
        lines.append(_indent(format_block(block)))
    return "\n".join(lines)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
