"""RISC intermediate representation (the compiler substrate).

Public surface:

* operands: :class:`VirtualReg`, :class:`PhysReg`, :class:`Immediate`,
  :class:`MemRef`, :class:`RegClass`
* instructions: :class:`Instruction`, :class:`Opcode` and the
  ``load`` / ``store`` / ``alu`` / ``li`` / ``mov`` / ``nop`` builders
* structure: :class:`BasicBlock`, :class:`Function`, :class:`Program`
* text: :func:`format_instruction`, :func:`format_block`,
  :func:`format_function`
"""

from .block import BasicBlock, Function, Program
from .cfg import CFG, CFGEdge, CFGError
from .instructions import (
    FP_OPCODES,
    Instruction,
    LOAD_OPCODES,
    Opcode,
    STORE_OPCODES,
    TERMINATOR_OPCODES,
    alu,
    li,
    load,
    mov,
    nop,
    store,
)
from .operands import (
    Immediate,
    MemRef,
    PhysReg,
    RegClass,
    Register,
    VirtualReg,
)
from .printer import format_block, format_function, format_instruction

__all__ = [
    "BasicBlock",
    "CFG",
    "CFGEdge",
    "CFGError",
    "Function",
    "Program",
    "Instruction",
    "Opcode",
    "FP_OPCODES",
    "LOAD_OPCODES",
    "STORE_OPCODES",
    "TERMINATOR_OPCODES",
    "alu",
    "li",
    "load",
    "mov",
    "nop",
    "store",
    "Immediate",
    "MemRef",
    "PhysReg",
    "RegClass",
    "Register",
    "VirtualReg",
    "format_block",
    "format_function",
    "format_instruction",
]
