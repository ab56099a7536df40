"""Parser for the textual IR produced by :mod:`repro.ir.printer`.

The round trip ``parse_block(format_block(b))`` preserves opcodes,
operands, memory references and tags (it does not preserve ``ident``
generation order, which is re-assigned on parse -- matching source
order, which is what the scheduler's earliest-generated tie-break
expects for freshly parsed code).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.ir.block import BasicBlock
from repro.ir.instructions import Instruction, Opcode
from repro.ir.operands import Immediate, MemRef, PhysReg, RegClass, Register, VirtualReg


class IRParseError(ValueError):
    """Raised for malformed textual IR."""


_REG_RE = re.compile(r"^(vf|v|r|f)(\d+)$")
_MEM_RE = re.compile(r"^(\w+)\[([^\]+\-]+)?([+-]\d+)?\]$")
_BLOCK_RE = re.compile(r"^block\s+(\w+)\s+freq\s+([0-9.eE+-]+):$")

_OPCODES = {op.value: op for op in Opcode}


def parse_register(text: str) -> Register:
    """Parse ``v3`` / ``vf2`` / ``r5`` / ``f1`` into a register operand."""
    match = _REG_RE.match(text.strip())
    if not match:
        raise IRParseError(f"bad register: {text!r}")
    prefix, index = match.group(1), int(match.group(2))
    if prefix == "v":
        return VirtualReg(index, RegClass.INT)
    if prefix == "vf":
        return VirtualReg(index, RegClass.FP)
    if prefix == "r":
        return PhysReg(index, RegClass.INT)
    return PhysReg(index, RegClass.FP)


def parse_memref(text: str) -> MemRef:
    """Parse ``A[v0+2]`` / ``B[v1-1]`` / ``C[0]`` into a :class:`MemRef`."""
    match = _MEM_RE.match(text.strip())
    if not match:
        raise IRParseError(f"bad memory reference: {text!r}")
    region, base_text, offset_text = match.groups()
    base: Optional[Register] = None
    if base_text and base_text.strip() not in ("", "0"):
        base = parse_register(base_text)
    offset = int(offset_text) if offset_text else 0
    return MemRef(region=region, base=base, offset=offset)


def _split_operands(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_instruction(line: str) -> Instruction:
    """Parse one canonical instruction line."""
    text = line.strip()
    tag = ""
    if ";" in text:
        text, _, tag = text.partition(";")
        text, tag = text.strip(), tag.strip()
    if not text:
        raise IRParseError("empty instruction line")
    head, _, rest = text.partition(" ")
    opcode = _OPCODES.get(head.strip())
    if opcode is None:
        raise IRParseError(f"unknown opcode: {head!r}")
    operands = _split_operands(rest)

    defs: Tuple[Register, ...] = ()
    uses: Tuple[Register, ...] = ()
    mem: Optional[MemRef] = None
    imm: Optional[Immediate] = None

    def classify(token: str):
        if token.startswith("#"):
            return Immediate(int(token[1:]))
        if "[" in token:
            return parse_memref(token)
        return parse_register(token)

    parsed = [classify(tok) for tok in operands]
    regs = [p for p in parsed if isinstance(p, (VirtualReg, PhysReg))]
    mems = [p for p in parsed if isinstance(p, MemRef)]
    imms = [p for p in parsed if isinstance(p, Immediate)]
    if len(mems) > 1:
        raise IRParseError(f"more than one memory operand: {line!r}")
    if mems:
        mem = mems[0]
    if imms:
        imm = imms[0]

    if opcode is Opcode.STORE:
        uses = tuple(regs)
    elif opcode in (Opcode.BRANCH, Opcode.JUMP, Opcode.RET, Opcode.NOP):
        uses = tuple(regs)
    else:
        if regs:
            defs = (regs[0],)
            uses = tuple(regs[1:])
    return Instruction(opcode, defs=defs, uses=uses, mem=mem, imm=imm, tag=tag)


def parse_block(text: str) -> BasicBlock:
    """Parse a block rendered by :func:`repro.ir.printer.format_block`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise IRParseError("empty block text")
    header = lines[0].strip()
    match = _BLOCK_RE.match(header)
    if match:
        name, frequency = match.group(1), float(match.group(2))
        body = lines[1:]
    else:
        name, frequency = "entry", 1.0
        body = lines
    block = BasicBlock(name, frequency=frequency)
    for line in body:
        block.append(parse_instruction(line))
    return block
