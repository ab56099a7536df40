"""Round-trip tests: textual IR printing and parsing."""

import numpy as np
import pytest

from repro.ir import (
    BasicBlock,
    PhysReg,
    RegClass,
    VirtualReg,
    format_block,
    format_instruction,
)
from tests.support.generator import random_block
from tests.support.ir_parser import (
    IRParseError,
    parse_block,
    parse_instruction,
    parse_register,
)


class TestParseRegister:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("v0", VirtualReg(0, RegClass.INT)),
            ("vf12", VirtualReg(12, RegClass.FP)),
            ("r3", PhysReg(3, RegClass.INT)),
            ("f9", PhysReg(9, RegClass.FP)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_register(text) == expected

    @pytest.mark.parametrize("text", ["x0", "v", "3", "vf", "rv1"])
    def test_invalid(self, text):
        with pytest.raises(IRParseError):
            parse_register(text)


class TestInstructionRoundTrip:
    @pytest.mark.parametrize(
        "line",
        [
            "load  vf3, A[v0+2]",
            "store vf4, B[v1-1]",
            "fadd  vf5, vf3, vf4",
            "li    v5, #7",
            "add   v6, v5, v0",
            "load  r1, __spill[0+3]  ; spill",
            "nop",
        ],
    )
    def test_round_trip(self, line):
        inst = parse_instruction(line)
        again = parse_instruction(format_instruction(inst))
        assert again.opcode is inst.opcode
        assert again.defs == inst.defs
        assert again.uses == inst.uses
        assert again.imm == inst.imm
        assert again.tag == inst.tag
        if inst.mem is not None:
            assert again.mem.region == inst.mem.region
            assert again.mem.offset == inst.mem.offset
            assert again.mem.base == inst.mem.base

    def test_unknown_opcode_rejected(self):
        with pytest.raises(IRParseError):
            parse_instruction("frobnicate v1, v2")

    def test_empty_rejected(self):
        with pytest.raises(IRParseError):
            parse_instruction("   ")

    def test_two_memory_operands_rejected(self):
        with pytest.raises(IRParseError):
            parse_instruction("load v1, A[v0+0], B[v0+0]")


class TestBlockRoundTrip:
    def test_header_preserved(self):
        block = BasicBlock("kernel", frequency=12.5)
        block.append(parse_instruction("li v0, #1"))
        text = format_block(block)
        again = parse_block(text)
        assert again.name == "kernel"
        assert again.frequency == 12.5
        assert len(again) == 1

    def test_headerless_text_defaults(self):
        block = parse_block("li v0, #1\nadd v1, v0, v0")
        assert block.name == "entry"
        assert block.frequency == 1.0
        assert len(block) == 2

    def test_random_blocks_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            block = random_block(rng, n_instructions=12)
            again = parse_block(format_block(block))
            assert len(again) == len(block)
            for ours, theirs in zip(block.instructions, again.instructions):
                assert ours.opcode is theirs.opcode
                assert ours.defs == theirs.defs
                assert ours.uses == theirs.uses

    def test_empty_block_text_rejected(self):
        with pytest.raises(IRParseError):
            parse_block("\n\n")
