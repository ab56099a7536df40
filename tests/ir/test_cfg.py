"""Tests for the control-flow graph substrate."""

import pytest

from repro.ir.block import BasicBlock
from repro.ir.instructions import Instruction, Opcode, alu, load
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.ir.cfg import CFG, CFGEdge, CFGError

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)


def diamond_cfg():
    """entry -> (hot 0.9 | cold 0.1) -> join."""
    cfg = CFG(name="diamond", entry="entry", entry_frequency=100.0)
    entry = BasicBlock("entry")
    entry.append(load(VirtualReg(0, RegClass.FP), A))
    entry.append(Instruction(Opcode.BRANCH, uses=(VirtualReg(0, RegClass.FP),)))
    cfg.add_block(entry)
    hot = BasicBlock("hot")
    hot.append(alu(Opcode.FADD, VirtualReg(1, RegClass.FP),
                   (VirtualReg(0, RegClass.FP),)))
    cfg.add_block(hot)
    cold = BasicBlock("cold")
    cold.append(alu(Opcode.FMUL, VirtualReg(2, RegClass.FP),
                    (VirtualReg(0, RegClass.FP),)))
    cfg.add_block(cold)
    join = BasicBlock("join")
    join.append(alu(Opcode.ADD, VirtualReg(3), ()))
    cfg.add_block(join)
    cfg.add_edge("entry", "hot", 0.9)
    cfg.add_edge("entry", "cold", 0.1)
    cfg.add_edge("hot", "join", 1.0)
    cfg.add_edge("cold", "join", 1.0)
    return cfg


class TestConstruction:
    def test_duplicate_block_rejected(self):
        cfg = CFG(name="c", entry="a")
        cfg.add_block(BasicBlock("a"))
        with pytest.raises(CFGError, match="duplicate"):
            cfg.add_block(BasicBlock("a"))

    def test_edge_to_unknown_block_rejected(self):
        cfg = CFG(name="c", entry="a")
        cfg.add_block(BasicBlock("a"))
        with pytest.raises(CFGError, match="unknown block"):
            cfg.add_edge("a", "b")

    def test_bad_probability_rejected(self):
        with pytest.raises(CFGError):
            CFGEdge("a", "b", 1.5)


class TestValidation:
    def test_diamond_validates(self):
        diamond_cfg().validate()

    def test_missing_entry(self):
        cfg = CFG(name="c", entry="nope")
        cfg.add_block(BasicBlock("a"))
        with pytest.raises(CFGError, match="entry"):
            cfg.validate()

    def test_cycle_rejected(self):
        cfg = CFG(name="c", entry="a")
        cfg.add_block(BasicBlock("a"))
        cfg.add_block(BasicBlock("b"))
        cfg.add_edge("a", "b")
        cfg.add_edge("b", "a")
        with pytest.raises(CFGError, match="cycle"):
            cfg.validate()

    def test_probabilities_must_sum_to_one(self):
        cfg = diamond_cfg()
        cfg.edges[0] = CFGEdge("entry", "hot", 0.5)  # now sums to 0.6
        with pytest.raises(CFGError, match="sum"):
            cfg.validate()

    def test_multiway_needs_branch(self):
        cfg = diamond_cfg()
        cfg.blocks["entry"].instructions.pop()  # drop the branch
        with pytest.raises(CFGError, match="terminating branch"):
            cfg.validate()


class TestFrequencies:
    def test_propagation_through_diamond(self):
        cfg = diamond_cfg()
        cfg.propagate_frequencies()
        assert cfg.block("entry").frequency == pytest.approx(100.0)
        assert cfg.block("hot").frequency == pytest.approx(90.0)
        assert cfg.block("cold").frequency == pytest.approx(10.0)
        assert cfg.block("join").frequency == pytest.approx(100.0)

    def test_topological_order_entry_first(self):
        order = diamond_cfg().topological_order()
        assert order[0] == "entry"
        assert order[-1] == "join"
        assert set(order) == {"entry", "hot", "cold", "join"}


class TestHottestPath:
    def test_follows_probabilities(self):
        assert diamond_cfg().hottest_path() == ["entry", "hot", "join"]

    def test_single_block(self):
        cfg = CFG(name="c", entry="only")
        cfg.add_block(BasicBlock("only"))
        assert cfg.hottest_path() == ["only"]
