"""Unit tests for dependence-DAG construction."""

from repro.analysis import AliasModel, DepKind, build_dag
from repro.ir import (
    BasicBlock,
    Instruction,
    MemRef,
    Opcode,
    VirtualReg,
    alu,
    load,
    store,
)
from tests.support.generator import random_block


def ref(region="A", offset=0, base=None, coeff=0):
    return MemRef(region=region, base=base, offset=offset, affine_coeff=coeff)


class TestRegisterDependences:
    def test_true_dependence(self):
        block = BasicBlock("b")
        block.append(load(VirtualReg(0), ref()))
        block.append(alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)))
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is DepKind.TRUE

    def test_true_dependence_through_mem_base(self):
        block = BasicBlock("b")
        block.append(load(VirtualReg(0), ref("P")))
        block.append(
            load(VirtualReg(1), MemRef("A", base=VirtualReg(0), offset=0))
        )
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is DepKind.TRUE

    def test_anti_dependence(self):
        block = BasicBlock("b", live_in=[VirtualReg(0)])
        block.append(alu(Opcode.ADD, VirtualReg(1), (VirtualReg(0),)))
        block.append(load(VirtualReg(0), ref()))  # redefines v0
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is DepKind.ANTI

    def test_output_dependence(self):
        block = BasicBlock("b")
        block.append(load(VirtualReg(0), ref(offset=0)))
        block.append(load(VirtualReg(0), ref(offset=1)))
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is DepKind.OUTPUT


class TestMemoryDependences:
    def test_store_load_same_location(self):
        block = BasicBlock("b", live_in=[VirtualReg(9)])
        block.append(store(VirtualReg(9), ref(offset=0)))
        block.append(load(VirtualReg(0), ref(offset=0)))
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is DepKind.MEM_TRUE

    def test_load_store_anti(self):
        block = BasicBlock("b", live_in=[VirtualReg(9)])
        block.append(load(VirtualReg(0), ref(offset=0)))
        block.append(store(VirtualReg(9), ref(offset=0)))
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is DepKind.MEM_ANTI

    def test_store_store_output(self):
        block = BasicBlock("b", live_in=[VirtualReg(9)])
        block.append(store(VirtualReg(9), ref(offset=0)))
        block.append(store(VirtualReg(9), ref(offset=0)))
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is DepKind.MEM_OUTPUT

    def test_loads_never_conflict(self):
        block = BasicBlock("b")
        block.append(load(VirtualReg(0), ref(offset=0)))
        block.append(load(VirtualReg(1), ref(offset=0)))
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is None

    def test_disambiguated_offsets_no_edge(self):
        block = BasicBlock("b", live_in=[VirtualReg(9)])
        block.append(store(VirtualReg(9), ref(offset=0)))
        block.append(load(VirtualReg(0), ref(offset=1)))
        dag = build_dag(block)
        assert dag.edge_kind(0, 1) is None

    def test_alias_model_changes_cross_region_edges(self):
        block = BasicBlock("b", live_in=[VirtualReg(9)])
        block.append(store(VirtualReg(9), ref("A", offset=0)))
        block.append(load(VirtualReg(0), ref("B", offset=0)))
        fortran = build_dag(block, alias_model=AliasModel.FORTRAN)
        c_model = build_dag(block, alias_model=AliasModel.C_CONSERVATIVE)
        assert fortran.edge_kind(0, 1) is None
        assert c_model.edge_kind(0, 1) is DepKind.MEM_TRUE

    def test_fortran_exposes_more_parallelism(self, rng):
        """The Section 4.2 transformation: FORTRAN DAGs have <= edges."""
        for _ in range(10):
            block = random_block(rng, n_instructions=20)
            fortran = build_dag(block, alias_model=AliasModel.FORTRAN)
            c_model = build_dag(block, alias_model=AliasModel.C_CONSERVATIVE)
            assert fortran.edge_count() <= c_model.edge_count()


class TestControl:
    def test_terminator_serialized(self):
        block = BasicBlock("b")
        block.append(load(VirtualReg(0), ref()))
        block.append(load(VirtualReg(1), ref("B")))
        block.append(Instruction(Opcode.RET))
        dag = build_dag(block)
        assert dag.edge_kind(0, 2) is not None
        assert dag.edge_kind(1, 2) is not None

    def test_terminator_serialization_optional(self):
        block = BasicBlock("b")
        block.append(load(VirtualReg(0), ref()))
        block.append(Instruction(Opcode.RET))
        dag = build_dag(block, serialize_terminator=False)
        assert dag.edge_kind(0, 1) is None


def test_edges_always_forward(rng):
    for _ in range(10):
        block = random_block(rng, n_instructions=25)
        build_dag(block).check_acyclic()
