"""Tests for minif -> IR lowering."""

import pytest

from repro.frontend import LoweringError, compile_minif
from repro.frontend.lowering import POINTER_TABLE_REGION
from repro.ir import Opcode, RegClass
from tests.support.verifier import verify_block


def lower(source, **kwargs):
    program = compile_minif(source, **kwargs)
    return program.functions[0].blocks[0]


SIMPLE = """
program p
  array a[64], b[64]
  kernel k freq 7
    t1 = a[i] * b[i]
    b[i] = t1 + a[i+1]
  end
end
"""


class TestBasicLowering:
    def test_block_is_well_formed(self):
        verify_block(lower(SIMPLE))

    def test_frequency_propagated(self):
        assert lower(SIMPLE).frequency == 7.0

    def test_loads_and_stores_emitted(self):
        block = lower(SIMPLE)
        data_loads = [
            i for i in block.loads if i.mem.region != POINTER_TABLE_REGION
        ]
        assert len(data_loads) == 3  # a[i], b[i], a[i+1]
        assert len(block.stores) == 1

    def test_fp_values_fp_class(self):
        block = lower(SIMPLE)
        for inst in block:
            if inst.opcode in (Opcode.FADD, Opcode.FMUL):
                assert all(r.rclass is RegClass.FP for r in inst.defs)

    def test_undeclared_array_rejected(self):
        with pytest.raises(LoweringError, match="undeclared"):
            lower("program p\nkernel k freq 1\nx = zz[i]\nend\nend")


class TestPointerLoads:
    def test_pointer_loads_on_by_default(self):
        block = lower(SIMPLE)
        pointer_loads = [
            i for i in block.loads if i.mem.region == POINTER_TABLE_REGION
        ]
        assert len(pointer_loads) == 2  # one per referenced array

    def test_data_loads_depend_on_pointer_load(self):
        from repro.analysis import build_dag

        block = lower(SIMPLE)
        dag = build_dag(block)
        pointer_nodes = [
            v for v in dag.load_nodes()
            if dag.instructions[v].mem.region == POINTER_TABLE_REGION
        ]
        data_nodes = [
            v for v in dag.load_nodes() if v not in pointer_nodes
        ]
        for data in data_nodes:
            assert any(
                p in dag.predecessors(data) for p in pointer_nodes
            )

    def test_pointer_loads_off_gives_live_in_bases(self):
        block = lower(SIMPLE, pointer_loads=False)
        assert all(
            i.mem.region != POINTER_TABLE_REGION for i in block.loads
        )
        int_live_ins = [r for r in block.live_in if r.rclass is RegClass.INT]
        assert len(int_live_ins) == 2


class TestUnrolling:
    UNROLLED = """
program p
  array a[64], c[64]
  kernel k freq 8 unroll 3
    t1 = a[i] * 2.0
    s = s + t1
    c[i] = t1
  end
end
"""

    def test_body_replicated(self):
        once = lower(self.UNROLLED.replace("unroll 3", ""))
        thrice = lower(self.UNROLLED)
        pointer_overhead = 2  # a and c pointer loads, once per block
        assert len(thrice) - pointer_overhead >= 3 * (
            len(once) - pointer_overhead
        ) - 3  # literal CSE may save an li per copy

    def test_offsets_shifted_per_copy(self):
        block = lower(self.UNROLLED)
        store_offsets = sorted(i.mem.offset for i in block.stores)
        assert store_offsets == [0, 1, 2]

    def test_reduction_chains_across_copies(self):
        """s = s + ... threads serially through the copies."""
        from repro.analysis import build_dag
        from tests.support.dag_height import height_in_nodes

        block = lower(self.UNROLLED)
        dag = build_dag(block)
        # The spine forces DAG height to grow with the unroll factor.
        assert height_in_nodes(dag) >= 4

    def test_temporaries_independent_per_copy(self):
        block = lower(self.UNROLLED)
        fmuls = [i for i in block if i.opcode is Opcode.FMUL]
        defs = {i.defs[0] for i in fmuls}
        assert len(defs) == 3  # three independent t1 versions


class TestLiveness:
    CARRIED = """
program p
  array a[64]
  kernel k freq 1
    s = s + a[i]
    u = s * 2.0
  end
end
"""

    def test_read_before_write_is_live_in(self):
        block = lower(self.CARRIED)
        fp_live_in = [r for r in block.live_in if r.rclass is RegClass.FP]
        assert len(fp_live_in) == 1  # initial s

    def test_assigned_scalars_are_live_out(self):
        block = lower(self.CARRIED)
        assert len(block.live_out) == 2  # final s and u

    def test_temporaries_not_live_out(self):
        block = lower(SIMPLE)
        assert block.live_out == []


class TestGatherLowering:
    GATHER = """
program p
  array v[64], col[64]
  kernel k freq 1
    s = s + v[col[i]]
  end
end
"""

    def test_subscript_load_is_integer(self):
        block = lower(self.GATHER)
        col_loads = [i for i in block.loads if i.mem.region == "col"]
        assert len(col_loads) == 1
        assert col_loads[0].defs[0].rclass is RegClass.INT

    def test_address_add_emitted(self):
        block = lower(self.GATHER)
        assert any(i.opcode is Opcode.ADD for i in block)

    def test_gather_load_conservative_alias(self):
        block = lower(self.GATHER)
        v_loads = [i for i in block.loads if i.mem.region == "v"]
        assert v_loads[0].mem.affine_coeff is None

    def test_three_load_series(self):
        """ptab -> col -> v forms a three-load chain in the DAG."""
        from repro.analysis import build_dag
        from repro.analysis.components import longest_load_path

        block = lower(self.GATHER)
        dag = build_dag(block)
        full = (1 << len(dag)) - 1
        assert longest_load_path(dag, full) == 3
