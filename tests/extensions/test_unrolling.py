"""Tests for the IR-level block-enlarging transform (Section 6)."""

import pytest

from repro.analysis.dependence import build_dag
from repro.extensions.unrolling import (
    UnrollError,
    enlarge_block,
    infer_carried,
)
from repro.frontend.lowering import compile_minif
from tests.support.dag_height import height_in_nodes
from tests.support.verifier import verify_block

REDUCTION = """
program p
  array a[64], b[64]
  kernel k freq 12
    s = s + a[i] * b[i]
  end
end
"""

STREAM = """
program p
  array a[64], c[64]
  kernel k freq 4
    t1 = a[i] * 2.0
    c[i] = t1 + a[i+1]
  end
end
"""


def block_of(source):
    return compile_minif(source).functions[0].blocks[0]


class TestInferCarried:
    def test_reduction_maps_final_to_initial(self):
        block = block_of(REDUCTION)
        carried = infer_carried(block)
        assert len(carried) == 1
        (final, initial), = carried.items()
        assert final in block.live_out
        assert initial in block.live_in

    def test_no_carried_values(self):
        block = block_of(STREAM)
        assert infer_carried(block) == {}

    def test_mismatch_rejected(self):
        block = block_of(REDUCTION)
        block.carried.clear()  # force the positional fallback
        block.live_out.append(block.live_out[0])  # unbalanced
        with pytest.raises(UnrollError, match="cannot infer"):
            infer_carried(block)

    def test_explicit_carried_map_preferred(self):
        block = block_of(REDUCTION)
        assert infer_carried(block) == block.carried


class TestEnlargeBlock:
    def test_factor_one_is_copy(self):
        block = block_of(STREAM)
        copy = enlarge_block(block, 1)
        assert len(copy) == len(block)
        assert copy is not block

    def test_factor_scales_length(self):
        block = block_of(STREAM)
        big = enlarge_block(block, 4)
        assert len(big) == 4 * len(block)

    def test_frequency_divided(self):
        block = block_of(STREAM)
        big = enlarge_block(block, 4)
        assert big.frequency == pytest.approx(block.frequency / 4)

    def test_result_verifies(self):
        for source in (REDUCTION, STREAM):
            big = enlarge_block(block_of(source), 3)
            verify_block(big)

    def test_affine_offsets_shift(self):
        block = block_of(STREAM)
        big = enlarge_block(block, 3)
        store_offsets = sorted(i.mem.offset for i in big.stores)
        assert store_offsets == [0, 1, 2]

    def test_fresh_registers_per_copy(self):
        block = block_of(STREAM)
        big = enlarge_block(block, 2)
        defs = [r for i in big for r in i.defs]
        assert len(defs) == len(set(defs))

    def test_reduction_spine_grows(self):
        """Carried values serialise the copies: DAG height grows."""
        block = block_of(REDUCTION)
        base_height = height_in_nodes(build_dag(block))
        big = enlarge_block(block, 4)
        assert height_in_nodes(build_dag(big)) >= base_height + 3

    def test_live_out_is_final_copy(self):
        block = block_of(REDUCTION)
        big = enlarge_block(block, 3)
        assert len(big.live_out) == 1
        final = big.live_out[0]
        defining = [i for i in big if final in i.defs]
        assert defining
        assert big.instructions.index(defining[-1]) >= 2 * len(block)

    def test_matches_frontend_unrolling_weight_profile(self):
        """IR-level enlargement lands in the same weight regime as the
        frontend's source-level unrolling."""
        from repro.core.weights import balanced_weights

        # Compare without pointer-table loads: the frontend CSEs one
        # pointer load per block, whereas IR-level enlargement
        # replicates whatever instructions exist.
        frontend = compile_minif(
            REDUCTION.replace("freq 12", "freq 12 unroll 3"),
            pointer_loads=False,
        ).functions[0].blocks[0]
        base = compile_minif(REDUCTION, pointer_loads=False).functions[0].blocks[0]
        ir_level = enlarge_block(base, 3)
        w_frontend = sorted(balanced_weights(build_dag(frontend)).values())
        w_ir = sorted(balanced_weights(build_dag(ir_level)).values())
        assert len(w_frontend) == len(w_ir)
        assert abs(float(max(w_frontend)) - float(max(w_ir))) <= 3

    def test_bad_factor_rejected(self):
        with pytest.raises(UnrollError):
            enlarge_block(block_of(STREAM), 0)
