"""Shrunk fuzz findings, pinned forever.

Every program here was found by ``balanced-sched fuzz``, minimized by
the shrinker, and fixed in the commit that added it.  Keep them cheap
and exact: each documents the failure it used to trigger.
"""

import pytest

from repro.analysis.alias import AliasModel
from repro.core.balanced import BalancedScheduler
from repro.core.traditional import TraditionalScheduler
from repro.core.pipeline import compile_program
from repro.frontend.lowering import compile_minif
from repro.ir.operands import VirtualReg
from repro.regalloc.spill import SPILL_OUT_REGION
from repro.verify.oracle import check_allocation, check_compiled
from repro.verify.fuzz import check_source
from tests.support.equivalence import assert_equivalent

#: Found by ``fuzz --seed 1`` (iteration 0), shrunk to four statements.
#: The unroll-3 kernel scatters through ``idx`` with enough pressure
#: that the allocator spills the base pointers; reloads then carry the
#: bases in different spill-pool registers.  Both the oracle and the
#: production equivalence checker used to count store *versions* with
#: a register-identity alias test, which flips from provably-distinct
#: to conservatively-overlapping across the spill -- so a perfectly
#: legal compilation was reported as "store effects differ" (versions
#: 6/5 vs. 8/7 on the same addresses and values).  Versions are now
#: counted in value space, which renaming and spilling cannot perturb.
SPILLED_SCATTER_VERSIONS = """
program fuzz
  array vb[1024], vd[1024], idx[1024]
  scalar s2
  kernel k0 freq 39 unroll 3
    t0 = vd[idx[2*i-2]]
    vb[idx[i+1]] = 1
    vb[i] = 1
    s2 = t0 + vb[idx[i+2]]
  end
end
"""


@pytest.mark.parametrize(
    "model", list(AliasModel), ids=lambda m: m.value
)
def test_spilled_scatter_store_versions(model):
    program = compile_minif(SPILLED_SCATTER_VERSIONS)
    compiled = compile_program(program, BalancedScheduler(), alias_model=model)
    if model is AliasModel.FORTRAN:
        # The C model constrains the schedule enough that pressure
        # stays under the register file; FORTRAN is the failing shape.
        spilled = [cb for cb in compiled.blocks if cb.spill_count > 0]
        assert spilled, "regression requires the allocator to actually spill"
    for cb in compiled.blocks:
        assert check_allocation(cb.source, cb.final, model) == []
        assert_equivalent(cb.source, cb.final, model)
        assert check_compiled(cb, model) == []


def test_spilled_scatter_full_differential_check():
    """The exact check the fuzzer runs must be clean end to end."""
    assert check_source(SPILLED_SCATTER_VERSIONS, seed=1, runs=2) == []


def test_unspilled_compilation_was_always_fine():
    """Control: without spills the old version accounting agreed too
    (this is what localized the bug to spill-induced renaming)."""
    program = compile_minif(SPILLED_SCATTER_VERSIONS)
    compiled = compile_program(program, TraditionalScheduler(2))
    for cb in compiled.blocks:
        if cb.spill_count == 0:
            assert_equivalent(cb.source, cb.final)


#: Found by ``fuzz --seed 19930601`` (iteration 352; 296/317/363/476
#: shrank to the same root cause).  k1's live-out scalar ``s0`` gets
#: *spilled*: the allocator used to park its value in a private,
#: sequentially numbered slot, so the final block ended with the value
#: at an address no consumer (and no validator) could recover -- the
#: virtual placeholder left in ``live_out`` read as ``unknown``.
#: Spilled live-outs now get the same positional contract spilled
#: live-ins always had: the value lands in the ``__spill_out`` slot at
#: its live-out index, and both validators resolve the placeholder
#: from there.
SPILLED_LIVEOUT_SCALAR = """
program fuzz
  array va[1024], vb[1024], vc[1024], vd[1024], idx[1024]
  scalar s0, s1, s2
  kernel k0 freq 34
    s0 = va[i+4] + va[i+2] + vc[i+2] + va[i] + vd[i-2] + va[3*i+3]
  end
  kernel k1 freq 3 unroll 3
    vb[0] = (vb[i-2] + vc[i]) / (s1 - s1) - (vc[idx[3*i+3]] + vd[i-1]) * (vb[3*i-2] * vd[2*i-2])
    s0 = s0 - va[i-1]
    vb[3*i] = 8
    vc[i-1] = vd[idx[2*i+3]] / vc[0]
    va[i+4] = vc[i+3] - s0
    s0 = s1 + s1
  end
end
"""


def test_spilled_liveout_keeps_positional_out_slot():
    """The failing shape: traditional W=5 under FORTRAN spills k1's
    live-out.  The placeholder must survive in ``live_out`` with a
    matching store into the out slot at its live-out position, and
    every validator must resolve it."""
    program = compile_minif(SPILLED_LIVEOUT_SCALAR)
    compiled = compile_program(
        program, TraditionalScheduler(5), alias_model=AliasModel.FORTRAN
    )
    placeholder_seen = False
    for cb in compiled.blocks:
        for position, reg in enumerate(cb.final.live_out):
            if not isinstance(reg, VirtualReg):
                continue
            placeholder_seen = True
            out_slots = [
                inst.mem.offset
                for inst in cb.final.instructions
                if inst.is_store
                and inst.mem is not None
                and inst.mem.region == SPILL_OUT_REGION
            ]
            assert position in out_slots, (
                "spilled live-out has no store into its positional out slot"
            )
        assert check_allocation(cb.source, cb.final, AliasModel.FORTRAN) == []
        assert_equivalent(cb.source, cb.final, AliasModel.FORTRAN)
        assert check_compiled(cb, AliasModel.FORTRAN) == []
    assert placeholder_seen, "regression requires a spilled live-out"


def test_spilled_liveout_full_differential_check():
    """The exact check the fuzzer runs must be clean end to end."""
    assert check_source(SPILLED_LIVEOUT_SCALAR, seed=1, runs=2) == []


#: Found by ``fuzz --seed 424242`` (iteration 6); the artifact is
#: pinned at ``results/fuzz/fuzz-424242-00006.json``.  ``s0 = s2``
#: makes both live-out scalars the *same* virtual register, so
#: ``live_out`` lists it twice -- and the register gets spilled.  The
#: rewriter kept one position per register (a last-wins dict), emitted
#: a single ``__spill_out`` store at position 1, and left position 0's
#: slot empty; the oracle, resolving live-outs by position, read
#: ``unknown`` at position 0.  Spilled definitions now store into the
#: slot at *every* live-in/live-out position the register occupies.
DUPLICATED_LIVEOUT_POSITIONS = """
program fuzz
  array va[1024], vd[1024]
  scalar s0, s2
  kernel k0 freq 26 unroll 3
    va[i] = va[i] + (va[i] + s0)
    s2 = vd[i] + vd[i]
    s0 = s2
  end
end
"""


def test_duplicated_liveout_positions_all_get_out_slots():
    """The failing shape: balanced under FORTRAN spills a register that
    occupies two live-out positions.  Every position must have a store
    into its out slot, and every validator must resolve both."""
    program = compile_minif(DUPLICATED_LIVEOUT_POSITIONS)
    compiled = compile_program(
        program, BalancedScheduler(), alias_model=AliasModel.FORTRAN
    )
    duplicate_seen = False
    for cb in compiled.blocks:
        positions = {}
        for position, reg in enumerate(cb.final.live_out):
            positions.setdefault(reg, []).append(position)
        out_slots = {
            inst.mem.offset
            for inst in cb.final.instructions
            if inst.is_store
            and inst.mem is not None
            and inst.mem.region == SPILL_OUT_REGION
        }
        for reg, occupied in positions.items():
            if not isinstance(reg, VirtualReg) or len(occupied) < 2:
                continue
            duplicate_seen = True
            for position in occupied:
                assert position in out_slots, (
                    f"duplicated spilled live-out lacks a store into "
                    f"out slot {position}"
                )
        assert check_allocation(cb.source, cb.final, AliasModel.FORTRAN) == []
        assert_equivalent(cb.source, cb.final, AliasModel.FORTRAN)
        assert check_compiled(cb, AliasModel.FORTRAN) == []
    assert duplicate_seen, "regression requires a spilled duplicated live-out"


def test_duplicated_liveout_full_differential_check():
    """The exact check the fuzzer runs must be clean end to end."""
    assert check_source(DUPLICATED_LIVEOUT_POSITIONS, seed=424242, runs=3) == []
