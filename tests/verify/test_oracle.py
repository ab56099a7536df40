"""Unit and mutation tests for the schedule-legality oracle.

The mutation tests are the oracle's teeth: every corruption a buggy
scheduler or allocator could plausibly emit (swapped dependent pair,
dropped/duplicated/rewritten instruction, clobbered live value,
misplaced terminator) must produce at least one violation, and the
real pipeline's output must produce none.
"""

import dataclasses

import pytest

from repro.analysis.alias import AliasModel
from repro.core.balanced import BalancedScheduler
from repro.core.pipeline import compile_block
from repro.frontend.lowering import compile_minif
from repro.ir.instructions import Instruction, Opcode
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.machine.processor import LEN_8, MAX_8, UNLIMITED, superscalar
from repro.verify.oracle import (
    LegalityError,
    Violation,
    assert_legal,
    check_allocation,
    check_compiled,
    check_machine,
    check_permutation,
    check_schedule,
    constrained_pairs,
    oracle_may_alias,
)

TINY = """
program tiny
  array va[1024], vb[1024]
  scalar s0
  kernel k0 freq 10 unroll 1
    t0 = va[i] + vb[i]
    vb[i] = t0 * va[i+1]
    s0 = s0 + t0
  end
end
"""


def _tiny_block():
    program = compile_minif(TINY)
    (block,) = [b for f in program for b in f]
    return block


def _compile_tiny(**kwargs):
    return compile_block(_tiny_block(), BalancedScheduler(), **kwargs)


# ----------------------------------------------------------------------
# Alias rules
# ----------------------------------------------------------------------
def _ref(region="va", base=None, offset=0, coeff=1):
    return MemRef(region=region, base=base, offset=offset, affine_coeff=coeff)


class TestOracleMayAlias:
    def test_same_base_same_coeff_offsets_decide(self):
        base = VirtualReg(0, RegClass.INT)
        assert oracle_may_alias(_ref(base=base), _ref(base=base))
        assert not oracle_may_alias(_ref(base=base), _ref(base=base, offset=1))

    def test_unknown_coeff_is_conservative(self):
        base = VirtualReg(0, RegClass.INT)
        a = _ref(base=base, coeff=None)
        b = _ref(base=base, offset=1, coeff=None)
        assert oracle_may_alias(a, b)

    def test_different_bases_same_region_conservative(self):
        a = _ref(base=VirtualReg(0, RegClass.INT))
        b = _ref(base=VirtualReg(1, RegClass.INT), offset=5)
        assert oracle_may_alias(a, b)

    def test_spill_regions_never_alias_user_memory(self):
        spill = _ref(region="__spill0")
        home = _ref(region="__spill_home")
        user = _ref(region="va")
        for model in ("fortran", "c"):
            assert not oracle_may_alias(spill, user, model)
            assert not oracle_may_alias(home, user, model)

    def test_cross_region_depends_on_model(self):
        a, b = _ref(region="va"), _ref(region="vb")
        assert not oracle_may_alias(a, b, "fortran")
        assert oracle_may_alias(a, b, "c")
        assert not oracle_may_alias(a, b, AliasModel.FORTRAN)
        assert oracle_may_alias(a, b, AliasModel.C_CONSERVATIVE)


# ----------------------------------------------------------------------
# Completeness (permutation) mutations
# ----------------------------------------------------------------------
class TestPermutation:
    def test_real_schedule_is_a_permutation(self):
        compiled = _compile_tiny(register_file=None)
        assert check_permutation(compiled.source, compiled.pass1.block) == []

    def test_dropped_instruction_detected(self):
        compiled = _compile_tiny(register_file=None)
        scheduled = compiled.pass1.block
        corrupted = scheduled.replaced(scheduled.instructions[:-1])
        violations = check_permutation(compiled.source, corrupted)
        assert any("dropped" in v.detail for v in violations)

    def test_duplicated_instruction_detected(self):
        compiled = _compile_tiny(register_file=None)
        scheduled = compiled.pass1.block
        corrupted = scheduled.replaced(
            scheduled.instructions + [scheduled.instructions[0]]
        )
        violations = check_permutation(compiled.source, corrupted)
        assert any("duplicated" in v.detail for v in violations)

    def test_invented_instruction_detected(self):
        compiled = _compile_tiny(register_file=None)
        scheduled = compiled.pass1.block
        invented = Instruction(
            Opcode.FADD,
            defs=(VirtualReg(999, RegClass.FP),),
            uses=(VirtualReg(999, RegClass.FP), VirtualReg(999, RegClass.FP)),
        )
        corrupted = scheduled.replaced(scheduled.instructions + [invented])
        violations = check_permutation(compiled.source, corrupted)
        assert any("invented" in v.detail for v in violations)

    def test_inplace_rewrite_detected(self):
        compiled = _compile_tiny(register_file=None)
        scheduled = compiled.pass1.block
        instructions = list(scheduled.instructions)
        victim = instructions[0]
        # Same ident, different latency: a silent in-place edit.
        instructions[0] = dataclasses.replace(victim, latency=victim.latency + 7)
        violations = check_permutation(
            compiled.source, scheduled.replaced(instructions)
        )
        assert any("rewritten" in v.detail for v in violations)


# ----------------------------------------------------------------------
# Dependence-preservation mutations
# ----------------------------------------------------------------------
class TestSchedule:
    def test_real_schedule_is_legal(self):
        compiled = _compile_tiny(register_file=None)
        assert check_schedule(compiled.source, compiled.pass1.block) == []

    def test_swapped_dependent_pair_detected(self):
        compiled = _compile_tiny(register_file=None)
        source = compiled.source
        scheduled = compiled.pass1.block
        pairs = constrained_pairs(source.instructions)
        assert pairs, "tiny program must have at least one dependence"
        i, j = pairs[0]
        position = {inst.ident: k for k, inst in enumerate(scheduled.instructions)}
        pi = position[source.instructions[i].ident]
        pj = position[source.instructions[j].ident]
        instructions = list(scheduled.instructions)
        instructions[pi], instructions[pj] = instructions[pj], instructions[pi]
        violations = check_schedule(source, scheduled.replaced(instructions))
        assert any(v.rule == "dependence" for v in violations)

    def test_fully_reversed_schedule_detected(self):
        compiled = _compile_tiny(register_file=None)
        reversed_block = compiled.pass1.block.replaced(
            list(reversed(compiled.pass1.block.instructions))
        )
        violations = check_schedule(compiled.source, reversed_block)
        assert any(v.rule == "dependence" for v in violations)


# ----------------------------------------------------------------------
# Register-allocation mutations
# ----------------------------------------------------------------------
class TestAllocation:
    def test_real_allocation_is_sound(self):
        compiled = _compile_tiny()
        assert check_allocation(compiled.source, compiled.final) == []

    def test_clobbered_store_value_detected(self):
        """Rerouting the register a store reads changes an observable."""
        compiled = _compile_tiny()
        final = compiled.final
        instructions = list(final.instructions)
        store_pos = next(
            k for k, inst in enumerate(instructions)
            if inst.is_store and not inst.mem.region.startswith("__spill")
        )
        store = instructions[store_pos]
        replacement = next(
            reg
            for inst in instructions[:store_pos]
            for reg in inst.defs
            if reg.rclass == store.uses[0].rclass and reg != store.uses[0]
        )
        instructions[store_pos] = dataclasses.replace(
            store, uses=(replacement,) + store.uses[1:]
        )
        violations = check_allocation(
            compiled.source, final.replaced(instructions)
        )
        assert any(v.rule == "regalloc" for v in violations)

    def test_undefined_register_read_detected(self):
        compiled = _compile_tiny()
        final = compiled.final
        instructions = list(final.instructions)
        store_pos = next(
            k for k, inst in enumerate(instructions) if inst.is_store
        )
        store = instructions[store_pos]
        ghost = VirtualReg(4321, store.uses[0].rclass)
        instructions[store_pos] = dataclasses.replace(store, uses=(ghost,))
        violations = check_allocation(
            compiled.source, final.replaced(instructions)
        )
        assert any("neither live-in nor previously assigned" in v.detail
                   for v in violations)

    def test_dropped_store_detected(self):
        compiled = _compile_tiny()
        final = compiled.final
        instructions = [
            inst for inst in final.instructions
            if not (inst.is_store and not inst.mem.region.startswith("__spill"))
        ]
        violations = check_allocation(
            compiled.source, final.replaced(instructions)
        )
        assert any("store effects differ" in v.detail for v in violations)


# ----------------------------------------------------------------------
# Machine admissibility
# ----------------------------------------------------------------------
class TestMachine:
    @pytest.mark.parametrize(
        "processor",
        [UNLIMITED, MAX_8, LEN_8, superscalar(2)],
        ids=lambda p: p.name,
    )
    def test_real_output_is_admissible(self, processor):
        compiled = _compile_tiny()
        assert check_machine(compiled.final, processor) == []

    def test_leftover_nop_detected(self):
        compiled = _compile_tiny()
        final = compiled.final
        corrupted = final.replaced(
            list(final.instructions) + [Instruction(Opcode.NOP)]
        )
        violations = check_machine(corrupted, UNLIMITED)
        assert any("no-op" in v.detail for v in violations)

    def test_negative_latency_detected(self):
        compiled = _compile_tiny()
        final = compiled.final
        instructions = list(final.instructions)
        instructions[0] = dataclasses.replace(instructions[0], latency=-1)
        violations = check_machine(final.replaced(instructions), UNLIMITED)
        assert any("negative" in v.detail for v in violations)

    def test_oversubscribed_slot_detected(self):
        compiled = _compile_tiny()
        slots = {k: 0 for k in range(3)}  # three instructions, one slot
        violations = check_machine(
            compiled.final, UNLIMITED, slots=slots, order=[0, 1, 2]
        )
        assert any("issue slot" in v.detail for v in violations)


# ----------------------------------------------------------------------
# Whole-artefact entry points
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_check_compiled_clean_on_real_pipeline(self):
        compiled = _compile_tiny()
        assert check_compiled(
            compiled, AliasModel.FORTRAN, processors=(UNLIMITED, MAX_8, LEN_8)
        ) == []

    def test_assert_legal_raises_with_context(self):
        compiled = _compile_tiny(register_file=None)
        corrupted = dataclasses.replace(
            compiled,
            pass1=dataclasses.replace(
                compiled.pass1,
                block=compiled.pass1.block.replaced(
                    compiled.pass1.block.instructions[:-1]
                ),
            ),
        )
        with pytest.raises(LegalityError, match="legality violation"):
            assert_legal(corrupted, context="unit test")

    def test_violation_renders_rule_and_positions(self):
        violation = Violation("machine", "broken thing", where=(3, 5))
        assert "[machine]" in str(violation)
        assert "[3, 5]" in str(violation)
