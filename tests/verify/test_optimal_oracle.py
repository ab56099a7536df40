"""The legality oracle against the exact-scheduler code path.

Until this backend existed, every schedule the oracle ever checked
came from the shared list scheduler -- a single code path, so a bug
common to scheduler and oracle could hide.  The branch-and-bound
search constructs orders by a completely different mechanism; these
tests drive the full two-pass pipeline (schedule, allocate with
spilling, re-schedule) through it and require oracle-clean artefacts,
including machine admissibility with per-slot occupancy and the
regalloc soundness check, on both the certified and the
budget-expired best-effort paths.  A tampering test pins that the
oracle still has teeth on this path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.alias import AliasModel
from repro.core import OptimalScheduler, compile_block, compile_program
from repro.core.optimal import OptimalScheduleResult
from repro.machine.processor import UNLIMITED
from repro.regalloc.target import TIGHT_REGISTER_FILE
from repro.verify.oracle import (
    LegalityError,
    assert_legal,
    check_compiled,
    check_machine,
    check_schedule,
)
from repro.workloads.perfect import load_program
from tests.support.generator import random_block

MODELS = (2, 5)


class TestPipelineLegality:
    @pytest.mark.parametrize("alias_model", [
        AliasModel.FORTRAN, AliasModel.C_CONSERVATIVE,
    ])
    @pytest.mark.parametrize("latency", MODELS)
    def test_suite_program_compiles_oracle_clean(self, alias_model, latency):
        program = load_program("MDG")
        compiled = compile_program(
            program,
            OptimalScheduler(latency),
            alias_model=alias_model,
        )
        for artefact in compiled.blocks:
            assert check_compiled(
                artefact, alias_model, processors=(UNLIMITED,)
            ) == []

    def test_spill_heavy_compile_is_regalloc_sound(self):
        """A tight register file forces spill code; both passes and the
        allocation itself must survive the oracle."""
        program = load_program("QCD2")
        compiled = compile_program(
            program,
            OptimalScheduler(5),
            register_file=TIGHT_REGISTER_FILE,
        )
        spilled = 0
        for artefact in compiled.blocks:
            assert_legal(artefact, processors=(UNLIMITED,))
            if artefact.allocation is not None:
                spilled += artefact.allocation.spill_instruction_count
        assert spilled > 0, "expected spill traffic under TIGHT registers"

    def test_second_pass_result_is_the_exact_backend(self):
        program = load_program("TRACK")
        compiled = compile_program(program, OptimalScheduler(5))
        for artefact in compiled.blocks:
            assert isinstance(artefact.pass1, OptimalScheduleResult)
            if artefact.pass2 is not None:
                assert isinstance(artefact.pass2, OptimalScheduleResult)
                assert artefact.pass2.certified


class TestBestEffortPath:
    def test_budget_expired_compile_stays_legal(self):
        """node_budget=1 aborts every non-trivial search immediately;
        the emitted best-effort schedules are the (legal) seeds and
        must pass every oracle check all the same."""
        program = load_program("BDNA")
        policy = OptimalScheduler(5, node_budget=1)
        compiled = compile_program(program, policy)
        best_effort = 0
        for artefact in compiled.blocks:
            assert_legal(artefact, processors=(UNLIMITED,))
            if not artefact.pass1.certified:
                best_effort += 1
                assert artefact.pass1.lower_bound <= artefact.pass1.cost
        assert best_effort > 0, "budget=1 should leave searches open"

    def test_machine_occupancy_from_optimal_slots(self):
        """The result's issue-time slots are single-occupancy on the
        width-1 machine (the search never double-books a cycle)."""
        rng = np.random.default_rng(1404)
        for _ in range(5):
            block = random_block(rng, n_instructions=18)
            artefact = compile_block(block, OptimalScheduler(5))
            final = (
                artefact.pass2 if artefact.pass2 is not None
                else artefact.pass1
            )
            assert check_machine(
                artefact.final,
                UNLIMITED,
                slots=final.slots,
                order=final.order,
            ) == []


class TestOracleTeeth:
    def test_tampered_optimal_schedule_is_rejected(self):
        """Swap two truly-dependent instructions in an optimal schedule
        and the oracle must object -- proving the clean results above
        are a real check, not vacuous."""
        program = load_program("TRACK")
        caught = 0
        for block in program.all_blocks():
            result = OptimalScheduler(5).schedule_block(block)
            assert check_schedule(block, result.block) == []
            instructions = list(result.block.instructions)
            for i in range(len(instructions) - 1):
                swapped = list(instructions)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if check_schedule(block, result.block.replaced(swapped)):
                    caught += 1
                    break
        assert caught > 0

    def test_assert_legal_raises_on_a_forged_artefact(self):
        program = load_program("TRACK")
        block = program.all_blocks()[0]
        artefact = compile_block(block, OptimalScheduler(5))
        forged_final = artefact.final.replaced(
            list(reversed(artefact.final.instructions))
        )

        class Forged:
            source = artefact.source
            pass1 = artefact.pass1
            allocation = artefact.allocation
            pass2 = None
            final = forged_final

        # A reversed block breaks pass-1 permutation/dependence checks
        # only if pass2 is presented as the final; forge pass1 instead.
        forged = Forged()
        forged.pass1 = type(artefact.pass1)(
            order=list(reversed(artefact.pass1.order)),
            block=forged_final,
            noop_span=artefact.pass1.noop_span,
            priorities=artefact.pass1.priorities,
        )
        with pytest.raises(LegalityError):
            assert_legal(forged)
