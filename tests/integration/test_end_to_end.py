"""End-to-end integration tests: source text -> schedules -> simulation.

These exercise the full stack the way the examples and benchmarks do,
and pin down the cross-cutting invariants the paper's evaluation rests
on.
"""

import pytest

from repro import (
    AliasModel,
    BalancedScheduler,
    TraditionalScheduler,
    compile_program,
    simulate_program,
    spawn,
)
from repro.frontend import compile_minif
from repro.machine import (
    CacheMemory,
    FixedMemory,
    LEN_8,
    MAX_8,
    NetworkMemory,
    UNLIMITED,
)
from repro.simulate import compare_runs
from repro.workloads import load_program, load_suite
from tests.support.verifier import verify_block

SOURCE = """
program demo
  array a[1024], b[1024], c[1024], idx[1024]
  kernel stream freq 60 unroll 2
    t1 = a[i] * b[i]
    c[i] = t1 + a[i+1]
  end
  kernel gather freq 40 unroll 2
    s = s + b[idx[i]] / a[i]
  end
end
"""


@pytest.fixture(scope="module")
def demo_program():
    return compile_minif(SOURCE)


class TestFullPipeline:
    def test_source_to_simulation(self, demo_program):
        balanced = compile_program(demo_program, BalancedScheduler())
        runs = simulate_program(
            balanced.final_blocks,
            UNLIMITED,
            CacheMemory(0.8, 2, 10),
            spawn("e2e", "smoke"),
            runs=5,
        )
        assert runs.mean_runtime() > 0
        assert 0 <= runs.interlock_percentage() < 100

    def test_all_final_blocks_verify(self, demo_program):
        for policy in (BalancedScheduler(), TraditionalScheduler(2)):
            compiled = compile_program(demo_program, policy)
            for block in compiled.final_blocks:
                verify_block(block, strict_defs=False)

    def test_balanced_wins_under_uncertainty(self, demo_program):
        """The headline result on a fresh program (not the tuned suite)."""
        trad = compile_program(demo_program, TraditionalScheduler(2))
        bal = compile_program(demo_program, BalancedScheduler())
        memory = NetworkMemory(2, 5)
        trad_runs = simulate_program(
            trad.final_blocks, UNLIMITED, memory, spawn("e2e", "t"), runs=30
        )
        bal_runs = simulate_program(
            bal.final_blocks, UNLIMITED, memory, spawn("e2e", "b"), runs=30
        )
        result = compare_runs(trad_runs, bal_runs, spawn("e2e", "boot"))
        assert result.mean > 0

    def test_deterministic_latency_equal_instruction_counts(self, demo_program):
        """With FixedMemory(1) every load behaves like an ALU op: both
        schedulers' runtimes equal their instruction counts."""
        for policy in (BalancedScheduler(), TraditionalScheduler(1)):
            compiled = compile_program(demo_program, policy)
            runs = simulate_program(
                compiled.final_blocks,
                UNLIMITED,
                FixedMemory(1),
                spawn("e2e", "fixed", policy.name),
                runs=2,
            )
            assert runs.weighted_cycles()[0] == pytest.approx(
                compiled.dynamic_instructions
            )

    def test_restricted_processors_never_faster(self, demo_program):
        """MAX-8 and LEN-8 only add constraints: with identical
        latency draws their block times are >= UNLIMITED's."""
        from repro.simulate import simulate_block

        compiled = compile_program(demo_program, BalancedScheduler())
        rng = spawn("e2e", "restricted")
        for block in compiled.final_blocks:
            n_loads = sum(1 for i in block if i.is_load)
            latencies = NetworkMemory(30, 5).sample_many(rng, n_loads)
            base = simulate_block(block.instructions, latencies, UNLIMITED)
            for processor in (MAX_8, LEN_8):
                restricted = simulate_block(
                    block.instructions, latencies, processor
                )
                assert restricted.cycles >= base.cycles

    def test_alias_model_affects_schedules(self, demo_program):
        fortran = compile_program(
            demo_program, BalancedScheduler(), alias_model=AliasModel.FORTRAN
        )
        c_model = compile_program(
            demo_program,
            BalancedScheduler(),
            alias_model=AliasModel.C_CONSERVATIVE,
        )
        assert fortran.dynamic_instructions == c_model.dynamic_instructions


class TestSuiteIntegration:
    def test_every_program_compiles_under_both_policies(self):
        for name, program in load_suite().items():
            for policy in (BalancedScheduler(), TraditionalScheduler(2)):
                compiled = compile_program(program, policy)
                assert compiled.dynamic_instructions > 0

    def test_balanced_schedule_independent_of_machine(self):
        """Balanced scheduling is machine-independent: its output is
        identical whatever system it will later run on."""
        program = load_program("ADM")
        first = compile_program(program, BalancedScheduler())
        second = compile_program(program, BalancedScheduler())
        for a, b in zip(first.final_blocks, second.final_blocks):
            assert [str(i) for i in a] == [str(i) for i in b]

    def test_traditional_schedules_change_with_latency(self):
        program = load_program("MDG")
        w2 = compile_program(program, TraditionalScheduler(2))
        w30 = compile_program(program, TraditionalScheduler(30))
        different = any(
            [str(i) for i in a] != [str(i) for i in b]
            for a, b in zip(w2.final_blocks, w30.final_blocks)
        )
        assert different
