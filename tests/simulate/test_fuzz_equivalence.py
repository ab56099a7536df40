"""Scalar-vs-batch equivalence driven by the fuzz generator and by
pinned degenerate fixtures.

``tests/simulate/test_batch_equivalence.py`` already covers random IR
blocks; this file ports the same exactness contract onto the *minif*
path the fuzzer exercises -- real pipeline output (scheduling, spills,
second pass) rather than generator-shaped IR -- and pins the
degenerate block shapes a suite-derived corpus never produces: empty
blocks, single-instruction blocks, all-load chains, maximum-width
anti-dependence fans into one cell, and kernels whose load runs
overflow the LEN/MAX windows.
"""

import glob
import os

import pytest

from repro.core.balanced import BalancedScheduler
from repro.core.pipeline import compile_program
from repro.frontend.lowering import compile_minif
from repro.frontend.printer import format_program_ast
from repro.machine.processor import (
    BLOCKING,
    LEN_8,
    MAX_8,
    ProcessorModel,
    delay_tracking,
    superscalar,
)
from repro.simulate.batch import simulate_block_batch
from repro.simulate.simulator import simulate_block
from repro.simulate.rng import spawn
from repro.verify.fuzz import (
    FUZZ_MEMORIES,
    FUZZ_PROCESSORS,
    Mismatch,
    check_source,
    random_ast,
    write_artifact,
)
from repro.verify.shrink import shrink_source

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURES = sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.mf")))

RUNS = 5


def _fixture_source(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _assert_scalar_batch_agree(block, processor, memory, key):
    n_loads = len(block.loads)
    rng = spawn("fuzz-equivalence", *key)
    latencies = memory.sample_many(rng, n_loads * RUNS).reshape(RUNS, n_loads)
    batch = simulate_block_batch(block.instructions, latencies, processor)
    for run in range(RUNS):
        scalar = simulate_block(
            block.instructions, [int(x) for x in latencies[run]], processor
        )
        assert scalar.cycles == int(batch.cycles[run]), (
            f"{key}: run {run} cycles {scalar.cycles} != "
            f"{int(batch.cycles[run])} on {processor.name}/{memory.name}"
        )
        assert scalar.interlock_cycles == int(batch.interlocks[run]), (
            f"{key}: run {run} interlocks diverge on "
            f"{processor.name}/{memory.name}"
        )


@pytest.mark.parametrize(
    "path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES]
)
def test_fixture_inventory_and_full_differential_check(path):
    """Every pinned fixture passes the fuzzer's whole check (legality
    oracle on six compilations + scalar/batch agreement)."""
    assert len(FIXTURES) >= 5, "degenerate fixture set went missing"
    assert check_source(_fixture_source(path), seed=11, runs=2) == []


@pytest.mark.parametrize("processor", FUZZ_PROCESSORS, ids=lambda p: p.name)
@pytest.mark.parametrize(
    "path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES]
)
def test_fixture_scalar_batch_exact(path, processor):
    """Direct per-run comparison on every (fixture, processor) pair,
    independent of check_source's memory rotation."""
    program = compile_minif(_fixture_source(path))
    compiled = compile_program(program, BalancedScheduler())
    for index, block in enumerate(compiled.final_blocks):
        memory = FUZZ_MEMORIES[index % len(FUZZ_MEMORIES)]
        _assert_scalar_batch_agree(
            block, processor, memory,
            key=(os.path.basename(path), block.name, processor.name),
        )


def test_empty_block_simulates_to_zero():
    program = compile_minif(_fixture_source(
        os.path.join(FIXTURE_DIR, "empty.mf")
    ))
    compiled = compile_program(program, BalancedScheduler())
    for block in compiled.final_blocks:
        for processor in FUZZ_PROCESSORS:
            _assert_scalar_batch_agree(
                block, processor, FUZZ_MEMORIES[0],
                key=("empty", block.name, processor.name),
            )


# ----------------------------------------------------------------------
# Superscalar: fuzz-generated programs, widths 2/4/8 crossed with every
# memory family; failures are shrunk and written as replayable
# artifacts under results/fuzz/ like any other fuzz finding.
# ----------------------------------------------------------------------
SUPERSCALAR_WIDTHS = (2, 4, 8)

#: Artifact seed namespace for this test file (disjoint from CLI fuzz
#: runs, so a written artifact is attributable at a glance).
_ARTIFACT_SEED = 930601


def _superscalar_processors(width):
    """Every non-blocking memory-constraint family at one issue width
    (blocking loads exist at width 1 only)."""
    return (
        superscalar(width),
        superscalar(width, MAX_8),
        superscalar(width, LEN_8),
        ProcessorModel(
            f"MAX-2x{width}", max_outstanding_loads=2, issue_width=width
        ),
        ProcessorModel(
            f"LEN-3x{width}", max_load_cycles=3, issue_width=width
        ),
    )


def _superscalar_mismatches(source, width, seed):
    """Scalar-vs-batch divergences on every (block, processor, memory)
    triple: the fuzz harness's cycles check, restricted to superscalar
    models but crossing *all* memory families instead of rotating."""
    program = compile_minif(source)
    compiled = compile_program(program, BalancedScheduler())
    mismatches = []
    for block in compiled.final_blocks:
        n_loads = len(block.loads)
        for processor in _superscalar_processors(width):
            for memory in FUZZ_MEMORIES:
                rng = spawn(
                    "fuzz-ss", seed, block.name, processor.name, memory.name
                )
                latencies = memory.sample_many(rng, n_loads * RUNS).reshape(
                    RUNS, n_loads
                )
                batch = simulate_block_batch(
                    block.instructions, latencies, processor
                )
                for run in range(RUNS):
                    scalar = simulate_block(
                        block.instructions,
                        [int(x) for x in latencies[run]],
                        processor,
                    )
                    if (
                        scalar.cycles != int(batch.cycles[run])
                        or scalar.interlock_cycles != int(batch.interlocks[run])
                    ):
                        mismatches.append(Mismatch(
                            "cycles",
                            f"superscalar scalar/batch divergence: block "
                            f"{block.name}, {processor.name}, "
                            f"{memory.name}, run {run}",
                            expected=(
                                f"cycles={scalar.cycles} "
                                f"interlocks={scalar.interlock_cycles}"
                            ),
                            actual=(
                                f"cycles={int(batch.cycles[run])} "
                                f"interlocks={int(batch.interlocks[run])}"
                            ),
                        ))
    return mismatches


@pytest.mark.parametrize("width", SUPERSCALAR_WIDTHS)
@pytest.mark.parametrize("seed", range(4))
def test_fuzz_superscalar_widths_across_memory_families(width, seed):
    """Seeded fuzz programs through the real pipeline, then scalar vs.
    batch on superscalar models at this width crossed with all four
    memory families; a failure is shrunk and persisted as a replayable
    ``results/fuzz/`` artifact before the test fails."""
    ast = random_ast(
        spawn("fuzz-superscalar-gen", width, seed), max_statements=4
    )
    source = format_program_ast(ast)
    mismatches = _superscalar_mismatches(source, width, seed)
    if mismatches:
        shrunk = shrink_source(
            source,
            lambda text: bool(_superscalar_mismatches(text, width, seed)),
        )
        path = write_artifact(
            os.path.join("results", "fuzz"),
            _ARTIFACT_SEED,
            width * 100 + seed,
            source,
            shrunk,
            mismatches,
            RUNS,
        )
        pytest.fail(
            f"superscalar scalar/batch divergence (width {width}, seed "
            f"{seed}); shrunk artifact written to {path}:\n"
            + "\n".join(str(m) for m in mismatches[:5])
        )


# ----------------------------------------------------------------------
# Delay-tracking: fuzz-generated programs, table sizes crossed with
# issue widths 1/2/4 and every memory-constraint family; failures are
# shrunk and written as replayable artifacts like any other finding.
# ----------------------------------------------------------------------
DELAYTRACK_WIDTHS = (1, 2, 4)


def _delaytrack_processors(width):
    """Tight and saturating tracking tables over every memory-constraint
    family at one issue width (BLOCKING at width 1 only, where a
    blocking machine must be unchanged by tracking)."""
    base_width = superscalar(width) if width > 1 else None
    processors = []
    for table in (1, 8):
        processors.extend((
            delay_tracking(table, base_width) if base_width is not None
            else delay_tracking(table),
            delay_tracking(table, ProcessorModel(
                f"MAX-2x{width}" if width > 1 else "MAX-2",
                max_outstanding_loads=2, issue_width=width,
            )),
            delay_tracking(table, ProcessorModel(
                f"LEN-3x{width}" if width > 1 else "LEN-3",
                max_load_cycles=3, issue_width=width,
            )),
        ))
        if width == 1:
            processors.append(delay_tracking(table, BLOCKING))
    return tuple(processors)


def _delaytrack_mismatches(source, width, seed):
    """Scalar-vs-batch divergences on every (block, processor, memory)
    triple for the delay-tracking crosses at one issue width."""
    program = compile_minif(source)
    compiled = compile_program(program, BalancedScheduler())
    mismatches = []
    for block in compiled.final_blocks:
        n_loads = len(block.loads)
        for processor in _delaytrack_processors(width):
            for memory in FUZZ_MEMORIES:
                rng = spawn(
                    "fuzz-dt", seed, block.name, processor.name, memory.name
                )
                latencies = memory.sample_many(rng, n_loads * RUNS).reshape(
                    RUNS, n_loads
                )
                batch = simulate_block_batch(
                    block.instructions, latencies, processor
                )
                for run in range(RUNS):
                    scalar = simulate_block(
                        block.instructions,
                        [int(x) for x in latencies[run]],
                        processor,
                    )
                    if (
                        scalar.cycles != int(batch.cycles[run])
                        or scalar.interlock_cycles != int(batch.interlocks[run])
                    ):
                        mismatches.append(Mismatch(
                            "cycles",
                            f"delaytrack scalar/batch divergence: block "
                            f"{block.name}, {processor.name}, "
                            f"{memory.name}, run {run}",
                            expected=(
                                f"cycles={scalar.cycles} "
                                f"interlocks={scalar.interlock_cycles}"
                            ),
                            actual=(
                                f"cycles={int(batch.cycles[run])} "
                                f"interlocks={int(batch.interlocks[run])}"
                            ),
                        ))
    return mismatches


@pytest.mark.parametrize("width", DELAYTRACK_WIDTHS)
@pytest.mark.parametrize("seed", range(3))
def test_fuzz_delaytrack_tables_across_memory_families(width, seed):
    """Seeded fuzz programs through the real pipeline, then scalar vs.
    batch on delay-tracking models (tables 1 and 8, all four
    memory-constraint families) at this width crossed with all five
    fuzz memory systems; a failure is shrunk and persisted as a
    replayable ``results/fuzz/`` artifact before the test fails."""
    ast = random_ast(
        spawn("fuzz-delaytrack-gen", width, seed), max_statements=4
    )
    source = format_program_ast(ast)
    mismatches = _delaytrack_mismatches(source, width, seed)
    if mismatches:
        shrunk = shrink_source(
            source,
            lambda text: bool(_delaytrack_mismatches(text, width, seed)),
        )
        path = write_artifact(
            os.path.join("results", "fuzz"),
            _ARTIFACT_SEED,
            1000 + width * 100 + seed,
            source,
            shrunk,
            mismatches,
            RUNS,
        )
        pytest.fail(
            f"delaytrack scalar/batch divergence (width {width}, seed "
            f"{seed}); shrunk artifact written to {path}:\n"
            + "\n".join(str(m) for m in mismatches[:5])
        )


# ----------------------------------------------------------------------
# The exact-backend cross: fuzz-generated programs through the optimal
# scheduler's legality + cost-chain checks, failures shrunk and written
# to results/fuzz/ like any other fuzz finding.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_fuzz_optimal_cross_legality_and_cost_chain(seed):
    """Seeded fuzz programs against the branch-and-bound backend: the
    two-pass pipeline under the optimal policy must be oracle-clean in
    both alias models, and on every block the cost chain
    ``lower_bound <= optimal <= balanced <= worst list schedule`` must
    hold under both memory models.  A failure is shrunk and persisted
    as a replayable ``results/fuzz/`` artifact before the test fails."""
    from repro.verify.fuzz import _check_optimal_cross

    def optimal_mismatches(text):
        return _check_optimal_cross(compile_minif(text))

    ast = random_ast(spawn("fuzz-optimal-gen", seed), max_statements=4)
    source = format_program_ast(ast)
    mismatches = optimal_mismatches(source)
    if mismatches:
        shrunk = shrink_source(
            source, lambda text: bool(optimal_mismatches(text))
        )
        path = write_artifact(
            os.path.join("results", "fuzz"),
            _ARTIFACT_SEED,
            900 + seed,
            source,
            shrunk,
            mismatches,
            RUNS,
        )
        pytest.fail(
            f"optimal-policy cross failed (seed {seed}); shrunk artifact "
            f"written to {path}:\n"
            + "\n".join(str(m) for m in mismatches[:5])
        )


@pytest.mark.parametrize("seed", range(10))
def test_generated_programs_scalar_batch_exact(seed):
    """The fuzz generator's own output, checked directly (a fast,
    deterministic slice of what `balanced-sched fuzz` sweeps)."""
    ast = random_ast(spawn("fuzz-equivalence-gen", seed), max_statements=4)
    program = compile_minif(format_program_ast(ast))
    compiled = compile_program(program, BalancedScheduler())
    for index, block in enumerate(compiled.final_blocks):
        processor = FUZZ_PROCESSORS[index % len(FUZZ_PROCESSORS)]
        memory = FUZZ_MEMORIES[(seed + index) % len(FUZZ_MEMORIES)]
        _assert_scalar_batch_agree(
            block, processor, memory,
            key=("gen", seed, block.name, processor.name),
        )
