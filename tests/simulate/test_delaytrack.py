"""Property tests pinning the delay-tracking issue model.

The broad scalar-vs-batch sweeps live in ``test_fuzz_equivalence.py``;
this file pins the model's *degeneracies* -- the boundary shapes that
make the delay-tracking semantics checkable without a second
implementation:

* table size 0 reproduces the in-order interlocked model exactly
  (cycles *and* interlocks), across every memory family and issue
  width -- checked against the batch kernels' in-order paths, which
  share no code with the scalar engine; the batch simulator runs DT-0
  on those paths and attributes its stalls like the base model's;
* a table at least as large as the block's load count saturates --
  perfect per-load knowledge; growing it further changes nothing --
  and on a crafted block achieves the reordering the in-order machine
  cannot;
* ``blocking_loads`` composes: a blocking machine never stalls on load
  *data* (it stalled at the load itself), so delay tracking can never
  reorder and the BLOCKING baseline is reproduced exactly;
* empty / all-NOP / zero-run edges and malformed-input parity with the
  existing kernels, asserted before any fast path;
* a blocking multi-issue machine is rejected wherever one can be
  built or named, rather than simulated as a non-blocking one;
* conflict successors built once by a caller (one list per block,
  shared by its table replays) time exactly like the engine's own,
  and a list of the wrong length is rejected.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.ir.instructions import Opcode, alu, load, nop
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.machine.config import parse_processor
from repro.machine.processor import (
    BLOCKING,
    DT_8,
    LEN_8,
    MAX_8,
    ProcessorModel,
    UNLIMITED,
    delay_tracking,
    model_family,
    superscalar,
)
from repro.obs import recorder as obs
from repro.simulate.simulator import (
    LatencyOverrunError,
    conflict_successors,
    delaytrack_issue_trace,
    simulate_block,
)
from repro.simulate.batch import attribution_skip_reason, simulate_block_batch
from repro.simulate.trace import check_traceable
from repro.simulate.rng import spawn
from repro.verify.fuzz import (
    FUZZ_PROCESSORS,
    attribution_entries,
    delaytrack_bases,
)
from tests.support.generator import random_block

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)

RUNS = 6

BASES = [
    UNLIMITED,
    MAX_8,
    LEN_8,
    ProcessorModel("MAX-2", max_outstanding_loads=2),
    ProcessorModel("LEN-3", max_load_cycles=3),
    ProcessorModel("LEN-3+MAX-2", max_load_cycles=3, max_outstanding_loads=2),
    BLOCKING,
]


def _reg(k):
    return VirtualReg(k, RegClass.FP)


def _block(seed, lo=4, hi=40):
    rng = spawn("delaytrack-prop", seed)
    return random_block(rng, n_instructions=int(rng.integers(lo, hi)))


def _latencies(block, seed, runs=RUNS, high=12):
    n_loads = sum(1 for i in block.instructions if i.is_load)
    rng = spawn("delaytrack-lat", seed)
    return rng.integers(0, high, size=(runs, n_loads)).astype(np.int64)


def _scalar_rows(instructions, latencies, processor):
    return [
        simulate_block(instructions, [int(x) for x in row], processor)
        for row in latencies
    ]


def _assert_matches_batch(instructions, latencies, processor, base):
    """The scalar engine on ``processor`` against the batch kernel on
    ``base``, run by run."""
    batch = simulate_block_batch(instructions, latencies, base)
    for run, scalar in enumerate(
        _scalar_rows(instructions, latencies, processor)
    ):
        assert scalar.cycles == int(batch.cycles[run])
        assert scalar.interlock_cycles == int(batch.interlocks[run])
        assert scalar.instructions == batch.instructions


def _assert_matches_scalar(instructions, latencies, processor):
    batch = simulate_block_batch(instructions, latencies, processor)
    for run, scalar in enumerate(
        _scalar_rows(instructions, latencies, processor)
    ):
        assert int(batch.cycles[run]) == scalar.cycles
        assert int(batch.interlocks[run]) == scalar.interlock_cycles
        assert batch.instructions == scalar.instructions
    return batch


# ----------------------------------------------------------------------
# Table size 0 degrades to the in-order interlocked model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("base", BASES, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", range(4))
def test_table_zero_is_the_base_model(base, seed):
    """With no tracking entries no load ever publishes its delay, so no
    instruction is ever parked: cycles *and* interlocks must equal the
    base in-order model on every run."""
    block = _block(seed)
    latencies = _latencies(block, seed)
    _assert_matches_batch(
        block.instructions, latencies, delay_tracking(0, base), base
    )


@pytest.mark.parametrize("width", (2, 4))
@pytest.mark.parametrize("seed", range(3))
def test_table_zero_matches_superscalar(width, seed):
    block = _block(seed)
    latencies = _latencies(block, seed)
    for base in (superscalar(width), superscalar(width, MAX_8)):
        _assert_matches_batch(
            block.instructions, latencies, delay_tracking(0, base), base
        )


# ----------------------------------------------------------------------
# Table size >= loads saturates: perfect per-load knowledge
# ----------------------------------------------------------------------
@pytest.mark.parametrize("base", BASES, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", range(4))
def test_table_saturates_at_load_count(base, seed):
    """A table with one entry per load already tracks everything in
    flight; any larger table -- including an effectively infinite one --
    must behave identically."""
    block = _block(seed)
    n_loads = sum(1 for i in block.instructions if i.is_load)
    latencies = _latencies(block, seed)
    saturated = delay_tracking(max(n_loads, 1), base)
    for bigger in (n_loads + 7, 10**9):
        huge = delay_tracking(bigger, base)
        for row in latencies:
            row_list = [int(x) for x in row]
            got = simulate_block(block.instructions, row_list, huge)
            want = simulate_block(block.instructions, row_list, saturated)
            assert got.cycles == want.cycles
            assert got.interlock_cycles == want.interlock_cycles


def test_infinite_table_reorders_around_a_known_delay():
    """The crafted shape delay tracking exists for: the head consumer
    stalls on a tracked 10-cycle load, so the adaptive machine parks it
    and runs the younger independent chain inside the stall.  The
    in-order machine pays the full serialization."""
    block = [
        load(_reg(0), A),                            # 10 cycles
        alu(Opcode.FADD, _reg(1), (_reg(0), _reg(0))),
        load(_reg(2), A.displaced(1)),               # 2 cycles
        alu(Opcode.FADD, _reg(3), (_reg(2), _reg(2))),
    ]
    latencies = [10, 2]
    base = simulate_block(block, latencies, UNLIMITED)
    adaptive = simulate_block(block, latencies, delay_tracking(10**9))
    # In order: load@0, fadd@10, load@11, fadd@13 -> 14 cycles.
    assert base.cycles == 14
    # Adaptive: load@0 (parks the fadd, ready 10), load@1, fadd@3,
    # parked fadd@10 -> 11 cycles.
    assert adaptive.cycles == 11
    assert adaptive.instructions == base.instructions == 4
    # Single-issue accounting still holds: runtime = issues + stalls.
    assert adaptive.cycles == 4 + adaptive.interlock_cycles


def test_tracking_table_capacity_gates_the_reordering():
    """Two stalled consumers, one table entry: only the load that won
    the entry lets its consumer park.  The second consumer stalls
    in-order exactly like the base machine."""
    block = [
        load(_reg(0), A),                            # tracked, 12 cycles
        load(_reg(1), A.displaced(1)),               # untracked, 12 cycles
        alu(Opcode.FADD, _reg(2), (_reg(1),)),       # stalls on untracked
        alu(Opcode.FADD, _reg(3), (_reg(0),)),       # would park if reached
        alu(Opcode.FADD, _reg(4), ()),               # independent filler
    ]
    latencies = [12, 12]
    one_entry = simulate_block(block, latencies, delay_tracking(1))
    base = simulate_block(block, latencies, UNLIMITED)
    # The untracked stall pins fetch at the first consumer: nothing
    # after it can issue early, so table-1 equals the in-order machine
    # on this block...
    assert one_entry.cycles == base.cycles
    # ...while a two-entry table tracks both loads, parks both
    # consumers and pulls the filler into the stall.
    two_entries = simulate_block(block, latencies, delay_tracking(2))
    assert two_entries.cycles < base.cycles


# ----------------------------------------------------------------------
# Composition with blocking loads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("table", (1, 4, 10**6))
@pytest.mark.parametrize("seed", range(3))
def test_blocking_machine_is_unchanged_by_tracking(table, seed):
    """A blocking machine stalls at the load itself, so data is always
    back before any consumer issues: no stall-on-use ever occurs and
    delay tracking has nothing to reorder -- the BLOCKING baseline is
    reproduced exactly, interlocks included."""
    block = _block(seed)
    latencies = _latencies(block, seed)
    _assert_matches_batch(
        block.instructions, latencies, delay_tracking(table, BLOCKING),
        BLOCKING,
    )


# ----------------------------------------------------------------------
# Empty / all-NOP / zero-run edges (both engines)
# ----------------------------------------------------------------------
DT_EDGE = [delay_tracking(0), DT_8, delay_tracking(4, superscalar(4, MAX_8))]


@pytest.mark.parametrize("processor", DT_EDGE, ids=lambda p: p.name)
def test_empty_block(processor):
    batch = simulate_block_batch(
        [], np.zeros((RUNS, 0), dtype=np.int64), processor
    )
    assert (batch.cycles == 0).all()
    assert (batch.interlocks == 0).all()
    assert batch.instructions == 0
    scalar = simulate_block([], [], processor)
    assert scalar.cycles == 0 and scalar.instructions == 0


@pytest.mark.parametrize("processor", DT_EDGE, ids=lambda p: p.name)
def test_all_nop_block(processor):
    block = [nop(), nop(), nop()]
    batch = simulate_block_batch(
        block, np.zeros((RUNS, 0), dtype=np.int64), processor
    )
    assert (batch.cycles == 0).all()
    assert (batch.interlocks == 0).all()
    assert batch.instructions == 0
    scalar = simulate_block(block, [], processor)
    assert scalar.cycles == 0 and scalar.interlock_cycles == 0


@pytest.mark.parametrize("processor", DT_EDGE, ids=lambda p: p.name)
def test_zero_runs_shapes_and_instruction_count(processor):
    block = [
        load(_reg(0), A),
        nop(),
        alu(Opcode.FADD, _reg(1), (_reg(0),)),
    ]
    batch = simulate_block_batch(
        block, np.zeros((0, 1), dtype=np.int64), processor
    )
    assert batch.cycles.shape == (0,)
    assert batch.interlocks.shape == (0,)
    assert batch.instructions == 2


# ----------------------------------------------------------------------
# Malformed-input parity (before any fast path)
# ----------------------------------------------------------------------
def _two_load_block():
    return [
        load(_reg(0), A),
        load(_reg(1), A.displaced(1)),
        alu(Opcode.FADD, _reg(2), (_reg(0), _reg(1))),
    ]


@pytest.mark.parametrize(
    "processor",
    [DT_8, delay_tracking(0), delay_tracking(2, superscalar(4, LEN_8))],
    ids=lambda p: p.name,
)
class TestMalformedParity:
    def test_underrun_same_type_and_message(self, processor):
        block = _two_load_block()
        with pytest.raises(LatencyOverrunError) as scalar_exc:
            simulate_block(block, [3], processor)
        with pytest.raises(LatencyOverrunError) as batch_exc:
            simulate_block_batch(
                block, np.full((RUNS, 1), 3, dtype=np.int64), processor
            )
        assert str(scalar_exc.value) == str(batch_exc.value)
        assert str(batch_exc.value) == "2 loads but only 1 latencies"

    def test_underrun_fires_before_fast_path_even_with_zero_runs(
        self, processor
    ):
        block = _two_load_block()
        with pytest.raises(LatencyOverrunError):
            simulate_block_batch(
                block, np.zeros((0, 1), dtype=np.int64), processor
            )

    def test_negative_latency_same_type_and_message(self, processor):
        block = _two_load_block()
        batch = np.full((RUNS, 2), 3, dtype=np.int64)
        batch[0, 1] = -4
        with pytest.raises(ValueError) as scalar_exc:
            simulate_block(block, [3, -4], processor)
        with pytest.raises(ValueError) as batch_exc:
            simulate_block_batch(block, batch, processor)
        assert str(scalar_exc.value) == str(batch_exc.value)
        assert str(batch_exc.value) == "negative load latency -4 at load 1"


# ----------------------------------------------------------------------
# Kernel dispatch label and model family
# ----------------------------------------------------------------------
def _kernel_labels(processor):
    """Runs per ``sim.batch_kernel`` label for one batch simulation."""
    latencies = np.full((RUNS, 2), 3, dtype=np.int64)
    with obs.recording() as rec:
        simulate_block_batch(_two_load_block(), latencies, processor)
    return {
        dict(labels).get("kernel"): value
        for (name, labels), value in rec.metrics.counters.items()
        if name == "sim.batch_kernel"
    }


def test_batch_dispatch_is_labelled_delaytrack():
    assert _kernel_labels(DT_8) == {"delaytrack": RUNS}


def test_table_zero_runs_on_the_in_order_kernels():
    """A table with no entries never parks, so the batch simulator
    times it with the in-order kernel of its issue width."""
    assert _kernel_labels(delay_tracking(0)) == {"single-issue": RUNS}
    assert _kernel_labels(delay_tracking(0, superscalar(2))) == {
        "superscalar": RUNS
    }


def test_attribution_skip_reason_treats_table_zero_as_in_order():
    """The same truthiness test as ``check_traceable``: DT-0 is the
    in-order machine of its base, so only the base can exclude it."""
    assert attribution_skip_reason(delay_tracking(0)) is None
    assert attribution_skip_reason(delay_tracking(0, MAX_8)) is None
    assert attribution_skip_reason(delay_tracking(0, BLOCKING)) == (
        "blocking-loads"
    )
    assert attribution_skip_reason(delay_tracking(0, superscalar(2))) == (
        "multi-issue"
    )
    assert attribution_skip_reason(DT_8) == "delay-tracking"
    check_traceable(delay_tracking(0))


@pytest.mark.parametrize(
    "base", [UNLIMITED, MAX_8, LEN_8], ids=lambda p: p.name
)
@pytest.mark.parametrize("seed", range(4))
def test_table_zero_attribution_is_the_base_models(base, seed):
    """DT-0 stall attribution equals the base model's, step for step,
    and the kernel's agrees with ``trace_block``'s on DT-0 itself."""
    block = _block(seed)
    latencies = _latencies(block, seed)
    processor = delay_tracking(0, base)
    got = simulate_block_batch(
        block.instructions, latencies, processor, attribute=True
    )
    want = simulate_block_batch(
        block.instructions, latencies, base, attribute=True
    )
    np.testing.assert_array_equal(got.stalls, want.stalls)
    np.testing.assert_array_equal(got.causes, want.causes)
    kernel, scalar = attribution_entries(
        block.instructions, latencies, processor
    )
    assert kernel == scalar
    assert kernel == attribution_entries(
        block.instructions, latencies, base
    )[0]


def test_model_family_and_parsing():
    assert model_family(DT_8) == "delaytrack"
    assert model_family(delay_tracking(0)) == "delaytrack"
    assert model_family(delay_tracking(2, superscalar(4))) == "delaytrack"
    assert parse_processor("dt8") == DT_8
    assert parse_processor("max8+dt4") == delay_tracking(4, MAX_8)
    parsed = parse_processor("len8x2+dt4")
    assert parsed.max_load_cycles == 8
    assert parsed.issue_width == 2
    assert parsed.load_delay_tracking == 4
    with pytest.raises(ValueError):
        parse_processor("dt-8")
    with pytest.raises(ValueError):
        ProcessorModel("DT-bad", load_delay_tracking=-1)


# ----------------------------------------------------------------------
# blocking_loads at issue_width > 1 is rejected, not simulated
# ----------------------------------------------------------------------
BLOCKING_AT_WIDTH = "blocking loads are modelled for single-issue"


@pytest.mark.parametrize("table", (None, 0, 2))
def test_processor_model_rejects_blocking_multi_issue(table):
    with pytest.raises(ValueError, match=BLOCKING_AT_WIDTH):
        ProcessorModel(
            "BLOCKINGx2", blocking_loads=True, issue_width=2,
            load_delay_tracking=table,
        )


@pytest.mark.parametrize("width", (2, 4))
def test_superscalar_keeps_blocking_and_rejects_it(width):
    with pytest.raises(ValueError, match=f"BLOCKINGx{width} issues"):
        superscalar(width, BLOCKING)
    with pytest.raises(ValueError, match=BLOCKING_AT_WIDTH):
        superscalar(width, delay_tracking(2, BLOCKING))
    assert superscalar(1, BLOCKING).blocking_loads


@pytest.mark.parametrize("spec", ("blockingx2", "blockingx4+dt2"))
def test_parse_processor_rejects_blocking_multi_issue(spec):
    with pytest.raises(ValueError, match=BLOCKING_AT_WIDTH):
        parse_processor(spec)
    assert parse_processor("blockingx1") == BLOCKING


# ----------------------------------------------------------------------
# Random-block scalar/batch agreement (the broad sweeps live in
# test_fuzz_equivalence.py; this is the cheap always-on slice)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("table", (0, 1, 2, 8))
@pytest.mark.parametrize("seed", range(3))
def test_batch_matches_scalar_across_tables(table, seed):
    block = _block(seed)
    latencies = _latencies(block, seed)
    for base in (UNLIMITED, MAX_8, LEN_8, BLOCKING):
        _assert_matches_scalar(
            block.instructions, latencies, delay_tracking(table, base)
        )


@pytest.mark.parametrize("width", (2, 4))
@pytest.mark.parametrize("seed", range(2))
def test_batch_matches_scalar_superscalar_crosses(width, seed):
    block = _block(seed)
    latencies = _latencies(block, seed)
    for base in (superscalar(width), superscalar(width, LEN_8)):
        for table in (0, 2, 8):
            _assert_matches_scalar(
                block.instructions, latencies, delay_tracking(table, base)
            )


# ----------------------------------------------------------------------
# Conflict successors built once per block and handed to every replay
# ----------------------------------------------------------------------
def _padded_block(seed):
    """A random block with a NOP after every third instruction, so the
    executed list and the source positions differ."""
    padded = []
    for k, inst in enumerate(_block(seed, lo=12, hi=30).instructions):
        padded.append(inst)
        if k % 3 == 0:
            padded.append(nop())
    return padded


@pytest.mark.parametrize(
    "processor", delaytrack_bases(FUZZ_PROCESSORS), ids=lambda p: p.name
)
@pytest.mark.parametrize("seed", range(2))
def test_supplied_successors_equal_the_default(processor, seed):
    instructions = _padded_block(seed)
    executed = [i for i in instructions if i.opcode is not Opcode.NOP]
    assert len(executed) < len(instructions)
    successors = conflict_successors(executed)
    n_loads = sum(1 for i in executed if i.is_load)
    rng = spawn("delaytrack-successors", seed)
    for table in (1, 2, n_loads, n_loads + 1, 64):
        at_table = replace(processor, load_delay_tracking=table)
        for _ in range(3):
            latencies = [int(x) for x in rng.integers(0, 40, size=n_loads)]
            assert delaytrack_issue_trace(
                instructions, latencies, at_table, successors=successors
            ) == delaytrack_issue_trace(instructions, latencies, at_table)


@pytest.mark.parametrize("table", (0, 2))
def test_wrong_length_successors_raise(table):
    instructions = _padded_block(0)
    executed = [i for i in instructions if i.opcode is not Opcode.NOP]
    n_loads = sum(1 for i in executed if i.is_load)
    processor = delay_tracking(table)
    for successors in (
        conflict_successors(instructions),  # indexed over source positions
        conflict_successors(executed)[:-1],
    ):
        with pytest.raises(ValueError, match="successors"):
            delaytrack_issue_trace(
                instructions, [3] * n_loads, processor, successors=successors
            )
