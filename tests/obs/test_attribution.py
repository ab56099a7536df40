"""Kernel-native stall attribution, against the scalar ``trace_block``.

The single-issue batch kernel records, on request, every executed
step's stall and its binding cause; ``_record_simulation_metrics``
maps those causes to the ``sim.load_stall_cycles`` /
``sim.other_stall_cycles`` histograms without replaying any run.
``trace_block`` stays the oracle: on each targeted shape below the
kernel's (instruction index, stall, reason, writer) entries must equal
the trace's (``repro.verify.fuzz.attribution_entries``, the same
comparison the fuzz sweep makes), and the observed pipeline must
never call it.
"""

import sys

import numpy as np
import pytest

from repro.experiments.common import ProgramEvaluator
from repro.experiments.runner import main
from repro.ir.instructions import Opcode, alu, load
from repro.ir.operands import MemRef, RegClass, VirtualReg
from repro.machine.config import paper_system_rows
from repro.machine.processor import (
    BLOCKING,
    LEN_8,
    MAX_8,
    ProcessorModel,
    UNLIMITED,
    superscalar,
)
from repro.obs import recorder as obs
from repro.obs.metrics import MetricsRegistry
from repro.simulate import program as program_mod
from repro.simulate import trace as trace_mod
from repro.simulate.batch import (
    BatchSimResult,
    simulate_block_batch,
    use_writers,
)
from repro.verify.fuzz import attribution_entries
from repro.workloads.perfect import load_program

A = MemRef(region="A", base=None, offset=0, affine_coeff=0)
B = MemRef(region="B", base=None, offset=0, affine_coeff=0)


def r(n):
    return VirtualReg(n, RegClass.FP)


def _assert_matches_trace(instructions, latencies, processor):
    kernel, scalar = attribution_entries(
        instructions, np.asarray(latencies, dtype=np.int64), processor
    )
    assert kernel == scalar
    return kernel


class TestKernelMatchesTrace:
    def test_live_in_operand_never_binds(self):
        """A live-in register is ready at cycle 0, so it cannot hold
        an instruction back: the stall goes to the load beside it."""
        block = [
            load(r(1), A),
            alu(Opcode.FADD, r(2), (r(0), r(1))),  # r0 is live-in
        ]
        assert use_writers(block) == [(), (None, 0)]
        (entries,) = _assert_matches_trace(block, [[6]], UNLIMITED)
        assert entries == [(1, 5, "operand", 0)]

    def test_live_in_writer_maps_to_the_livein_source(self):
        """The histogram mapping: an operand cause whose register has
        no writer in the block is reported under source=livein."""
        block = [alu(Opcode.FADD, r(2), (r(0),))]
        stalls = np.array([[2]], dtype=np.int64)
        result = BatchSimResult(
            cycles=np.array([3]),
            instructions=1,
            interlocks=np.array([2]),
            stalls=stalls,
            causes=np.zeros_like(stalls, dtype=np.intp),
        )
        metrics = MetricsRegistry()
        program_mod._record_stall_attribution(
            metrics, _Block(block), result, (("block", "b"),)
        )
        assert metrics.histograms == {
            ("sim.other_stall_cycles", (("block", "b"), ("source", "livein"))):
                {2: 1}
        }

    def test_tied_operands_go_to_the_first_use(self):
        # r1 issues at 0 with latency 5, r2 at 1 with latency 4: both
        # ready at cycle 5.  all_uses() order is (r2, r1), so r2's
        # writer (instruction 1) takes the stall.
        block = [
            load(r(1), A),
            load(r(2), B),
            alu(Opcode.FADD, r(3), (r(2), r(1))),
        ]
        (entries,) = _assert_matches_trace(block, [[5, 4]], UNLIMITED)
        assert entries == [(2, 3, "operand", 1)]

    def test_self_redefinition_names_the_earlier_writer(self):
        block = [
            load(r(1), A),
            alu(Opcode.FADD, r(1), (r(1),), latency=4),  # r1 = r1 + ...
            alu(Opcode.FADD, r(2), (r(1),)),
        ]
        (entries,) = _assert_matches_trace(block, [[5]], UNLIMITED)
        assert entries == [(1, 4, "operand", 0), (2, 3, "operand", 1)]

    def test_load_slot_overrides_an_operand_stall(self):
        # MAX-2: two long loads hold both slots until cycles 10 and 11;
        # the third load's base register is ready at 5 (an operand
        # stall of 2), but its slot frees only at 10.
        base = VirtualReg(7)
        block = [
            load(r(1), A),
            load(r(2), B),
            alu(Opcode.ADD, base, (), latency=3),
            load(r(3), MemRef(region="C", base=base, offset=0)),
        ]
        max2 = ProcessorModel("MAX-2", max_outstanding_loads=2)
        (entries,) = _assert_matches_trace(block, [[10, 10, 1]], max2)
        assert entries == [(3, 7, "load-slots", None)]

    def test_freeze_overrides_an_operand_stall(self):
        # LEN-3: the first load's latency 9 freezes issue from cycle 3
        # to 9.  The consumer of the second load (ready at 6) would
        # stall on its operand, but the freeze holds it to cycle 9.
        block = [
            load(r(1), A),
            load(r(2), B),
            alu(Opcode.FADD, r(3), (r(2),)),
        ]
        len3 = ProcessorModel("LEN-3", max_load_cycles=3)
        (entries,) = _assert_matches_trace(block, [[9, 5]], len3)
        assert entries == [(2, 7, "freeze", None)]

    @pytest.mark.parametrize(
        "processor",
        [
            UNLIMITED, MAX_8, LEN_8,
            ProcessorModel("LEN-3+MAX-2", max_load_cycles=3,
                           max_outstanding_loads=2),
        ],
        ids=lambda p: p.name,
    )
    def test_suite_blocks_match_the_trace(self, processor):
        rng = np.random.default_rng(7)
        for block in load_program("QCD2").all_blocks():
            n_loads = len(block.loads)
            latencies = rng.integers(1, 40, size=(4, n_loads))
            _assert_matches_trace(block.instructions, latencies, processor)

    @pytest.mark.parametrize(
        "processor", [BLOCKING, superscalar(2)], ids=lambda p: p.name
    )
    def test_unsupported_models_are_refused(self, processor):
        with pytest.raises(ValueError, match="stall attribution"):
            simulate_block_batch(
                [load(r(1), A)], np.ones((2, 1)), processor, attribute=True
            )

    def test_attribution_leaves_cycles_untouched(self, rng):
        block = load_program("MDG").all_blocks()[0]
        latencies = rng.integers(1, 30, size=(8, len(block.loads)))
        plain = simulate_block_batch(block.instructions, latencies, LEN_8)
        attributed = simulate_block_batch(
            block.instructions, latencies, LEN_8, attribute=True
        )
        assert plain.stalls is None and plain.causes is None
        assert np.array_equal(plain.cycles, attributed.cycles)
        assert np.array_equal(plain.interlocks, attributed.interlocks)
        assert np.array_equal(
            attributed.stalls.sum(axis=0), attributed.interlocks
        )


class _Block:
    """The two attributes the attribution reads off a block."""

    def __init__(self, instructions, name="b"):
        self.instructions = instructions
        self.name = name


# ----------------------------------------------------------------------
# The deleted replay stays deleted.
# ----------------------------------------------------------------------
def _refuse_trace_block(monkeypatch):
    """Make every module-level ``trace_block`` binding raise."""
    original = trace_mod.trace_block

    def refuse(*_args, **_kwargs):
        raise AssertionError("trace_block called on the observed path")

    for module in list(sys.modules.values()):
        if getattr(module, "trace_block", None) is original:
            monkeypatch.setattr(module, "trace_block", refuse)


@pytest.mark.parametrize(
    "processor", [UNLIMITED, MAX_8, LEN_8], ids=lambda p: p.name
)
def test_observed_cell_never_replays_through_trace_block(
    monkeypatch, processor
):
    _refuse_trace_block(monkeypatch)
    row = paper_system_rows()[0]
    with obs.recording() as rec:
        ProgramEvaluator(load_program("ADM"), runs=3).cell(row, processor)
    assert rec.metrics.series("sim.load_stall_cycles")


def test_trace_cli_still_calls_trace_block(monkeypatch, tmp_path, capsys):
    calls = []
    original = trace_mod.trace_block

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(trace_mod, "trace_block", spy)
    path = tmp_path / "k.mf"
    path.write_text(
        "program p\n  array a[64], b[64]\n  kernel k freq 1 unroll 1\n"
        "    b[i] = a[i] * a[i+1]\n  end\nend\n"
    )
    assert main(["trace", str(path)]) == 0
    assert calls
    assert "cycles:" in capsys.readouterr().out


def test_a_dropped_stall_fails_the_reconciliation_guard(monkeypatch):
    """Tamper with the kernel's attribution: zeroing one stalled step
    must raise, not quietly under-report a load."""
    real = program_mod.simulate_block_batch

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        if result.stalls is not None:
            hit = np.argwhere(result.stalls > 0)
            if hit.size:
                step, run = hit[0]
                result.stalls[step, run] = 0
        return result

    monkeypatch.setattr(program_mod, "simulate_block_batch", tampered)
    row = paper_system_rows()[0]
    with obs.recording():
        with pytest.raises(RuntimeError, match="stall attribution diverged"):
            ProgramEvaluator(load_program("ADM"), runs=3).cell(row, UNLIMITED)
