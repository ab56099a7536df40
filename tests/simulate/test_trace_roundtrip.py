"""Round-trip tests for trace serialisation and replay.

A trace produced by a seeded run must survive ``to_dict`` -> JSON ->
``from_dict`` byte-for-byte, and the reloaded trace's observed load
latencies must replay through :func:`trace_block` to *identical* cycle
counts -- on straight-line schedules and on spliced trace-scheduling
blocks alike.
"""

import json

from repro.core.balanced import BalancedScheduler
from repro.core.traditional import TraditionalScheduler
from repro.extensions.trace import form_trace, schedule_trace
from repro.machine.memory import NetworkMemory
from repro.machine.processor import LEN_8, MAX_8, UNLIMITED
from repro.simulate.trace import BlockTrace, StallReason, trace_block
from repro.workloads.perfect import load_program

from tests.extensions.test_trace import hot_path_cfg
from tests.support.generator import random_block


def _scheduled_suite_block(policy=None):
    block = next(iter(next(iter(load_program("MDG")))))
    policy = policy or BalancedScheduler()
    return policy.schedule_block(block).block


def _round_trip(trace, instructions):
    """to_dict -> JSON text -> from_dict, as a tool would do on disk."""
    payload = json.loads(json.dumps(trace.to_dict()))
    return BlockTrace.from_dict(payload, instructions)


class TestSimulateTraceRoundTrip:
    def test_json_round_trip_is_lossless(self, rng):
        block = _scheduled_suite_block()
        n_loads = sum(1 for i in block if i.is_load)
        latencies = NetworkMemory(30, 5).sample_many(rng, n_loads)
        trace = trace_block(block.instructions, latencies, UNLIMITED)
        reloaded = _round_trip(trace, block.instructions)
        assert reloaded.cycles == trace.cycles
        assert reloaded.interlock_cycles == trace.interlock_cycles
        assert reloaded.to_dict() == trace.to_dict()

    def test_reloaded_trace_replays_to_identical_cycles(self, rng):
        block = _scheduled_suite_block()
        n_loads = sum(1 for i in block if i.is_load)
        latencies = NetworkMemory(30, 5).sample_many(rng, n_loads)
        trace = trace_block(block.instructions, latencies, UNLIMITED)
        reloaded = _round_trip(trace, block.instructions)
        replay = trace_block(
            block.instructions, reloaded.load_latencies(), UNLIMITED
        )
        assert replay.cycles == trace.cycles
        assert replay.interlock_cycles == trace.interlock_cycles
        assert [(e.issue, e.completion, e.stall) for e in replay.entries] == [
            (e.issue, e.completion, e.stall) for e in trace.entries
        ]

    def test_round_trip_replays_on_every_single_issue_processor(self, rng):
        for _ in range(10):
            block = random_block(rng, n_instructions=25)
            n_loads = sum(1 for i in block if i.is_load)
            latencies = NetworkMemory(8, 4).sample_many(rng, n_loads)
            for processor in (UNLIMITED, MAX_8, LEN_8):
                trace = trace_block(block.instructions, latencies, processor)
                reloaded = _round_trip(trace, block.instructions)
                replay = trace_block(
                    block.instructions, reloaded.load_latencies(), processor
                )
                assert replay.cycles == trace.cycles
                assert replay.interlock_cycles == trace.interlock_cycles

    def test_stall_attribution_survives_the_round_trip(self, rng):
        block = _scheduled_suite_block(TraditionalScheduler(2))
        n_loads = sum(1 for i in block if i.is_load)
        latencies = NetworkMemory(30, 5).sample_many(rng, n_loads)
        trace = trace_block(block.instructions, latencies, UNLIMITED)
        reloaded = _round_trip(trace, block.instructions)
        assert reloaded.stalls_by_writer() == trace.stalls_by_writer()
        operand = sum(
            e.stall
            for e in reloaded.entries
            if e.reason is StallReason.OPERAND
        )
        assert sum(reloaded.stalls_by_writer().values()) == operand

    def test_waited_on_registers_resolve_by_name(self, rng):
        block = _scheduled_suite_block()
        n_loads = sum(1 for i in block if i.is_load)
        latencies = NetworkMemory(30, 5).sample_many(rng, n_loads)
        trace = trace_block(block.instructions, latencies, UNLIMITED)
        reloaded = _round_trip(trace, block.instructions)
        stalled = [e for e in trace.entries if e.waited_on is not None]
        assert stalled, "seeded run should include operand stalls"
        for before, after in zip(trace.entries, reloaded.entries):
            assert str(before.waited_on) == str(after.waited_on)
            assert before.waited_on_writer == after.waited_on_writer


class TestExtensionsTraceRoundTrip:
    """The spliced trace-scheduling block round-trips like any other."""

    def _scheduled_trace_block(self):
        trace = form_trace(hot_path_cfg())
        return schedule_trace(trace, BalancedScheduler()).block

    def test_trace_scheduled_block_round_trips(self, rng):
        block = self._scheduled_trace_block()
        n_loads = sum(1 for i in block if i.is_load)
        latencies = NetworkMemory(6, 2).sample_many(rng, n_loads)
        trace = trace_block(block.instructions, latencies, UNLIMITED)
        reloaded = _round_trip(trace, block.instructions)
        assert reloaded.to_dict() == trace.to_dict()
        replay = trace_block(
            block.instructions, reloaded.load_latencies(), UNLIMITED
        )
        assert replay.cycles == trace.cycles
        assert replay.interlock_cycles == trace.interlock_cycles

    def test_same_seed_same_trace_same_payload(self):
        import numpy as np

        block = self._scheduled_trace_block()
        n_loads = sum(1 for i in block if i.is_load)

        def run(seed):
            rng = np.random.default_rng(seed)
            latencies = NetworkMemory(6, 2).sample_many(rng, n_loads)
            return trace_block(block.instructions, latencies, UNLIMITED)

        first, second = run(42), run(42)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
        assert first.cycles == second.cycles
