"""Instruction-level simulation and the paper's bootstrap statistics."""

from .program import (
    BlockSamples,
    DEFAULT_RUNS,
    ProgramRuns,
    sample_block,
    simulate_program,
)
from .batch import BatchSimResult, simulate_block_batch
from .rng import DEFAULT_SEED, spawn
from .simulator import (
    BlockSimResult,
    LatencyOverrunError,
    interlock_sweep,
    run_block,
    simulate_block,
)
from .throughput import ThroughputResult, recurrence_bound, throughput
from .trace import (
    BlockTrace,
    StallReason,
    TraceEntry,
    trace_block,
    trace_with_memory,
)
from .stats import (
    DEFAULT_BOOTSTRAP,
    ImprovementResult,
    bootstrap_means,
    compare_runs,
    percentage_improvement,
    program_bootstrap_runtimes,
)

__all__ = [
    "BlockSamples",
    "DEFAULT_RUNS",
    "ProgramRuns",
    "sample_block",
    "simulate_program",
    "DEFAULT_SEED",
    "spawn",
    "BlockSimResult",
    "LatencyOverrunError",
    "interlock_sweep",
    "run_block",
    "simulate_block",
    "ThroughputResult",
    "recurrence_bound",
    "throughput",
    "BlockTrace",
    "StallReason",
    "TraceEntry",
    "trace_block",
    "trace_with_memory",
    "BatchSimResult",
    "simulate_block_batch",
    "DEFAULT_BOOTSTRAP",
    "ImprovementResult",
    "bootstrap_means",
    "compare_runs",
    "percentage_improvement",
    "program_bootstrap_runtimes",
]
