"""Section 6 extensions: multi-cycle units, known latencies,
block enlarging, trace scheduling, software pipelining (modulo
scheduling).  Superscalar issue is a processor model
(:func:`repro.machine.superscalar`), measured by
:func:`repro.experiments.run_superscalar_ablation`."""

from .known_latency import (
    KnownLatencyScheduler,
    LatencyOracle,
    second_access_same_line,
)
from .modulo import (
    CarriedEdge,
    ModuloSchedule,
    ModuloSchedulingError,
    modulo_schedule,
)
from .multicycle import (
    MultiCycleBalancedScheduler,
    uncertain_load_or_multicycle,
    with_fp_latency,
)
from .trace import (
    Trace,
    TraceError,
    compare_trace_vs_blocks,
    form_trace,
    schedule_trace,
    trace_dag,
)
from .unrolling import UnrollError, enlarge_block, infer_carried

__all__ = [
    "KnownLatencyScheduler",
    "LatencyOracle",
    "second_access_same_line",
    "CarriedEdge",
    "ModuloSchedule",
    "ModuloSchedulingError",
    "modulo_schedule",
    "MultiCycleBalancedScheduler",
    "uncertain_load_or_multicycle",
    "with_fp_latency",
    "Trace",
    "TraceError",
    "compare_trace_vs_blocks",
    "form_trace",
    "schedule_trace",
    "trace_dag",
    "UnrollError",
    "enlarge_block",
    "infer_carried",
]
