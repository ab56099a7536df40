"""Shared machinery for the table/figure experiments.

An experiment *cell* is one (program, system row, processor model)
triple: both schedulers compile the program, the simulator runs every
block 30 times on the modelled machine, and the paper's bootstrap
yields the percentage improvement plus the component statistics
(instruction counts, interlock percentages, spill percentages)
reported across Tables 2-5.

Compilation is machine-independent for the balanced scheduler and
depends only on the optimistic latency for the traditional scheduler,
so compiled artefacts are memoised in a process-wide
:class:`CompilationCache`, at two grains: each (program, policy,
register file, alias model) combination compiles exactly once per
process, no matter how many tables or :class:`ProgramEvaluator`
instances ask, and every compilation -- the ablations' and the
delay-tracking study's too -- shares its stages (DAG, weights,
schedules, allocation) with every other through one
:class:`~repro.core.pipeline.StageMemo`.

Cells are independent by construction -- every random stream is derived
from string keys via :func:`repro.simulate.rng.spawn`, never from
shared mutable generator state -- so :func:`evaluate_cells` can fan a
list of :class:`CellSpec` out over a ``concurrent.futures`` process
pool and return bit-identical results in spec order regardless of
worker count or completion order (see docs/performance.md).

One loop, :func:`checkpointed_map`, runs table cells, Table 4 rows and
ablation tables alike, and makes them crash-safe and observable:
finished items are checkpointed to an on-disk :class:`~repro.
experiments.cache.ResultCache` as they complete (so an interrupted run
resumes where it died), a dead worker breaks only its in-flight
batches -- which are retried on a rebuilt pool and, past the retry
budget, degraded to inline execution -- and every item is logged to a
run manifest (``results/manifest.jsonl``).  Each item records its
metrics into a child registry of its own, which the parent merges into
the recorder's registry and summarises onto the item's manifest
record.  See the "Crash safety and resume" section of
docs/performance.md.
"""

from __future__ import annotations

import atexit
import logging
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence,
    Tuple,
)

from ..analysis.alias import AliasModel
from ..core.balanced import BalancedScheduler
from ..core.pipeline import CompilationResult, StageMemo, compile_program
from ..core.policy import SchedulingPolicy
from ..core.traditional import TraditionalScheduler
from ..ir.block import Program
from ..machine.config import SystemRow
from ..machine.processor import ProcessorModel, UNLIMITED
from ..obs import recorder as _obs
from ..obs import requesttrace as _reqtrace
from ..obs.metrics import MetricsRegistry, split_series_key, summarize_delta
from ..obs.recorder import span as _span
from ..regalloc.target import DEFAULT_REGISTER_FILE, RegisterFile
from ..simulate.program import DEFAULT_RUNS, ProgramRuns, simulate_program
from ..simulate.rng import DEFAULT_SEED, spawn
from ..simulate.stats import (
    DEFAULT_BOOTSTRAP,
    ImprovementResult,
    percentage_improvement,
    program_bootstrap_runtimes,
)
from ..workloads.perfect import load_program
from .cache import ResultCache, cell_key
from .manifest import ManifestWriter

logger = logging.getLogger("repro.experiments")


class CompilationCache:
    """Process-wide compile memo, at two grains.

    * **Whole programs** (:meth:`get_or_compile`), keyed on ``(program
      identity, policy class, policy schedule key, register file, alias
      model)``.  A hit returns the earlier :class:`CompilationResult`
      and records nothing: a table cell that reuses a compilation did
      no compile work.  The cache keeps a strong reference to each
      keyed program so object identities stay valid for the life of
      the process (the Perfect Club suite is itself cached for the
      process lifetime, so this adds nothing for the standard tables).
    * **Stages** (:attr:`stages`, a
      :class:`~repro.core.pipeline.StageMemo`), shared by every
      compilation in the process.  :meth:`compile` goes through it
      directly: a repeated compilation is assembled from stage hits,
      which replay the metrics the skipped work would have recorded.

    ``len()`` counts whole-program entries; :meth:`clear` empties both.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, CompilationResult] = {}
        self._programs: Dict[int, Program] = {}
        self.stages = StageMemo()

    def compile(
        self,
        program: Program,
        policy: SchedulingPolicy,
        register_file: Optional[RegisterFile] = DEFAULT_REGISTER_FILE,
        alias_model: AliasModel = AliasModel.FORTRAN,
        allocator: Optional[object] = None,
    ) -> CompilationResult:
        """:func:`compile_program` through the shared stage memo."""
        return compile_program(
            program, policy, register_file=register_file,
            alias_model=alias_model, allocator=allocator, memo=self.stages,
        )

    def get_or_compile(
        self,
        program: Program,
        policy: SchedulingPolicy,
        register_file: Optional[RegisterFile] = DEFAULT_REGISTER_FILE,
        alias_model: AliasModel = AliasModel.FORTRAN,
    ) -> CompilationResult:
        """The program's compilation, compiled on the first request."""
        if policy.schedule_key is None:
            return self.compile(program, policy, register_file, alias_model)
        key = (
            id(program), type(policy), policy.schedule_key, register_file,
            alias_model,
        )
        result = self._entries.get(key)
        if result is None:
            result = self._entries[key] = self.compile(
                program, policy, register_file, alias_model
            )
            self._programs[id(program)] = program
        return result

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._programs.clear()
        self.stages.clear()


#: The shared cache every :class:`ProgramEvaluator` compiles through.
COMPILATION_CACHE = CompilationCache()


@dataclass
class CellResult:
    """One evaluated (program, system, processor) cell."""

    program: str
    system: SystemRow
    processor: ProcessorModel
    improvement: ImprovementResult
    traditional_instructions: float
    balanced_instructions: float
    traditional_interlock_pct: float
    balanced_interlock_pct: float
    traditional_spill_pct: float
    balanced_spill_pct: float

    @property
    def imp_pct(self) -> float:
        return self.improvement.mean


class ProgramEvaluator:
    """Compiles a program once per policy and evaluates table cells."""

    def __init__(
        self,
        program: Program,
        register_file: Optional[RegisterFile] = DEFAULT_REGISTER_FILE,
        alias_model: AliasModel = AliasModel.FORTRAN,
        seed: int = DEFAULT_SEED,
        runs: int = DEFAULT_RUNS,
        n_boot: int = DEFAULT_BOOTSTRAP,
    ):
        self.program = program
        self.register_file = register_file
        self.alias_model = alias_model
        self.seed = seed
        self.runs = runs
        self.n_boot = n_boot

    # ------------------------------------------------------------------
    # Compilation (memoised process-wide in COMPILATION_CACHE)
    # ------------------------------------------------------------------
    def _compiled(self, policy: SchedulingPolicy) -> CompilationResult:
        return COMPILATION_CACHE.get_or_compile(
            self.program, policy, self.register_file, self.alias_model
        )

    def balanced(self) -> CompilationResult:
        """The balanced compilation (machine-independent; compiled once)."""
        return self._compiled(BalancedScheduler())

    def traditional(self, optimistic_latency: float) -> CompilationResult:
        """The traditional compilation for one optimistic latency.

        The policy keys its latency as a ``Fraction``, so 2 and 2.0
        share a compilation while 2.15 and 2.4 stay exactly distinct.
        """
        return self._compiled(TraditionalScheduler(optimistic_latency))

    def optimal(self, load_latency: float) -> CompilationResult:
        """The exact compilation for one fixed memory latency.

        Like :meth:`traditional` but through the branch-and-bound
        backend (:class:`repro.core.OptimalScheduler`): the schedule is
        provably cycle-minimal under the fixed-latency model whenever
        the per-block search certifies within budget, and never worse
        than the balanced schedule otherwise.
        """
        from ..core.optimal import OptimalScheduler

        return self._compiled(OptimalScheduler(load_latency))

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def _simulate(
        self,
        compilation: CompilationResult,
        row: SystemRow,
        processor: ProcessorModel,
        policy_tag: str,
    ) -> ProgramRuns:
        rng = spawn(
            "sim",
            self.program.name,
            row.memory.name,
            f"{row.optimistic_latency:g}",
            processor.name,
            policy_tag,
            seed=self.seed,
        )
        return simulate_program(
            compilation.final_blocks,
            processor,
            row.memory,
            rng,
            runs=self.runs,
            name=f"{self.program.name}/{policy_tag}",
        )

    def cell(
        self, row: SystemRow, processor: ProcessorModel = UNLIMITED
    ) -> CellResult:
        """Evaluate one table cell (compile if needed, simulate, bootstrap).

        The ``cell`` span's args (program/system/processor) become the
        ambient labels every metric recorded below it carries -- see
        :meth:`repro.obs.recorder.Recorder.context`.
        """
        with _span(
            "cell",
            program=self.program.name,
            system=row.label,
            processor=processor.name,
        ):
            return self._cell(row, processor)

    def _cell(
        self, row: SystemRow, processor: ProcessorModel
    ) -> CellResult:
        with _span("compile", policy="balanced"):
            balanced = self.balanced()
        with _span("compile", policy="traditional"):
            traditional = self.traditional(row.optimistic_latency)

        with _span("simulate_program", policy="traditional"):
            trad_runs = self._simulate(
                traditional, row, processor, "traditional"
            )
        with _span("simulate_program", policy="balanced"):
            bal_runs = self._simulate(balanced, row, processor, "balanced")

        boot_rng = spawn(
            "boot",
            self.program.name,
            row.memory.name,
            f"{row.optimistic_latency:g}",
            processor.name,
            seed=self.seed,
        )
        with _span("bootstrap"):
            t_boot = program_bootstrap_runtimes(
                trad_runs, boot_rng, self.n_boot
            )
            b_boot = program_bootstrap_runtimes(
                bal_runs, boot_rng, self.n_boot
            )
            improvement = percentage_improvement(t_boot, b_boot)

        return CellResult(
            program=self.program.name,
            system=row,
            processor=processor,
            improvement=improvement,
            traditional_instructions=traditional.dynamic_instructions,
            balanced_instructions=balanced.dynamic_instructions,
            traditional_interlock_pct=trad_runs.interlock_percentage(),
            balanced_interlock_pct=bal_runs.interlock_percentage(),
            traditional_spill_pct=traditional.spill_percentage,
            balanced_spill_pct=balanced.spill_percentage,
        )


# ----------------------------------------------------------------------
# Parallel cell evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One table cell as a picklable work item.

    The program is referenced by suite name (workers reload it from the
    process-local cache) and everything else is a frozen value object,
    so a spec can cross a process boundary and still evaluate to the
    exact cell the serial path would produce.
    """

    program: str
    system: SystemRow
    processor: ProcessorModel = UNLIMITED
    seed: int = DEFAULT_SEED
    runs: int = DEFAULT_RUNS
    n_boot: int = DEFAULT_BOOTSTRAP
    register_file: Optional[RegisterFile] = DEFAULT_REGISTER_FILE
    alias_model: AliasModel = AliasModel.FORTRAN
    #: Trace ids of the service requests waiting on this cell, threaded
    #: through the pool so workers can report span fragments under the
    #: right request (see :mod:`repro.obs.requesttrace`).  Excluded from
    #: equality/repr, and deliberately invisible to ``spec_token`` --
    #: tracing never perturbs cache keys or results.
    trace_ids: Tuple[str, ...] = field(default=(), compare=False, repr=False)


#: Per-process evaluators, keyed by everything but (system, processor):
#: a worker handed many cells of one program reuses one evaluator (and,
#: through COMPILATION_CACHE, every compilation it has already done).
_EVALUATORS: Dict[tuple, ProgramEvaluator] = {}


class PoolBrokenError(RuntimeError):
    """The process pool kept breaking and inline fallback was declined.

    Raised by :func:`pool_map` (and everything layered on it) only when
    called with ``inline_fallback=False`` -- the scheduling service uses
    that mode so a dying pool surfaces as a retriable 503 instead of
    silently absorbing the work into the serving process.  ``items`` is
    how many work items were still undelivered when the budget ran out;
    ``cause`` is the repr of the last pool-breaking exception.
    """

    def __init__(self, items: int, cause: Optional[str] = None) -> None:
        super().__init__(
            f"process pool broke past its retry budget with {items} "
            f"item(s) undelivered" + (f" (cause: {cause})" if cause else "")
        )
        self.items = items
        self.cause = cause


class CellEvaluationError(RuntimeError):
    """A cell failed deterministically; names the offending spec.

    Raised (in place of losing the context across the process
    boundary) when evaluating one work item throws a real exception --
    as opposed to the pool itself breaking, which is transient and
    retried.  The original exception is chained as ``__cause__`` and
    kept on ``.cause``.
    """

    def __init__(self, item, cause: Optional[BaseException] = None) -> None:
        super().__init__(f"evaluating {item!r} failed: {cause!r}")
        self.item = item
        self.cause = cause

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``; rebuild from the real fields so
        # the error survives the worker->parent pipe intact.
        return (CellEvaluationError, (self.item, self.cause))


# ----------------------------------------------------------------------
# Engine session: the cache/manifest context `run <exp>` executes in
# ----------------------------------------------------------------------
@dataclass
class EngineSession:
    """What the engine persists while evaluating cells.

    ``cache`` replays finished cells across runs (crash/resume),
    ``manifest`` logs what ran, ``resume`` gates cache *reads* (writes
    always happen, so ``--fresh`` still repopulates the store).
    """

    cache: Optional[ResultCache] = None
    manifest: Optional[ManifestWriter] = None
    resume: bool = True


_SESSION = EngineSession()


def current_session() -> EngineSession:
    return _SESSION


@contextmanager
def engine_session(
    cache: Optional[ResultCache] = None,
    manifest: Optional[ManifestWriter] = None,
    resume: bool = True,
) -> Iterator[EngineSession]:
    """Install a session for the duration of a ``with`` block; every
    :func:`checkpointed_map` call inside it (every table and ablation)
    checkpoints through it."""
    global _SESSION
    previous = _SESSION
    _SESSION = EngineSession(cache=cache, manifest=manifest, resume=resume)
    try:
        yield _SESSION
    finally:
        _SESSION = previous


# ----------------------------------------------------------------------
# Fault injection (tests and the CI crash drill only)
# ----------------------------------------------------------------------
#: Name a program here and the first worker to evaluate one of its
#: cells dies hard (``os._exit``), simulating an OOM-killed or
#: segfaulted worker.
FAULT_PROGRAM_ENV = "BALANCED_SCHED_FAULT_PROGRAM"
#: Sentinel file path making the crash one-shot: created atomically by
#: the dying worker, so rebuilt pools (which see the same environment)
#: do not crash again and the retry can succeed.
FAULT_ONCE_ENV = "BALANCED_SCHED_FAULT_ONCE_FILE"

#: Pid of the process that imported this module.  Fault injection only
#: ever fires in *forked pool workers* (pid differs), never in the
#: parent -- the inline fast path and the degraded-to-inline path run
#: worker entry points in the parent process, and killing it would
#: defeat the crash drill the hook exists for.
_MAIN_PID = os.getpid()


def _maybe_inject_fault(spec: CellSpec) -> None:
    if os.getpid() == _MAIN_PID:
        return
    target = os.environ.get(FAULT_PROGRAM_ENV)
    if not target or spec.program != target:
        return
    sentinel = os.environ.get(FAULT_ONCE_ENV)
    if not sentinel:
        return
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already crashed once; behave normally
    os.close(fd)
    os._exit(1)


def _evaluate_cell(spec: CellSpec) -> CellResult:
    """Evaluate one cell in this process."""
    _maybe_inject_fault(spec)
    key = (
        spec.program,
        spec.seed,
        spec.runs,
        spec.n_boot,
        spec.register_file,
        spec.alias_model,
    )
    evaluator = _EVALUATORS.get(key)
    if evaluator is None:
        evaluator = _EVALUATORS[key] = ProgramEvaluator(
            load_program(spec.program),
            register_file=spec.register_file,
            alias_model=spec.alias_model,
            seed=spec.seed,
            runs=spec.runs,
            n_boot=spec.n_boot,
        )
    return evaluator.cell(spec.system, spec.processor)


@dataclass(frozen=True)
class WorkItem:
    """One checkpoint unit of :func:`checkpointed_map`.

    ``fn(arg)`` computes the value; ``fn`` is a module-level function
    so the item pickles across the pool boundary.  ``key`` is the
    value's result-cache key, computed once by the caller;
    ``program``/``system``/``processor`` label the manifest ``cell``
    record, and ``trace_ids`` names the service requests waiting on
    the item.
    """

    fn: Callable
    arg: object
    key: str
    program: str
    system: str
    processor: str
    trace_ids: Tuple[str, ...] = ()


class _Timed(NamedTuple):
    """One evaluated item as it crosses back from a worker."""

    value: object
    wall: float
    worker: int
    #: The item's child registry (``None`` with observability off).
    metrics: Optional[MetricsRegistry]
    #: Span fragments for the item's traced requests.
    fragments: List[dict]


def _stall_cycles(metrics: Optional[MetricsRegistry]) -> float:
    """Total load-stall cycles attributed inside one child registry."""
    if metrics is None:
        return 0.0
    return sum(
        MetricsRegistry.histogram_total(hist)
        for key, hist in metrics.histograms.items()
        if split_series_key(key)[0] == "sim.load_stall_cycles"
    )


def _trace_fragments(
    item: WorkItem,
    wall: float,
    t0_wall_ns: int,
    t0_clock_ns: int,
    rec: Optional[_obs.Recorder],
    new_spans: Sequence[_obs.SpanEvent],
    metrics: Optional[MetricsRegistry],
) -> List[dict]:
    """Span fragments for one evaluated item, one set per waiting trace.

    The root ``evaluate_cell`` fragment carries the cell key (joins the
    trace to its manifest record and cache entry), the load-stall
    cycles this evaluation attributed, and whether a decision log was
    captured.  Top-level recorder spans (compile / simulate_program /
    bootstrap) become child fragments, remapped from the recorder's
    monotonic clock onto the epoch timeline so multi-process traces
    line up.
    """
    args = {
        "cell_key": item.key,
        "program": item.program,
        "system": item.system,
        "processor": item.processor,
        "stall_cycles": _stall_cycles(metrics),
        "decision_log": (
            "recorded"
            if rec is not None and rec.decisions is not None
            else "off"
        ),
    }
    fragments: List[dict] = []
    children: List[Tuple[str, int, int, dict]] = []
    if (
        rec is not None
        and new_spans
        and rec._clock is time.perf_counter_ns  # mappable to epoch time
    ):
        min_depth = min(span.depth for span in new_spans)
        for span in new_spans:
            if span.depth > min_depth + 1:
                continue
            raw_start = span.start_ns + rec.epoch_ns
            children.append(
                (
                    span.name,
                    t0_wall_ns + (raw_start - t0_clock_ns),
                    span.duration_ns,
                    span.args_dict,
                )
            )
    for trace_id in item.trace_ids:
        fragments.append(
            _reqtrace.fragment(
                trace_id,
                f"evaluate_cell {item.program}",
                cat="engine",
                start_ns=t0_wall_ns,
                dur_ns=int(wall * 1e9),
                args=args,
            )
        )
        for name, start_ns, dur_ns, span_args in children:
            fragments.append(
                _reqtrace.fragment(
                    trace_id,
                    name,
                    cat="engine",
                    start_ns=start_ns,
                    dur_ns=dur_ns,
                    args=span_args,
                )
            )
    return fragments


def _run_timed(item: WorkItem) -> _Timed:
    """Evaluate one item, timed, with its metrics in a child registry.

    The one wrapper every item runs through, inline and in a pool
    worker alike.  With observability on, a fresh
    :class:`MetricsRegistry` replaces the recorder's registry for the
    item and the parent comes back afterwards, so the child holds
    exactly what this item recorded -- nothing written through a
    reference to the parent (the service's request accounting, another
    thread) leaks in.  The parent process folds a returned child into
    its registry in :func:`checkpointed_map`; an item that raises
    (including ``KeyboardInterrupt``) has its child folded in here
    before the exception propagates, so a failing or interrupted item's
    metrics (e.g. ``verify.violations``) still reach the recorder.  A
    deterministic failure is wrapped so the caller knows exactly which
    item died.
    """
    rec = _obs.get()
    parent = child = None
    spans_mark = 0
    t0_wall = time.time_ns()
    t0_clock = time.perf_counter_ns()
    start = time.perf_counter()
    try:
        if rec is not None:
            spans_mark = len(rec.spans)
            parent, rec.metrics = rec.metrics, MetricsRegistry()
        value = item.fn(item.arg)
    except BaseException as exc:
        if parent is not None and rec.metrics is not parent:
            parent.merge(rec.metrics)
        if isinstance(exc, Exception):
            raise CellEvaluationError(item.arg, exc) from exc
        raise
    finally:
        if parent is not None:
            child, rec.metrics = rec.metrics, parent
    wall = time.perf_counter() - start
    fragments = (
        _trace_fragments(
            item, wall, t0_wall, t0_clock, rec,
            rec.spans[spans_mark:] if rec is not None else (), child,
        )
        if item.trace_ids
        else []
    )
    return _Timed(value, wall, os.getpid(), child, fragments)


def _run_batch(items: Sequence[WorkItem]) -> List[_Timed]:
    """Worker entry point: evaluate a batch of items in this process.

    (Workers inherit the enabled recorder by forking; spans recorded in
    workers stay worker-local, but items carrying ``trace_ids`` export
    their top-level spans as epoch-timestamped fragments.)
    """
    return [_run_timed(item) for item in items]


#: Lazily created, reused across evaluate_cells calls (so `run all`
#: forks once and the workers' compilation caches persist from one
#: table to the next -- the compile cost is paid once per process, not
#: once per table).
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_JOBS = 0

#: How many times a broken pool is rebuilt before the failed items
#: degrade to inline (in-process) execution.
MAX_POOL_RETRIES = 2


def _pool(jobs: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_JOBS
    if _POOL is None or _POOL_JOBS != jobs:
        # Drain the old executor completely before replacing it so a
        # jobs change never strands its workers.
        shutdown_pool(wait=True)
        _POOL = ProcessPoolExecutor(max_workers=jobs)
        _POOL_JOBS = jobs
    return _POOL


def shutdown_pool(wait: bool = True) -> None:
    """Shut down the shared experiment pool (idempotent).

    Registered via ``atexit`` so the CLI and test runs never strand
    orphaned worker processes; also the way tests force a cold pool.
    """
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pool)


@dataclass
class PoolMapStats:
    """What :func:`pool_map` had to do beyond plain dispatch.

    ``pool_rebuilds`` counts pool breakages survived; ``inline_items``
    counts items that exhausted the retry budget and ran in-process;
    ``item_attempts[i]`` is how many times item ``i`` was re-dispatched
    after a breakage (0 for items that succeeded first try);
    ``last_error`` is the repr of the most recent pool-breaking
    exception, so a manifest ``pool_downgrade`` record can say *why*
    the pool was abandoned.
    """

    pool_rebuilds: int = 0
    inline_items: int = 0
    item_attempts: Dict[int, int] = field(default_factory=dict)
    last_error: Optional[str] = None


def pool_map(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
    retries: int = MAX_POOL_RETRIES,
    stats: Optional[PoolMapStats] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
    inline_fallback: bool = True,
    force_pool: bool = False,
) -> List:
    """Map a picklable function over items through the shared pool.

    Order-preserving.  ``jobs == 1`` (or a single item) runs inline;
    otherwise the persistent experiment pool is used, so repeated calls
    within one process reuse warm workers (and their compilation
    caches).

    Fault tolerance separates the two failure modes:

    * **The pool broke** (a worker died: OOM kill, segfault, hard
      exit).  All undelivered items are re-dispatched on a freshly
      built pool, up to ``retries`` times; items that still cannot be
      delivered degrade to inline execution in this process, with the
      downgrade logged.  ``pool_map`` itself never fails because of a
      dead worker.
    * **The item is poison** (a deterministic exception from ``fn``,
      e.g. an unpicklable argument or a bad spec).  The healthy pool
      is kept -- warm workers and their compilation caches survive --
      and the exception propagates immediately, wrapped in
      :class:`CellEvaluationError` naming the offending item (unless
      the worker already named it).

    ``on_result`` fires as each item completes (in completion order),
    which is what lets :func:`checkpointed_map` checkpoint results while
    later items are still running.  ``stats`` collects retry counts
    for the run manifest.  ``inline_fallback=False`` replaces the
    degrade-to-inline step with :class:`PoolBrokenError` -- the
    scheduling service declines inline execution so a dying pool
    becomes a 503 for the affected requests instead of CPU work on the
    serving process (delivered items keep their results either way).
    ``force_pool=True`` disables the single-item inline shortcut: even
    a lone item is dispatched to a real worker process.  The service
    uses it (with ``jobs > 1``) so every request's work runs off the
    serving process -- which is also what lets a traced request collect
    span fragments from a genuine pool worker.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    if stats is None:
        stats = PoolMapStats()
    results: List = [None] * len(items)
    if not force_pool and (jobs == 1 or len(items) <= 1):
        for index, item in enumerate(items):
            results[index] = fn(item)
            if on_result is not None:
                on_result(index, results[index])
        return results

    pending = list(range(len(items)))
    while pending:
        executor = _pool(jobs)
        futures = {executor.submit(fn, items[i]): i for i in pending}
        broken: List[int] = []
        for future in as_completed(futures):
            index = futures[future]
            try:
                results[index] = future.result()
            except BrokenExecutor as exc:
                broken.append(index)
                stats.last_error = repr(exc)
            except Exception as exc:
                # Deterministic failure: the pool is healthy, keep it.
                if isinstance(exc, CellEvaluationError):
                    raise
                raise CellEvaluationError(items[index], exc) from exc
            else:
                if on_result is not None:
                    on_result(index, results[index])
        if not broken:
            return results
        broken.sort()
        shutdown_pool(wait=False)  # the pool is dead; don't block on it
        stats.pool_rebuilds += 1
        for index in broken:
            stats.item_attempts[index] = stats.item_attempts.get(index, 0) + 1
        if stats.pool_rebuilds > retries:
            if not inline_fallback:
                raise PoolBrokenError(len(broken), stats.last_error)
            logger.warning(
                "process pool broke %d times (retry budget %d); running "
                "%d item(s) inline in this process",
                stats.pool_rebuilds, retries, len(broken),
            )
            for index in broken:
                results[index] = fn(items[index])
                stats.inline_items += 1
                if on_result is not None:
                    on_result(index, results[index])
            return results
        logger.warning(
            "process pool broke (a worker died); rebuilding and retrying "
            "%d item(s) [attempt %d/%d]",
            len(broken), stats.pool_rebuilds, retries,
        )
        pending = broken
    return results


def checkpointed_map(
    items: Sequence[WorkItem],
    jobs: int = 1,
    group: Optional[Callable[[WorkItem], Hashable]] = None,
    cache: Optional[ResultCache] = None,
    manifest: Optional[ManifestWriter] = None,
    resume: Optional[bool] = None,
    retries: int = MAX_POOL_RETRIES,
    inline_fallback: bool = True,
    stats: Optional[PoolMapStats] = None,
    force_pool: bool = False,
) -> List:
    """Evaluate work items with cache replay, checkpointing and logging.

    The one loop behind table cells, Table 4 rows and ablation tables.
    ``cache``/``manifest``/``resume`` default to the ambient
    :func:`engine_session`.  Items whose key is in the cache are
    replayed (unless ``resume`` is false) and recorded as hits; the
    rest go through :func:`pool_map`, and as each result arrives it is
    persisted with ``put_object``, its child registry is merged into
    the recorder's, and its manifest ``cell`` record is written -- so a
    crash or Ctrl-C loses at most the in-flight work, and the next run
    recomputes only what is missing.  Replayed values are pickle
    round-trips of the originals, so cached, resumed and fresh runs are
    byte-identical for any ``jobs``.  Results come back in item order.

    Only when the misses go to a pool are they batched: items with the
    same ``group`` key stay in one task (for cells, the compilations
    they share), and the groups are packed into a few batches per
    worker -- enough for load balancing, few enough that task
    round-trips stay off the critical path.  Inline, every item is its
    own checkpoint, recorded in item order.

    ``retries`` / ``inline_fallback`` / ``stats`` / ``force_pool`` are
    forwarded to :func:`pool_map`; with ``inline_fallback=False`` pool
    death raises :class:`PoolBrokenError`, and already-delivered items
    are still cached and recorded, so a retry replays them for free.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    session = _SESSION
    if cache is None:
        cache = session.cache
    if manifest is None:
        manifest = session.manifest
    if resume is None:
        resume = session.resume
    items = list(items)
    out: List = [None] * len(items)

    def record(item: WorkItem, wall: float, worker: int, status: str,
               retried: int, metrics: Optional[dict] = None) -> None:
        if manifest is not None:
            manifest.record_cell(
                key=item.key,
                program=item.program,
                system=item.system,
                processor=item.processor,
                wall_s=wall,
                worker=worker,
                cache=status,
                retries=retried,
                metrics=metrics,
            )

    missing: List[int] = []
    for index, item in enumerate(items):
        cached = (
            cache.get_object(item.key)
            if cache is not None and resume
            else None
        )
        if cached is None:
            missing.append(index)
            continue
        out[index] = cached
        if item.trace_ids:
            # A traced request served from cache still gets an engine
            # fragment, so its span tree explains the missing pool work.
            now = time.time_ns()
            _reqtrace.record_fragments(
                _reqtrace.fragment(
                    trace_id,
                    f"cache_hit {item.program}",
                    cat="engine",
                    start_ns=now,
                    dur_ns=0,
                    args={"cell_key": item.key},
                )
                for trace_id in item.trace_ids
            )
        record(item, 0.0, os.getpid(), "hit", 0)
    if not missing:
        return out

    pooled = force_pool or (jobs > 1 and len(missing) > 1)
    if pooled and group is not None:
        batches = _pack(missing, lambda i: group(items[i]), jobs)
    else:
        batches = [[index] for index in missing]
    if stats is None:
        stats = PoolMapStats()

    def consume(batch_pos: int, timed: List[_Timed]) -> None:
        # Runs as each batch completes: checkpoint immediately so a
        # later crash cannot lose it.
        retried = stats.item_attempts.get(batch_pos, 0)
        for index, result in zip(batches[batch_pos], timed):
            item = items[index]
            out[index] = result.value
            if cache is not None:
                cache.put_object(item.key, result.value)
            summary = None
            if result.metrics is not None:
                rec = _obs.get()
                if rec is not None:
                    rec.metrics.merge(result.metrics)
                summary = summarize_delta(result.metrics) or None
            if result.fragments:
                _reqtrace.record_fragments(result.fragments)
                store = _reqtrace.active()
                if store is not None:
                    for trace_id in item.trace_ids:
                        store.note_timing(
                            trace_id, "pool", result.wall * 1000.0
                        )
            record(item, result.wall, result.worker, "miss", retried,
                   metrics=summary)

    pool_map(
        _run_batch, [[items[i] for i in batch] for batch in batches], jobs,
        retries=retries, stats=stats, on_result=consume,
        inline_fallback=inline_fallback, force_pool=force_pool,
    )
    if stats.inline_items and manifest is not None:
        manifest.record_pool_downgrade(
            stats.inline_items, cause=stats.last_error,
            trace_ids=sorted(
                {t for i in missing for t in items[i].trace_ids}
            ) or None,
        )
    return out


def _pack(
    indices: List[int], key: Callable[[int], Hashable], jobs: int
) -> List[List[int]]:
    """Group ``indices`` by ``key`` and pack the groups, in first-seen
    order, into batches of at least ``len(indices) / (4 * jobs)``."""
    groups: Dict[Hashable, List[int]] = {}
    for index in indices:
        groups.setdefault(key(index), []).append(index)
    per_batch = max(1, -(-len(indices) // (jobs * 4)))
    batches: List[List[int]] = []
    current: List[int] = []
    for members in groups.values():
        current.extend(members)
        if len(current) >= per_batch:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches


def _compile_group(item: WorkItem) -> tuple:
    """Cells with equal keys need exactly the same two compilations."""
    spec = item.arg
    return (
        spec.program,
        spec.system.optimistic_latency,
        spec.seed,
        spec.runs,
        spec.n_boot,
        spec.register_file,
        spec.alias_model,
    )


def evaluate_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    manifest: Optional[ManifestWriter] = None,
    resume: Optional[bool] = None,
    retries: int = MAX_POOL_RETRIES,
    inline_fallback: bool = True,
    stats: Optional[PoolMapStats] = None,
    force_pool: bool = False,
) -> List[CellResult]:
    """Evaluate cells through :func:`checkpointed_map`, in spec order.

    Every random stream a cell uses is derived from string keys
    (program, memory, latency, processor, policy) plus the seed --
    never from shared generator state -- so the output is bit-identical
    for any ``jobs``; parallelism only changes wall-clock time.

    Pooled cells are batched by compile-sharing group: all cells with
    the same (program, optimistic latency, compile settings) run in
    one worker, so no traditional compilation ever runs twice anywhere
    (the cheap balanced compilation is duplicated at most once per
    worker per program).  The scheduling service passes
    ``inline_fallback=False`` (and its own retry budget) so pool death
    raises :class:`PoolBrokenError` instead of running cells in the
    serving process.
    """
    items = [
        WorkItem(
            _evaluate_cell, spec, cell_key(spec), spec.program,
            spec.system.label, spec.processor.name, spec.trace_ids,
        )
        for spec in specs
    ]
    return checkpointed_map(
        items, jobs, group=_compile_group, cache=cache, manifest=manifest,
        resume=resume, retries=retries, inline_fallback=inline_fallback,
        stats=stats, force_pool=force_pool,
    )
