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
shared mutable generator state -- so a cell's result does not depend on
which other cells :func:`evaluate_cells` is asked for, or in which
order.

One loop, :func:`checkpointed_map`, runs table cells, Table 4 rows and
ablation tables alike, in the calling process, and makes them
crash-safe and observable: finished items are checkpointed to an
on-disk :class:`~repro.experiments.cache.ResultCache` as they complete
(so an interrupted run resumes where it died), and every item is
logged to a run manifest (``results/manifest.jsonl``).  Each item
records its metrics into a child registry of its own, which is merged
into the recorder's registry and summarised onto the item's manifest
record.  See the "Crash safety and resume" section of
docs/performance.md.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable, ContextManager, Dict, Hashable, Iterator, List, NamedTuple,
    Optional, Sequence, Tuple,
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
from ..obs.metrics import MetricsRegistry, summarize_delta
from ..obs.recorder import span as _span
from ..regalloc.target import DEFAULT_REGISTER_FILE, RegisterFile
from ..simulate.program import (
    DEFAULT_RUNS, ProgramRuns, SimulationJob, simulate_programs,
)
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
        backend (:class:`repro.core.optimal.OptimalScheduler`): the schedule is
        provably cycle-minimal under the fixed-latency model whenever
        the per-block search certifies within budget, and never worse
        than the balanced schedule otherwise.
        """
        from ..core.optimal import OptimalScheduler

        return self._compiled(OptimalScheduler(load_latency))

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def _job(
        self,
        compilation: CompilationResult,
        row: SystemRow,
        processor: ProcessorModel,
        policy_tag: str,
        scope: Callable[[], ContextManager],
    ) -> SimulationJob:
        rng = spawn(
            "sim",
            self.program.name,
            row.memory.name,
            f"{row.optimistic_latency:g}",
            processor.name,
            policy_tag,
            seed=self.seed,
        )
        return SimulationJob(
            compilation.final_blocks,
            processor,
            row.memory,
            rng,
            runs=self.runs,
            name=f"{self.program.name}/{policy_tag}",
            labels={
                "program": self.program.name,
                "policy": policy_tag,
                "system": row.label,
            },
            scope=scope,
        )

    def cell(
        self, row: SystemRow, processor: ProcessorModel = UNLIMITED
    ) -> CellResult:
        """Evaluate one table cell: the one-cell case of :meth:`cells`."""
        return self.cells([(row, processor)])[0]

    def cells(
        self,
        requests: Sequence[Tuple[SystemRow, ProcessorModel]],
        scope: Optional["ItemScopes"] = None,
    ) -> List[CellResult]:
        """Evaluate a group of this program's table cells together.

        Three phases.  Each cell compiles (or reuses) its two binaries;
        then every cell's two programs are sampled by one
        :func:`~repro.simulate.program.simulate_programs` call, which
        makes one kernel call per (compiled block, processor) -- the
        balanced binary is the same in every row, the traditional one
        in every row with the same optimistic latency; then each cell
        bootstraps its own samples.  Every cell draws from its own
        string-keyed streams, so a cell's result does not depend on
        the group it is evaluated in.

        ``scope(i)`` (see :class:`ItemScopes`) wraps the work done for
        request ``i`` alone, and ``scope.charge`` gives it its share of
        the stacked sampling.  Spans: a ``cell`` span per cell around
        its compilations (its args, program/system/processor, become
        the ambient labels every metric recorded below it carries --
        see :meth:`repro.obs.recorder.Recorder.context`), one
        ``simulate_program`` span for the group, and a ``bootstrap``
        span per cell.
        """
        if scope is None:
            scope = ItemScopes(len(requests), None)
        name = self.program.name
        compiled = []
        jobs: List[SimulationJob] = []
        for index, (row, processor) in enumerate(requests):
            with scope(index), _span(
                "cell", program=name, system=row.label,
                processor=processor.name,
            ):
                with _span("compile", policy="balanced"):
                    balanced = self.balanced()
                with _span("compile", policy="traditional"):
                    traditional = self.traditional(row.optimistic_latency)
            compiled.append((balanced, traditional))
            own = functools.partial(scope, index)
            jobs.append(
                self._job(traditional, row, processor, "traditional", own)
            )
            jobs.append(self._job(balanced, row, processor, "balanced", own))

        with _span("simulate_program", program=name, cells=len(requests)):
            sampled = simulate_programs(jobs)

        results = []
        for index, (row, processor) in enumerate(requests):
            balanced, traditional = compiled[index]
            trad_runs, bal_runs = sampled[2 * index], sampled[2 * index + 1]
            scope.charge(index, trad_runs.shared_s + bal_runs.shared_s)
            with scope(index), _span(
                "bootstrap", program=name, system=row.label,
                processor=processor.name,
            ):
                results.append(
                    self._bootstrap(
                        row, processor, balanced, traditional, trad_runs,
                        bal_runs,
                    )
                )
        return results

    def _bootstrap(
        self,
        row: SystemRow,
        processor: ProcessorModel,
        balanced: CompilationResult,
        traditional: CompilationResult,
        trad_runs: ProgramRuns,
        bal_runs: ProgramRuns,
    ) -> CellResult:
        boot_rng = spawn(
            "boot",
            self.program.name,
            row.memory.name,
            f"{row.optimistic_latency:g}",
            processor.name,
            seed=self.seed,
        )
        t_boot = program_bootstrap_runtimes(trad_runs, boot_rng, self.n_boot)
        b_boot = program_bootstrap_runtimes(bal_runs, boot_rng, self.n_boot)
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
# Cell evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One table cell as a value.

    The program is referenced by suite name and everything else is a
    frozen value object, so a spec is hashable, keys the result cache
    (:func:`~repro.experiments.cache.cell_key`) and evaluates to the
    same cell wherever it is built -- a table, the service, a test.
    """

    program: str
    system: SystemRow
    processor: ProcessorModel = UNLIMITED
    seed: int = DEFAULT_SEED
    runs: int = DEFAULT_RUNS
    n_boot: int = DEFAULT_BOOTSTRAP
    register_file: Optional[RegisterFile] = DEFAULT_REGISTER_FILE
    alias_model: AliasModel = AliasModel.FORTRAN


#: Evaluators, keyed by everything but (system, processor): every cell
#: of one program reuses one evaluator (and, through COMPILATION_CACHE,
#: every compilation already done).
_EVALUATORS: Dict[tuple, ProgramEvaluator] = {}


class CellEvaluationError(RuntimeError):
    """A work item failed; names the offending item.

    Raised when evaluating a group of work items throws an exception:
    ``item`` is the argument (for cells, the :class:`CellSpec`) of the
    item whose scope the exception escaped.  The original exception is
    chained as ``__cause__`` and kept on ``.cause``.
    """

    def __init__(self, item, cause: Optional[BaseException] = None) -> None:
        super().__init__(f"evaluating {item!r} failed: {cause!r}")
        self.item = item
        self.cause = cause


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


def _evaluate_cells(specs: Sequence[CellSpec], scope: "ItemScopes"):
    """Evaluate one group of cells (equal :func:`_cell_group` keys) in
    one :meth:`ProgramEvaluator.cells` call."""
    first = specs[0]
    key = _cell_group_key(first)
    evaluator = _EVALUATORS.get(key)
    if evaluator is None:
        evaluator = _EVALUATORS[key] = ProgramEvaluator(
            load_program(first.program),
            register_file=first.register_file,
            alias_model=first.alias_model,
            seed=first.seed,
            runs=first.runs,
            n_boot=first.n_boot,
        )
    return evaluator.cells(
        [(spec.system, spec.processor) for spec in specs], scope
    )


@dataclass(frozen=True)
class WorkItem:
    """One checkpoint unit of :func:`checkpointed_map`.

    ``fn(args, scope)`` computes the values of a group of items that
    share ``fn`` (one value per arg, in order); ``scope`` is the
    group's :class:`ItemScopes`; :class:`PerItem` adapts a one-argument
    function.  ``key`` is the value's result-cache key,
    computed once by the caller; ``program``/``system``/``processor``
    label the manifest ``cell`` record.
    """

    fn: Callable
    arg: object
    key: str
    program: str
    system: str
    processor: str


@dataclass(frozen=True)
class PerItem:
    """The group form of a one-argument function: each arg is
    evaluated on its own, inside its own scope."""

    fn: Callable

    def __call__(self, args: Sequence, scope: "ItemScopes") -> List:
        values = []
        for index, arg in enumerate(args):
            with scope(index):
                values.append(self.fn(arg))
        return values


class ItemScopes:
    """Per-item child registries and wall clocks for a group of items
    evaluated together.

    ``scope(i)`` is a context manager around work done for item ``i``
    alone.  Given a recorder ``rec``, it swaps item ``i``'s child
    :class:`MetricsRegistry` onto the recorder and puts the parent back
    on exit (with ``rec=None``, as for a direct evaluation, metrics go
    wherever they would have gone), so the child holds exactly what the item recorded --
    nothing written through a reference to the parent (the service's
    request accounting, another thread) leaks in.  The elapsed time is
    added to the item's wall, and an exception escaping the scope names
    the item as the one that failed.  ``charge(i, seconds)`` adds item
    ``i``'s share of work done for several items at once.
    """

    def __init__(self, count: int, rec: Optional[_obs.Recorder]) -> None:
        self.rec = rec
        self.walls = [0.0] * count
        self.children: List[Optional[MetricsRegistry]] = [
            MetricsRegistry() if rec is not None else None
            for _ in range(count)
        ]
        #: Per item, the ``rec.spans`` index ranges recorded in its scope.
        self.span_ranges: List[List[Tuple[int, int]]] = [
            [] for _ in range(count)
        ]
        #: The item whose scope an exception escaped first.
        self.failed: Optional[int] = None

    @contextmanager
    def __call__(self, index: int) -> Iterator[None]:
        rec = self.rec
        parent = None
        if rec is not None:
            mark = len(rec.spans)
            parent, rec.metrics = rec.metrics, self.children[index]
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            if self.failed is None:
                self.failed = index
            raise
        finally:
            self.walls[index] += time.perf_counter() - start
            if rec is not None:
                rec.metrics = parent
                self.span_ranges[index].append((mark, len(rec.spans)))

    def charge(self, index: int, seconds: float) -> None:
        self.walls[index] += seconds

    def spans(self, index: int, mark: int) -> List[_obs.SpanEvent]:
        """The spans since ``mark`` that belong to item ``index``: those
        recorded in its scope, and those recorded in no item's scope
        (work shared by the group)."""
        spans = self.rec.spans
        owner: Dict[int, int] = {}
        for item, ranges in enumerate(self.span_ranges):
            for lo, hi in ranges:
                owner.update(dict.fromkeys(range(lo, hi), item))
        return [
            spans[k] for k in range(mark, len(spans))
            if owner.get(k, index) == index
        ]


class _Timed(NamedTuple):
    """One evaluated item, with what :func:`checkpointed_map` records
    for it."""

    value: object
    wall: float
    #: The item's child registry (``None`` with observability off).
    metrics: Optional[MetricsRegistry]
    #: The item's own spans (:meth:`ItemScopes.spans`), when asked for.
    spans: Sequence[_obs.SpanEvent]


#: ``on_item(item, status, wall, summary, spans)``: told of each item
#: :func:`checkpointed_map` finishes, once it is checkpointed.
#: ``status`` is ``"hit"`` (replayed: wall 0, no summary, no spans) or
#: ``"miss"``.  ``summary`` is :func:`summarize_delta` of the item's
#: child registry -- what its manifest record carries -- or ``None``
#: with observability off.
OnItem = Callable[
    [WorkItem, str, float, Optional[dict], Sequence[_obs.SpanEvent]],
    None,
]


def _run_group(
    items: Sequence[WorkItem], spans: bool = False
) -> List[_Timed]:
    """Evaluate one group of items together, each timed, with its
    metrics in a child registry of its own.

    The one wrapper every group runs through: one ``fn(args, scope)``
    call, where ``scope`` is an :class:`ItemScopes` that keeps each
    item's metrics, wall clock and spans apart.  A returned child is
    folded into the recorder's registry in :func:`checkpointed_map`; a
    group that raises (including ``KeyboardInterrupt``) has every child
    folded in here before the exception propagates, so a failing or
    interrupted item's metrics (e.g. ``verify.violations``) still reach
    the recorder.  An ``Exception`` is wrapped in
    :class:`CellEvaluationError` naming the item whose scope it
    escaped.  With ``spans``, each item's own spans are kept too.
    """
    rec = _obs.get()
    scope = ItemScopes(len(items), rec)
    spans_mark = len(rec.spans) if rec is not None else 0
    try:
        values = items[0].fn([item.arg for item in items], scope)
    except BaseException as exc:
        if rec is not None:
            for child in scope.children:
                rec.metrics.merge(child)
        if isinstance(exc, Exception):
            failed = items[scope.failed or 0]
            raise CellEvaluationError(failed.arg, exc) from exc
        raise
    return [
        _Timed(
            value, scope.walls[index], scope.children[index],
            scope.spans(index, spans_mark)
            if spans and rec is not None else (),
        )
        for index, value in enumerate(values)
    ]


def checkpointed_map(
    items: Sequence[WorkItem],
    group: Optional[Callable[[WorkItem], Hashable]] = None,
    cache: Optional[ResultCache] = None,
    manifest: Optional[ManifestWriter] = None,
    resume: Optional[bool] = None,
    on_item: Optional[OnItem] = None,
) -> List:
    """Evaluate work items with cache replay, checkpointing and logging.

    The one loop behind table cells, Table 4 rows and ablation tables.
    ``cache``/``manifest``/``resume`` default to the ambient
    :func:`engine_session`.  Items whose key is in the cache are
    replayed (unless ``resume`` is false) and recorded as hits.  The
    misses with equal ``group`` keys (every miss on its own without
    one) form a group, evaluated together by one ``fn`` call (for
    cells, one program's: they share its binaries and kernel calls);
    the groups run one after another, in item order, in this process.
    As each group finishes, every value is persisted with
    ``put_object``, its child registry is merged into the recorder's
    and its manifest ``cell`` record is written -- so a crash or
    Ctrl-C loses at most the group in flight, and the next run
    recomputes only what is missing.  Replayed values are pickle
    round-trips of the originals, so cached, resumed and fresh runs are
    byte-identical.  Results come back in item order.

    The manifest is fsynced once per group (and once after a run of
    cache hits): a record is flushed as it is written, so a crashed
    process loses none, and only a machine crash can lose the records
    of the group in flight.

    ``on_item`` (see :data:`OnItem`) is called for every item, hit or
    miss, right after it is checkpointed.
    """
    session = _SESSION
    if cache is None:
        cache = session.cache
    if manifest is None:
        manifest = session.manifest
    if resume is None:
        resume = session.resume
    items = list(items)
    out: List = [None] * len(items)

    def record(item: WorkItem, wall: float, status: str,
               metrics: Optional[dict] = None) -> None:
        if manifest is not None:
            manifest.record_cell(
                key=item.key,
                program=item.program,
                system=item.system,
                processor=item.processor,
                wall_s=wall,
                worker=os.getpid(),
                cache=status,
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
        record(item, 0.0, "hit")
        if on_item is not None:
            on_item(item, "hit", 0.0, None, ())
    if not missing:
        if manifest is not None:
            manifest.sync()
        return out

    groups: Dict[Hashable, List[int]] = {}
    for index in missing:
        key = group(items[index]) if group is not None else index
        groups.setdefault(key, []).append(index)
    for members in groups.values():
        timed = _run_group(
            [items[i] for i in members], spans=on_item is not None
        )
        # Checkpoint at once, so a later failure cannot lose the group.
        for index, result in zip(members, timed):
            item = items[index]
            out[index] = result.value
            if cache is not None:
                cache.put_object(item.key, result.value)
            summary = None
            if result.metrics is not None:
                rec = _obs.get()
                if rec is not None:
                    rec.metrics.merge(result.metrics)
                summary = summarize_delta(result.metrics)
            record(item, result.wall, "miss", metrics=summary or None)
            if on_item is not None:
                on_item(item, "miss", result.wall, summary, result.spans)
        if manifest is not None:
            manifest.sync()
    return out


def _cell_group_key(spec: CellSpec) -> tuple:
    """Cells with equal keys share one :class:`ProgramEvaluator`."""
    return (
        spec.program,
        spec.seed,
        spec.runs,
        spec.n_boot,
        spec.register_file,
        spec.alias_model,
    )


def _cell_group(item: WorkItem) -> tuple:
    return _cell_group_key(item.arg)


def evaluate_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    manifest: Optional[ManifestWriter] = None,
    resume: Optional[bool] = None,
    on_item: Optional[OnItem] = None,
) -> List[CellResult]:
    """Evaluate cells through :func:`checkpointed_map`, in spec order.

    Every random stream a cell uses is derived from string keys
    (program, memory, latency, processor, policy) plus the seed --
    never from shared generator state -- so a cell's result does not
    depend on the other specs in the call.

    The misses of one program (and compile and sampling settings) are
    one group, evaluated together by :meth:`ProgramEvaluator.cells`:
    each of its binaries is compiled once and each compiled block
    sampled once per processor, for every cell of the group.  Each cell
    still gets its own result, cache entry and manifest record.
    ``on_item`` is passed to :func:`checkpointed_map`; an item's ``arg``
    is its spec and its ``key`` the spec's cache key.

    Cells are evaluated in this process.  ``jobs`` is kept only so
    callers written when cells could fan out over worker processes
    (``jobs=1``) keep working; any other value raises ``ValueError``.
    """
    if jobs != 1:
        raise ValueError(
            f"jobs must be 1 (cells are evaluated in this process), "
            f"got {jobs}"
        )
    items = [
        WorkItem(
            _evaluate_cells, spec, cell_key(spec), spec.program,
            spec.system.label, spec.processor.name,
        )
        for spec in specs
    ]
    return checkpointed_map(
        items, group=_cell_group, cache=cache, manifest=manifest,
        resume=resume, on_item=on_item,
    )
