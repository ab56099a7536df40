"""Command-line entry point.

Installed as ``balanced-sched``.  Modes:

Regenerate a paper artifact (the bare form is shorthand for ``run``)::

    balanced-sched table2
    balanced-sched run table2 --format csv
    balanced-sched run table2 --obs --trace-out trace.json --metrics-out m.json
    balanced-sched run table2 --verify      # oracle-check every compilation
    balanced-sched all

Replay every compilation behind the published tables under the
schedule-legality oracle (exit status 1 on any violation)::

    balanced-sched verify
    balanced-sched verify --programs ADM,MDG

Differentially fuzz the pipeline: random minif programs through both
schedulers and both simulators, failures shrunk and written as replay
artifacts::

    balanced-sched fuzz --seed 7 --iters 100
    balanced-sched fuzz --iters 25 --out /tmp/fuzz

Profile an experiment with the observability layer on (phase timings,
hottest stalled loads, scheduler tie-break pressure)::

    balanced-sched profile table2 --quick --programs ADM

Explain, step by step, why the balanced and traditional schedulers
order a block differently (diffable decision logs)::

    balanced-sched explain ADM
    balanced-sched explain kernel.mf --block kernel0

Compile a minif source file and print both schedulers' output::

    balanced-sched compile kernel.mf
    balanced-sched compile kernel.mf --latency 5

Show the Figure-6 balanced weights (optionally the full Table-1 style
contribution matrix) for a kernel::

    balanced-sched weights kernel.mf --matrix

Trace one simulated execution of a compiled kernel (pipeline diagram
plus stall attribution)::

    balanced-sched trace kernel.mf --memory "N(2,5)" --policy balanced

Summarise the most recent recorded run(s) from the manifest log::

    balanced-sched manifest
    balanced-sched manifest --last 8

Common options: ``--seed`` (root RNG seed), ``--runs`` (simulation runs
per block; the paper uses 30), ``--quick`` (3 runs).  Global ``-v`` /
``-q`` raise/lower the ``repro.*`` logging verbosity on stderr
(diagnostics only -- results always go to stdout).

Observability: ``run --obs`` (implied by ``--trace-out`` /
``--metrics-out``) records hierarchical spans, metrics and stall
attribution for the whole run at a cost of roughly one dict update per
instrumented event; the trace JSON loads directly into Perfetto
(https://ui.perfetto.dev).  See docs/observability.md.

Crash safety: ``run`` checkpoints every finished cell to an on-disk
result cache (``results/cache`` by default) and appends what ran to
``results/manifest.jsonl``; an interrupted or crashed run re-executed
with the same arguments recomputes only the missing cells
(``--resume``, the default).  ``--fresh`` recomputes everything; see
docs/performance.md ("Crash safety and resume").
"""

from __future__ import annotations

import argparse
import gc
import io
import logging
import os
import signal
import sys
import threading
import time
from typing import Dict, List, Optional

from ..analysis.alias import AliasModel
from ..frontend.errors import MinifError
from ..obs import recorder as _obs
from ..obs.export import phase_summary, write_chrome_trace, write_metrics
from ..obs.metrics import MetricsRegistry
from ..simulate.rng import DEFAULT_SEED
from ..verify import hooks as _verify_hooks
from .ablations import run_all_ablations
from .cache import ResultCache, default_cache_dir
from .common import engine_session
from .manifest import ManifestWriter, default_manifest_path, summarize_manifest
from .figure2 import run_figure2
from .figure3 import run_figure3
from .report import export
from .table1 import run_table1
from .table2 import run_table2
from .table3 import run_table3
from .table4 import run_table4
from .table5 import run_table5

logger = logging.getLogger("repro.experiments.runner")

EXPERIMENTS: List[str] = [
    "figure2",
    "figure3",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "ablations",
]

#: Results that can be exported as csv/markdown.
_EXPORTABLE = {"figure3", "table1", "table2", "table3", "table4", "table5"}


def _dispatch(
    name: str,
    seed: int,
    runs: int,
    programs: Optional[List[str]] = None,
):
    if name == "figure2":
        return run_figure2()
    if name == "figure3":
        return run_figure3()
    if name == "table1":
        return run_table1()
    if name == "table2":
        return run_table2(seed=seed, runs=runs, programs=programs)
    if name == "table3":
        return run_table3(seed=seed, runs=runs)
    if name == "table4":
        return run_table4(seed=seed)
    if name == "table5":
        return run_table5(seed=seed, runs=runs)
    if name == "ablations":
        return run_all_ablations()
    raise KeyError(name)


# ----------------------------------------------------------------------
# Logging (the -v/-q switches)
# ----------------------------------------------------------------------
class _StderrHandler(logging.Handler):
    """Writes to whatever ``sys.stderr`` currently is.

    Resolving the stream at emit time (instead of capturing it at
    handler creation like ``StreamHandler``) keeps the handler valid
    when the surrounding process swaps stderr -- pytest's capture does
    exactly that between tests.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except Exception:  # pragma: no cover - last-ditch
            self.handleError(record)


def _configure_logging(verbose: int, quiet: int) -> None:
    """Configure the ``repro`` logger tree once, for the whole CLI.

    Diagnostics (clamp notes, retry warnings, timing chatter) go to
    stderr through here; experiment results are printed to stdout and
    never pass through logging.  Default level is WARNING; each ``-v``
    drops a level, each ``-q`` raises one.  Propagation to the root
    logger stays on (the handler is ours, so nothing double-prints
    unless the embedding application configures the root itself).
    """
    root = logging.getLogger("repro")
    level = logging.WARNING - 10 * verbose + 10 * quiet
    root.setLevel(max(logging.DEBUG, min(logging.CRITICAL, level)))
    if not any(getattr(h, "_repro_cli", False) for h in root.handlers):
        handler = _StderrHandler()
        handler.setFormatter(
            logging.Formatter("  [%(levelname)s %(name)s] %(message)s")
        )
        handler._repro_cli = True  # type: ignore[attr-defined]
        root.addHandler(handler)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _warn_jobs(jobs: int) -> None:
    """``--jobs`` is validated (>= 1 at parse time) and kept so existing
    scripts run, but every cell is evaluated in this process."""
    if jobs > 1:
        logger.warning(
            "--jobs %d clamped to 1: cells are evaluated in one process",
            jobs,
        )


def _program_list(text: Optional[str]) -> Optional[List[str]]:
    """Parse a ``--programs`` list against the Perfect Club suite.

    Parts are stripped and empty parts dropped (``"ADM, MDG,"`` is
    ``["ADM", "MDG"]``); an unknown name or an empty list exits 2.
    """
    if text is None:
        return None
    from ..workloads.perfect import program_names

    known = program_names()
    names = [n for n in (part.strip() for part in text.split(",")) if n]
    unknown = [n for n in names if n not in known]
    if not names or unknown:
        print(
            f"unknown program(s) {unknown or [text]}; "
            f"choose from {known}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return names


def _parse_programs(args: argparse.Namespace) -> Optional[List[str]]:
    """The ``--programs`` subset of ``run``/``profile`` (table2 only)."""
    text = getattr(args, "programs", None)
    if text is not None and args.experiment not in ("table2",):
        print(
            f"--programs applies to table2 only "
            f"(got {args.experiment!r})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return _program_list(text)


def _wants_obs(args: argparse.Namespace) -> bool:
    return bool(args.obs or args.trace_out or args.metrics_out)


def _finish_obs(rec, args: argparse.Namespace) -> None:
    """Export what a recorder collected (also runs on interrupt)."""
    if args.trace_out:
        path = write_chrome_trace(args.trace_out, rec)
        logger.info(
            "wrote Chrome trace to %s (load it in https://ui.perfetto.dev)",
            path,
        )
    if args.metrics_out:
        path = write_metrics(args.metrics_out, rec.metrics)
        logger.info("wrote metrics to %s", path)
    print()
    print(phase_summary(rec))


def _cmd_run(args: argparse.Namespace) -> int:
    runs = 3 if args.quick else args.runs
    _warn_jobs(args.jobs)
    programs = _parse_programs(args)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    manifest = ManifestWriter(args.manifest)
    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    rec = _obs.enable() if _wants_obs(args) else None
    verify_hook = None
    if args.verify:
        if args.resume:
            # Cells replayed from the result cache skip compilation
            # entirely, so nothing would reach the oracle.
            logger.warning(
                "--verify forces a fresh run: cached cells skip "
                "compilation and would go unchecked"
            )
            args.resume = False
        # A violation raises LegalityError while compiling and fails
        # the run loudly.
        verify_hook = _verify_hooks.enable()
    timings = []
    try:
        with engine_session(cache=cache, manifest=manifest, resume=args.resume):
            for name in names:
                start = time.time()
                manifest.start_run(
                    name, seed=args.seed, runs=runs, resume=args.resume,
                )
                try:
                    result = _dispatch(name, args.seed, runs, programs)
                except KeyboardInterrupt:
                    elapsed = time.time() - start
                    manifest.end_run(wall_s=elapsed, status="interrupted")
                    logger.warning(
                        "interrupted during %s after %.1fs; finished cells "
                        "are checkpointed -- re-run the same command to "
                        "resume", name, elapsed,
                    )
                    return 130
                except BaseException:
                    manifest.end_run(
                        wall_s=time.time() - start, status="failed"
                    )
                    raise
                elapsed = time.time() - start
                manifest.end_run(wall_s=elapsed, status="ok")
                timings.append((name, elapsed))
                if args.format != "text" and name in _EXPORTABLE:
                    print(export(result, args.format))
                else:
                    print(result.format())
                print(f"\n  [{name} regenerated in {elapsed:.1f}s]\n")
        if len(names) > 1:
            total = sum(elapsed for _, elapsed in timings)
            logger.info("timing summary:")
            for name, elapsed in timings:
                logger.info("  %-10s %6.1fs", name, elapsed)
            logger.info("  %-10s %6.1fs", "total", total)
        return 0
    finally:
        if verify_hook is not None:
            _verify_hooks.disable()
            _print_verify_summary(verify_hook, rec)
        if rec is not None:
            _obs.disable()
            _finish_obs(rec, args)


def _print_verify_summary(hook, rec) -> None:
    """One line accounting for what the pipeline hook checked."""
    checked = hook.blocks_checked
    violations = hook.violations
    if rec is not None:
        checked = int(rec.metrics.counter_total("verify.blocks_checked"))
        violations = int(rec.metrics.counter_total("verify.violations"))
    print(
        f"\n  [verify: {checked} block(s) oracle-checked, "
        f"{violations} violation(s)]"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    """Replay every compilation behind the published tables under the
    legality oracle."""
    from ..verify.replay import verify_perfect_suite

    names = _program_list(args.programs)
    start = time.time()
    report = verify_perfect_suite(
        programs=names,
        alias_model=AliasModel(args.alias),
        progress=lambda line: print(line, file=sys.stderr),
    )
    print(report.format())
    print(f"\n  [suite verified in {time.time() - start:.1f}s]")
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Differentially fuzz the pipeline with random minif programs."""
    from ..verify.fuzz import run_fuzz

    start = time.time()
    report = run_fuzz(
        seed=args.seed,
        iters=args.iters,
        max_insns=args.max_insns,
        out_dir=args.out,
        runs=args.runs,
        shrink=not args.no_shrink,
        progress=lambda line: print(line, file=sys.stderr),
    )
    print(report.format())
    print(f"\n  [fuzzed in {time.time() - start:.1f}s]")
    return 0 if report.failures == 0 else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one experiment under the observability layer and report
    where the time and the stall cycles went (no caching: a profile
    must measure real work, not replay)."""
    runs = 3 if args.quick else args.runs
    programs = _parse_programs(args)
    # Process-level memos (the suite, whole-program compilations and
    # the compile stages) would replay compilation and skip the
    # frontend entirely, leaving the profile with nothing but
    # simulation; drop them so every phase does real work.
    from ..workloads.perfect import clear_cache
    from .common import COMPILATION_CACHE

    clear_cache()
    COMPILATION_CACHE.clear()
    rec = _obs.enable()
    try:
        with engine_session(cache=None, manifest=None, resume=False):
            start = time.time()
            _dispatch(args.experiment, args.seed, runs, programs)
            elapsed = time.time() - start
    finally:
        _obs.disable()
    print(f"profile: {args.experiment} "
          f"(seed {args.seed}, {runs} runs, {elapsed:.1f}s)\n")
    print(phase_summary(rec))
    print()
    print(_profile_report(rec.metrics, top=args.top))
    if args.trace_out:
        path = write_chrome_trace(args.trace_out, rec)
        logger.info(
            "wrote Chrome trace to %s (load it in https://ui.perfetto.dev)",
            path,
        )
    if args.metrics_out:
        path = write_metrics(args.metrics_out, rec.metrics)
        logger.info("wrote metrics to %s", path)
    return 0


def _profile_report(metrics: MetricsRegistry, top: int = 10) -> str:
    """The ``profile`` payload below the phase table: tie-break
    pressure and the hottest stalled loads, straight from the
    registry's exact histograms."""
    lines: List[str] = []

    reasons: Dict[str, float] = {}
    for (base, labels), value in metrics.counters.items():
        if base == "sched.select_reason":
            reason = dict(labels).get("reason", "?")
            reasons[reason] = reasons.get(reason, 0) + value
    if reasons:
        lines.append("scheduler selection reasons:")
        width = max(len(reason) for reason in reasons)
        for reason in sorted(reasons, key=lambda r: (-reasons[r], r)):
            lines.append(f"  {reason:<{width}}  {int(reasons[reason]):>10,}")
        lines.append("")

    rows = []
    for (base, labels), hist in metrics.histograms.items():
        if base != "sim.load_stall_cycles":
            continue
        rows.append((
            MetricsRegistry.histogram_total(hist),
            MetricsRegistry.histogram_count(hist),
            dict(labels),
        ))
    if rows:
        rows.sort(key=lambda row: (-row[0], sorted(row[2].items())))
        lines.append("hottest loads (stall cycles summed over all runs):")
        for total, count, labels in rows[:top]:
            where = "/".join(
                part for part in
                (labels.get("program"), labels.get("block")) if part
            )
            lines.append(
                f"  {int(total):>10,} cycles  {count:>8,} stalls  "
                f"{where} load #{labels.get('load', '?')}  "
                f"[{labels.get('policy', '?')} @ {labels.get('system', '?')}]"
            )
        if len(rows) > top:
            lines.append(f"  ... and {len(rows) - top} more load sites")
        lines.append("")

    skipped: Dict[str, float] = {}
    for (base, labels), value in metrics.counters.items():
        if base == "sim.attribution_skipped":
            reason = dict(labels).get("reason", "?")
            skipped[reason] = skipped.get(reason, 0) + value
    if skipped:
        per_reason = ", ".join(
            f"{int(skipped[reason]):,} {reason}" for reason in sorted(skipped)
        )
        lines.append(
            f"note: {int(sum(skipped.values())):,} run(s) are counted but "
            f"not attributed per load ({per_reason})"
        )
    if not lines:
        lines.append("(no scheduler/simulator metrics recorded)")
    return "\n".join(lines).rstrip()


def render_explain(
    program,
    block: Optional[str] = None,
    latency: float = 2.0,
    context: int = 3,
    full: bool = False,
) -> str:
    """The ``explain`` report as a string.

    Shared verbatim by the CLI (which writes it to stdout) and the
    service (which returns it over HTTP), so the two are
    byte-identical by construction.  Raises :class:`KeyError` with a
    one-line message when ``block`` names no block.
    """
    from ..core.balanced import BalancedScheduler
    from ..core.pipeline import compile_block
    from ..core.traditional import TraditionalScheduler
    from ..obs.decisions import DecisionLog

    blocks = [blk for function in program for blk in function]
    if block is not None:
        names = [blk.name for blk in blocks]
        blocks = [blk for blk in blocks if blk.name == block]
        if not blocks:
            raise KeyError(
                f"no block named {block!r}; choose from {names}"
            )
    buf = io.StringIO()
    trad_label = f"traditional W={latency:g}"
    for blk in blocks:
        logs: Dict[str, DecisionLog] = {}
        for tag, policy in (
            ("balanced", BalancedScheduler()),
            (trad_label, TraditionalScheduler(latency)),
        ):
            # register_file=None: explain the *scheduling* decisions on
            # the virtual-register code, without regalloc's pass-2
            # rewrites muddying the diff.
            with _obs.recording(decisions=True) as rec:
                compile_block(blk, policy, register_file=None)
            logs[tag] = rec.decisions
        print(f"==== {blk.name} ({len(blk)} instructions)", file=buf)
        for tag, log in logs.items():
            counts = log.counts_by_reason()
            rendered = ", ".join(f"{r}={c}" for r, c in counts.items())
            print(f"  {tag:20s} {rendered}", file=buf)
        diff = DecisionLog.diff(
            logs["balanced"], logs[trad_label],
            "balanced", trad_label,
            block=blk.name, context=context,
        )
        if full:
            for tag, log in logs.items():
                print(f"\n-- decision log: {tag}", file=buf)
                print("\n".join(log.render(block=blk.name)), file=buf)
        elif diff:
            print(file=buf)
            print("\n".join(diff), file=buf)
        else:
            print(
                "  (both policies make identical step-by-step choices)",
                file=buf,
            )
        print(file=buf)
    return buf.getvalue()


def _cmd_explain(args: argparse.Namespace) -> int:
    """Schedule each block under both policies with decision logging on
    and show why their step-by-step choices diverge."""
    program = _load_program_argument(args.program)
    try:
        text = render_explain(
            program,
            block=args.block,
            latency=args.latency,
            context=args.context,
            full=args.full,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0


def _load_program_argument(text: str):
    """``explain`` accepts a minif file path or a Perfect Club name."""
    if os.path.exists(text):
        return _compile_file(text)
    from ..workloads.perfect import load_program, program_names

    try:
        return load_program(text)
    except KeyError:
        print(
            f"{text!r} is neither a file nor a known program; "
            f"programs: {program_names()}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _cmd_manifest(args: argparse.Namespace) -> int:
    print(summarize_manifest(args.path, last=args.last, top=args.top))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the service package pulls in asyncio plumbing
    # no batch command needs.
    from ..service.server import SchedulingService

    _warn_jobs(args.jobs)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    manifest = ManifestWriter(args.manifest)
    service = SchedulingService(
        cache=cache,
        manifest=manifest,
        max_queue=args.max_queue,
        deadline_s=args.deadline if args.deadline > 0 else None,
        batch_window_s=args.batch_window,
        trace_requests=not args.no_tracing,
        trace_capacity=args.trace_capacity,
    )
    return service.run(host=args.host, port=args.port)


def _compile_file(path: str):
    from ..frontend.lowering import compile_minif

    with open(path) as handle:
        return compile_minif(handle.read())


def render_compile(program, latency: float = 2.0) -> str:
    """The ``compile`` listing (both policies) as a string; shared by
    the CLI and the service so their outputs are byte-identical.

    The two compilations share a throwaway stage memo: a user program
    must not fill the process-wide one of a long-running daemon."""
    from ..core.balanced import BalancedScheduler
    from ..core.pipeline import StageMemo, compile_program
    from ..core.traditional import TraditionalScheduler
    from ..ir.printer import format_block

    buf = io.StringIO()
    memo = StageMemo()
    policies = [BalancedScheduler(), TraditionalScheduler(latency)]
    for policy in policies:
        compiled = compile_program(program, policy, memo=memo)
        print(f"==== {policy.name}", file=buf)
        for block in compiled.final_blocks:
            print(format_block(block), file=buf)
            print(file=buf)
        print(
            f"  dynamic instructions: {compiled.dynamic_instructions:,.0f}"
            f"  (spill {compiled.spill_percentage:.2f}%)\n",
            file=buf,
        )
    return buf.getvalue()


def _cmd_compile(args: argparse.Namespace) -> int:
    program = _compile_file(args.file)
    sys.stdout.write(render_compile(program, latency=args.latency))
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    from ..analysis.dependence import build_dag
    from ..core.weights import balanced_weights, contribution_matrix

    program = _compile_file(args.file)
    for function in program:
        for block in function:
            dag = build_dag(block)
            weights = balanced_weights(dag)
            print(f"==== {block.name} ({len(block)} instructions, "
                  f"{len(weights)} loads)")
            if args.matrix:
                matrix = contribution_matrix(dag)
                for node in sorted(matrix):
                    row = ", ".join(
                        f"{i}:{v}" for i, v in sorted(matrix[node].items()) if v
                    )
                    print(f"  load {node:3d} <- {row}")
            for node in sorted(weights):
                print(
                    f"  {node:3d} {str(dag.instructions[node]):40s} "
                    f"weight {weights[node]}  (~{float(weights[node]):.2f})"
                )
            print()
    return 0


def render_schedule(
    program,
    policy_name: str = "balanced",
    latency: float = 2.0,
    jobs: int = 1,
    verbose: bool = False,
) -> str:
    """The ``schedule`` listing as a string; shared by the CLI and the
    service so their outputs are byte-identical.

    Every block is scheduled inline, one after another, through the
    pipeline's pass-1 stages on a throwaway stage memo.  ``jobs`` no
    longer changes how blocks are scheduled: it is echoed in the
    ``(jobs=N)`` footer only, which the CLI and the service both print
    as ``jobs=1``."""
    from ..core.balanced import BalancedScheduler
    from ..core.optimal import OptimalScheduler
    from ..core.pipeline import StageMemo
    from ..core.traditional import TraditionalScheduler

    if policy_name == "optimal":
        policy = OptimalScheduler(latency)
    elif policy_name == "balanced":
        policy = BalancedScheduler()
    else:
        policy = TraditionalScheduler(latency)
    blocks = program.all_blocks()
    memo = StageMemo()
    results = [
        memo.schedule(block, AliasModel.FORTRAN, policy)
        for block in blocks
    ]
    buf = io.StringIO()
    for block, result in zip(blocks, results):
        print(
            f"==== {block.name}  ({len(block)} instructions, "
            f"noop span {result.noop_span})",
            file=buf,
        )
        if policy_name == "optimal":
            status = "certified optimal" if result.certified else (
                f"best-effort (lower bound {result.lower_bound})"
            )
            print(
                f"     cost {result.cost} cycles at W={result.load_latency}, "
                f"{status}, {result.expanded} expansions",
                file=buf,
            )
        if verbose:
            for v in result.order:
                print(f"  {v:3d}  {block.instructions[v]}", file=buf)
    total = sum(len(b) for b in blocks)
    print(f"scheduled {len(blocks)} block(s), {total} instructions "
          f"under {policy.name} (jobs={jobs})", file=buf)
    return buf.getvalue()


def _cmd_schedule(args: argparse.Namespace) -> int:
    program = _compile_file(args.file)
    try:
        listing = render_schedule(
            program,
            policy_name=args.policy,
            latency=args.latency,
            verbose=args.verbose,
        )
    except ValueError as exc:  # e.g. --policy optimal --latency 2.5
        print(f"balanced-sched: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(listing)
    return 0


def _cmd_optimal_gap(args: argparse.Namespace) -> int:
    from .optimalgap import run_optimal_gap

    names = _program_list(args.programs)
    from ..core.optimal import DEFAULT_NODE_BUDGET

    report = run_optimal_gap(
        programs=names,
        node_budget=(
            args.budget if args.budget is not None else DEFAULT_NODE_BUDGET
        ),
        pareto=not args.no_pareto,
    )
    text = report.format() + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
        logger.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_delay_track(args: argparse.Namespace) -> int:
    from .delaytrack import DEFAULT_TABLES, run_delay_tracking

    names = _program_list(args.programs)
    if args.tables is not None:
        try:
            tables = tuple(
                int(part) for part in args.tables.split(",") if part.strip()
            )
        except ValueError:
            print(
                f"balanced-sched: --tables wants comma-separated integers, "
                f"got {args.tables!r}",
                file=sys.stderr,
            )
            return 2
        if not tables or any(t < 0 for t in tables):
            print(
                "balanced-sched: --tables wants non-negative table sizes",
                file=sys.stderr,
            )
            return 2
        repeated = sorted({t for t in tables if tables.count(t) > 1})
        if repeated:
            print(
                "balanced-sched: --tables repeats table size "
                f"{', '.join(map(str, repeated))}",
                file=sys.stderr,
            )
            return 2
    else:
        tables = DEFAULT_TABLES
    runs = 3 if args.quick else args.runs
    report = run_delay_tracking(
        programs=names, tables=tables, seed=args.seed, runs=runs
    )
    text = report.format() + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
        logger.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)
    return 0 if report.oracle_violations == 0 else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..core.balanced import BalancedScheduler
    from ..core.pipeline import compile_program
    from ..core.traditional import TraditionalScheduler
    from ..machine.config import SYSTEMS_BY_NAME
    from ..simulate.rng import spawn
    from ..simulate.trace import check_traceable, trace_with_memory

    memory = SYSTEMS_BY_NAME.get(args.memory)
    if memory is None:
        print(
            f"unknown memory system {args.memory!r}; "
            f"choose from {sorted(SYSTEMS_BY_NAME)}",
            file=sys.stderr,
        )
        return 2
    try:
        processor = _processor_for(args)
        check_traceable(processor)
    except ValueError as exc:
        print(f"balanced-sched: {exc}", file=sys.stderr)
        return 2
    policy = (
        BalancedScheduler()
        if args.policy == "balanced"
        else TraditionalScheduler(args.latency)
    )
    program = _compile_file(args.file)
    compiled = compile_program(program, policy)
    rng = spawn("cli-trace", args.file, memory.name, seed=args.seed)
    for block in compiled.final_blocks:
        print(f"==== {block.name} on {memory.name} under {policy.name}")
        trace = trace_with_memory(block, processor, memory, rng)
        print(trace.render())
        by_reason = trace.stalls_by_reason()
        if by_reason:
            print("  stalls: " + ", ".join(
                f"{reason.value}={cycles}" for reason, cycles in by_reason.items()
            ))
        print()
    return 0


def _processor_for(args: argparse.Namespace):
    from ..machine.config import parse_processor

    return parse_processor(args.processor)


# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    """argparse type for options that must be >= 1 (--runs, --jobs)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_obs_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace_event JSON of the run's spans "
        "(loadable in Perfetto); implies --obs",
    )
    sub.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's metrics registry as JSON; implies --obs",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balanced-sched",
        description=(
            "Balanced Scheduling (Kerns & Eggers, PLDI 1993): regenerate "
            "the paper, or compile and trace your own minif kernels"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more stderr diagnostics (repeatable)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="fewer stderr diagnostics (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="regenerate a table or figure")
    run.add_argument("experiment", choices=EXPERIMENTS + ["all"])
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--runs", type=_positive_int, default=30)
    run.add_argument("--quick", action="store_true", help="3-run smoke pass")
    run.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="accepted for compatibility: cells are evaluated in one "
        "process, and values above 1 are clamped to 1",
    )
    run.add_argument(
        "--programs",
        default=None,
        help="comma-separated subset of Perfect Club programs "
        "(table2 only), e.g. --programs ADM,MDG",
    )
    run.add_argument(
        "--format", choices=["text", "csv", "markdown"], default="text"
    )
    run.add_argument(
        "--obs",
        action="store_true",
        help="record spans/metrics/stall attribution for the whole run "
        "and print a phase summary at the end",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help="oracle-check every compiled block while the run executes "
        "(forces a fresh run; any legality violation fails the run)",
    )
    _add_obs_arguments(run)
    run.add_argument(
        "--resume",
        dest="resume",
        action="store_true",
        default=True,
        help="replay finished cells from the result cache (default)",
    )
    run.add_argument(
        "--fresh",
        dest="resume",
        action="store_false",
        help="recompute every cell, ignoring cached results "
        "(the cache is still refreshed)",
    )
    run.add_argument(
        "--cache-dir",
        default=default_cache_dir(),
        help="result-cache directory (env BALANCED_SCHED_CACHE_DIR; "
        "default results/cache)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache entirely",
    )
    run.add_argument(
        "--manifest",
        default=default_manifest_path(),
        help="run-manifest JSONL path (env BALANCED_SCHED_MANIFEST; "
        "default results/manifest.jsonl)",
    )
    run.set_defaults(handler=_cmd_run)

    verify = sub.add_parser(
        "verify",
        help="replay every table-backing compilation under the "
        "schedule-legality oracle (exit 1 on any violation)",
    )
    verify.add_argument(
        "--programs",
        default=None,
        help="comma-separated subset of Perfect Club programs "
        "(default: the whole suite)",
    )
    verify.add_argument(
        "--alias",
        choices=[model.value for model in AliasModel],
        default=AliasModel.FORTRAN.value,
        help="alias model to compile and check under",
    )
    verify.set_defaults(handler=_cmd_verify)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random minif programs through both "
        "schedulers and both simulators, failures shrunk to artifacts",
    )
    fuzz.add_argument("--seed", type=int, default=DEFAULT_SEED)
    fuzz.add_argument(
        "--iters", type=_positive_int, default=200,
        help="programs to generate and check",
    )
    fuzz.add_argument(
        "--max-insns", type=_positive_int, default=40,
        help="approximate lowered-size bound per generated kernel",
    )
    fuzz.add_argument(
        "--runs", type=_positive_int, default=3,
        help="simulation runs per (block, processor) pair",
    )
    fuzz.add_argument(
        "--out",
        default=os.path.join("results", "fuzz"),
        help="artifact directory for shrunk failures "
        "(untouched when the run is clean)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="write failing programs as-is, skipping minimization",
    )
    fuzz.set_defaults(handler=_cmd_fuzz)

    profile = sub.add_parser(
        "profile",
        help="run one experiment with observability on and report "
        "phase timings, tie-break pressure and the hottest loads",
    )
    profile.add_argument("experiment", choices=EXPERIMENTS)
    profile.add_argument("--seed", type=int, default=DEFAULT_SEED)
    profile.add_argument("--runs", type=_positive_int, default=30)
    profile.add_argument(
        "--quick", action="store_true", help="3-run smoke pass"
    )
    profile.add_argument(
        "--programs",
        default=None,
        help="comma-separated subset of Perfect Club programs "
        "(table2 only)",
    )
    profile.add_argument(
        "--top", type=_positive_int, default=10,
        help="stalled load sites to list",
    )
    _add_obs_arguments(profile)
    profile.set_defaults(handler=_cmd_profile)

    explain = sub.add_parser(
        "explain",
        help="diff the two schedulers' step-by-step decisions on a "
        "program's blocks",
    )
    explain.add_argument(
        "program",
        help="a minif source file or a Perfect Club program name",
    )
    explain.add_argument(
        "--block", default=None, help="explain only this block"
    )
    explain.add_argument(
        "--latency",
        type=float,
        default=2,
        help="optimistic latency for the traditional baseline",
    )
    explain.add_argument(
        "--context", type=_positive_int, default=3,
        help="unified-diff context lines",
    )
    explain.add_argument(
        "--full",
        action="store_true",
        help="print both full decision logs instead of the diff",
    )
    explain.set_defaults(handler=_cmd_explain)

    manifest = sub.add_parser(
        "manifest", help="summarise the most recent recorded run(s)"
    )
    manifest.add_argument(
        "--path",
        default=default_manifest_path(),
        help="manifest JSONL to read (default results/manifest.jsonl)",
    )
    manifest.add_argument(
        "--last", type=_positive_int, default=1,
        help="how many recent runs to show",
    )
    manifest.add_argument(
        "--top", type=_positive_int, default=5,
        help="slowest cells to list per run",
    )
    manifest.set_defaults(handler=_cmd_manifest)

    compile_cmd = sub.add_parser("compile", help="compile a minif file")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument(
        "--latency",
        type=float,
        default=2,
        help="optimistic latency for the traditional baseline",
    )
    compile_cmd.set_defaults(handler=_cmd_compile)

    weights = sub.add_parser(
        "weights", help="show balanced load weights for a minif file"
    )
    weights.add_argument("file")
    weights.add_argument(
        "--matrix",
        action="store_true",
        help="also print the per-instruction contribution matrix",
    )
    weights.set_defaults(handler=_cmd_weights)

    schedule = sub.add_parser(
        "schedule",
        help="schedule a minif file's blocks",
    )
    schedule.add_argument("file")
    schedule.add_argument(
        "--policy",
        choices=["balanced", "traditional", "optimal"],
        default="balanced",
    )
    schedule.add_argument(
        "--latency",
        type=float,
        default=2,
        help="load latency: the traditional weight, or the optimal "
        "backend's fixed memory model (must be an integer there)",
    )
    schedule.add_argument(
        "--verbose", action="store_true", help="print the scheduled order"
    )
    schedule.set_defaults(handler=_cmd_schedule)

    optimal_gap = sub.add_parser(
        "optimal-gap",
        help="exact-scheduler report: per-block optimality gaps and "
        "latency-vs-pressure Pareto fronts (see docs/optimal.md)",
    )
    optimal_gap.add_argument(
        "--programs",
        default=None,
        help="comma-separated subset of Perfect Club programs, "
        "e.g. --programs ADM,MDG (default: the whole suite)",
    )
    optimal_gap.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="branch-and-bound expansion budget per block "
        "(a deterministic count, not wall-clock; default 250000)",
    )
    optimal_gap.add_argument(
        "--no-pareto",
        action="store_true",
        help="skip the ε-constraint register-pressure sweeps "
        "(they dominate the runtime)",
    )
    optimal_gap.add_argument(
        "--out",
        default=None,
        help="write the report here instead of stdout "
        "(the committed copy lives at results/optimal_gap.txt)",
    )
    optimal_gap.set_defaults(handler=_cmd_optimal_gap)

    delay_track = sub.add_parser(
        "delay-track",
        help="delay-tracking study: scheduling-policy improvements vs. "
        "tracking-table size on adaptive hardware "
        "(see docs/delay_tracking.md)",
    )
    delay_track.add_argument(
        "--programs",
        default=None,
        help="comma-separated subset of Perfect Club programs, "
        "e.g. --programs ADM,MDG (default: the whole suite)",
    )
    delay_track.add_argument(
        "--tables",
        default=None,
        help="comma-separated distinct tracking-table sizes to sweep "
        "(default 0,1,2,4,64; 0 = the paper's in-order machine)",
    )
    delay_track.add_argument("--seed", type=int, default=DEFAULT_SEED)
    delay_track.add_argument("--runs", type=_positive_int, default=30)
    delay_track.add_argument(
        "--quick", action="store_true", help="3-run smoke pass"
    )
    delay_track.add_argument(
        "--out",
        default=None,
        help="write the report here instead of stdout "
        "(the committed copy lives at results/delay_tracking.txt)",
    )
    delay_track.set_defaults(handler=_cmd_delay_track)

    trace = sub.add_parser("trace", help="trace one simulated execution")
    trace.add_argument("file")
    trace.add_argument("--memory", default="N(2,5)")
    trace.add_argument(
        "--policy", choices=["balanced", "traditional"], default="balanced"
    )
    trace.add_argument("--latency", type=float, default=2)
    trace.add_argument(
        "--processor",
        default="unlimited",
        help="processor spec: <base>[x<width>][+dt<table>] with base "
        "unlimited/max8/len8/blocking, or dt<table> "
        "(e.g. max8, unlimitedx4, dt8, len8x2+dt4)",
    )
    trace.add_argument("--seed", type=int, default=DEFAULT_SEED)
    trace.set_defaults(handler=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="serve compile/schedule/simulate/explain over HTTP "
        "(see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="accepted for compatibility: simulation batches run in the "
        "daemon's process, and values above 1 are clamped to 1",
    )
    serve.add_argument(
        "--cache-dir",
        default=default_cache_dir(),
        help="result-cache directory shared with `run`",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="serve without a result cache"
    )
    serve.add_argument(
        "--manifest",
        default=default_manifest_path(),
        help="manifest JSONL to append request records to",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=64,
        help="simulation requests queued/in-flight before 429",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="default per-request deadline in seconds (0 disables)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.01,
        help="seconds to hold a simulation request for coalescing",
    )
    serve.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable request tracing (traceparent ids, /debug routes)",
    )
    serve.add_argument(
        "--trace-capacity",
        type=_positive_int,
        default=256,
        help="recent requests kept for /debug/requests and /debug/trace",
    )
    serve.set_defaults(handler=_cmd_serve)

    return parser


_VERBOSITY_FLAGS = ("-v", "--verbose", "-q", "--quiet")


def _install_sigterm_handler() -> None:
    """Convert SIGTERM into KeyboardInterrupt for the batch commands.

    `kill <pid>` then unwinds through the same except/finally chain as
    Ctrl-C: the manifest records ``interrupted``, checkpoints land and
    obs exports finish (atomically) -- instead of the default handler
    killing the process mid-write.
    ``serve`` replaces this with its own asyncio handler.  Signals can
    only be installed from the main thread; embedders calling
    :func:`main` elsewhere keep their own handling.
    """
    if threading.current_thread() is not threading.main_thread():
        return

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # pragma: no cover - exotic embedding
        pass


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Bare experiment names are shorthand for `run <experiment>`; any
    # leading -v/-q flags may precede the name.
    head = 0
    while head < len(argv) and argv[head] in _VERBOSITY_FLAGS:
        head += 1
    if head < len(argv) and argv[head] in EXPERIMENTS + ["all"]:
        argv.insert(head, "run")
    parser = _build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    _install_sigterm_handler()
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        print("balanced-sched: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # e.g. `balanced-sched ... | head`
        return 1
    except MinifError as exc:
        print(f"balanced-sched: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Bad paths and unwritable outputs (FileNotFoundError,
        # IsADirectoryError, PermissionError ...): one line, no
        # traceback, non-zero exit.
        print(f"balanced-sched: {exc}", file=sys.stderr)
        return 2


def cli() -> None:
    """Process entry point: ``balanced-sched`` and ``python -m
    repro.experiments.runner``.

    Runs :func:`main` on ``sys.argv``, then freezes every object still
    alive before exiting with its status.  The interpreter's finalizer
    runs full garbage collections over the heap the process is about to
    drop; frozen objects are never scanned, which cuts the exit of a
    cold ``run all`` from 50-130 ms to ~10 ms (docs/performance.md
    section 5n).  The freeze sits in a ``finally``,
    so ``--help`` and argparse errors (``SystemExit``) take it too.
    Nothing else changes: ``atexit`` handlers, stdio flushing and
    reference-count deallocation all still run, and nothing in this
    package relies on a cyclic-garbage finalizer (no ``__del__``, no
    weak references, no ``atexit`` hook; files are closed by ``with``).
    In-process callers use :func:`main`, which never freezes.
    """
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    cli()
