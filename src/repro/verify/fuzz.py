"""The differential oracle: random minif programs vs. the pipeline.

Each fuzz iteration generates a seeded random minif program (via
:func:`random_ast`), compiles it under balanced and traditional
scheduling in both alias models, checks every pipeline artefact with
the legality oracle, and then simulates every final block under every
supported processor-model family twice -- once with the scalar
simulator, once with the run-vectorized batch simulator -- asserting
exact per-run cycle-count equality.  On the in-order, single-issue,
non-blocking models the batch kernel's per-step stall attribution is
also checked, run by run and under every memory family, against the
scalar :func:`~repro.simulate.trace.trace_block` (the ``attribution``
mismatch kind).

The exact branch-and-bound backend rides the same loop
(:func:`_check_optimal_cross`): its pipeline artefacts go through the
oracle in both alias models, and on every block the cost chain
``lower_bound <= optimal <= balanced <= worst list schedule`` must
hold under both fixed-latency models.

A mismatch of any kind is minimized by the greedy shrinker
(:mod:`repro.verify.shrink`) and written to ``results/fuzz/`` as a
JSON artifact holding the seed, the original and shrunk minif source
and the expected/actual observations, so a failure found on one
machine replays anywhere (:func:`replay_artifact`).

The program generator is size-parameterized and deliberately covers
the degenerate shapes a suite-derived corpus never produces: empty
kernels, single-statement kernels, all-load chains, wide
anti-dependence fans (many loads feeding one store into the same
cell), reductions through a carried scalar, and indirect (gather)
subscripts in both alias models.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.alias import AliasModel
from ..core.balanced import BalancedScheduler
from ..core.pipeline import compile_program
from ..core.traditional import TraditionalScheduler
from ..frontend.ast import (
    ArrayRef,
    Assign,
    BinOp,
    IndexExpr,
    IndirectIndex,
    Kernel,
    Num,
    ProgramAST,
    Var,
)
from ..frontend.lowering import compile_minif
from ..frontend.printer import format_program_ast
from ..ir.instructions import Opcode
from ..machine.config import L80_2_5, L80_N30_5, N_2_5, N_30_5
from ..machine.memory import FixedMemory, MemorySystem
from ..machine.processor import (
    BLOCKING,
    LEN_8,
    MAX_8,
    ProcessorModel,
    UNLIMITED,
    delay_tracking,
    model_family,
    superscalar,
)
from ..simulate.batch import (
    CAUSE_FREEZE,
    CAUSE_SLOT,
    attribution_skip_reason,
    simulate_block_batch,
    use_writers,
)
from ..simulate.rng import DEFAULT_SEED, spawn
from ..simulate.simulator import simulate_block
from ..simulate.trace import StallReason, trace_block
from .oracle import check_compiled

#: One processor per constraint family the simulators special-case,
#: plus tight variants that actually bind on small fuzz blocks.  The
#: superscalar draw crosses widths 2/4/8 with every memory-constraint
#: family (the batch simulator's vectorized multi-issue kernel is
#: checked against the scalar path like any other model; blocking
#: loads exist at width 1 only).
FUZZ_PROCESSORS: Tuple[ProcessorModel, ...] = (
    UNLIMITED,
    MAX_8,
    LEN_8,
    BLOCKING,
    ProcessorModel("MAX-2", max_outstanding_loads=2),
    ProcessorModel("LEN-3", max_load_cycles=3),
    ProcessorModel("LEN-3+MAX-2", max_load_cycles=3, max_outstanding_loads=2),
    superscalar(2),
    superscalar(4),
    superscalar(8),
    ProcessorModel("MAX-2x4", max_outstanding_loads=2, issue_width=4),
    ProcessorModel("LEN-3x4", max_load_cycles=3, issue_width=4),
    ProcessorModel(
        "LEN-3+MAX-2x8",
        max_load_cycles=3,
        max_outstanding_loads=2,
        issue_width=8,
    ),
    # Delay-tracking crosses: table sizes {1, 2, 4, 8} against widths
    # {1, 2, 4} and all four memory-constraint families.  A table of 1
    # binds on nearly every block; 8 saturates most fuzz blocks (the
    # perfect-knowledge limit); the blocking cross pins that a
    # blocking machine is unchanged by tracking.
    delay_tracking(1),
    delay_tracking(8),
    delay_tracking(2, ProcessorModel("MAX-2", max_outstanding_loads=2)),
    delay_tracking(4, ProcessorModel("LEN-3", max_load_cycles=3)),
    delay_tracking(8, BLOCKING),
    delay_tracking(1, superscalar(2)),
    delay_tracking(8, superscalar(2, MAX_8)),
    delay_tracking(4, superscalar(4)),
    delay_tracking(2, ProcessorModel(
        "LEN-3+MAX-2x4",
        max_load_cycles=3,
        max_outstanding_loads=2,
        issue_width=4,
    )),
)

#: One memory system per family (fixed / cache / network / mixed).
FUZZ_MEMORIES: Tuple[MemorySystem, ...] = (
    FixedMemory(4),
    L80_2_5,
    N_2_5,
    N_30_5,
    L80_N30_5,
)

_ARRAYS = ("va", "vb", "vc", "vd")
_INDEX_ARRAY = "idx"
_SCALARS = ("s0", "s1", "s2")

#: Generator shape vocabulary; "mixed" is weighted heaviest, the rest
#: are the adversarial corners.
SHAPES = (
    "mixed", "mixed", "mixed", "mixed",
    "single", "empty", "allload", "antifan", "reduction", "samecell",
)


# ----------------------------------------------------------------------
# Random program generation
# ----------------------------------------------------------------------
def _affine(rng: np.random.Generator) -> IndexExpr:
    coeff = int(rng.choice((0, 1, 1, 1, 1, 2, 3)))
    if coeff == 0:
        return IndexExpr(0, int(rng.integers(0, 8)))
    return IndexExpr(coeff, int(rng.integers(-2, 5)))


def _index(rng: np.random.Generator, allow_indirect: bool = True):
    if allow_indirect and rng.random() < 0.15:
        return IndirectIndex(_INDEX_ARRAY, _affine(rng))
    return _affine(rng)


def _expr(rng: np.random.Generator, temps: List[str], depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        leaf = rng.random()
        if leaf < 0.55:
            return ArrayRef(str(rng.choice(_ARRAYS)), _index(rng))
        if leaf < 0.75 and temps:
            return Var(str(rng.choice(temps)))
        if leaf < 0.9:
            return Var(str(rng.choice(_SCALARS)))
        return Num(float(int(rng.integers(1, 9))))
    op = str(rng.choice(("+", "+", "-", "*", "*", "/")))
    return BinOp(op, _expr(rng, temps, depth - 1), _expr(rng, temps, depth - 1))


def _mixed_body(rng: np.random.Generator, n_statements: int) -> List[Assign]:
    body: List[Assign] = []
    temps: List[str] = []
    for k in range(n_statements):
        expr = _expr(rng, temps, depth=int(rng.integers(1, 4)))
        roll = rng.random()
        if roll < 0.35:
            target = Var(f"t{len(temps)}")
            temps.append(target.name)
        elif roll < 0.55:
            target = Var(str(rng.choice(_SCALARS)))
        else:
            target = ArrayRef(str(rng.choice(_ARRAYS)), _index(rng))
        body.append(Assign(target, expr))
    return body


def _shape_body(rng: np.random.Generator, shape: str, n_statements: int) -> List[Assign]:
    if shape == "empty":
        return []
    if shape == "single":
        return _mixed_body(rng, 1)
    if shape == "allload":
        # A chain summing many loads: long serial dependence, no store.
        expr = ArrayRef(_ARRAYS[0], _affine(rng))
        for k in range(max(2, n_statements)):
            expr = BinOp("+", expr, ArrayRef(
                str(rng.choice(_ARRAYS)), _affine(rng)
            ))
        return [Assign(Var("s0"), expr)]
    if shape == "antifan":
        # Many independent loads feeding one store into a cell that the
        # loads may also read: a wide anti-dependence fan.
        cell = ArrayRef(_ARRAYS[0], IndexExpr(1, 0))
        expr = ArrayRef(_ARRAYS[0], IndexExpr(1, 0))
        for k in range(max(2, n_statements)):
            expr = BinOp("+", expr, ArrayRef(_ARRAYS[0], IndexExpr(1, k + 1)))
        return [Assign(cell, expr)]
    if shape == "reduction":
        body = []
        for _ in range(max(1, n_statements // 2)):
            body.append(Assign(Var("s0"), BinOp(
                "+", Var("s0"),
                BinOp("*", ArrayRef("va", _affine(rng)),
                      ArrayRef("vb", _affine(rng))),
            )))
        return body
    if shape == "samecell":
        # Store then reload of the very same cell (memory true dep).
        index = IndexExpr(1, 0)
        return [
            Assign(ArrayRef("va", index), BinOp(
                "+", ArrayRef("vb", _affine(rng)), Num(1.0)
            )),
            Assign(Var("s1"), BinOp(
                "*", ArrayRef("va", index), ArrayRef("va", _affine(rng))
            )),
        ]
    return _mixed_body(rng, n_statements)


def random_ast(
    rng: np.random.Generator,
    max_statements: int = 6,
    name: str = "fuzz",
) -> ProgramAST:
    """A seeded random minif program (always parses and round-trips)."""
    kernels: List[Kernel] = []
    for k in range(int(rng.integers(1, 4))):
        shape = str(rng.choice(SHAPES))
        n_statements = int(rng.integers(1, max(2, max_statements + 1)))
        unroll = int(rng.choice((1, 1, 1, 2, 3)))
        kernels.append(Kernel(
            name=f"k{k}",
            freq=float(int(rng.integers(1, 50))),
            unroll=unroll,
            body=_shape_body(rng, shape, n_statements),
        ))
    return ProgramAST(
        name=name,
        arrays=list(_ARRAYS) + [_INDEX_ARRAY],
        scalars=list(_SCALARS),
        kernels=kernels,
    )


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mismatch:
    """One divergence between two things that must agree."""

    kind: str        # "legality" | "cycles" | "cost-order" | "attribution"
    detail: str
    expected: str = ""
    actual: str = ""

    def __str__(self) -> str:
        text = f"[{self.kind}] {self.detail}"
        if self.expected or self.actual:
            text += f" (expected {self.expected}, got {self.actual})"
        return text


_POLICY_FACTORIES: Tuple[Callable, ...] = (
    lambda: BalancedScheduler(),
    lambda: TraditionalScheduler(2),
    lambda: TraditionalScheduler(5),
)

#: Expansion budget for the exact backend inside the fuzz loop: small
#: enough to keep iterations fast, large enough to certify nearly all
#: generated blocks (the invariants below hold either way).
FUZZ_OPTIMAL_BUDGET = 20_000


def _check_optimal_cross(program) -> List[Mismatch]:
    """The exact-backend differential cross.

    Two families of checks per memory model (W = 2 hit / 5 miss):

    * **Legality.**  The full two-pass pipeline under the optimal
      policy, in both alias models, every artefact through the
      independent oracle -- the only code path where the oracle sees
      schedules that did not come from the list scheduler.
    * **Cost invariants.**  On every block's DAG, with all costs
      evaluated under the *same* fixed-latency model:
      ``lower_bound <= optimal <= balanced <= worst list schedule``.
      The optimal-vs-balanced inequality is unconditional (the search
      is seeded with the balanced order, so even a budget-limited
      best-effort result can never be worse); "worst" is the maximum
      over the whole list-policy family {balanced, traditional(2),
      traditional(5)} -- balanced is a member, so the middle
      inequality holds by construction and the check documents the
      chain rather than assuming balanced beats traditional on every
      block (it does not, and the gap report quantifies where).
      A certified search must additionally close the gap exactly:
      ``optimal == lower_bound``.
    """
    from ..analysis.dependence import build_dag
    from ..core.optimal import OptimalScheduler, schedule_cost

    mismatches: List[Mismatch] = []
    for alias_model in (AliasModel.FORTRAN, AliasModel.C_CONSERVATIVE):
        for latency in (2, 5):
            policy = OptimalScheduler(
                latency, node_budget=FUZZ_OPTIMAL_BUDGET
            )
            compiled = compile_program(
                program, policy, alias_model=alias_model
            )
            for artefact in compiled.blocks:
                for violation in check_compiled(
                    artefact, alias_model, processors=(UNLIMITED,)
                ):
                    mismatches.append(Mismatch(
                        "legality",
                        f"{policy.name}/{alias_model.value}/"
                        f"{artefact.final.name}: {violation}",
                    ))

    list_policies = [factory() for factory in _POLICY_FACTORIES]
    for block in program.all_blocks():
        if not block.instructions:
            continue
        dag = build_dag(block)
        list_orders = {
            policy.name: policy.schedule_dag(dag, block).order
            for policy in list_policies
        }
        for latency in (2, 5):
            costs = {
                name: schedule_cost(dag, order, latency)
                for name, order in list_orders.items()
            }
            balanced_cost = costs["balanced"]
            worst_cost = max(costs.values())
            result = OptimalScheduler(
                latency, node_budget=FUZZ_OPTIMAL_BUDGET
            ).schedule_dag(dag, block)
            where = f"block {block.name}, W={latency}"
            if not (result.lower_bound <= result.cost):
                mismatches.append(Mismatch(
                    "cost-order",
                    f"optimal cost below its own lower bound: {where}",
                    expected=f">= {result.lower_bound}",
                    actual=str(result.cost),
                ))
            if result.certified and result.cost != result.lower_bound:
                mismatches.append(Mismatch(
                    "cost-order",
                    f"certified search left an open gap: {where}",
                    expected=f"cost == lb == {result.lower_bound}",
                    actual=f"cost={result.cost}",
                ))
            if not (result.cost <= balanced_cost <= worst_cost):
                mismatches.append(Mismatch(
                    "cost-order",
                    f"optimal <= balanced <= worst violated: {where}",
                    expected=(
                        f"optimal <= {balanced_cost} <= {worst_cost}"
                    ),
                    actual=f"optimal={result.cost}",
                ))
    return mismatches


def check_source(
    source: str,
    seed: int = DEFAULT_SEED,
    runs: int = 3,
    processors: Sequence[ProcessorModel] = FUZZ_PROCESSORS,
    memories: Sequence[MemorySystem] = FUZZ_MEMORIES,
) -> List[Mismatch]:
    """All legality and scalar-vs-batch mismatches for one program."""
    mismatches: List[Mismatch] = []
    program = compile_minif(source)

    for alias_model in (AliasModel.FORTRAN, AliasModel.C_CONSERVATIVE):
        for factory in _POLICY_FACTORIES:
            policy = factory()
            compiled = compile_program(program, policy, alias_model=alias_model)
            for artefact in compiled.blocks:
                for violation in check_compiled(
                    artefact, alias_model, processors=(UNLIMITED,)
                ):
                    mismatches.append(Mismatch(
                        "legality",
                        f"{policy.name}/{alias_model.value}/"
                        f"{artefact.final.name}: {violation}",
                    ))

    # The exact backend: pipeline legality in both alias models plus
    # the lower_bound <= optimal <= balanced <= worst cost chain.
    mismatches.extend(_check_optimal_cross(program))

    # Scalar vs. batch agreement on the balanced/FORTRAN compilation
    # (the pipeline output the published tables simulate).
    compiled = compile_program(program, BalancedScheduler())
    for block_index, block in enumerate(compiled.final_blocks):
        n_loads = len(block.loads)
        for proc_index, processor in enumerate(processors):
            memory = memories[(block_index + proc_index) % len(memories)]
            rng = spawn(
                "fuzz-sim", seed, block.name, processor.name, memory.name
            )
            latencies = memory.sample_many(rng, n_loads * runs).reshape(
                runs, n_loads
            )
            batch = simulate_block_batch(
                block.instructions, latencies, processor
            )
            for run in range(runs):
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
                        f"scalar/batch divergence: block {block.name}, "
                        f"{processor.name} ({model_family(processor)}), "
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
        mismatches.extend(_check_attribution(
            block, seed, runs, processors, memories
        ))
    return mismatches


def attribution_entries(
    instructions: Sequence,
    latencies: np.ndarray,
    processor: ProcessorModel,
) -> Tuple[List[list], List[list]]:
    """Per run, the stalled instructions' ``(index, stall, reason,
    writer)`` as the batch kernel attributes them and as
    :func:`~repro.simulate.trace.trace_block` does; the two must be
    equal."""
    batch = simulate_block_batch(
        instructions, latencies, processor, attribute=True
    )
    index = [
        i for i, inst in enumerate(instructions)
        if inst.opcode is not Opcode.NOP
    ]
    writers = use_writers(instructions)
    reasons = {
        CAUSE_SLOT: StallReason.LOAD_SLOTS.value,
        CAUSE_FREEZE: StallReason.FREEZE.value,
    }
    kernel, scalar = [], []
    for run, row in enumerate(latencies):
        entries = []
        for k in np.flatnonzero(batch.stalls[:, run]):
            cause = int(batch.causes[k, run])
            entries.append((
                index[k],
                int(batch.stalls[k, run]),
                reasons.get(cause, StallReason.OPERAND.value),
                writers[k][cause] if cause >= 0 else None,
            ))
        kernel.append(entries)
        scalar.append([
            (e.index, e.stall, e.reason.value, e.waited_on_writer)
            for e in trace_block(instructions, row, processor).entries
            if e.stall
        ])
    return kernel, scalar


def _check_attribution(
    block,
    seed: int,
    runs: int,
    processors: Sequence[ProcessorModel],
    memories: Sequence[MemorySystem],
) -> List[Mismatch]:
    """The batch kernel's stall attribution against ``trace_block``,
    run by run, for every in-order, single-issue, non-blocking
    processor under every memory family."""
    mismatches: List[Mismatch] = []
    n_loads = len(block.loads)
    for processor in processors:
        if attribution_skip_reason(processor) is not None:
            continue
        for memory in memories:
            rng = spawn(
                "fuzz-attribution", seed, block.name, processor.name,
                memory.name,
            )
            latencies = memory.sample_many(rng, n_loads * runs).reshape(
                runs, n_loads
            )
            kernel, scalar = attribution_entries(
                block.instructions, latencies, processor
            )
            for run, (actual, expected) in enumerate(zip(kernel, scalar)):
                if actual != expected:
                    mismatches.append(Mismatch(
                        "attribution",
                        f"kernel/trace_block stall attribution: block "
                        f"{block.name}, {processor.name}, {memory.name}, "
                        f"run {run}",
                        expected=str(expected),
                        actual=str(actual),
                    ))
    return mismatches


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------
ARTIFACT_SCHEMA = "repro.verify.fuzz/1"


def write_artifact(
    out_dir: str,
    seed: int,
    iteration: int,
    source: str,
    shrunk: str,
    mismatches: Sequence[Mismatch],
    runs: int,
) -> str:
    """Persist one failure as a replayable JSON artifact."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"fuzz-{seed}-{iteration:05d}.json")
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "seed": seed,
        "iteration": iteration,
        "runs": runs,
        "source": source,
        "shrunk_source": shrunk,
        "mismatches": [
            {
                "kind": m.kind,
                "detail": m.detail,
                "expected": m.expected,
                "actual": m.actual,
            }
            for m in mismatches
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path} is not a fuzz artifact (schema {payload.get('schema')!r})"
        )
    return payload


def replay_artifact(path: str) -> List[Mismatch]:
    """Re-run the differential check on an artifact's shrunk program."""
    payload = load_artifact(path)
    return check_source(
        payload["shrunk_source"] or payload["source"],
        seed=payload["seed"],
        runs=payload["runs"],
    )


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` session."""

    seed: int
    iterations: int
    programs_checked: int = 0
    failures: int = 0
    artifacts: List[str] = field(default_factory=list)
    mismatches: List[Mismatch] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"fuzz: seed {self.seed}, {self.programs_checked} program(s) "
            f"checked over {self.iterations} iteration(s)",
        ]
        if self.failures:
            lines.append(f"  {self.failures} FAILING program(s):")
            lines.extend(f"    {path}" for path in self.artifacts)
            lines.extend(f"    {m}" for m in self.mismatches[:8])
        else:
            lines.append(
                "  0 mismatches (legality oracle + scalar/batch agreement "
                "+ stall attribution)"
            )
        return "\n".join(lines)


def run_fuzz(
    seed: int = DEFAULT_SEED,
    iters: int = 200,
    max_insns: int = 40,
    out_dir: str = os.path.join("results", "fuzz"),
    runs: int = 3,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Generate, check and (on failure) shrink ``iters`` programs.

    ``max_insns`` bounds the *lowered* size of a generated kernel by
    steering the statement budget; artifacts are only written for
    failures, so a clean run leaves ``out_dir`` untouched.
    """
    from .shrink import shrink_source  # local import: shrink -> fuzz types

    report = FuzzReport(seed=seed, iterations=iters)
    max_statements = max(1, max_insns // 6)
    for iteration in range(iters):
        rng = spawn("fuzz-gen", seed, iteration)
        ast = random_ast(rng, max_statements=max_statements)
        source = format_program_ast(ast)
        report.programs_checked += 1
        mismatches = check_source(source, seed=seed, runs=runs)
        if not mismatches:
            if progress is not None and (iteration + 1) % 25 == 0:
                progress(f"  {iteration + 1}/{iters} programs clean")
            continue
        report.failures += 1
        report.mismatches.extend(mismatches)
        shrunk = source
        if shrink:
            shrunk = shrink_source(
                source,
                lambda text: bool(check_source(text, seed=seed, runs=runs)),
            )
        path = write_artifact(
            out_dir, seed, iteration, source, shrunk, mismatches, runs
        )
        report.artifacts.append(path)
        if progress is not None:
            progress(f"  FAIL at iteration {iteration}: {path}")
    return report
