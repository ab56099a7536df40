"""Ablation studies for the design choices DESIGN.md calls out.

1. **Non-blocking loads** (Section 1's motivation): on conventional
   stall-on-load hardware no schedule can hide latency, so balanced
   scheduling's advantage collapses to noise; non-blocking loads are
   the enabling hardware feature.
2. **Average-weight variant** (Section 3's rejected alternative): one
   block-average weight per load instead of per-load weights.
3. **Scheduler direction**: the paper's bottom-up versus the forward
   scheduler that matches its illustrated figures.
4. **Spill pool** (Section 4.1's improvement): enlarged FIFO pool
   versus GCC's small fixed-order pool, on a spill-heavy program.
5. **Alias model** (Section 4.2's transformation): FORTRAN no-alias
   semantics versus f2c's conservative C aliasing.
6. **Superscalar issue width** (Section 6 extension).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..analysis.alias import AliasModel
from ..core.balanced import AverageWeightScheduler, BalancedScheduler
from ..core.scheduler import Direction
from ..core.traditional import TraditionalScheduler
from ..machine.config import system_row
from ..machine.processor import BLOCKING, UNLIMITED, superscalar
from ..regalloc.target import (
    DEFAULT_REGISTER_FILE,
    UNIMPROVED_REGISTER_FILE,
)
from ..simulate.program import simulate_program
from ..simulate.rng import spawn
from ..simulate.stats import percentage_improvement, program_bootstrap_runtimes
from ..workloads.perfect import load_program
from .cache import object_key
from .common import COMPILATION_CACHE, PerItem, WorkItem, checkpointed_map

#: Representative systems for the ablations: one cache, one noisy
#: network, the mixed model.
ABLATION_SYSTEMS = (
    ("L80(2,10)", 2),
    ("N(2,5)", 2),
    ("L80-N(30,5)", 2),
)


def _runtime_boot(program, policy, system, seed_key, register_file=DEFAULT_REGISTER_FILE,
                  alias_model=AliasModel.FORTRAN, runs=30):
    """Compile under ``policy`` and bootstrap program runtimes."""
    compiled = COMPILATION_CACHE.compile(
        program, policy, register_file=register_file, alias_model=alias_model
    )
    rng = spawn("ablation-sim", *seed_key)
    sampled = simulate_program(
        compiled.final_blocks, UNLIMITED, system.memory, rng, runs=runs
    )
    boot_rng = spawn("ablation-boot", *seed_key)
    return program_bootstrap_runtimes(sampled, boot_rng), compiled


@dataclass
class AblationResult:
    """Name -> {configuration -> % improvement over the baseline}."""

    tables: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        lines = ["Ablation studies", ""]
        for name, table in self.tables.items():
            lines.append(f"  == {name}")
            for configuration, value in table.items():
                if "cycles" in configuration or "stages" in configuration:
                    lines.append(f"     {configuration:44s} {value:8.1f}")
                else:
                    lines.append(f"     {configuration:44s} {value:+7.1f}%")
            lines.append("")
        return "\n".join(lines)


def run_average_weight_ablation(program_name: str = "MDG") -> Dict[str, float]:
    """Balanced and average-weight improvement over traditional."""
    program = load_program(program_name)
    out: Dict[str, float] = {}
    for mem, latency in ABLATION_SYSTEMS:
        system = system_row(mem, latency)
        key = (program_name, mem, f"{latency:g}")
        trad_boot, _ = _runtime_boot(
            program, TraditionalScheduler(latency), system, key + ("trad",)
        )
        bal_boot, _ = _runtime_boot(
            program, BalancedScheduler(), system, key + ("bal",)
        )
        avg_boot, _ = _runtime_boot(
            program, AverageWeightScheduler(), system, key + ("avg",)
        )
        out[f"balanced vs traditional @ {system.label}"] = percentage_improvement(
            trad_boot, bal_boot
        ).mean
        out[f"average-weight vs traditional @ {system.label}"] = (
            percentage_improvement(trad_boot, avg_boot).mean
        )
    return out


def run_direction_ablation(program_name: str = "MDG") -> Dict[str, float]:
    """Balanced-over-traditional improvement per scheduler direction."""
    program = load_program(program_name)
    out: Dict[str, float] = {}
    for direction in Direction:
        for mem, latency in ABLATION_SYSTEMS[:2]:
            system = system_row(mem, latency)
            key = (program_name, mem, f"{latency:g}", direction.value)
            trad_boot, _ = _runtime_boot(
                program,
                TraditionalScheduler(latency, direction=direction),
                system,
                key + ("trad",),
            )
            bal_boot, _ = _runtime_boot(
                program,
                BalancedScheduler(direction=direction),
                system,
                key + ("bal",),
            )
            out[
                f"{direction.value} balanced vs traditional @ {system.label}"
            ] = percentage_improvement(trad_boot, bal_boot).mean
    return out


def run_spill_pool_ablation(program_name: str = "QCD2") -> Dict[str, float]:
    """The Section 4.1 spill-pool improvement, on a spill-heavy program.

    Reports balanced-over-traditional improvement with the enlarged
    FIFO pool versus GCC's unimproved pool.
    """
    program = load_program(program_name)
    out: Dict[str, float] = {}
    configurations = (
        ("enlarged FIFO pool (paper)", DEFAULT_REGISTER_FILE),
        ("small fixed-order pool (GCC)", UNIMPROVED_REGISTER_FILE),
    )
    mem, latency = ABLATION_SYSTEMS[1]
    system = system_row(mem, latency)
    for label, register_file in configurations:
        key = (program_name, mem, f"{latency:g}", label)
        trad_boot, trad_comp = _runtime_boot(
            program,
            TraditionalScheduler(latency),
            system,
            key + ("trad",),
            register_file=register_file,
        )
        bal_boot, bal_comp = _runtime_boot(
            program,
            BalancedScheduler(),
            system,
            key + ("bal",),
            register_file=register_file,
        )
        out[f"{label}: balanced vs traditional @ {system.label}"] = (
            percentage_improvement(trad_boot, bal_boot).mean
        )
        out[f"{label}: balanced spill %"] = bal_comp.spill_percentage
    return out


def run_alias_ablation(program_name: str = "MDG") -> Dict[str, float]:
    """Section 4.2: FORTRAN no-alias semantics vs conservative C."""
    program = load_program(program_name)
    out: Dict[str, float] = {}
    mem, latency = ABLATION_SYSTEMS[0]
    system = system_row(mem, latency)
    for model in (AliasModel.FORTRAN, AliasModel.C_CONSERVATIVE):
        key = (program_name, mem, f"{latency:g}", model.value)
        trad_boot, _ = _runtime_boot(
            program,
            TraditionalScheduler(latency),
            system,
            key + ("trad",),
            alias_model=model,
        )
        bal_boot, _ = _runtime_boot(
            program, BalancedScheduler(), system, key + ("bal",), alias_model=model
        )
        out[
            f"{model.value} aliasing: balanced vs traditional @ {system.label}"
        ] = percentage_improvement(trad_boot, bal_boot).mean
    return out


def run_superscalar_ablation(program_name: str = "MDG") -> Dict[str, float]:
    """Section 6 extension: balanced improvement vs issue width."""
    program = load_program(program_name)
    out: Dict[str, float] = {}
    mem, latency = ABLATION_SYSTEMS[1]
    system = system_row(mem, latency)
    for width in (1, 2, 4):
        # ``superscalar(1)`` is semantically UNLIMITED (the simulators
        # dispatch on issue_width, nothing here keys on the name), so
        # no width-1 special case is needed now that the batch
        # simulator runs every width natively.
        processor = superscalar(width)
        trad = COMPILATION_CACHE.compile(program, TraditionalScheduler(latency))
        bal = COMPILATION_CACHE.compile(program, BalancedScheduler())
        key = (program_name, mem, f"{latency:g}", f"w{width}")
        trad_runs = simulate_program(
            trad.final_blocks, processor, system.memory, spawn("ss", *key, "t")
        )
        bal_runs = simulate_program(
            bal.final_blocks, processor, system.memory, spawn("ss", *key, "b")
        )
        t_boot = program_bootstrap_runtimes(trad_runs, spawn("ssb", *key, "t"))
        b_boot = program_bootstrap_runtimes(bal_runs, spawn("ssb", *key, "b"))
        out[f"issue width {width}: balanced vs traditional @ {system.label}"] = (
            percentage_improvement(t_boot, b_boot).mean
        )
    return out


def run_blocking_ablation(program_name: str = "MDG") -> Dict[str, float]:
    """Section 1's motivation: with conventional blocking loads no
    schedule can hide latency, so balanced scheduling's advantage
    should vanish; non-blocking hardware is what makes it matter."""
    program = load_program(program_name)
    out: Dict[str, float] = {}
    mem, latency = ABLATION_SYSTEMS[1]
    system = system_row(mem, latency)
    trad = COMPILATION_CACHE.compile(program, TraditionalScheduler(latency))
    bal = COMPILATION_CACHE.compile(program, BalancedScheduler())
    for processor in (UNLIMITED, BLOCKING):
        key = (program_name, mem, f"{latency:g}", processor.name)
        trad_runs = simulate_program(
            trad.final_blocks, processor, system.memory, spawn("blk", *key, "t")
        )
        bal_runs = simulate_program(
            bal.final_blocks, processor, system.memory, spawn("blk", *key, "b")
        )
        t_boot = program_bootstrap_runtimes(trad_runs, spawn("blkb", *key, "t"))
        b_boot = program_bootstrap_runtimes(bal_runs, spawn("blkb", *key, "b"))
        out[
            f"{processor.name}: balanced vs traditional @ {system.label}"
        ] = percentage_improvement(t_boot, b_boot).mean
    return out


def run_allocator_ablation(program_name: str = "BDNA") -> Dict[str, float]:
    """How much of Table 4's shape is an allocator artefact?

    Spill percentages for balanced vs traditional(2) vs traditional(30)
    under the pressure-optimal linear scan and under Chaitin-style
    cost/degree coloring (closer in character to GCC's allocator).
    """
    from ..regalloc.chaitin import ChaitinAllocator
    from ..regalloc.linear_scan import LinearScanAllocator

    program = load_program(program_name)
    out: Dict[str, float] = {}
    for label, factory in (
        ("linear scan", LinearScanAllocator),
        ("chaitin cost/degree", ChaitinAllocator),
    ):
        for policy_label, policy in (
            ("balanced", BalancedScheduler()),
            ("traditional W=2", TraditionalScheduler(2)),
            ("traditional W=30", TraditionalScheduler(30)),
        ):
            compiled = COMPILATION_CACHE.compile(
                program, policy, allocator=factory(DEFAULT_REGISTER_FILE)
            )
            out[f"{label}: {policy_label} spill %"] = compiled.spill_percentage
    return out


def run_trace_ablation(latency: int = 6) -> Dict[str, float]:
    """Section 6: trace scheduling on the hot-path demo CFG.

    Reports hot-path cycles at a fixed ``latency`` for block-by-block
    versus trace scheduling, under both policies, plus the percentage
    the trace saves for balanced scheduling.
    """
    from ..extensions.trace import compare_trace_vs_blocks
    from ..simulate.simulator import simulate_block
    from ..workloads.cfg_demo import hot_path_cfg

    def cycles(block):
        n_loads = sum(1 for i in block if i.is_load)
        return simulate_block(
            block.instructions, [latency] * n_loads, UNLIMITED
        ).cycles

    out: Dict[str, float] = {}
    for label, factory in (
        ("balanced", BalancedScheduler),
        ("traditional W=2", lambda: TraditionalScheduler(2)),
    ):
        per_block, traced = compare_trace_vs_blocks(
            hot_path_cfg(), factory, cycles
        )
        out[f"{label}: block-by-block cycles @ latency {latency}"] = per_block
        out[f"{label}: trace cycles @ latency {latency}"] = traced
        out[f"{label}: trace saving %"] = 100.0 * (per_block - traced) / per_block
    return out


def run_pipelining_ablation(load_latency: int = 6) -> Dict[str, float]:
    """Section 6: software pipelining versus unroll-and-schedule.

    For three loop shapes, the modulo schedule's initiation interval
    (exact steady-state cycles/iteration) against the measured
    throughput of balanced scheduling over an unrolled body.
    """
    from ..extensions.modulo import modulo_schedule
    from ..frontend.lowering import compile_minif
    from ..simulate.throughput import throughput

    loops = {
        "stream": """
program p
  array a[64], c[64]
  kernel k freq 1
    t1 = a[i] * a[i+1]
    c[i] = t1 + t1
  end
end
""",
        "dot": """
program p
  array a[64], b[64]
  kernel k freq 1
    s = s + a[i] * b[i]
  end
end
""",
        "filter": """
program p
  array x[64]
  kernel k freq 1
    s = s * c0 + x[i]
  end
end
""",
    }
    out: Dict[str, float] = {}
    for name, source in loops.items():
        body = compile_minif(source, pointer_loads=False).functions[0].blocks[0]
        kernel = modulo_schedule(body, BalancedScheduler())
        unrolled = throughput(
            body, BalancedScheduler(), load_latency, factors=(4, 8, 12)
        )
        out[f"{name}: modulo II (cycles/iteration)"] = float(kernel.ii)
        out[f"{name}: unrolled balanced cycles/iteration"] = (
            unrolled.cycles_per_iteration
        )
        out[f"{name}: pipeline stages overlapped"] = float(kernel.stage_count)
    return out


#: Every ablation, in report order.  Each runs with its default
#: program, and `run_all_ablations` checkpoints each one's table.
ALL_ABLATIONS = (
    ("non-blocking loads (Section 1 motivation)", run_blocking_ablation),
    ("average-weight variant (Section 3)", run_average_weight_ablation),
    ("scheduler direction", run_direction_ablation),
    ("spill pool (Section 4.1)", run_spill_pool_ablation),
    ("alias model (Section 4.2)", run_alias_ablation),
    ("superscalar width (Section 6)", run_superscalar_ablation),
    ("trace scheduling (Section 6)", run_trace_ablation),
    ("register allocator (Table 4 sensitivity)", run_allocator_ablation),
    ("software pipelining (Section 6)", run_pipelining_ablation),
)


def _run_one_ablation(index: int) -> Dict[str, float]:
    """The ablation at ``index`` (a work item's argument)."""
    return ALL_ABLATIONS[index][1]()


def run_all_ablations() -> AblationResult:
    """Run every ablation with its default program.

    Each ablation's whole table is one checkpoint unit (they are
    deterministic: every random stream is string-keyed with fixed
    seeds); the ambient engine session supplies the cache and the
    manifest.
    """
    items = [
        WorkItem(
            PerItem(_run_one_ablation), index, object_key("ablation", label),
            "-", "ablation", label,
        )
        for index, (label, _fn) in enumerate(ALL_ABLATIONS)
    ]
    tables = checkpointed_map(items)
    result = AblationResult()
    for (label, _fn), table in zip(ALL_ABLATIONS, tables):
        result.tables[label] = table
    return result
