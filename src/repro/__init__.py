"""Balanced Scheduling (Kerns & Eggers, PLDI 1993) -- full reproduction.

Quick start::

    from repro import BalancedScheduler
    from repro.frontend import compile_minif

    program = compile_minif('''
    program quickstart
      array a[64], b[64]
      kernel body freq 1
        b[i] = a[i] + a[i+1]
      end
    end
    ''')
    result = BalancedScheduler().schedule_block(program.functions[0].blocks[0])
    print(result.block)

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from .analysis import AliasModel, CodeDAG, build_dag
from .core import (
    AverageWeightScheduler,
    BalancedScheduler,
    CompilationResult,
    SchedulingPolicy,
    TraditionalScheduler,
    balanced_weights,
    compile_block,
    compile_program,
    contribution_matrix,
)
from .ir import BasicBlock, Function, Instruction, Opcode, Program
from .machine import (
    CacheMemory,
    FixedMemory,
    LEN_8,
    MAX_8,
    MemorySystem,
    MixedMemory,
    NetworkMemory,
    ProcessorModel,
    UNLIMITED,
)
from .regalloc import RegisterFile
from .simulate import (
    ImprovementResult,
    compare_runs,
    simulate_block,
    simulate_program,
    spawn,
)

__version__ = "1.0.0"

__all__ = [
    "AliasModel",
    "CodeDAG",
    "build_dag",
    "AverageWeightScheduler",
    "BalancedScheduler",
    "CompilationResult",
    "SchedulingPolicy",
    "TraditionalScheduler",
    "balanced_weights",
    "compile_block",
    "compile_program",
    "contribution_matrix",
    "BasicBlock",
    "Function",
    "Instruction",
    "Opcode",
    "Program",
    "CacheMemory",
    "FixedMemory",
    "LEN_8",
    "MAX_8",
    "MemorySystem",
    "MixedMemory",
    "NetworkMemory",
    "ProcessorModel",
    "UNLIMITED",
    "RegisterFile",
    "ImprovementResult",
    "compare_runs",
    "simulate_block",
    "simulate_program",
    "spawn",
    "__version__",
]
