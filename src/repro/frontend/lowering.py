"""Lowering minif ASTs to the RISC IR.

Each kernel lowers to one straight-line basic block: the loop body
replicated ``unroll`` times (the paper unrolled manually, Section 4.1),
with array references shifted by the unroll copy's iteration distance.

Conventions:

* array elements and scalars are floating point; array base pointers
  are live-in integer registers (one per array, standing for the
  pointer at the current iteration);
* kernel-local temporaries (names starting with ``t``) are renamed per
  unroll copy, so copies are independent; all other scalars are
  loop-carried -- a read-before-write scalar becomes a live-in, and
  every non-temporary assigned scalar is live-out.  Reductions like
  ``s = s + x`` therefore form a serial dependence chain across unroll
  copies, exactly as manually unrolled FORTRAN reductions do;
* numeric literals are materialised once per block (GCC would CSE
  them), array loads are *not* CSEd -- every textual reference is a
  load whose latency the schedulers must place.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.block import BasicBlock, Function, Program
from ..ir.instructions import Opcode, alu, li, load, store
from ..ir.operands import MemRef, RegClass, Register
from ..obs.recorder import span as _span
from .ast import (
    ArrayRef,
    Assign,
    BinOp,
    Expr,
    IndirectIndex,
    Kernel,
    Num,
    ProgramAST,
    Var,
)
from .errors import LoweringError
from .parser import parse_program

_BINOPS = {
    "+": Opcode.FADD,
    "-": Opcode.FSUB,
    "*": Opcode.FMUL,
    "/": Opcode.FDIV,
}


#: Region holding array base pointers (f2c materialises every FORTRAN
#: array as a pointer that MIPS code must first load from static
#: storage; see :func:`lower_ast`).
POINTER_TABLE_REGION = "__ptab"


class _KernelLowering:
    """State for lowering one kernel into one basic block."""

    def __init__(
        self,
        function: Function,
        kernel: Kernel,
        arrays: List[str],
        pointer_loads: bool = True,
    ):
        self.function = function
        self.kernel = kernel
        self.arrays = list(arrays)
        self.pointer_loads = pointer_loads
        self.block = function.add_block(
            BasicBlock(kernel.name, frequency=kernel.freq)
        )
        self.bases: Dict[str, Register] = {}
        self.env: Dict[str, Register] = {}
        self.literals: Dict[float, Register] = {}
        self.live_in_scalars: Dict[str, Register] = {}
        self.assigned_scalars: List[str] = []

    # ------------------------------------------------------------------
    def lower(self) -> BasicBlock:
        for copy in range(self.kernel.unroll):
            for statement in self.kernel.body:
                self._lower_assign(statement, copy)
        self._finalize_liveness()
        return self.block

    # ------------------------------------------------------------------
    def _base(self, region: str) -> Register:
        if region not in self.arrays:
            raise LoweringError(
                f"kernel {self.kernel.name!r} references undeclared array "
                f"{region!r}"
            )
        if region not in self.bases:
            base = self.function.new_vreg(RegClass.INT)
            self.bases[region] = base
            if self.pointer_loads:
                # f2c/MIPS style: the array's base pointer lives in
                # static storage and is loaded before the data access,
                # so every data load sits in *series* behind a pointer
                # load (the Chances > 1 case of the balanced
                # algorithm).  GCC's CSE keeps one pointer load per
                # array per block.
                slot = self.arrays.index(region)
                self.block.append(
                    load(
                        base,
                        MemRef(
                            region=POINTER_TABLE_REGION,
                            base=None,
                            offset=slot,
                            affine_coeff=0,
                        ),
                    )
                )
            else:
                self.block.live_in.append(base)
        return self.bases[region]

    def _scalar_key(self, var: Var, copy: int) -> str:
        """Temporaries get a fresh identity per unroll copy."""
        return f"{var.name}@{copy}" if var.is_temp else var.name

    def _read_scalar(self, var: Var, copy: int) -> Register:
        key = self._scalar_key(var, copy)
        if key in self.env:
            return self.env[key]
        # Read before write: a loop-carried live-in value.
        reg = self.function.new_vreg(RegClass.FP)
        self.env[key] = reg
        self.live_in_scalars[key] = reg
        self.block.live_in.append(reg)
        return reg

    def _literal(self, value: float) -> Register:
        if value not in self.literals:
            reg = self.function.new_vreg(RegClass.FP)
            self.block.append(li(reg, int(value) if value == int(value) else 0))
            # Literal value itself is immaterial to scheduling; the
            # instruction records the materialisation cost.
            self.literals[value] = reg
        return self.literals[value]

    def _memref(self, ref: ArrayRef, copy: int) -> MemRef:
        """Address expression of a reference; emits gather address code.

        An indirect subscript ``v[col[i]]`` lowers to an integer load
        of ``col[i]`` plus an address add -- two instructions that put
        the data load *in series* behind the subscript load, the
        ``Chances > 1`` case of the balanced algorithm.
        """
        index = ref.index.shifted(copy)
        if isinstance(index, IndirectIndex):
            subscript = self.function.new_vreg(RegClass.INT)
            self.block.append(
                load(
                    subscript,
                    MemRef(
                        region=index.array,
                        base=self._base(index.array),
                        offset=index.inner.offset,
                        affine_coeff=index.inner.coeff,
                    ),
                )
            )
            address = self.function.new_vreg(RegClass.INT)
            self.block.append(
                alu(Opcode.ADD, address, (self._base(ref.array), subscript))
            )
            return MemRef(
                region=ref.array, base=address, offset=0, affine_coeff=None
            )
        return MemRef(
            region=ref.array,
            base=self._base(ref.array),
            offset=index.offset,
            affine_coeff=index.coeff,
        )

    # ------------------------------------------------------------------
    def _lower_expr(self, expr: Expr, copy: int) -> Register:
        if isinstance(expr, Num):
            return self._literal(expr.value)
        if isinstance(expr, Var):
            return self._read_scalar(expr, copy)
        if isinstance(expr, ArrayRef):
            dst = self.function.new_vreg(RegClass.FP)
            self.block.append(load(dst, self._memref(expr, copy)))
            return dst
        if isinstance(expr, BinOp):
            lhs = self._lower_expr(expr.lhs, copy)
            rhs = self._lower_expr(expr.rhs, copy)
            dst = self.function.new_vreg(RegClass.FP)
            self.block.append(alu(_BINOPS[expr.op], dst, (lhs, rhs)))
            return dst
        raise LoweringError(f"unhandled expression node {expr!r}")

    def _lower_assign(self, statement: Assign, copy: int) -> None:
        value = self._lower_expr(statement.expr, copy)
        target = statement.target
        if isinstance(target, ArrayRef):
            self.block.append(store(value, self._memref(target, copy)))
            return
        key = self._scalar_key(target, copy)
        self.env[key] = value
        if not target.is_temp and target.name not in self.assigned_scalars:
            self.assigned_scalars.append(target.name)

    def _finalize_liveness(self) -> None:
        for name in self.assigned_scalars:
            final = self.env[name]
            self.block.live_out.append(final)
            # A scalar both read-before-write and assigned is loop
            # carried: its final value feeds its own live-in next
            # iteration.
            if name in self.live_in_scalars:
                self.block.carried[final] = self.live_in_scalars[name]


def lower_ast(ast: ProgramAST, pointer_loads: bool = True) -> Program:
    """Lower a parsed minif program to an IR :class:`Program`.

    Each kernel becomes its own single-block function (separate
    virtual-register spaces, as GCC compiles functions independently).

    ``pointer_loads`` models the f2c/MIPS code shape the paper compiled
    (Section 4.2): every FORTRAN array becomes a C pointer that the
    generated code loads from static storage before the data access.
    With it on (the default, used by the paper-reproduction workload),
    each array's data loads sit in series behind the block's pointer
    load; with it off, base pointers are live-in registers (the
    "perfectly hoisted" shape).
    """
    program = Program(
        name=ast.name,
        meta={"kernels": len(ast.kernels), "pointer_loads": pointer_loads},
    )
    for kernel in ast.kernels:
        with _span("frontend", block=kernel.name):
            function = Function(name=kernel.name)
            _KernelLowering(function, kernel, ast.arrays, pointer_loads).lower()
            program.add_function(function)
    return program


def compile_minif(source: str, pointer_loads: bool = True) -> Program:
    """Parse and lower minif source text in one step."""
    with _span("parse"):
        ast = parse_program(source)
    return lower_ast(ast, pointer_loads)
