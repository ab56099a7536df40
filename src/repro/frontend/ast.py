"""Abstract syntax of minif programs.

A program declares named arrays and contains kernels.  Each kernel is
the body of an (implicit) innermost loop over induction variable
``i``; ``freq`` is the kernel's profiled execution count and
``unroll`` the manual unroll factor applied at lowering time (the
paper performed unrolling by hand, Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union


@dataclass(frozen=True)
class IndexExpr:
    """An affine index ``coeff * i + offset`` into an array."""

    coeff: int = 1
    offset: int = 0

    def shifted(self, delta: int) -> "IndexExpr":
        """The index of the same reference in unroll copy ``delta``."""
        return IndexExpr(self.coeff, self.offset + self.coeff * delta)

    def __str__(self) -> str:
        if self.coeff == 0:
            return str(self.offset)
        coeff = "" if self.coeff == 1 else f"{self.coeff}*"
        if self.offset == 0:
            return f"{coeff}i"
        sign = "+" if self.offset > 0 else "-"
        return f"{coeff}i{sign}{abs(self.offset)}"


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndirectIndex:
    """A gather/scatter index: ``array[inner]`` used as a subscript.

    ``v[col[i]]`` loads ``col[i]`` (an integer) and uses it to address
    ``v`` -- the two loads form a *series* in the code DAG, which is
    exactly the case the balanced algorithm divides contributions by
    ``Chances`` for.  Sparse and lattice codes (MDG, QCD2) are full of
    these.
    """

    array: str
    inner: IndexExpr

    def shifted(self, delta: int) -> "IndirectIndex":
        return IndirectIndex(self.array, self.inner.shifted(delta))

    def __str__(self) -> str:
        return f"{self.array}[{self.inner}]"


Index = Union[IndexExpr, IndirectIndex]


@dataclass(frozen=True)
class Num:
    """A numeric literal."""

    value: float


@dataclass(frozen=True)
class Var:
    """A scalar variable reference.

    Names beginning with ``t`` are kernel-local temporaries (renamed
    per unroll copy); any other scalar is loop-carried (live-in when
    read before written, live-out when written).
    """

    name: str

    @property
    def is_temp(self) -> bool:
        return self.name.startswith("t")


@dataclass(frozen=True)
class ArrayRef:
    """``array[index]`` with an affine or indirect subscript."""

    array: str
    index: Index


@dataclass(frozen=True)
class BinOp:
    """``lhs op rhs`` with op one of ``+ - * /``."""

    op: str
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Num, Var, ArrayRef, BinOp]


# ----------------------------------------------------------------------
# Statements and structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Assign:
    """``target = expr`` where target is a scalar or an array element."""

    target: Union[Var, ArrayRef]
    expr: Expr


@dataclass
class Kernel:
    """One loop kernel: a straight-line body, profile weight, unroll."""

    name: str
    freq: float
    unroll: int
    body: List[Assign] = field(default_factory=list)


@dataclass
class ProgramAST:
    """A parsed minif program."""

    name: str
    arrays: List[str] = field(default_factory=list)
    scalars: List[str] = field(default_factory=list)
    kernels: List[Kernel] = field(default_factory=list)


# ----------------------------------------------------------------------
# Structural queries (used by the fuzz shrinker to prune dead
# declarations, and generally handy for AST-level tooling)
# ----------------------------------------------------------------------
def _walk_exprs(expr: Expr):
    yield expr
    if isinstance(expr, BinOp):
        yield from _walk_exprs(expr.lhs)
        yield from _walk_exprs(expr.rhs)


def referenced_arrays(ast: ProgramAST) -> set:
    """Array names actually read or written anywhere in the program
    (including arrays used only as indirect subscripts)."""
    names = set()
    for kernel in ast.kernels:
        for statement in kernel.body:
            targets = [statement.target] if isinstance(statement.target, ArrayRef) else []
            for node in targets + [
                e for e in _walk_exprs(statement.expr) if isinstance(e, ArrayRef)
            ]:
                names.add(node.array)
                if isinstance(node.index, IndirectIndex):
                    names.add(node.index.array)
    return names


def referenced_scalars(ast: ProgramAST) -> set:
    """Non-temporary scalar names read or written in the program."""
    names = set()
    for kernel in ast.kernels:
        for statement in kernel.body:
            if isinstance(statement.target, Var) and not statement.target.is_temp:
                names.add(statement.target.name)
            for node in _walk_exprs(statement.expr):
                if isinstance(node, Var) and not node.is_temp:
                    names.add(node.name)
    return names
