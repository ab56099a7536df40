"""Tests for the minif parser."""

import pytest

from repro.frontend.ast import (
    ArrayRef,
    BinOp,
    IndexExpr,
    IndirectIndex,
    Num,
    Var,
)
from repro.frontend.errors import ParseError
from repro.frontend.parser import parse_program

MINIMAL = """
program p
  array a[64]
  kernel k freq 10
    s = s + a[i]
  end
end
"""


class TestProgramStructure:
    def test_minimal_program(self):
        ast = parse_program(MINIMAL)
        assert ast.name == "p"
        assert ast.arrays == ["a"]
        assert len(ast.kernels) == 1
        assert ast.kernels[0].name == "k"
        assert ast.kernels[0].freq == 10.0
        assert ast.kernels[0].unroll == 1

    def test_multiple_arrays_one_decl(self):
        ast = parse_program(
            "program p\narray a[1], b[2], c[3]\nkernel k freq 1\nx = a[i]\nend\nend"
        )
        assert ast.arrays == ["a", "b", "c"]

    def test_scalar_decl(self):
        ast = parse_program(
            "program p\nscalar s, t\nkernel k freq 1\ns = s + 1\nend\nend"
        )
        assert ast.scalars == ["s", "t"]

    def test_unroll_clause(self):
        ast = parse_program(
            "program p\narray a[8]\nkernel k freq 2 unroll 4\nx = a[i]\nend\nend"
        )
        assert ast.kernels[0].unroll == 4

    def test_unroll_must_be_positive(self):
        with pytest.raises(ParseError, match="unroll"):
            parse_program(
                "program p\nkernel k freq 2 unroll 0\nx = 1\nend\nend"
            )

    def test_missing_end_rejected(self):
        with pytest.raises(ParseError):
            parse_program("program p\nkernel k freq 1\nx = 1\nend")

    def test_junk_after_program_rejected(self):
        with pytest.raises(ParseError):
            parse_program(MINIMAL + "\nextra")


class TestIndexExpressions:
    def _index(self, text):
        source = (
            f"program p\narray a[8], c[8]\nkernel k freq 1\nx = a[{text}]\nend\nend"
        )
        ast = parse_program(source)
        ref = ast.kernels[0].body[0].expr
        assert isinstance(ref, ArrayRef)
        return ref.index

    def test_plain_i(self):
        assert self._index("i") == IndexExpr(coeff=1, offset=0)

    def test_offsets(self):
        assert self._index("i+3") == IndexExpr(1, 3)
        assert self._index("i-2") == IndexExpr(1, -2)

    def test_coefficient(self):
        assert self._index("2*i") == IndexExpr(2, 0)
        assert self._index("2*i+1") == IndexExpr(2, 1)

    def test_constant_index(self):
        assert self._index("5") == IndexExpr(coeff=0, offset=5)

    def test_indirect(self):
        index = self._index("c[i]")
        assert isinstance(index, IndirectIndex)
        assert index.array == "c"
        assert index.inner == IndexExpr(1, 0)

    def test_indirect_with_offset(self):
        index = self._index("c[i+1]")
        assert index == IndirectIndex("c", IndexExpr(1, 1))

    def test_nested_indirect_rejected(self):
        with pytest.raises(ParseError, match="nest"):
            self._index("c[c[i]]")

    def test_wrong_induction_variable_rejected(self):
        with pytest.raises(ParseError, match="'i'"):
            self._index("j")

    def test_shifted(self):
        assert IndexExpr(2, 1).shifted(3) == IndexExpr(2, 7)
        shifted = IndirectIndex("c", IndexExpr(1, 0)).shifted(2)
        assert shifted.inner.offset == 2


class TestExpressions:
    def _expr(self, text):
        source = f"program p\narray a[8]\nkernel k freq 1\nx = {text}\nend\nend"
        return parse_program(source).kernels[0].body[0].expr

    def test_precedence_mul_over_add(self):
        expr = self._expr("a[i] + b * 2")
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.rhs, BinOp) and expr.rhs.op == "*"

    def test_parentheses_override(self):
        expr = self._expr("(a[i] + b) * 2")
        assert expr.op == "*"
        assert isinstance(expr.lhs, BinOp) and expr.lhs.op == "+"

    def test_left_associativity(self):
        expr = self._expr("x - y - z")
        assert expr.op == "-"
        assert isinstance(expr.lhs, BinOp)
        assert expr.rhs == Var("z")

    def test_number_literal(self):
        assert self._expr("2.5") == Num(2.5)

    def test_var_temp_convention(self):
        assert Var("t1").is_temp
        assert not Var("s").is_temp


class TestAssignTargets:
    def test_scalar_target(self):
        ast = parse_program(MINIMAL)
        assert ast.kernels[0].body[0].target == Var("s")

    def test_array_target(self):
        ast = parse_program(
            "program p\narray a[8]\nkernel k freq 1\na[i+1] = 2\nend\nend"
        )
        target = ast.kernels[0].body[0].target
        assert isinstance(target, ArrayRef)
        assert target.index == IndexExpr(1, 1)
