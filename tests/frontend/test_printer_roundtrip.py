"""Round-trip fuzzing of the minif printer against the parser.

Hypothesis generates random ASTs, the printer emits source, the
parser reads it back; the result must match the original AST node for
node (declared array sizes are documentation and not preserved).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.ast import (
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
from repro.frontend.parser import parse_program
from repro.frontend.lowering import lower_ast
from repro.frontend.printer import format_expr, format_program_ast
from tests.support.verifier import verify_block

ARRAYS = ("arra", "arrb", "arrc", "arrd")
SCALARS = ("s", "u", "acc")
TEMPS = ("t1", "t2", "t3")

# Constant subscripts (coeff = 0) must be non-negative in the grammar.
affine_indices = st.builds(
    IndexExpr,
    coeff=st.sampled_from([1, 2, 3]),
    offset=st.integers(-4, 4),
)
constant_indices = st.builds(
    IndexExpr, coeff=st.just(0), offset=st.integers(0, 4)
)
index_exprs = st.one_of(affine_indices, constant_indices)
indirect_indices = st.builds(
    IndirectIndex,
    array=st.sampled_from(ARRAYS),
    inner=st.builds(IndexExpr, coeff=st.just(1), offset=st.integers(-2, 2)),
)
indices = st.one_of(index_exprs, indirect_indices)

array_refs = st.builds(ArrayRef, array=st.sampled_from(ARRAYS), index=indices)
leaf_exprs = st.one_of(
    st.builds(Num, value=st.integers(0, 9).map(float)),
    st.builds(Var, name=st.sampled_from(SCALARS + TEMPS)),
    array_refs,
)


def expr_strategy():
    return st.recursive(
        leaf_exprs,
        lambda children: st.builds(
            BinOp,
            op=st.sampled_from(["+", "-", "*", "/"]),
            lhs=children,
            rhs=children,
        ),
        max_leaves=6,
    )


assigns = st.builds(
    Assign,
    target=st.one_of(
        st.builds(Var, name=st.sampled_from(SCALARS + TEMPS)),
        st.builds(
            ArrayRef,
            array=st.sampled_from(ARRAYS),
            index=index_exprs,
        ),
    ),
    expr=expr_strategy(),
)

kernels = st.builds(
    Kernel,
    name=st.sampled_from(["alpha", "beta", "gamma"]),
    freq=st.integers(1, 500).map(float),
    unroll=st.integers(1, 3),
    body=st.lists(assigns, min_size=1, max_size=5),
)


def program_strategy():
    return st.builds(
        ProgramAST,
        name=st.just("fuzzed"),
        arrays=st.just(list(ARRAYS)),
        scalars=st.just([]),
        kernels=st.lists(kernels, min_size=1, max_size=3, unique_by=lambda k: k.name),
    )


class TestRoundTrip:
    @given(program_strategy())
    @settings(max_examples=80, deadline=None)
    def test_print_parse_round_trip(self, ast):
        source = format_program_ast(ast)
        parsed = parse_program(source)
        assert parsed.name == ast.name
        assert parsed.arrays == ast.arrays
        assert len(parsed.kernels) == len(ast.kernels)
        for ours, theirs in zip(ast.kernels, parsed.kernels):
            assert theirs.name == ours.name
            assert theirs.freq == ours.freq
            assert theirs.unroll == ours.unroll
            assert theirs.body == ours.body

    @given(program_strategy())
    @settings(max_examples=40, deadline=None)
    def test_fuzzed_programs_lower_cleanly(self, ast):
        """Whatever the fuzzer writes must lower to verifier-clean IR."""
        program = lower_ast(ast)
        for block in program.all_blocks():
            verify_block(block)

    @given(expr_strategy())
    @settings(max_examples=100, deadline=None)
    def test_expression_precedence_preserved(self, expr):
        """format -> parse preserves the expression tree exactly."""
        source = (
            "program p\n  array arra[8], arrb[8], arrc[8], arrd[8]\n"
            "  kernel k freq 1\n"
            f"    sink = {format_expr(expr)}\n"
            "  end\nend\n"
        )
        parsed = parse_program(source)
        assert parsed.kernels[0].body[0].expr == expr


class TestSuiteSourcesRoundTrip:
    def test_all_suite_programs_round_trip(self):
        from repro.workloads.kernels import PROGRAM_SOURCES

        for name, source in PROGRAM_SOURCES.items():
            ast = parse_program(source)
            again = parse_program(format_program_ast(ast))
            assert again.name == ast.name
            assert [k.body for k in again.kernels] == [
                k.body for k in ast.kernels
            ]
