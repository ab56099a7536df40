"""Shrinker self-tests against synthetic oracles.

A predicate that keys on a source-level marker lets us verify the
greedy loop converges to the minimal reproducer (one kernel, one
statement) without paying for real compilation, and that every
intermediate candidate passes through the real parser -- so whatever
the shrinker returns is a valid minif program.
"""

from repro.frontend.lowering import compile_minif
from repro.frontend.parser import parse_program
from repro.verify.shrink import (
    MAX_PREDICATE_CALLS,
    shrink_ast,
    shrink_source,
)

BIG = """
program big
  array va[1024], vb[1024], vc[1024]
  scalar s0, s1
  kernel k0 freq 10 unroll 2
    t0 = vb[i] * vc[i]
    s1 = s1 + t0
  end
  kernel k1 freq 7 unroll 3
    t0 = va[i] + vb[i+1]
    vc[i] = t0 * vb[i]
    s0 = s0 + vc[i+2]
  end
  kernel k2 freq 2 unroll 1
    vb[i] = vc[i] + vb[i]
  end
end
"""


def _statements(source: str):
    ast = parse_program(source)
    return [s for kernel in ast.kernels for s in kernel.body]


def test_converges_to_single_marker_statement():
    """The marker ('va' appears) lives in one statement of one kernel;
    the shrinker must strip everything else."""
    shrunk = shrink_source(BIG, lambda src: "va[i]" in src)
    ast = parse_program(shrunk)
    assert len(ast.kernels) == 1
    assert len(ast.kernels[0].body) == 1
    assert "va[i]" in shrunk
    # Neutralized knobs: nothing kept the unroll factor alive.
    assert ast.kernels[0].unroll == 1


def test_shrunk_program_still_fails_predicate():
    predicate = lambda src: "vc[i]" in src  # noqa: E731
    shrunk = shrink_source(BIG, predicate)
    assert predicate(shrunk)


def test_shrunk_program_round_trips_through_frontend():
    shrunk = shrink_source(BIG, lambda src: "va[i]" in src)
    program = compile_minif(shrunk)  # must lower cleanly
    assert program.name == "big"


def test_unused_declarations_are_pruned():
    shrunk = shrink_source(BIG, lambda src: "va[i]" in src)
    ast = parse_program(shrunk)
    assert "vc" not in ast.arrays or "vc[" in shrunk
    assert all(s in shrunk for s in ast.scalars)


def test_predicate_call_cap_is_respected():
    calls = []

    def predicate(src):
        calls.append(src)
        return "va[i]" in src

    shrink_source(BIG, predicate, max_calls=5)
    assert len(calls) <= 5


def test_crashing_predicate_counts_as_failing():
    """A candidate that crashes the checker still reproduces a bug."""

    def predicate(src):
        if "va[i]" not in src:
            raise RuntimeError("checker blew up")
        return True

    shrunk = shrink_source(BIG, predicate)
    # Everything 'fails', so the shrinker reduces to the global
    # minimum its reductions can reach: one kernel, one statement.
    ast = parse_program(shrunk)
    assert len(ast.kernels) == 1
    assert len(ast.kernels[0].body) <= 1


def test_unsatisfiable_predicate_returns_input_unchanged():
    ast = parse_program(BIG)
    result = shrink_ast(ast, lambda src: False)
    assert result is ast


def test_default_cap_is_sane():
    assert 50 <= MAX_PREDICATE_CALLS <= 10000
