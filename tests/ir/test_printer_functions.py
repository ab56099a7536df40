"""Tests for function-level textual rendering."""

from repro.frontend.lowering import compile_minif
from repro.ir.printer import format_function

SOURCE = """
program render
  array a[16], b[16]
  kernel first freq 3
    t1 = a[i] + b[i]
    b[i] = t1
  end
  kernel second freq 7
    s = s + a[i]
  end
end
"""


def test_format_function_contains_blocks():
    program = compile_minif(SOURCE)
    text = format_function(program.functions[0])
    assert text.startswith("func first:")
    assert "block first freq 3:" in text
    assert "load" in text
