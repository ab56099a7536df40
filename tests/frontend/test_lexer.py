"""Tests for the minif tokenizer."""

import pytest

from repro.frontend.errors import LexError
from repro.frontend.lexer import TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    skip = (TokenKind.EOF, TokenKind.NEWLINE)
    return [t.text for t in tokenize(source) if t.kind not in skip]


class TestTokenKinds:
    def test_keywords_recognised(self):
        tokens = tokenize("program kernel array scalar freq unroll end")
        keyword_texts = [
            t.text for t in tokens if t.kind is TokenKind.KEYWORD
        ]
        assert keyword_texts == [
            "program", "kernel", "array", "scalar", "freq", "unroll", "end",
        ]

    def test_identifiers_vs_keywords(self):
        tokens = tokenize("programx kernels")
        assert all(
            t.kind is not TokenKind.KEYWORD
            for t in tokens
            if t.text
        )

    def test_numbers(self):
        values = [
            t.text for t in tokenize("1 2.5 100 3e2 1.5e-3")
            if t.kind is TokenKind.NUMBER
        ]
        assert values == ["1", "2.5", "100", "3e2", "1.5e-3"]

    def test_operators_and_brackets(self):
        source = "a = b[i] + c * (d - 2) / e, f"
        got = kinds(source)
        assert TokenKind.OP in got
        assert TokenKind.LBRACKET in got
        assert TokenKind.LPAREN in got
        assert TokenKind.COMMA in got


class TestNewlines:
    def test_statement_separator_emitted(self):
        tokens = tokenize("a = 1\nb = 2\n")
        newline_count = sum(1 for t in tokens if t.kind is TokenKind.NEWLINE)
        assert newline_count == 2

    def test_blank_lines_collapsed(self):
        tokens = tokenize("a = 1\n\n\n\nb = 2")
        newline_count = sum(1 for t in tokens if t.kind is TokenKind.NEWLINE)
        assert newline_count == 2  # one between, one final

    def test_final_newline_synthesised(self):
        tokens = tokenize("a = 1")
        assert tokens[-2].kind is TokenKind.NEWLINE
        assert tokens[-1].kind is TokenKind.EOF


class TestComments:
    def test_comments_stripped(self):
        tokens = tokenize("a = 1  # the answer\nb = 2")
        assert all("answer" not in t.text for t in tokens)

    def test_comment_only_line(self):
        tokens = tokenize("# header\na = 1")
        assert texts("# header\na = 1") == ["a", "=", "1"]


class TestErrors:
    def test_bad_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a = $1")
        assert "line 1" in str(excinfo.value)

    def test_error_reports_later_line(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a = 1\nb = @2")
        assert "line 2" in str(excinfo.value)


class TestPositions:
    def test_line_and_column_tracked(self):
        tokens = tokenize("ab = 1\n  cd = 2")
        cd = next(t for t in tokens if t.text == "cd")
        assert cd.line == 2
        assert cd.column == 3
