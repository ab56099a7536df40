"""Tokenizer for the minif kernel language.

minif is the small FORTRAN-flavoured language the synthetic Perfect
Club stand-ins are written in (the paper compiled the real Perfect
Club through f2c + GCC; our substitute generates the same kind of
loop-kernel basic blocks).  Example::

    program mdg
      array pos[4096], frc[4096], chg[4096]
      kernel interf freq 120.5 unroll 4
        t1 = pos[i] * chg[i]
        t2 = pos[i+1] * chg[i+1]
        esum = esum + t1 * t2
        frc[i] = t1 - t2
      end
    end

Tokens: identifiers, numbers, keywords (``program array scalar kernel
freq unroll end``), operators ``+ - * / =``, brackets and newlines
(statement separators).  ``#`` starts a comment running to end of line.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

from .errors import LexError

KEYWORDS = frozenset(
    {"program", "array", "scalar", "kernel", "freq", "unroll", "end"}
)


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    OP = "op"          # + - * / =
    LBRACKET = "["
    RBRACKET = "]"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    NEWLINE = "newline"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind.value}({self.text!r})"


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[+\-*/=])
  | (?P<lbracket>\[)
  | (?P<rbracket>\])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`LexError` on bad characters."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    position = 0
    length = len(source)

    while position < length:
        match = _TOKEN_RE.match(source, position)
        if match is None:
            column = position - line_start + 1
            raise LexError(
                f"unexpected character {source[position]!r}", line, column
            )
        column = position - line_start + 1
        position = match.end()
        kind_name = match.lastgroup
        text = match.group()

        if kind_name in ("ws", "comment"):
            continue
        if kind_name == "newline":
            # Collapse runs of blank lines into one separator.
            if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
                tokens.append(Token(TokenKind.NEWLINE, "\n", line, column))
            line += 1
            line_start = position
            continue
        if kind_name == "number":
            tokens.append(Token(TokenKind.NUMBER, text, line, column))
        elif kind_name == "ident":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, line, column))
        elif kind_name == "op":
            tokens.append(Token(TokenKind.OP, text, line, column))
        elif kind_name == "lbracket":
            tokens.append(Token(TokenKind.LBRACKET, text, line, column))
        elif kind_name == "rbracket":
            tokens.append(Token(TokenKind.RBRACKET, text, line, column))
        elif kind_name == "lparen":
            tokens.append(Token(TokenKind.LPAREN, text, line, column))
        elif kind_name == "rparen":
            tokens.append(Token(TokenKind.RPAREN, text, line, column))
        elif kind_name == "comma":
            tokens.append(Token(TokenKind.COMMA, text, line, column))

    if tokens and tokens[-1].kind is not TokenKind.NEWLINE:
        tokens.append(Token(TokenKind.NEWLINE, "\n", line, 0))
    tokens.append(Token(TokenKind.EOF, "", line, 0))
    return tokens
