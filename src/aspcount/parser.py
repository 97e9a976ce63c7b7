"""Text format for ground normal programs.

Grammar (the external contract; files conventionally use the .gnp suffix):

    program   := { statement }
    statement := (atom [ ":-" body ] | ":-" body) "."
    body      := literal { "," literal }
    literal   := [ "not" ws ] atom
    atom      := ident [ "(" balanced-args ")" ]
    comment   := "%" ... end-of-line

Identifiers match [a-zA-Z_][a-zA-Z0-9_]*; whitespace between tokens is
insignificant; `not` is reserved. Parenthesized arguments are opaque: the
whole token "edge(1,2)" is one atom symbol, with no term structure.
Duplicate statements are dropped (a program is a set of rules).

The whole text is split into token strings by one pass of a compiled pattern
(`findall`), and the recursive descent runs over that list. The pattern
takes an atom's arguments when they hold no '(' or ')'; an atom whose
arguments nest ends the pass, `_args_end` finds where they end, and a new
pass starts there, so every character is read a bounded number of times.
An offending character, an atom whose arguments nest and the end of input
(a newline appended to the text) stop the descent. Offsets are computed
only there, by matching the pattern again over the current pass.

The first error is the one a reader with one token of lookahead meets: a
token's own lexing error (an offending character, a ':' without '-', an
unbalanced '(') is reported when that token is reached, and otherwise the
first grammar error, so a grammar error is reported ahead of any bad
character that follows it. The line and column of a ParseDiagnostic are
computed from the offset when an error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .program import Constraint, Program, Rule, SymbolTable, format_constraint, format_rule

# One match per token: whitespace and whole comments (the lookahead keeps a
# backtrack from giving back part of one), then the token as group 1. The
# group is "" at an offending character or an atom whose arguments nest, and
# "\n" for the newline appended at the end of the text. After the empty match
# at a nested atom, findall needs a non-empty match at the same offset, which
# only the second branch gives: it takes the rest of the text in one step, so
# the pass ends there.
_TOKEN = re.compile(
    r"(?:\s+|%[^\n]*(?![^\n]))*"
    r"(not(?![A-Za-z0-9_])|[A-Za-z_][A-Za-z0-9_]*(?:\([^()]*\)|(?![A-Za-z0-9_(]))"
    r"|:-|[.,]|\n\Z|(?!\Z))"
    r"|[A-Za-z_][A-Za-z0-9_]*\((?s:.*)"
)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NOT_ATOM = frozenset(("", "\n", ",", ".", ":-", "not"))


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _error(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(ParseDiagnostic(line, pos - text.rfind("\n", 0, pos), message))


def _args_end(text: str, pos: int, start: int) -> int:
    """Offset just past the ')' balancing the '(' at pos.

    Each step counts the '(' up to the next ')' and moves past it, so every
    character is scanned once however deep the nesting. For arguments that
    hold no '(' this is the first ')', where the token pattern ends them.
    """
    depth = 0
    while True:
        close = text.find(")", pos)
        if close < 0:
            raise _error(text, start, "unbalanced '(' in atom arguments")
        depth += text.count("(", pos, close) - 1
        pos = close + 1
        if depth == 0:
            return pos


class _Parser:
    """Recursive descent over the token strings of the current pass, which
    starts at offset `self.start` of the text."""

    def __init__(self, text: str):
        self.text = text + "\n"
        self.start = 0

    def _offset(self, k: int) -> int:
        """Offset of token k of the current pass."""
        return next(islice(_TOKEN.finditer(self.text, self.start), k, None)).start(1)

    def _nested(self, pos: int):
        """(symbol, tokens after it) of the atom at pos whose arguments nest,
        which starts the next pass; raises the lexing error of an offending
        character at pos instead."""
        text = self.text
        m = _IDENT.match(text, pos)
        if m is None:
            ch = text[pos]
            raise _error(text, pos, "expected ':-'" if ch == ":" else f"unexpected character {ch!r}")
        end = _args_end(text, m.end(), pos)
        self.start = end
        return text[pos:end], _TOKEN.findall(text, end)

    def _unexpected(self, toks: list[str], k: int, what: str) -> ParseError:
        """The error at token k where `what` was expected: token k's own
        lexing error when it has one."""
        pos = self._offset(k)
        tok = toks[k]
        if not tok:
            tok = self._nested(pos)[0]
        got = "end of input" if tok == "\n" else repr(tok)
        return _error(self.text, pos, f"expected {what}, got {got}")

    def _atom(self, toks: list[str], k: int):
        """(symbol, tokens, index after it) for token k in _NOT_ATOM, which is
        an atom only when its arguments nest; raises otherwise."""
        tok = toks[k]
        if not tok:
            symbol, toks = self._nested(self._offset(k))
            return symbol, toks, 0
        if tok == "not":
            raise _error(self.text, self._offset(k), "'not' before 'not' / 'not' is not an atom")
        raise self._unexpected(toks, k, "an atom")

    def parse(self) -> Program:
        """The program of the text; a repeated statement keeps its first
        position. `rules` and `constraints` are dicts used as ordered sets,
        and their Rule and Constraint objects are built at the end."""
        table = SymbolTable()
        intern = table.intern
        rules: dict[tuple, None] = {}
        constraints: dict[tuple, None] = {}
        toks = _TOKEN.findall(self.text)
        i = 0
        while True:
            tok = toks[i]
            i += 1
            head = None
            if tok != ":-":
                if tok in _NOT_ATOM:
                    if tok == "\n":
                        return Program(
                            table, [Rule(*r) for r in rules], [Constraint(*c) for c in constraints]
                        )
                    tok, toks, i = self._atom(toks, i - 1)
                head = intern(tok)
                tok = toks[i]
                i += 1
            pos, neg = [], []
            if tok == ":-":
                while True:
                    tok = toks[i]
                    i += 1
                    body = pos
                    if tok == "not":
                        tok = toks[i]
                        i += 1
                        body = neg
                    if tok in _NOT_ATOM:
                        tok, toks, i = self._atom(toks, i - 1)
                    body.append(intern(tok))
                    tok = toks[i]
                    i += 1
                    if tok != ",":
                        break
            if tok != ".":
                raise self._unexpected(toks, i - 1, "'.' at end of statement")
            pos, neg = frozenset(pos), frozenset(neg)
            if head is None:
                constraints[pos, neg] = None
            else:
                rules[head, pos, neg] = None


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError carrying a ParseDiagnostic."""
    return _Parser(text).parse()


def render_program(program: Program) -> str:
    """One statement per line; parse_program(render_program(p)) is isomorphic to p."""
    lines = [format_rule(program, r) for r in program.rules]
    lines += [format_constraint(program, c) for c in program.constraints]
    return "\n".join(lines) + ("\n" if lines else "")
