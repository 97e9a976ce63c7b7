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

Tokens are read lazily, one match of a single compiled pattern from the
current offset, so a grammar error is reported ahead of any bad character
that follows it.
Each token carries only its offset; the line and column of a ParseDiagnostic
are computed from that offset when an error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .program import Constraint, Program, Rule, SymbolTable, format_constraint, format_rule

# Skips whitespace and whole comments, then matches one token or nothing (at
# end of input or an offending character, both at m.end()). The lookahead
# keeps a backtrack from giving back part of a comment.
_TOKEN = re.compile(
    r"(?:\s+|%[^\n]*(?![^\n]))*"
    r"(?:(?P<ATOM>[A-Za-z_][A-Za-z0-9_]*)|(?P<ARROW>:-)|(?P<DOT>\.)|(?P<COMMA>,))?"
)


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
    character is scanned once however deep the nesting.
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
    """Recursive descent over (kind, text, offset) tokens; kinds: ATOM NOT ARROW COMMA DOT EOF."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._next()

    def _fail(self, message):
        raise _error(self.text, self.tok[2], message)

    def _next(self):
        text = self.text
        m = _TOKEN.match(text, self.pos)
        kind = m.lastgroup
        if kind is None:
            pos = m.end()
            if pos == len(text):
                self.tok = ("EOF", "", pos)
                return
            ch = text[pos]
            raise _error(text, pos, "expected ':-'" if ch == ":" else f"unexpected character {ch!r}")
        start, end = m.span(kind)
        if kind == "ATOM":
            if m[kind] == "not":
                kind = "NOT"
            elif text.startswith("(", end):
                end = _args_end(text, end, start)
        self.pos = end
        self.tok = (kind, text[start:end], start)

    def _expect(self, kind, what):
        if self.tok[0] != kind:
            self._fail(f"expected {what}, got {self.tok[1]!r}" if self.tok[1] else f"expected {what}, got end of input")
        text = self.tok[1]
        self._next()
        return text

    def _atom(self, table: SymbolTable) -> int:
        if self.tok[0] == "NOT":
            self._fail("'not' before 'not' / 'not' is not an atom")
        return table.intern(self._expect("ATOM", "an atom"))

    def _body(self, table: SymbolTable):
        pos, neg = set(), set()
        while True:
            if self.tok[0] == "NOT":
                self._next()
                neg.add(self._atom(table))
            else:
                pos.add(self._atom(table))
            if self.tok[0] != "COMMA":
                return frozenset(pos), frozenset(neg)
            self._next()

    def parse(self) -> Program:
        table = SymbolTable()
        rules: list[Rule] = []
        constraints: list[Constraint] = []
        seen_rules, seen_constraints = set(), set()
        while self.tok[0] != "EOF":
            if self.tok[0] == "ARROW":
                self._next()
                pos, neg = self._body(table)
                self._expect("DOT", "'.' at end of statement")
                if (pos, neg) not in seen_constraints:
                    seen_constraints.add((pos, neg))
                    constraints.append(Constraint(pos, neg))
                continue
            head = self._atom(table)
            pos, neg = frozenset(), frozenset()
            if self.tok[0] == "ARROW":
                self._next()
                pos, neg = self._body(table)
            self._expect("DOT", "'.' at end of statement")
            key = (head, pos, neg)
            if key not in seen_rules:
                seen_rules.add(key)
                rules.append(Rule(head, pos, neg))
        return Program(table, rules, constraints)


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError carrying a ParseDiagnostic."""
    return _Parser(text).parse()


def render_program(program: Program) -> str:
    """One statement per line; parse_program(render_program(p)) is isomorphic to p."""
    lines = [format_rule(program, r) for r in program.rules]
    lines += [format_constraint(program, c) for c in program.constraints]
    return "\n".join(lines) + ("\n" if lines else "")
