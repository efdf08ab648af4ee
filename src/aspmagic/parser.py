"""Text format for programs and queries.

Grammar, informally::

    program := { rule }
    rule    := head [ ":-" body ] "."
    head    := atom { ("v" | "|") atom }
    body    := literal { "," literal }
    literal := [ "not" ] atom
    atom    := name [ "(" term { "," term } ")" ]
    query   := atom "?"

``%`` starts a comment running to the end of the line.  Variables start
with an uppercase letter, constants and predicate names with a lowercase
letter or a digit.  ``not`` is reserved and cannot name a predicate.

Parsing is total: any input yields either a value or a :class:`SourceError`
carrying the offending line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import Atom, Program, ProgramError, Query, Rule, Term

__all__ = [
    "SourceError",
    "parse_program",
    "parse_query",
    "print_program",
]


class SourceError(Exception):
    """A syntax or consistency error at a position in the input text."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|%[^\n]*)
    | (?P<if>:-)
    | (?P<name>[a-z0-9][A-Za-z0-9_]*)
    | (?P<variable>[A-Z][A-Za-z0-9_]*)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<comma>,)
    | (?P<dot>\.)
    | (?P<pipe>\|)
    | (?P<qmark>\?)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SourceError(line, col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind != "skip":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        # predicate -> (arity, first use position), for early arity checks
        self.arities: dict[str, tuple[int, _Token]] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str) -> SourceError:
        return SourceError(tok.line, tok.column, message)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise self.fail(tok, f"expected {what}, found {shown!r}")
        return self.next()

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind in ("name", "variable"):
            self.next()
            return Term(tok.text)
        shown = tok.text or "end of input"
        raise self.fail(tok, f"expected a term, found {shown!r}")

    def parse_atom(self) -> Atom:
        tok = self.expect("name", "a predicate name")
        if tok.text == "not":
            raise self.fail(tok, "'not' is reserved and cannot start an atom")
        args: list[Term] = []
        if self.peek().kind == "lparen":
            self.next()
            args.append(self.parse_term())
            while self.peek().kind == "comma":
                self.next()
                args.append(self.parse_term())
            self.expect("rparen", "')'")
        atom = Atom(tok.text, tuple(args))
        known = self.arities.get(atom.predicate)
        if known is None:
            self.arities[atom.predicate] = (atom.arity, tok)
        elif known[0] != atom.arity:
            raise self.fail(
                tok,
                f"predicate {atom.predicate} used with arity {atom.arity}, "
                f"but line {known[1].line} uses arity {known[0]}",
            )
        return atom

    def at_disjunction(self) -> bool:
        tok = self.peek()
        return tok.kind == "pipe" or (tok.kind == "name" and tok.text == "v")

    def parse_rule(self) -> Rule:
        start = self.peek()
        head = [self.parse_atom()]
        while self.at_disjunction():
            self.next()
            head.append(self.parse_atom())
        pos_body: list[Atom] = []
        neg_body: list[Atom] = []
        if self.peek().kind == "if":
            self.next()
            while True:
                if self.peek().kind == "name" and self.peek().text == "not":
                    self.next()
                    neg_body.append(self.parse_atom())
                else:
                    pos_body.append(self.parse_atom())
                if self.peek().kind != "comma":
                    break
                self.next()
        self.expect("dot", "'.'")
        try:
            return Rule(head, pos_body, neg_body)
        except ProgramError as exc:
            raise self.fail(start, str(exc)) from exc

    def parse_program(self) -> Program:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return Program(rules)

    def parse_query(self) -> Query:
        atom = self.parse_atom()
        self.expect("qmark", "'?'")
        tok = self.peek()
        if tok.kind != "eof":
            raise self.fail(tok, f"unexpected input after query: {tok.text!r}")
        return Query(atom)


def parse_program(text: str) -> Program:
    """Parse a program, raising :class:`SourceError` on malformed input."""
    return _Parser(text).parse_program()


def parse_query(text: str) -> Query:
    """Parse a single-atom query such as ``ancestor(p1,X)?``."""
    return _Parser(text).parse_query()


def print_program(p: Program) -> str:
    """Canonical text for ``p``: one rule per line, sorted by the predicate
    of the first head atom and then by the full rule text.

    Reparsing the output yields a program equal to ``p``.
    """
    lines = sorted((r.head[0].predicate, str(r)) for r in p.rules)
    return "".join(text + "\n" for _, text in lines)
