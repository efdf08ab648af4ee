"""Abstract syntax for disjunctive logic programs with default negation.

Terms, atoms, rules, programs and queries are immutable values.  Rule and
program equality is set-based (duplicate atoms and rules collapse), but the
construction order of atoms and rules is preserved so that printing and the
binding strategies of the rewriter stay deterministic.  What a rule's
equality, hashing and grounding read over and over (its set signature,
its atoms) is computed once and kept on the rule object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping

__all__ = [
    "ProgramError",
    "Term",
    "Atom",
    "Rule",
    "Program",
    "Query",
    "Interpretation",
    "RESERVED_UNIVERSE_CONSTANT",
    "const",
    "var",
    "fact",
    "edb_idb_split",
    "universe",
    "base",
]

# Constant injected into the universe of programs that mention no constant,
# so that grounding is never over an empty domain.
RESERVED_UNIVERSE_CONSTANT = "u0"

_CONSTANT_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*\Z")
_VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


class ProgramError(ValueError):
    """Raised when a rule or program violates a structural constraint."""


@dataclass(frozen=True, order=True)
class Term:
    """A constant or a variable, told apart by the first character.

    Variables start with an uppercase letter; constants with a lowercase
    letter or a digit.  The two lexical classes are disjoint, so the name
    alone determines the kind.
    """

    name: str

    def __post_init__(self) -> None:
        if _VARIABLE_RE.match(self.name):
            return
        if _CONSTANT_RE.match(self.name):
            return
        raise ProgramError(f"not a valid term name: {self.name!r}")

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()

    @property
    def is_constant(self) -> bool:
        return not self.is_variable

    def __str__(self) -> str:
        return self.name


def const(name: str) -> Term:
    """Build a constant term, rejecting variable-shaped names."""
    t = Term(name)
    if not t.is_constant:
        raise ProgramError(f"not a constant name: {name!r}")
    return t


def var(name: str) -> Term:
    """Build a variable term, rejecting constant-shaped names."""
    t = Term(name)
    if not t.is_variable:
        raise ProgramError(f"not a variable name: {name!r}")
    return t


@dataclass(frozen=True, order=True)
class Atom:
    """A predicate applied to a tuple of terms."""

    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if not _CONSTANT_RE.match(self.predicate):
            raise ProgramError(f"not a valid predicate name: {self.predicate!r}")
        object.__setattr__(self, "args", tuple(self.args))
        for a in self.args:
            if not isinstance(a, Term):
                raise ProgramError(f"atom argument is not a Term: {a!r}")

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        return all(a.is_constant for a in self.args)

    def variables(self) -> frozenset[str]:
        return frozenset(a.name for a in self.args if a.is_variable)

    def substitute(self, binding: Mapping[str, Term]) -> "Atom":
        return Atom(
            self.predicate,
            tuple(binding.get(a.name, a) if a.is_variable else a for a in self.args),
        )

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(a.name for a in self.args)})"


def _ordered_dedup(items: Iterable[Atom]) -> tuple[Atom, ...]:
    return tuple(dict.fromkeys(items))


@dataclass(frozen=True, eq=False)
class Rule:
    """A disjunctive rule ``h1 v ... v hm :- b1, ..., not c1, ...``.

    Atoms are stored in construction (textual) order with duplicates
    removed, but two rules are equal whenever their head, positive body and
    negative body agree as sets.  Every rule must be safe: each variable of
    the head or the negative body has to occur in the positive body, which
    in particular forces bodiless rules to be ground.
    """

    head: tuple[Atom, ...]
    pos_body: tuple[Atom, ...] = ()
    neg_body: tuple[Atom, ...] = ()

    def __init__(
        self,
        head: Iterable[Atom],
        pos_body: Iterable[Atom] = (),
        neg_body: Iterable[Atom] = (),
    ) -> None:
        object.__setattr__(self, "head", _ordered_dedup(head))
        object.__setattr__(self, "pos_body", _ordered_dedup(pos_body))
        object.__setattr__(self, "neg_body", _ordered_dedup(neg_body))
        if not self.head:
            raise ProgramError("a rule needs at least one head atom")
        pos_vars: set[str] = set()
        for a in self.pos_body:
            pos_vars |= a.variables()
        for a in (*self.head, *self.neg_body):
            loose = a.variables() - pos_vars
            if loose:
                names = ", ".join(sorted(loose))
                raise ProgramError(
                    f"unsafe rule: {names} not bound by the positive body in {self}"
                )

    @cached_property
    def _signature(self) -> tuple[frozenset[Atom], frozenset[Atom], frozenset[Atom]]:
        return (
            frozenset(self.head),
            frozenset(self.pos_body),
            frozenset(self.neg_body),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self._signature == other._signature

    def __hash__(self) -> int:
        return hash(self._signature)

    @property
    def is_fact(self) -> bool:
        return (
            len(self.head) == 1
            and not self.pos_body
            and not self.neg_body
            and self.head[0].is_ground
        )

    @cached_property
    def _atoms(self) -> tuple[Atom, ...]:
        return _ordered_dedup((*self.head, *self.pos_body, *self.neg_body))

    def atoms(self) -> tuple[Atom, ...]:
        """All atoms of the rule in textual order: head, then positive body,
        then negative body, duplicates removed.  Computed once per rule."""
        return self._atoms

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.atoms():
            out |= a.variables()
        return frozenset(out)

    def substitute(self, binding: Mapping[str, Term]) -> "Rule":
        return Rule(
            (a.substitute(binding) for a in self.head),
            (a.substitute(binding) for a in self.pos_body),
            (a.substitute(binding) for a in self.neg_body),
        )

    def __str__(self) -> str:
        head = " v ".join(str(a) for a in self.head)
        body = [str(a) for a in self.pos_body]
        body += [f"not {a}" for a in self.neg_body]
        if body:
            return f"{head} :- {', '.join(body)}."
        return f"{head}."

    def __repr__(self) -> str:
        return f"Rule<{self}>"


def fact(atom: Atom) -> Rule:
    """A single ground atom as a bodiless rule."""
    return Rule((atom,))


def _check_arity(arities: dict[str, int], atom: Atom) -> None:
    """Record the arity of ``atom``'s predicate in ``arities``, unless it
    clashes with the one recorded there."""
    seen = arities.setdefault(atom.predicate, atom.arity)
    if seen != atom.arity:
        raise ProgramError(
            f"predicate {atom.predicate} used with arities {seen} and {atom.arity}"
        )


@dataclass(frozen=True, eq=False)
class Program:
    """A finite set of rules with a consistent arity per predicate.

    Rules keep their insertion order (duplicates collapse to the first
    occurrence); equality ignores the order.
    """

    rules: tuple[Rule, ...]

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        object.__setattr__(self, "rules", tuple(dict.fromkeys(rules)))
        arities: dict[str, int] = {}
        for rule in self.rules:
            for atom in rule.atoms():
                _check_arity(arities, atom)
        object.__setattr__(self, "_arities", arities)

    @cached_property
    def _rule_set(self) -> frozenset[Rule]:
        return frozenset(self.rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._rule_set == other._rule_set

    def __hash__(self) -> int:
        return hash(self._rule_set)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    @property
    def predicates(self) -> Mapping[str, int]:
        """Predicate name to arity, over every atom of the program."""
        return dict(self._arities)  # type: ignore[attr-defined]

    @cached_property
    def constants(self) -> frozenset[Term]:
        out: set[Term] = set()
        for rule in self.rules:
            for atom in rule.atoms():
                out.update(a for a in atom.args if a.is_constant)
        return frozenset(out)

    @cached_property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates with at least one defining rule that is not a fact."""
        out: set[str] = set()
        for rule in self.rules:
            if rule.is_fact:
                continue
            out.update(a.predicate for a in rule.head)
        return frozenset(out)

    @cached_property
    def edb_predicates(self) -> frozenset[str]:
        """Predicates defined by facts alone, or not defined at all."""
        return frozenset(self._arities) - self.idb_predicates  # type: ignore[attr-defined]

    def with_facts(self, atoms: Iterable[Atom]) -> "Program":
        """A new program extended with the given ground atoms as facts.

        Only the added facts are checked: the new program starts from this
        one's arities and constants instead of walking every rule again."""
        arities = dict(self._arities)  # type: ignore[attr-defined]
        extra: dict[Rule, None] = {}
        constants: set[Term] = set()
        for atom in sorted(atoms):
            if not atom.is_ground:
                raise ProgramError(f"cannot add non-ground fact {atom}")
            _check_arity(arities, atom)
            extra[fact(atom)] = None
            constants.update(atom.args)
        out = object.__new__(Program)
        known = self._rule_set
        added = (r for r in extra if r not in known)
        object.__setattr__(out, "rules", (*self.rules, *added))
        object.__setattr__(out, "_arities", arities)
        object.__setattr__(out, "constants", self.constants | constants)
        return out

    def __repr__(self) -> str:
        return f"Program<{len(self.rules)} rules>"


@dataclass(frozen=True)
class Query:
    """A single atom whose instances are asked for."""

    atom: Atom

    def variables(self) -> frozenset[str]:
        return self.atom.variables()

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def __str__(self) -> str:
        return f"{self.atom}?"


# Interpretations are plain frozensets of ground atoms.
Interpretation = frozenset[Atom]


def edb_idb_split(p: Program) -> tuple[tuple[Rule, ...], tuple[Rule, ...]]:
    """Split ``p`` into extensional facts and the remaining rules.

    A predicate is extensional when all of its defining rules are facts
    (predicates without defining rules count as extensional too).  The first
    component holds the facts of extensional predicates, the second holds
    every other rule; together they partition the program.
    """
    edb = p.edb_predicates
    edb_rules = []
    idb_rules = []
    for rule in p.rules:
        if rule.is_fact and rule.head[0].predicate in edb:
            edb_rules.append(rule)
        else:
            idb_rules.append(rule)
    return tuple(edb_rules), tuple(idb_rules)


def universe(p: Program) -> frozenset[Term]:
    """The constants of ``p``, or a reserved singleton when there are none."""
    if p.constants:
        return p.constants
    return frozenset({Term(RESERVED_UNIVERSE_CONSTANT)})


def base(p: Program) -> frozenset[Atom]:
    """All ground atoms built from the predicates of ``p`` over its universe."""
    terms = sorted(universe(p))
    out: set[Atom] = set()
    for pred, arity in p.predicates.items():
        for args in product(terms, repeat=arity):
            out.add(Atom(pred, args))
    return frozenset(out)
