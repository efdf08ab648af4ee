"""Abstract syntax for disjunctive logic programs with default negation.

Terms, atoms, rules, programs and queries are immutable values.  Rule and
program equality is set-based (duplicate atoms and rules collapse), but the
construction order of atoms and rules is preserved so that printing and the
binding strategies of the rewriter stay deterministic.  A rule's set
signature, which its equality and hashing read, and its atoms in textual
order are computed once and kept on the rule object, beside its fields
and nothing else: the grounder keeps its own layouts of a rule for as
long as it grounds, not on the rule.

Values compared by their fields are named tuples, so they hash, compare
and order as the tuple of their fields, in C; a term or atom validates
its fields in ``__new__`` and, like any named tuple, also equals the plain
tuple of its fields.  Rules and programs, which compare as sets, are plain
classes on :class:`_Frozen`, which refuses assignment once ``__init__``
has filled the instance ``__dict__``; every rule and program is built by
its ``__init__``, which checks it.  Neither kind is generated by a
class decorator, whose module (and ``inspect``, which it loads) every CLI
call would otherwise import.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import count, islice, product, starmap
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

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


class _Frozen:
    """Base of the immutable classes that are not tuples.  ``__init__``
    fills the instance ``__dict__`` directly; any later assignment or
    deletion raises ``AttributeError``.  ``cached_property`` writes to the
    ``__dict__`` directly too, and :meth:`__repr__` lists ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _TermFields(NamedTuple):
    name: str


class Term(_TermFields):
    """A constant or a variable, told apart by the first character.

    Variables start with an uppercase letter; constants with a lowercase
    letter or a digit.  The two lexical classes are disjoint, so the name
    alone determines the kind.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Term":
        if not (_VARIABLE_RE.match(name) or _CONSTANT_RE.match(name)):
            raise ProgramError(f"not a valid term name: {name!r}")
        return tuple.__new__(cls, (name,))

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


class _AtomFields(NamedTuple):
    predicate: str
    args: tuple[Term, ...]


class Atom(_AtomFields):
    """A predicate applied to a tuple of terms."""

    __slots__ = ()

    def __new__(cls, predicate: str, args: Iterable[Term] = ()) -> "Atom":
        if not _CONSTANT_RE.match(predicate):
            raise ProgramError(f"not a valid predicate name: {predicate!r}")
        args = tuple(args)
        for a in args:
            if not isinstance(a, Term):
                raise ProgramError(f"atom argument is not a Term: {a!r}")
        return tuple.__new__(cls, (predicate, args))

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


class Rule(_Frozen):
    """A disjunctive rule ``h1 v ... v hm :- b1, ..., not c1, ...``.

    Atoms are stored in construction (textual) order with duplicates
    removed, but two rules are equal whenever their head, positive body and
    negative body agree as sets.  Every rule must be safe: each variable of
    the head or the negative body has to occur in the positive body, which
    in particular forces bodiless rules to be ground.
    """

    head: tuple[Atom, ...]
    pos_body: tuple[Atom, ...]
    neg_body: tuple[Atom, ...]

    def __init__(
        self,
        head: Iterable[Atom],
        pos_body: Iterable[Atom] = (),
        neg_body: Iterable[Atom] = (),
    ) -> None:
        fields = self.__dict__
        fields["head"] = _ordered_dedup(head)
        fields["pos_body"] = _ordered_dedup(pos_body)
        fields["neg_body"] = _ordered_dedup(neg_body)
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
    """A ground atom as a bodiless rule.  A non-ground atom makes the rule
    unsafe, which :class:`Rule` rejects."""
    return Rule((atom,))


class Program(_Frozen):
    """A finite set of rules with a consistent arity per predicate.

    Rules keep their insertion order (duplicates collapse to the first
    occurrence); equality ignores the order.
    """

    rules: tuple[Rule, ...]
    _arities: dict[str, int]

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        arities: dict[str, int] = {}
        self.__dict__.update(rules=tuple(dict.fromkeys(rules)), _arities=arities)
        for rule in self.rules:
            for atom in rule.atoms():
                seen = arities.setdefault(atom.predicate, atom.arity)
                if seen != atom.arity:
                    raise ProgramError(
                        f"predicate {atom.predicate} used with arities "
                        f"{seen} and {atom.arity}"
                    )

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
        """Predicate name to arity, over every atom of the program, as a
        read-only view: nothing is copied."""
        return MappingProxyType(self._arities)

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
        return frozenset(self._arities) - self.idb_predicates

    def with_facts(self, atoms: Iterable[Atom]) -> "Program":
        """A new program: this one's rules, then the given ground atoms as
        facts in atom order.  The constructor checks the arities and
        collapses an atom that is already a fact of this one, or is given
        twice, to its first occurrence."""
        atoms = sorted(set(atoms))
        for atom in atoms:
            if not atom.is_ground:
                raise ProgramError(f"cannot add non-ground fact {atom}")
        return Program((*self.rules, *map(fact, atoms)))

    def __repr__(self) -> str:
        return f"Program<{len(self.rules)} rules>"


class Query(NamedTuple):
    """A single atom whose instances are asked for."""

    atom: Atom

    def variables(self) -> frozenset[str]:
        return self.atom.variables()

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def __str__(self) -> str:
        return f"{self.atom}?"


def _check_query_arity(q: Query, p: Program) -> None:
    """Reject a query whose predicate has another arity in ``p``; a
    predicate ``p`` does not use may take any arity."""
    arity = p.predicates.get(q.atom.predicate)
    if arity is not None and arity != q.atom.arity:
        raise ProgramError(
            f"query {q} has {q.atom.arity} arguments, but {q.atom.predicate} "
            f"has arity {arity} in the program"
        )


# Interpretations are plain frozensets of ground atoms.
Interpretation = frozenset[Atom]


def edb_idb_split(p: Program) -> tuple[tuple[Rule, ...], tuple[Rule, ...]]:
    """Split ``p`` into extensional facts and the remaining rules.

    A predicate is extensional when all of its defining rules are facts
    (predicates without defining rules count as extensional too).  The first
    component holds the facts of extensional predicates, the second holds
    every other rule; together they partition the program.  A rule that
    is not a fact heads intensional predicates alone, so its first head
    atom's predicate decides on which side a rule falls.
    """
    idb = p.idb_predicates
    edb_rules = []
    idb_rules = []
    for rule in p.rules:
        (idb_rules if rule.head[0].predicate in idb else edb_rules).append(rule)
    return tuple(edb_rules), tuple(idb_rules)


def universe(p: Program) -> frozenset[Term]:
    """The constants of ``p``, or a reserved singleton when there are none."""
    if p.constants:
        return p.constants
    return frozenset({Term(RESERVED_UNIVERSE_CONSTANT)})


def base(p: Program) -> frozenset[Atom]:
    """All ground atoms built from the predicates of ``p`` over its universe."""
    return frozenset(starmap(Atom, _atoms_over(p, p.predicates)))


def _atoms_over(
    p: Program, predicates: Iterable[str], prefix: str = "", fresh: int = 0
) -> Iterator[tuple[str, tuple[Term, ...]]]:
    """Every ground atom of ``predicates`` in ``p`` as a pair of predicate
    and argument terms, in atom order: over the universe of ``p`` plus the
    first ``fresh`` constants ``prefix1``, ``prefix2``, ... that ``p`` does
    not already use.  The pairs come one at a time, and no atom is built,
    so a caller that stops early pays only for what it took."""
    terms = universe(p)
    taken = {t.name for t in terms}
    names = (f"{prefix}{i}" for i in count(1) if f"{prefix}{i}" not in taken)
    terms = sorted(terms.union(map(Term, islice(names, fresh))))
    arities = p.predicates
    # sorted predicates over sorted terms give the atoms in atom order
    for pred in sorted(predicates):
        for args in product(terms, repeat=arities[pred]):
            yield pred, args
