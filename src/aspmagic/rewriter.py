"""Query-driven magic-set rewriting for disjunctive programs.

Starting from the query, the rewriting walks the rules that can contribute
to it and records, per predicate, which argument positions arrive bound
(``b``) and which stay free (``f``).  For every reachable adorned predicate
it emits a ``magic`` rule deriving the relevant bindings, and guards the
original rule with the magic version of each head atom, so that only
derivations reachable from the query can fire.

Each rule is rewritten once per matching head atom and adorned predicate,
in the paper's three steps (Adorn, Generate, Modify) under one fixed
binding strategy.  The selected head binds the variables at its ``b``
positions.  Every other atom is *fed* by some positive body atoms: a
positive atom by earlier ones, a negative body atom or another head atom by
all of them.  Scanning those candidates in body order, a candidate feeds
the target when it holds a variable of the target that neither the head
nor an earlier feeding candidate already covers; the target then also takes
that candidate's own feeds.  Such a candidate is the first to hold one of
the target's variables that the head leaves free, so the feeders are found
in time linear in the body.  An argument is bound when it is a constant,
bound by the head or a variable of a feeding atom.  Each adorned atom's
magic rule derives its bindings from the selected head's magic atom and
its feeds; negative and head atoms receive bindings but pass none on.
Each adorned atom's magic atom is built once: it heads that atom's magic
rule and, for a head atom, guards the rule.

A rule's rewriting under one selected head and adornment depends on
nothing but the rule's atoms in order and which of its predicates are
intensional, so the rewritings of the most recently used few hundred such
keys are kept for the process, as the grounder keeps its rule layouts:
the checks of a differential sweep rewrite the same few rule shapes over
and over.  The rules kept are immutable, so a rewriting found kept is the
one a fresh rewriting would make.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .syntax import (
    Atom,
    Program,
    ProgramError,
    Query,
    Rule,
    Term,
    _Frozen,
    _check_query_arity,
    edb_idb_split,
    fact,
)

__all__ = [
    "MAGIC_PREFIX",
    "ReservedPredicateError",
    "AdornedPredicate",
    "DmsResult",
    "magic_atom",
    "split_magic_name",
    "dms",
    "dms_with_details",
]

MAGIC_PREFIX = "magic_"


class ReservedPredicateError(ProgramError):
    """Input mentions a predicate in the namespace the rewriting generates."""


class _AdornedFields(NamedTuple):
    predicate: str
    adornment: str


class AdornedPredicate(_AdornedFields):
    """A predicate with one binding label (``b`` or ``f``) per argument."""

    __slots__ = ()

    def __new__(cls, predicate: str, adornment: str) -> "AdornedPredicate":
        if set(adornment) - {"b", "f"}:
            raise ProgramError(f"bad adornment {adornment!r}")
        return tuple.__new__(cls, (predicate, adornment))

    @property
    def magic_name(self) -> str:
        return f"{MAGIC_PREFIX}{self.predicate}_{self.adornment}"

    def __str__(self) -> str:
        return f"{self.predicate}^{self.adornment}"


def magic_atom(ap: AdornedPredicate, args: tuple[Term, ...]) -> Atom:
    """The magic version of ``ap`` applied to ``args``: same predicate and
    adornment folded into the name, keeping only the bound arguments."""
    if len(args) != len(ap.adornment):
        raise ProgramError(
            f"adornment {ap.adornment!r} does not fit arity {len(args)}"
        )
    kept = tuple(a for a, label in zip(args, ap.adornment) if label == "b")
    return Atom(ap.magic_name, kept)


def split_magic_name(name: str) -> tuple[str, str] | None:
    """Decode a generated magic predicate name back into predicate and
    adornment, or return ``None`` for ordinary predicates."""
    if not name.startswith(MAGIC_PREFIX):
        return None
    rest = name[len(MAGIC_PREFIX):]
    cut = rest.rfind("_")
    if cut <= 0:
        return None
    pred, adornment = rest[:cut], rest[cut + 1:]
    if set(adornment) - {"b", "f"}:
        return None
    return pred, adornment


def _feeds(
    rule: _Shape | Rule,
    head_atom: Atom,
    head_bound: frozenset[str],
    variables: Mapping[Atom, frozenset[str]],
) -> Callable[[Atom], set[Atom]]:
    """The function giving the positive body atoms that feed an atom of
    ``rule`` other than the selected ``head_atom``, whose bound positions
    bind the variables ``head_bound``; ``variables`` maps each atom of the
    rule to its variables.

    Scanning the candidates in body order, a candidate feeds the target
    when it holds a variable of the target that neither the head nor an
    earlier feeding candidate covers.  That holds exactly when it is the
    first candidate holding some variable of the target outside
    ``head_bound``: an earlier holder of that variable would itself feed
    and cover it.  So each atom's direct feeders are read off a map from
    each variable to its first holder, and a target's feeds are those
    feeders and, in turn, theirs; each atom's variables are read once."""
    first: dict[str, Atom] = {}
    direct: dict[Atom, set[Atom]] = {}

    def holders(target: Atom) -> set[Atom]:
        return {first[v] for v in variables[target] - head_bound if v in first}

    for target in rule.pos_body:
        if target != head_atom:
            direct[target] = holders(target)
            for v in variables[target]:
                first.setdefault(v, target)
    for target in (*rule.neg_body, *rule.head):
        if target != head_atom and target not in direct:
            direct[target] = holders(target)

    def feeds(target: Atom) -> set[Atom]:
        out: set[Atom] = set()
        stack = [target]
        while stack:
            for s in direct[stack.pop()]:
                if s not in out:
                    out.add(s)
                    stack.append(s)
        return out

    return feeds


class _Shape(NamedTuple):
    """A rule's head, positive body and negative body atoms, in order:
    all a rewriting reads of the rule, since the binding strategy scans
    the body in order."""

    head: tuple[Atom, ...]
    pos_body: tuple[Atom, ...]
    neg_body: tuple[Atom, ...]


# At most this many rewritings are kept: 512 hold about 1.6 MB, and the
# checks of a differential sweep repeat enough shapes for about one
# rewriting in two to be found kept.
_REWRITINGS = 512


@lru_cache(maxsize=_REWRITINGS)
def _rewrite_rule(
    rule: _Shape, head_atom: Atom, adornment: str, intensional: frozenset[str]
) -> tuple[tuple[AdornedPredicate, ...], tuple[Rule, ...], Rule]:
    """Adorn, Generate and Modify ``rule`` with ``head_atom`` selected under
    ``adornment``, where ``intensional`` holds the rule's intensional
    predicates: the adorned predicates of its intensional atoms (the
    selected head's first, the others in textual order), their magic rules,
    and the guarded rule.

    The result depends on these arguments alone, so it is made once per
    distinct set of them and kept while among the ``_REWRITINGS`` most
    recently used: the rules it holds are immutable."""
    head_bound = frozenset(
        t.name
        for t, label in zip(head_atom.args, adornment)
        if label == "b" and t.is_variable
    )
    atoms = tuple(dict.fromkeys((*rule.head, *rule.pos_body, *rule.neg_body)))
    variables = {a: a.variables() for a in atoms}
    feeds = _feeds(rule, head_atom, head_bound, variables)

    adorned = {head_atom: AdornedPredicate(head_atom.predicate, adornment)}
    fed: dict[Atom, set[Atom]] = {}
    for atom in atoms:
        if atom != head_atom and atom.predicate in intensional:
            fed[atom] = feeds(atom)
            bound = head_bound.union(*(variables[s] for s in fed[atom]))
            adorned[atom] = AdornedPredicate(atom.predicate, "".join(
                "b" if t.is_constant or t.name in bound else "f" for t in atom.args
            ))

    # each adorned atom's magic atom: the head of its magic rule, and for a
    # head atom its guard
    magic = {atom: magic_atom(ap, atom.args) for atom, ap in adorned.items()}
    guard = magic[head_atom]
    magic_rules = tuple(
        Rule((magic[atom],), (guard, *(b for b in atoms if b in fed[atom])))
        for atom in fed
    )
    guards = (magic[h] for h in rule.head)
    modified = Rule(rule.head, (*guards, *rule.pos_body), rule.neg_body)
    return tuple(dict.fromkeys(adorned.values())), magic_rules, modified


def _check_magic_free(p: Program, q: Query) -> None:
    offenders = sorted({
        name for name in (*p.predicates, q.atom.predicate)
        if split_magic_name(name) is not None
    })
    if offenders:
        raise ReservedPredicateError(
            f"predicate names reserved for the rewriting: {', '.join(offenders)}"
        )


class DmsResult(_Frozen):
    """The rewriting broken into its parts, plus the assembled program."""

    _fields = (
        "program", "seed", "magic_rules", "modified_rules", "edb_rules", "adorned"
    )

    def __init__(
        self,
        program: Program,
        seed: Rule,
        magic_rules: tuple[Rule, ...],
        modified_rules: tuple[Rule, ...],
        edb_rules: tuple[Rule, ...],
        adorned: frozenset[AdornedPredicate],
    ) -> None:
        self.__dict__.update(
            program=program, seed=seed, magic_rules=magic_rules,
            modified_rules=modified_rules, edb_rules=edb_rules, adorned=adorned,
        )


def dms_with_details(q: Query, p: Program) -> DmsResult:
    """Rewrite ``p`` for query ``q`` and keep the parts separate.

    Adorned predicates are processed first-in first-out, each exactly once;
    every defining rule of the popped predicate is adorned, its magic rules
    generated and its guarded version collected.  The defining rules are
    indexed by head predicate once, so a popped predicate visits its own
    rules alone, in the order of the program's rules and then of their
    head atoms.  The result combines the seed, the magic rules, the
    guarded rules and the extensional part of the program.  The seed keeps
    every constant of the query, so they all belong to the rewriting's
    universe; an extensional query predicate defines no rule, so its
    rewriting is the seed and the facts.  A query predicate that ``p``
    uses at another arity is rejected with a :class:`ProgramError`.
    """
    _check_magic_free(p, q)
    _check_query_arity(q, p)
    edb_rules, idb_rules = edb_idb_split(p)
    idb = p.idb_predicates

    # the seed: the query atom's magic version, bound at its constants
    adornment = "".join("b" if t.is_constant else "f" for t in q.atom.args)
    query_ap = AdornedPredicate(q.atom.predicate, adornment)
    seed = fact(magic_atom(query_ap, q.atom.args))
    seen = {query_ap}
    queue = deque([query_ap])
    magic_rules: list[Rule] = [seed]
    modified_rules: list[Rule] = []

    # each head predicate's defining rules, in program order, each as the
    # key of its rewritings: its atoms in order, its intensional predicates
    # and the head atom selected
    defining: dict[str, list[tuple[_Shape, frozenset[str], Atom]]] = {}
    for rule in idb_rules:
        shape = _Shape(rule.head, rule.pos_body, rule.neg_body)
        intensional = frozenset(a.predicate for a in rule.atoms() if a.predicate in idb)
        for head_atom in rule.head:
            defining.setdefault(head_atom.predicate, []).append(
                (shape, intensional, head_atom)
            )
    while queue:
        ap = queue.popleft()
        for shape, intensional, head_atom in defining.get(ap.predicate, ()):
            adorned, magic, modified = _rewrite_rule(
                shape, head_atom, ap.adornment, intensional
            )
            for new_ap in adorned:
                if new_ap not in seen:
                    seen.add(new_ap)
                    queue.append(new_ap)
            magic_rules.extend(magic)
            modified_rules.append(modified)

    magic_part = tuple(dict.fromkeys(magic_rules))
    modified_part = tuple(dict.fromkeys(modified_rules))
    program = Program((*magic_part, *modified_part, *edb_rules))
    return DmsResult(
        program=program,
        seed=seed,
        magic_rules=magic_part,
        modified_rules=modified_part,
        edb_rules=edb_rules,
        adorned=frozenset(seen),
    )


def dms(q: Query, p: Program) -> Program:
    """The magic-set rewriting of ``p`` for query ``q``."""
    return dms_with_details(q, p).program
