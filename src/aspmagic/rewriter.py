"""Query-driven magic-set rewriting for disjunctive programs.

Starting from the query, the rewriting walks the rules that can contribute
to it and records, per predicate, which argument positions arrive bound
(``b``) and which stay free (``f``).  For every reachable adorned predicate
it emits a ``magic`` rule deriving the relevant bindings, and guards the
original rule with the magic version of each head atom, so that only
derivations reachable from the query can fire.

The default binding strategy processes each rule head-first and then the
positive body left to right; an atom is made to precede a later one exactly
when it contributes at least one new bound variable to it.  Negative body
atoms and non-selected head atoms receive bindings but never pass them on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .syntax import (
    Atom,
    Program,
    ProgramError,
    Query,
    Rule,
    Term,
    edb_idb_split,
    fact,
)

__all__ = [
    "MAGIC_PREFIX",
    "ReservedPredicateError",
    "AdornedPredicate",
    "AdornedRule",
    "Sips",
    "DmsResult",
    "magic_atom",
    "split_magic_name",
    "default_sips",
    "adorn",
    "generate",
    "modify",
    "build_query_seed",
    "dms",
    "dms_with_details",
]

MAGIC_PREFIX = "magic_"


class ReservedPredicateError(ProgramError):
    """Input mentions a predicate in the namespace the rewriting generates."""


@dataclass(frozen=True, order=True)
class AdornedPredicate:
    """A predicate with one binding label (``b`` or ``f``) per argument."""

    predicate: str
    adornment: str

    def __post_init__(self) -> None:
        if set(self.adornment) - {"b", "f"}:
            raise ProgramError(f"bad adornment {self.adornment!r}")

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


@dataclass(frozen=True, eq=False)
class Sips:
    """A per-rule binding strategy: a strict partial order on the rule's
    atoms plus the variables each atom makes bound.

    Only the selected head atom and positive body atoms may pass bindings;
    the selected head atom precedes every other atom, while negative body
    atoms and the remaining head atoms precede nothing.
    """

    rule: Rule
    selected: Atom
    after: Mapping[Atom, frozenset[Atom]]
    bound: Mapping[Atom, frozenset[str]]

    def __post_init__(self) -> None:
        self._validate()

    def precedes(self, a: Atom, b: Atom) -> bool:
        return b in self.after.get(a, frozenset())

    def bound_vars(self, a: Atom) -> frozenset[str]:
        return self.bound.get(a, frozenset())

    def _validate(self) -> None:
        atoms = self.rule.atoms()
        atom_set = set(atoms)
        if self.selected not in self.rule.head:
            raise ProgramError(f"{self.selected} is not a head atom of {self.rule}")
        pos = set(self.rule.pos_body)
        # an atom recurring in several roles counts as a source if any of
        # its occurrences is one, hence selected and positive atoms are
        # removed from the passive side
        passive = (set(self.rule.head) | set(self.rule.neg_body)) - pos - {self.selected}
        for a, succ in self.after.items():
            if a not in atom_set or (succ - atom_set):
                raise ProgramError("precedence mentions a foreign atom")
            if a in succ:
                raise ProgramError(f"precedence is not irreflexive at {a}")
            if a in passive and succ:
                raise ProgramError(f"{a} may not precede other atoms")
            for b in succ:
                missing = self.after.get(b, frozenset()) - succ
                if missing:
                    raise ProgramError("precedence is not transitive")
        others = atom_set - {self.selected}
        if others - self.after.get(self.selected, frozenset()):
            raise ProgramError("the selected head atom must precede every atom")
        for a, vs in self.bound.items():
            if vs and a != self.selected and a not in pos:
                raise ProgramError(f"{a} cannot be a binding source")
            if vs - a.variables():
                raise ProgramError(f"bound variables {sorted(vs)} not in {a}")


def default_sips(rule: Rule, head_atom: Atom, adornment: str) -> Sips:
    """The default binding strategy for ``head_atom`` selected under
    ``adornment``.

    Scanning targets in textual order (positive body, then negative body,
    then the other head atoms), a positive body atom is placed before a
    target exactly when it covers a variable of the target that neither the
    selected head nor an earlier contributing atom already bound.
    """
    if len(adornment) != head_atom.arity:
        raise ProgramError(
            f"adornment {adornment!r} does not fit {head_atom}"
        )
    head_bound = frozenset(
        t.name
        for t, label in zip(head_atom.args, adornment)
        if label == "b" and t.is_variable
    )
    bound: dict[Atom, frozenset[str]] = {head_atom: head_bound}
    pos_atoms = [a for a in rule.pos_body if a != head_atom]
    for a in pos_atoms:
        bound[a] = a.variables()

    after: dict[Atom, set[Atom]] = {a: set() for a in rule.atoms()}
    after[head_atom] = {a for a in rule.atoms() if a != head_atom}

    def place_sources(target: Atom, sources: list[Atom]) -> None:
        covered = set(head_bound)
        for s in sources:
            gain = (s.variables() & target.variables()) - covered
            if gain:
                after[s].add(target)
                covered |= bound[s]

    for i, target in enumerate(pos_atoms):
        place_sources(target, pos_atoms[:i])
    passive = [a for a in (*rule.neg_body, *rule.head) if a not in (head_atom, *pos_atoms)]
    for target in passive:
        place_sources(target, pos_atoms)

    # transitive closure, so chained contributions stay a partial order
    changed = True
    while changed:
        changed = False
        for a in pos_atoms:
            extra = set()
            for b in after[a]:
                extra |= after.get(b, set()) - after[a] - {a}
            if extra:
                after[a] |= extra
                changed = True

    return Sips(
        rule=rule,
        selected=head_atom,
        after={a: frozenset(s) for a, s in after.items() if s},
        bound=bound,
    )


@dataclass(frozen=True, eq=False)
class AdornedRule:
    """A rule together with the adornment of each of its intensional atoms;
    extensional atoms carry no adornment."""

    rule: Rule
    selected: Atom
    adornments: Mapping[Atom, str]

    def adornment_of(self, atom: Atom) -> str | None:
        return self.adornments.get(atom)

    @cached_property
    def selected_pred(self) -> AdornedPredicate:
        return AdornedPredicate(self.selected.predicate, self.adornments[self.selected])

    def adorned_predicates(self) -> tuple[AdornedPredicate, ...]:
        out = []
        for atom in self.rule.atoms():
            a = self.adornments.get(atom)
            if a is not None:
                out.append(AdornedPredicate(atom.predicate, a))
        return tuple(dict.fromkeys(out))


def adorn(
    rule: Rule,
    ap: AdornedPredicate,
    head_atom: Atom,
    sips: Sips,
    idb: frozenset[str],
) -> AdornedRule:
    """Adorn ``rule`` for the selected ``head_atom`` bound as ``ap`` says.

    A variable of an atom counts as bound when the selected head atom binds
    it, or some positive body atom placed before that atom by ``sips`` does.
    Constant arguments are always bound.
    """
    if head_atom.predicate != ap.predicate:
        raise ProgramError(f"{head_atom} does not match {ap}")
    adornments: dict[Atom, str] = {head_atom: ap.adornment}
    for atom in rule.atoms():
        if atom == head_atom or atom.predicate not in idb:
            continue
        labels = []
        for t in atom.args:
            if t.is_constant:
                labels.append("b")
                continue
            is_bound = t.name in sips.bound_vars(sips.selected)
            if not is_bound:
                for b in rule.pos_body:
                    if sips.precedes(b, atom) and t.name in sips.bound_vars(b):
                        is_bound = True
                        break
            labels.append("b" if is_bound else "f")
        adornments[atom] = "".join(labels)
    return AdornedRule(rule=rule, selected=head_atom, adornments=adornments)


def generate(ra: AdornedRule, sips: Sips) -> tuple[Rule, ...]:
    """The magic rules of an adorned rule: one per adorned atom other than
    the selected head, deriving its relevant bindings from the magic version
    of the selected head plus whatever atoms the strategy placed before it.
    Body atoms appear with their original predicates."""
    seed_atom = magic_atom(ra.selected_pred, ra.selected.args)
    out = []
    for atom in ra.rule.atoms():
        if atom == ra.selected:
            continue
        adornment = ra.adornment_of(atom)
        if adornment is None:
            continue
        head = magic_atom(AdornedPredicate(atom.predicate, adornment), atom.args)
        body = [seed_atom]
        body += [
            b for b in ra.rule.atoms() if b != ra.selected and sips.precedes(b, atom)
        ]
        out.append(Rule((head,), body))
    return tuple(out)


def modify(ra: AdornedRule) -> Rule:
    """The guarded version of an adorned rule: the original rule with the
    magic version of every head atom prepended to the positive body."""
    guards = []
    for h in ra.rule.head:
        adornment = ra.adornment_of(h)
        if adornment is None:
            raise ProgramError(f"head atom {h} is not adorned")
        guards.append(magic_atom(AdornedPredicate(h.predicate, adornment), h.args))
    return Rule(
        ra.rule.head,
        (*guards, *ra.rule.pos_body),
        ra.rule.neg_body,
    )


def _check_magic_free(p: Program, q: Query) -> None:
    offenders = sorted(
        name for name in (*p.predicates, q.atom.predicate)
        if split_magic_name(name) is not None
    )
    if offenders:
        raise ReservedPredicateError(
            f"predicate names reserved for the rewriting: {', '.join(offenders)}"
        )


def build_query_seed(q: Query, seen: set[AdornedPredicate] | None = None) -> Rule:
    """The seed fact for ``q``: the magic version of the query atom, bound
    at constant positions and free at variable positions."""
    adornment = "".join("b" if t.is_constant else "f" for t in q.atom.args)
    ap = AdornedPredicate(q.atom.predicate, adornment)
    if seen is not None:
        seen.add(ap)
    return fact(magic_atom(ap, q.atom.args))


@dataclass(frozen=True, eq=False)
class DmsResult:
    """The rewriting broken into its parts, plus the assembled program."""

    program: Program
    seed: Rule
    magic_rules: tuple[Rule, ...]
    modified_rules: tuple[Rule, ...]
    edb_rules: tuple[Rule, ...]
    adorned: frozenset[AdornedPredicate]


def dms_with_details(q: Query, p: Program) -> DmsResult:
    """Rewrite ``p`` for query ``q`` and keep the parts separate.

    Adorned predicates are processed first-in first-out, each exactly once;
    for every defining rule of the popped predicate the binding strategy is
    built, the rule adorned, its magic rules generated and its guarded
    version collected.  The result combines the seed, the magic rules, the
    guarded rules and the extensional part of the program.  The seed keeps
    every constant of the query, so they all belong to the rewriting's
    universe; an extensional query predicate defines no rule, so its
    rewriting is the seed and the facts.
    """
    _check_magic_free(p, q)
    edb_rules, idb_rules = edb_idb_split(p)
    idb = p.idb_predicates

    seen: set[AdornedPredicate] = set()
    seed = build_query_seed(q, seen)
    queue: deque[AdornedPredicate] = deque(sorted(seen))
    magic_rules: list[Rule] = [seed]
    modified_rules: list[Rule] = []

    while queue:
        ap = queue.popleft()
        for rule in idb_rules:
            for head_atom in rule.head:
                if head_atom.predicate != ap.predicate:
                    continue
                sips = default_sips(rule, head_atom, ap.adornment)
                ra = adorn(rule, ap, head_atom, sips, idb)
                for new_ap in ra.adorned_predicates():
                    if new_ap not in seen:
                        seen.add(new_ap)
                        queue.append(new_ap)
                magic_rules.extend(generate(ra, sips))
                modified_rules.append(modify(ra))

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
