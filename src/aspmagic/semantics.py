"""Reference evaluation: grounding, reducts, answer sets, query answering.

Two independent routes compute answer sets.  The primary one grounds by
relevance: a semi-naive join builds only the rule instances whose positive
body is derivable with negation ignored, so the magic predicates of a
rewritten program cut what is instantiated.  It then branches over the
atoms that occur in negative bodies, keeps monotone lower and upper bounds
to cut hopeless branches early, and enumerates the minimal models of the
positive remainder at each leaf.  The cross-check route grounds every rule
over the whole universe, enumerates candidate interpretations outright and
accepts those that are models containing no nonempty unfounded subset.
Both are deterministic; neither is meant to compete with a real solver.

Query answering uses the primary search.  A ground query directs it: a
brave query looks for one answer set containing the atom, pruning every
branch whose upper bound lacks it, and a cautious query looks for one
answer set lacking the atom, pruning every branch whose lower bound holds
it; the first such answer set decides the answer.  A query with variables
enumerates every answer set and matches the query atom against its atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .rewriter import AdornedPredicate, dms_with_details, magic_atom, split_magic_name
from .syntax import (
    Atom,
    Interpretation,
    Program,
    ProgramError,
    Query,
    Rule,
    Term,
    base,
    universe,
)

__all__ = [
    "SolverCapError",
    "GroundingTooLarge",
    "CandidateSpaceTooLarge",
    "GROUND_CAP_DEFAULT",
    "CANDIDATE_CAP_DEFAULT",
    "GroundProgram",
    "SolveMethod",
    "AnswerSetReport",
    "Substitution",
    "ground",
    "reduct",
    "is_model",
    "minimal_models",
    "answer_sets",
    "is_unfounded_set",
    "answer_sets_via_unfounded",
    "substitutions_brave",
    "substitutions_cautious",
    "QueryAnswer",
    "answer_query",
    "brave",
    "cautious",
    "killed_atoms",
    "magic_variant",
]

GROUND_CAP_DEFAULT = 10**6
CANDIDATE_CAP_DEFAULT = 2**22


class SolverCapError(Exception):
    """A configured resource cap would be exceeded."""


class GroundingTooLarge(SolverCapError):
    pass


class CandidateSpaceTooLarge(SolverCapError):
    pass


class SolveMethod(Enum):
    REDUCT_MINIMALITY = "ReductMinimality"
    UNFOUNDED_FREE = "UnfoundedFree"


@dataclass(frozen=True, eq=False)
class GroundProgram:
    """Ground rules together with the program they came from."""

    rules: tuple[Rule, ...]
    source: Program

    def __post_init__(self) -> None:
        for r in self.rules:
            if r.variables():
                raise ProgramError(f"ground program contains variables: {r}")


def ground(p: Program, ground_cap: int = GROUND_CAP_DEFAULT) -> GroundProgram:
    """The relevant instances of the rules of ``p``: those whose positive
    body lies in the least set of atoms closed under the rules of ``p``
    with negative bodies ignored.

    No other instance can fire in an answer set, so these are exactly the
    instances the search needs.  They are found by a semi-naive join:
    bodiless rules are ground by safety and come first; after that, each
    round matches every positive body against the atoms derived so far,
    indexed by predicate, with at least one body atom on an atom new in
    the previous round, and the heads of the new instances join the
    derived atoms.  The result keeps the order of the exhaustive
    grounding: source rule first, then the binding tuple over the sorted
    variable names, the first copy winning when instances collide.

    ``ground_cap`` bounds the number of distinct instances as they are
    emitted; crossing it raises :class:`GroundingTooLarge`.
    """
    derived: dict[str, list[tuple[Term, ...]]] = {}
    known: set[Atom] = set()
    pending: list[Atom] = []
    found: list[dict[tuple[Term, ...], Rule]] = [{} for _ in p.rules]
    distinct: set[Rule] = set()

    def emit(index: int, key: tuple[Term, ...], instance: Rule) -> None:
        found[index][key] = instance
        if instance in distinct:
            return
        distinct.add(instance)
        if len(distinct) > ground_cap:
            raise GroundingTooLarge(
                f"grounding needs more than {ground_cap} instances"
            )
        for a in instance.head:
            if a not in known:
                known.add(a)
                pending.append(a)

    joined = []
    for index, rule in enumerate(p.rules):
        if rule.pos_body:
            patterns = [_pattern(a) for a in rule.pos_body]
            joined.append((index, rule, sorted(rule.variables()), patterns))
        else:
            emit(index, (), rule)
    while pending:
        mark = {pred: len(rows) for pred, rows in derived.items()}
        for a in pending:
            derived.setdefault(a.predicate, []).append(a.args)
        pending.clear()
        for index, rule, names, patterns in joined:
            body = rule.pos_body
            for i, atom in enumerate(body):
                rows = derived.get(atom.predicate, [])
                start = mark.get(atom.predicate, 0)
                if len(rows) == start:
                    continue
                # Atoms before the new one match old atoms only, so each
                # new combination is found once.
                steps = [(patterns[i], rows[start:])]
                for j, other in enumerate(body):
                    if j != i:
                        rows_j = derived.get(other.predicate, [])
                        if j < i:
                            rows_j = rows_j[: mark.get(other.predicate, 0)]
                        steps.append((patterns[j], rows_j))
                for binding in _joins(steps, {}):
                    key = tuple(binding[v] for v in names)
                    if key not in found[index]:
                        emit(index, key, rule.substitute(binding))
    out: dict[Rule, None] = {}
    for by_key in found:
        for key in sorted(by_key):
            out.setdefault(by_key[key])
    return GroundProgram(rules=tuple(out), source=p)


# An atom's arguments, each with its variable name or None for a constant.
_Pattern = tuple[tuple[str | None, Term], ...]


def _pattern(atom: Atom) -> _Pattern:
    return tuple((t.name if t.is_variable else None, t) for t in atom.args)


def _joins(
    steps: Sequence[tuple[_Pattern, Sequence[tuple[Term, ...]]]],
    binding: dict[str, Term],
) -> Iterator[dict[str, Term]]:
    """The extensions of ``binding`` that match, for each step, its pattern
    against one of its argument tuples."""
    if not steps:
        yield binding
        return
    pattern, rows = steps[0]
    rest = steps[1:]
    for args in rows:
        b = binding
        for (name, term), c in zip(pattern, args):
            if name is None:
                if term != c:
                    break
            else:
                bound = b.get(name)
                if bound is None:
                    if b is binding:
                        b = dict(binding)
                    b[name] = c
                elif bound != c:
                    break
        else:
            yield from _joins(rest, b)


def _ground_exhaustive(
    p: Program, ground_cap: int = GROUND_CAP_DEFAULT
) -> GroundProgram:
    """Every instance of the rules of ``p`` over its universe, relevant or
    not: the grounding of the reference oracles, which must see rules whose
    bodies nothing derives.

    The instance count is bounded before any instance is materialized;
    crossing ``ground_cap`` raises :class:`GroundingTooLarge`.
    """
    terms = sorted(universe(p))
    total = 0
    for rule in p.rules:
        total += len(terms) ** len(rule.variables())
        if total > ground_cap:
            raise GroundingTooLarge(
                f"grounding needs more than {ground_cap} instances"
            )
    out: dict[Rule, None] = {}
    for rule in p.rules:
        rule_vars = sorted(rule.variables())
        if not rule_vars:
            out.setdefault(rule)
            continue
        for combo in product(terms, repeat=len(rule_vars)):
            binding = dict(zip(rule_vars, combo))
            out.setdefault(rule.substitute(binding))
    return GroundProgram(rules=tuple(out), source=p)


def reduct(g: GroundProgram, i: Interpretation) -> GroundProgram:
    """The reduct of ``g`` by ``i``: rules whose negative body meets ``i``
    are dropped, the negative bodies of the rest are stripped."""
    kept = []
    for rule in g.rules:
        if any(a in i for a in rule.neg_body):
            continue
        kept.append(Rule(rule.head, rule.pos_body))
    return GroundProgram(rules=tuple(kept), source=g.source)


def is_model(i: Interpretation, g: GroundProgram) -> bool:
    """Whether every rule with a true body has a true head atom."""
    for rule in g.rules:
        if not all(a in i for a in rule.pos_body):
            continue
        if any(a in i for a in rule.neg_body):
            continue
        if not any(a in i for a in rule.head):
            return False
    return True


@dataclass(frozen=True)
class AnswerSetReport:
    """The answer sets of a program and what it took to find them.

    ``ground_rules`` is the size of the grounding the solver searched: the
    relevant instances for :func:`answer_sets`, every instance over the
    universe for :func:`answer_sets_via_unfounded`.
    """

    answer_sets: frozenset[Interpretation]
    candidates_examined: int
    method: SolveMethod
    ground_rules: int


class _Budget:
    """Counts candidate states and enforces the configured cap."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.cap:
            raise CandidateSpaceTooLarge(
                f"more than {self.cap} candidate states examined"
            )


def _index_rules(
    rules: Sequence[Rule],
) -> tuple[list[Atom], dict[Atom, int], list[tuple[int, int, int]]]:
    atoms = sorted({a for r in rules for a in r.atoms()})
    pos_of = {a: i for i, a in enumerate(atoms)}
    masked = []
    for r in rules:
        h = p = n = 0
        for a in r.head:
            h |= 1 << pos_of[a]
        for a in r.pos_body:
            p |= 1 << pos_of[a]
        for a in r.neg_body:
            n |= 1 << pos_of[a]
        masked.append((h, p, n))
    return atoms, pos_of, masked


def _closure(rules: Sequence[tuple[int, int]], start: int = 0) -> int:
    """The least superset of ``start`` closed under ``rules``: a
    ``(head, pos)`` pair whose positive body lies inside the set adds its
    head."""
    i = start
    changed = True
    while changed:
        changed = False
        for h, p in rules:
            if p & ~i == 0 and h & ~i:
                i |= h
                changed = True
    return i


def _minimal_models_masks(
    rules: list[tuple[int, int]], budget: _Budget
) -> list[int]:
    """Minimal models of a positive ground program in mask form.

    Models are produced by closing under single-head rules and branching on
    each head atom of the first unsatisfied disjunctive rule; every minimal
    model arises this way, so filtering the collected closures down to the
    inclusion-minimal ones is exact.  The explicit stack visits the branches
    lowest atom first, in the order of a recursive depth-first walk.
    """
    normal = [(h, p) for h, p in rules if h & (h - 1) == 0]
    disjunctive = [(h, p) for h, p in rules if h & (h - 1) != 0]
    found: set[int] = set()
    expanded: set[int] = set()
    stack = [0]
    while stack:
        budget.spend()
        i = _closure(normal, stack.pop())
        if i in expanded:
            continue
        expanded.add(i)
        for h, p in disjunctive:
            if p & ~i == 0 and h & i == 0:
                choice = h
                while choice:
                    bit = 1 << (choice.bit_length() - 1)
                    stack.append(i | bit)
                    choice ^= bit
                break
        else:
            found.add(i)
    models = sorted(found, key=lambda m: (m.bit_count(), m))
    minimal: list[int] = []
    for m in models:
        if not any(o & ~m == 0 for o in minimal):
            minimal.append(m)
    return minimal


def _stable_models(
    masked: list[tuple[int, int, int]],
    budget: _Budget,
    need: int = 0,
    avoid: int = 0,
) -> Iterator[int]:
    """The stable models of a relevant ground program that contain every
    atom of ``need`` and no atom of ``avoid``, in mask form, as the search
    finds them.

    The search assigns a truth value to every atom occurring in a negative
    body.  At each node two monotone bounds prune the branch: atoms assumed
    true must stay optimistically derivable, and atoms certainly derivable
    (by single-head rules whose negative body is already all-false) must not
    be assumed false.  Every stable model below a node lies between the two
    bounds, so a node whose upper bound lacks an atom of ``need``, or whose
    lower bound holds an atom of ``avoid``, is pruned too.  Each surviving
    leaf fixes the reduct; its minimal models that reproduce the assumed
    assignment are exactly the stable models there.  The explicit stack
    visits the true branch before the false one, in the order of a
    recursive depth-first walk, so with both masks empty every stable model
    is produced, in the same order.
    """
    nb_mask = 0
    for _, _, n in masked:
        nb_mask |= n
    normal = [(h, p, n) for h, p, n in masked if h & (h - 1) == 0]

    def upper(t: int) -> int:
        return _closure([(h, p) for h, p, n in masked if n & t == 0])

    def lower(f: int) -> int:
        return _closure([(h, p) for h, p, n in normal if n & ~f == 0])

    stack = [(0, 0)]
    while stack:
        t, f = stack.pop()
        budget.spend()
        while True:
            possible = upper(t)
            if (t | need) & ~possible:
                break
            cert = lower(f)
            if cert & (f | avoid):
                break
            undecided = nb_mask & ~t & ~f
            force_true = undecided & cert
            force_false = undecided & ~possible
            if force_true or force_false:
                t |= force_true
                f |= force_false
                continue
            if undecided == 0:
                red = [(h, p) for h, p, n in masked if n & t == 0]
                for m in _minimal_models_masks(red, budget):
                    if m & nb_mask == t and need & ~m == 0 and m & avoid == 0:
                        yield m
            else:
                bit = undecided & -undecided
                stack.append((t, f | bit))
                stack.append((t | bit, f))
            break


def _relevant_search(
    p: Program, ground_cap: int
) -> tuple[GroundProgram, list[Atom], dict[Atom, int], list[tuple[int, int, int]], int]:
    """The relevant grounding of ``p`` in the mask form the search takes,
    with its atoms, their bit positions and the mask of derivable atoms.

    The head atoms of the relevant grounding are exactly the atoms
    derivable when all negative literals are ignored; no other atom can
    appear in an answer set, so negative bodies are cut down to those
    atoms."""
    g = ground(p, ground_cap)
    atoms, pos_of, masked = _index_rules(g.rules)
    derivable = 0
    for h, _, _ in masked:
        derivable |= h
    masked = [(h, p_, n & derivable) for h, p_, n in masked]
    return g, atoms, pos_of, masked, derivable


def answer_sets(
    p: Program,
    *,
    ground_cap: int = GROUND_CAP_DEFAULT,
    candidate_cap: int = CANDIDATE_CAP_DEFAULT,
) -> AnswerSetReport:
    """Every answer set of ``p``: the interpretations that are subset-minimal
    models of their own reduct.

    The search runs over the relevant grounding (see :func:`ground`) and
    collects every stable model.  ``candidate_cap`` bounds the number of
    search states examined.
    """
    g, atoms, _, masked, _ = _relevant_search(p, ground_cap)
    budget = _Budget(candidate_cap)
    out = frozenset(
        _interpretation(atoms, m) for m in _stable_models(masked, budget)
    )
    return AnswerSetReport(
        answer_sets=out,
        candidates_examined=budget.spent,
        method=SolveMethod.REDUCT_MINIMALITY,
        ground_rules=len(g.rules),
    )


def _interpretation(atoms: Sequence[Atom], m: int) -> Interpretation:
    return frozenset(a for i, a in enumerate(atoms) if m >> i & 1)


def minimal_models(g: GroundProgram) -> frozenset[Interpretation]:
    """The subset-minimal models of a positive ground program."""
    for r in g.rules:
        if r.neg_body:
            raise ProgramError(f"program is not positive: {r}")
    atoms, _, masked = _index_rules(g.rules)
    budget = _Budget(CANDIDATE_CAP_DEFAULT)
    models = _minimal_models_masks([(h, p) for h, p, _ in masked], budget)
    return frozenset(_interpretation(atoms, m) for m in models)


def is_unfounded_set(
    x: frozenset[Atom], p: Program | GroundProgram, i: Interpretation
) -> bool:
    """Whether ``x`` is unfounded with respect to ``i``: every rule with a
    head atom in ``x`` is either blocked under ``i``, consumes an atom of
    ``x`` positively, or is already satisfied by ``i`` outside ``x``.

    A :class:`Program` is ground over its whole universe, since ``x`` and
    ``i`` may hold atoms that nothing derives."""
    g = p if isinstance(p, GroundProgram) else _ground_exhaustive(p)
    for rule in g.rules:
        if not any(a in x for a in rule.head):
            continue
        if not all(a in i for a in rule.pos_body):
            continue
        if any(a in i for a in rule.neg_body):
            continue
        if any(a in x for a in rule.pos_body):
            continue
        if any(a in i and a not in x for a in rule.head):
            continue
        return False
    return True


def answer_sets_via_unfounded(
    p: Program,
    *,
    ground_cap: int = GROUND_CAP_DEFAULT,
    candidate_cap: int = CANDIDATE_CAP_DEFAULT,
) -> AnswerSetReport:
    """Answer sets characterized without reducts: models of the ground
    program containing no nonempty unfounded subset.

    This route enumerates every subset of the ground head atoms, so it only
    suits small programs; it exists as an independent oracle for the primary
    solver.  It grounds exhaustively, so it does not share the primary
    solver's relevance cut either."""
    g = _ground_exhaustive(p, ground_cap)
    atoms, pos_of, masked = _index_rules(g.rules)
    head_atoms = sorted({a for r in g.rules for a in r.head})
    if 2 ** len(head_atoms) > candidate_cap:
        raise CandidateSpaceTooLarge(
            f"{2 ** len(head_atoms)} candidate interpretations exceed the cap"
        )
    head_bits = [1 << pos_of[a] for a in head_atoms]

    def unfounded_free(imask: int) -> bool:
        inside = [b for b in head_bits if imask & b]
        full = 0
        for b in inside:
            full |= b
        sub = full
        while sub:
            ok = False
            for h, pb, nb in masked:
                if h & sub == 0:
                    continue
                if pb & ~imask:
                    continue
                if nb & imask:
                    continue
                if pb & sub:
                    continue
                if h & imask & ~sub:
                    continue
                ok = True
                break
            if not ok:
                return False
            sub = (sub - 1) & full
        return True

    found = []
    for k in range(2 ** len(head_atoms)):
        imask = 0
        for j, b in enumerate(head_bits):
            if k >> j & 1:
                imask |= b
        sat = True
        for h, pb, nb in masked:
            if pb & ~imask == 0 and nb & imask == 0 and h & imask == 0:
                sat = False
                break
        if sat and unfounded_free(imask):
            found.append(imask)
    out = frozenset(
        frozenset(a for i_, a in enumerate(atoms) if m >> i_ & 1) for m in found
    )
    return AnswerSetReport(
        answer_sets=out,
        candidates_examined=2 ** len(head_atoms),
        method=SolveMethod.UNFOUNDED_FREE,
        ground_rules=len(g.rules),
    )


@dataclass(frozen=True, order=True)
class Substitution:
    """An assignment of constants to the variables of a query, kept as a
    sorted tuple of (variable, constant) pairs."""

    bindings: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[str, Term]) -> "Substitution":
        return cls(tuple(sorted((v, t.name) for v, t in mapping.items())))

    def as_mapping(self) -> dict[str, Term]:
        return {v: Term(c) for v, c in self.bindings}

    @property
    def is_identity(self) -> bool:
        return not self.bindings

    def __str__(self) -> str:
        if not self.bindings:
            return "{}"
        return ", ".join(f"{v} = {c}" for v, c in self.bindings)


def _matches(
    q: Query, m: Interpretation, domain: frozenset[Term]
) -> set[Substitution]:
    """The substitutions into ``domain`` under which the query holds in
    ``m``, found by matching the query atom against the atoms of ``m``."""
    pred, arity = q.atom.predicate, q.atom.arity
    rows = [a.args for a in m if a.predicate == pred and len(a.args) == arity]
    return {
        Substitution.of(binding)
        for binding in _joins([(_pattern(q.atom), rows)], {})
        if all(c in domain for c in binding.values())
    }


def _identity_if(holds: bool) -> frozenset[Substitution]:
    """The answer to a ground query: the identity substitution or none."""
    return frozenset({Substitution()}) if holds else frozenset()


def substitutions_brave(
    report: AnswerSetReport, q: Query, domain: Iterable[Term]
) -> frozenset[Substitution]:
    """Substitutions into ``domain`` whose query instance holds in at least
    one answer set.  An inconsistent program bravely entails nothing."""
    if q.is_ground:
        return _identity_if(any(q.atom in m for m in report.answer_sets))
    terms = frozenset(domain)
    out: set[Substitution] = set()
    for m in report.answer_sets:
        out |= _matches(q, m, terms)
    return frozenset(out)


def substitutions_cautious(
    report: AnswerSetReport, q: Query, domain: Iterable[Term]
) -> frozenset[Substitution]:
    """Substitutions into ``domain`` whose query instance holds in every
    answer set.  An inconsistent program cautiously entails every instance,
    the only case that enumerates the domain."""
    if q.is_ground:
        return _identity_if(all(q.atom in m for m in report.answer_sets))
    terms = frozenset(domain)
    if not report.answer_sets:
        names = sorted(q.variables())
        return frozenset(
            Substitution.of(dict(zip(names, combo)))
            for combo in product(sorted(terms), repeat=len(names))
        )
    models = iter(report.answer_sets)
    out = _matches(q, next(models), terms)
    for m in models:
        if not out:
            break
        out &= _matches(q, m, terms)
    return frozenset(out)


class QueryAnswer(NamedTuple):
    """The substitutions that answer a brave or cautious query, and the
    number of search states the answer took."""

    substitutions: frozenset[Substitution]
    candidates_examined: int


def answer_query(
    p: Program,
    q: Query,
    mode: str,
    *,
    domain: Iterable[Term] | None = None,
    ground_cap: int = GROUND_CAP_DEFAULT,
    candidate_cap: int = CANDIDATE_CAP_DEFAULT,
) -> QueryAnswer:
    """Answer ``q`` over ``p`` bravely (``mode="brave"``) or cautiously
    (``mode="cautious"``).

    A ground query directs the search instead of enumerating every answer
    set.  Brave asks for one answer set that contains the query atom, so
    the search prunes every branch whose upper bound lacks it and stops at
    the first model; an atom that no relevant rule derives is answered
    without a search.  Cautious asks for one answer set that lacks the atom,
    so the search prunes every branch whose lower bound holds it; the answer
    is yes exactly when there is none, which covers inconsistent programs.
    A query with variables enumerates the answer sets and matches the query
    atom against each; substitutions range over ``domain``, the universe of
    ``p`` by default.
    """
    if mode not in ("brave", "cautious"):
        raise ValueError(f"unknown query mode {mode!r}")
    if not q.is_ground:
        report = answer_sets(p, ground_cap=ground_cap, candidate_cap=candidate_cap)
        pick = substitutions_brave if mode == "brave" else substitutions_cautious
        subs = pick(report, q, universe(p) if domain is None else domain)
        return QueryAnswer(subs, report.candidates_examined)
    _, _, pos_of, masked, derivable = _relevant_search(p, ground_cap)
    bit = 1 << pos_of[q.atom] if q.atom in pos_of else 0
    budget = _Budget(candidate_cap)
    if mode == "brave":
        holds = bool(bit & derivable) and (
            next(_stable_models(masked, budget, need=bit), None) is not None
        )
    else:
        holds = next(_stable_models(masked, budget, avoid=bit), None) is None
    return QueryAnswer(_identity_if(holds), budget.spent)


def brave(
    p: Program,
    q: Query,
    *,
    domain: Iterable[Term] | None = None,
    ground_cap: int = GROUND_CAP_DEFAULT,
    candidate_cap: int = CANDIDATE_CAP_DEFAULT,
) -> frozenset[Substitution]:
    """The substitutions under which ``q`` holds in some answer set of
    ``p`` (see :func:`answer_query`)."""
    return answer_query(
        p, q, "brave",
        domain=domain, ground_cap=ground_cap, candidate_cap=candidate_cap,
    ).substitutions


def cautious(
    p: Program,
    q: Query,
    *,
    domain: Iterable[Term] | None = None,
    ground_cap: int = GROUND_CAP_DEFAULT,
    candidate_cap: int = CANDIDATE_CAP_DEFAULT,
) -> frozenset[Substitution]:
    """The substitutions under which ``q`` holds in every answer set of
    ``p`` (see :func:`answer_query`)."""
    return answer_query(
        p, q, "cautious",
        domain=domain, ground_cap=ground_cap, candidate_cap=candidate_cap,
    ).substitutions


def _magic_lookup(n: Interpretation) -> dict[tuple[str, str], set[tuple[Term, ...]]]:
    out: dict[tuple[str, str], set[tuple[Term, ...]]] = {}
    for atom in n:
        decoded = split_magic_name(atom.predicate)
        if decoded is not None:
            out.setdefault(decoded, set()).add(atom.args)
    return out


def _covered_by_magic(
    atom: Atom, lookup: Mapping[tuple[str, str], set[tuple[Term, ...]]]
) -> bool:
    for (pred, adornment), seen_args in lookup.items():
        if pred != atom.predicate or len(adornment) != atom.arity:
            continue
        kept = tuple(a for a, l in zip(atom.args, adornment) if l == "b")
        if kept in seen_args:
            return True
    return False


def killed_atoms(
    m: Interpretation, n: Interpretation, p: Program, rewritten: Program
) -> frozenset[Atom]:
    """Atoms of the base of ``p`` outside ``n`` that the rewriting proves
    irrelevant under ``n``: extensional atoms, and atoms whose magic version
    belongs to ``n``."""
    if not n <= m:
        raise ValueError("n must be contained in m")
    lookup = _magic_lookup(n)
    edb = p.edb_predicates
    out = set()
    for atom in base(p) - n:
        if atom.predicate in edb or _covered_by_magic(atom, lookup):
            out.add(atom)
    return frozenset(out)


def magic_variant(
    i: Interpretation,
    q: Query,
    p: Program,
    *,
    ground_cap: int = GROUND_CAP_DEFAULT,
) -> Interpretation:
    """Rebuild, from an interpretation of ``p``, the matching interpretation
    of the rewritten program.

    Starting from the extensional facts, the fixpoint alternately imports an
    atom of ``i`` once one of its magic versions is present, and fires the
    ground magic rules whose bodies are satisfied (the seed enters through
    its empty body)."""
    details = dms_with_details(q, p)
    # ``i`` need not be derivable in the rewritten program, so magic rules
    # whose bodies only ``i`` satisfies must be instantiated too.
    g = _ground_exhaustive(details.program, ground_cap)
    magic_ground = [
        r
        for r in g.rules
        if split_magic_name(r.head[0].predicate) is not None and len(r.head) == 1
    ]
    adorned_by_pred: dict[str, list[AdornedPredicate]] = {}
    for ap in details.adorned:
        adorned_by_pred.setdefault(ap.predicate, []).append(ap)

    v: set[Atom] = {r.head[0] for r in details.edb_rules}
    while True:
        additions: set[Atom] = set()
        for atom in i:
            if atom in v:
                continue
            for ap in adorned_by_pred.get(atom.predicate, ()):
                if len(ap.adornment) == atom.arity and magic_atom(ap, atom.args) in v:
                    additions.add(atom)
                    break
        for rule in magic_ground:
            if rule.head[0] not in v and all(a in v for a in rule.pos_body):
                additions.add(rule.head[0])
        if not additions:
            return frozenset(v)
        v |= additions
