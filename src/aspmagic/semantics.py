"""Reference evaluation: grounding, reducts, answer sets, query answering.

Two independent routes compute answer sets.  The primary one grounds by
relevance: a semi-naive join builds only the rule instances whose positive
body is derivable with negation ignored, so the magic predicates of a
rewritten program cut what is instantiated.  The join reads each body atom
through an argument index on the positions already bound, and it codes
atoms as integer ids and instances as tuples of ids, which the search
turns straight into bitmasks; :func:`ground` decodes the same instances
into rules.  A rule's join plan is compiled once per :class:`Rule` object
and kept on it, so every grounding that contains the rule reuses it;
facts and other bodiless rules need no plan and go straight to ids.  The
search then branches over the atoms that occur in negative bodies, keeps
monotone lower and upper bounds to cut hopeless branches early, and
enumerates the minimal models of the positive remainder at each leaf.
The cross-check route grounds every rule over the whole universe,
enumerates candidate interpretations outright and accepts those that are
models containing no nonempty unfounded subset.  Both are deterministic;
neither is meant to compete with a real solver.

Query answering uses the primary search.  A ground query directs it: a
brave query looks for one answer set containing the atom, pruning every
branch whose upper bound lacks it, and a cautious query looks for one
answer set lacking the atom, pruning every branch whose lower bound holds
it; the first such answer set decides the answer.  A query with variables
matches the query atom against the atoms of each answer set as the search
finds them; a brave one unites the matches of them all, a cautious one
intersects them and stops once no substitution is left.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .syntax import (
    Atom,
    Interpretation,
    Program,
    ProgramError,
    Query,
    Rule,
    Term,
    universe,
)

__all__ = [
    "SolverCapError",
    "GroundingTooLarge",
    "CandidateSpaceTooLarge",
    "GROUND_CAP_DEFAULT",
    "CANDIDATE_CAP_DEFAULT",
    "GroundProgram",
    "AnswerSetReport",
    "Substitution",
    "ground",
    "reduct",
    "is_model",
    "answer_sets",
    "is_unfounded_set",
    "answer_sets_via_unfounded",
    "substitutions_brave",
    "substitutions_cautious",
    "QueryAnswer",
    "answer_query",
    "brave",
    "cautious",
]

GROUND_CAP_DEFAULT = 10**6
CANDIDATE_CAP_DEFAULT = 2**22


class SolverCapError(Exception):
    """A configured resource cap would be exceeded."""


class GroundingTooLarge(SolverCapError):
    pass


class CandidateSpaceTooLarge(SolverCapError):
    pass


@dataclass(frozen=True, eq=False)
class GroundProgram:
    """Ground rules; a rule with a variable is refused."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        for r in self.rules:
            if r.variables():
                raise ProgramError(f"ground program contains variables: {r}")


def ground(p: Program, ground_cap: int = GROUND_CAP_DEFAULT) -> GroundProgram:
    """The relevant instances of the rules of ``p``: those whose positive
    body lies in the least set of atoms closed under the rules of ``p``
    with negative bodies ignored.

    No other instance can fire in an answer set, so these are exactly the
    instances the search needs.  They are found by a semi-naive join in
    which each body atom reads only the derived atoms whose already-bound
    arguments match, through an argument index kept per predicate and per
    set of bound positions.  The grounder codes atoms as integer ids and
    instances as tuples of ids; the search reads those directly, and this
    function decodes the same instances into validated atoms and rules.
    Each rule's join plan is compiled on the first grounding that meets
    the rule object and reused by every later one; bodiless rules are
    ground without a plan.  The order is that of the exhaustive
    grounding: source rule first, then the binding tuple over the sorted
    variable names, the first copy winning when instances collide.

    ``ground_cap`` bounds the number of distinct instances as they are
    emitted; crossing it raises :class:`GroundingTooLarge`.
    """
    coded = _ground_coded(p, ground_cap)
    atoms = _decode(p, coded.keys)
    rules = tuple(
        Rule(
            [atoms[i] for i in head],
            [atoms[i] for i in pos],
            [atoms[i] for i in neg],
        )
        for head, pos, neg in coded.instances
    )
    return GroundProgram(rules=rules)


# A ground atom in the grounder's coding: predicate and argument names.
_Key = tuple[str, tuple[str, ...]]
# A coded instance: the atom ids of its head, positive and negative body.
_Instance = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class _Coded(NamedTuple):
    """The relevant grounding with atoms replaced by ids: ``keys[i]`` is
    atom ``i``, ``derived`` lists the ids of the derivable atoms, and
    ``instances`` are in the order of :func:`ground`."""

    keys: list[_Key]
    derived: list[int]
    instances: list[_Instance]


class _Relation:
    """The argument tuples of one predicate, numbered in the order they
    were added, with an index per set of bound positions.  An index is
    built on its first lookup and extended by every later row."""

    __slots__ = ("rows", "_index")

    def __init__(self) -> None:
        self.rows: list[tuple[str, ...]] = []
        self._index: dict[tuple[int, ...], dict[tuple[str, ...], list[int]]] = {}

    def add(self, args: tuple[str, ...]) -> None:
        row = len(self.rows)
        self.rows.append(args)
        for positions, buckets in self._index.items():
            buckets.setdefault(tuple(args[i] for i in positions), []).append(row)

    def lookup(self, positions: tuple[int, ...], key: tuple[str, ...]) -> list[int]:
        """The row numbers, ascending, whose values at ``positions`` are
        ``key``."""
        buckets = self._index.get(positions)
        if buckets is None:
            buckets = self._index[positions] = {}
            for row, args in enumerate(self.rows):
                buckets.setdefault(tuple(args[i] for i in positions), []).append(row)
        return buckets.get(key, [])


def _layout(atoms: Iterable[Atom]) -> tuple[int, list[str | None], dict[str, int]]:
    """The binding layout of one rule or query: the number of variables,
    a template binding with a slot for each variable, sorted by name,
    followed by one holding each constant, and the slot of each term."""
    atoms = list(atoms)
    names = sorted({t.name for a in atoms for t in a.args if t.is_variable})
    constants = dict.fromkeys(t.name for a in atoms for t in a.args if t.is_constant)
    template: list[str | None] = [None] * len(names) + list(constants)
    slot = {n: i for i, n in enumerate(template) if i >= len(names)}
    slot.update((n, i) for i, n in enumerate(names))
    return len(names), template, slot


# One join step: the bound positions of a body atom and the slots their
# values come from, the slots its other positions bind, and the positions
# that repeat a variable first bound by this same atom.
_Pairs = tuple[tuple[int, int], ...]
_Step = tuple[tuple[int, ...], tuple[int, ...], _Pairs, _Pairs]


def _plan(slots: Sequence[tuple[int, ...]], n: int) -> list[_Step]:
    """The join steps for atoms with argument slots ``slots``, matched in
    this order, in a layout whose slots from ``n`` on hold constants."""
    bound: set[int] = set()
    steps = []
    for arg_slots in slots:
        positions, keys, binds, checks = [], [], [], []
        fresh: set[int] = set()
        for pos, s in enumerate(arg_slots):
            if s >= n or s in bound:
                positions.append(pos)
                keys.append(s)
            elif s in fresh:
                checks.append((pos, s))
            else:
                fresh.add(s)
                binds.append((pos, s))
        bound |= fresh
        steps.append((tuple(positions), tuple(keys), tuple(binds), tuple(checks)))
    return steps


def _join(
    steps: Sequence[tuple[_Relation, _Step, int, int]],
    binding: list,
    found: Callable[[list], None],
    k: int = 0,
) -> None:
    """Call ``found`` with every extension of ``binding`` under which each
    step's atom matches a row of its relation numbered in ``[lo, hi)``."""
    if k == len(steps):
        found(binding)
        return
    rel, (positions, keys, binds, checks), lo, hi = steps[k]
    rows = rel.rows
    if positions:
        bucket = rel.lookup(positions, tuple(binding[s] for s in keys))
        within = bucket[bisect_left(bucket, lo) : bisect_left(bucket, hi)]
        matches = [rows[r] for r in within]
    else:
        matches = rows[lo:hi]
    for args in matches:
        for pos, s in binds:
            binding[s] = args[pos]
        for pos, s in checks:
            if args[pos] != binding[s]:
                break
        else:
            _join(steps, binding, found, k + 1)


def _key_of(a: Atom) -> _Key:
    return a.predicate, tuple(t.name for t in a.args)


class _Compiled(NamedTuple):
    """The join plan of a rule with a positive body: the number of its
    variables, the template binding of :func:`_layout`, the predicate and
    argument slots of each atom of its head, positive and negative body,
    the positive body's predicates, and for each body atom the match
    order that starts from it with the join steps of that order."""

    n: int
    template: tuple[str | None, ...]
    parts: tuple[tuple[tuple[str, tuple[int, ...]], ...], ...]
    preds: tuple[str, ...]
    plans: tuple[tuple[tuple[int, ...], tuple[_Step, ...]], ...]


def _compile(rule: Rule) -> _Compiled:
    n, template, slot = _layout(rule.atoms())
    parts = tuple(
        tuple((a.predicate, tuple(slot[t.name] for t in a.args)) for a in part)
        for part in (rule.head, rule.pos_body, rule.neg_body)
    )
    preds = tuple(a.predicate for a in rule.pos_body)
    # Each body atom in turn is the one matched against new rows; the
    # others follow in body order.
    plans = []
    for i in range(len(preds)):
        order = (i, *(j for j in range(len(preds)) if j != i))
        plans.append((order, tuple(_plan([parts[1][j][1] for j in order], n))))
    return _Compiled(n, tuple(template), parts, preds, tuple(plans))


def _compiled(rule: Rule) -> _Compiled:
    """The join plan of ``rule``, compiled on first use and kept in the
    rule's own ``__dict__``, like its cached signature: it is tied to this
    object, whose atom order fixes the order of the decoded atoms, not to
    the equal rules, and it lives exactly as long as the rule."""
    compiled = rule.__dict__.get("_join_plan")
    if compiled is None:
        compiled = rule.__dict__["_join_plan"] = _compile(rule)
    return compiled


def _ground_coded(p: Program, ground_cap: int = GROUND_CAP_DEFAULT) -> _Coded:
    """The relevant grounding of ``p`` in integer coding.

    Each derived atom gets an id the first time it is derived, keyed by
    predicate and argument names; an atom of a negative body that nothing
    derives gets one too, so instances compare by their ids alone.
    Bodiless rules are ground by safety and come first, their atoms coded
    directly; every other rule joins along the plan :func:`_compiled`
    keeps on the rule object, compiled by the first grounding that meets
    it and only read here, each join starting from a copy of its template
    binding.  The join runs in semi-naive rounds.  Each round matches
    every positive body against the atoms derived so far with at least
    one body atom on an atom new in the previous round; atoms before that
    one match old atoms only, so each new combination is found once.  A
    body atom reads only the rows of its predicate whose already-bound
    positions match, through the argument index of :class:`_Relation`,
    and the old/new split is a bisection on the row numbers.  Instances
    are deduplicated on their id sets; ``ground_cap`` bounds the distinct
    ones as they are emitted, bodiless ones included.
    """
    keys: list[_Key] = []
    ids: dict[_Key, int] = {}
    derived: list[int] = []
    known: set[int] = set()
    pending: list[int] = []
    found: list[dict[tuple, tuple[_Instance, tuple]]] = [{} for _ in p.rules]
    distinct: set[tuple] = set()

    def atom_id(key: _Key) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(keys)
            keys.append(key)
        return i

    def emit(by_key: dict, key: tuple, instance: _Instance) -> None:
        head, pos, neg = instance
        signature = (frozenset(head), frozenset(pos), frozenset(neg))
        by_key[key] = (instance, signature)
        if signature in distinct:
            return
        distinct.add(signature)
        if len(distinct) > ground_cap:
            raise GroundingTooLarge(
                f"grounding needs more than {ground_cap} instances"
            )
        for a in head:
            if a not in known:
                known.add(a)
                derived.append(a)
                pending.append(a)

    def firing(by_key: dict, n: int, parts) -> Callable[[list], None]:
        """Emit the instance a complete binding gives, unless the binding
        over the ``n`` variables was seen before."""

        def fire(binding: list) -> None:
            key = tuple(binding[:n])
            if key not in by_key:
                emit(by_key, key, tuple([
                    tuple([
                        atom_id((pred, tuple([binding[s] for s in arg_slots])))
                        for pred, arg_slots in part
                    ])
                    for part in parts
                ]))

        return fire

    joined = []
    for index, rule in enumerate(p.rules):
        if not rule.pos_body:
            # Ground by safety: its atoms go straight to their ids.
            emit(found[index], (), (
                tuple([atom_id(_key_of(a)) for a in rule.head]),
                (),
                tuple([atom_id(_key_of(a)) for a in rule.neg_body]),
            ))
            continue
        compiled = _compiled(rule)
        joined.append((compiled, firing(found[index], compiled.n, compiled.parts)))

    relations: dict[str, _Relation] = {}
    while pending:
        mark = {pred: len(rel.rows) for pred, rel in relations.items()}
        for a in pending:
            pred, args = keys[a]
            if pred not in relations:
                relations[pred] = _Relation()
            relations[pred].add(args)
        pending.clear()
        for (_, template, _, preds, plans), fire in joined:
            for order, plan in plans:
                i = order[0]
                rel = relations.get(preds[i])
                if rel is None or len(rel.rows) == mark.get(preds[i], 0):
                    continue
                steps = [(rel, plan[0], mark.get(preds[i], 0), len(rel.rows))]
                for step, j in zip(plan[1:], order[1:]):
                    rel = relations.get(preds[j])
                    if rel is None:
                        break
                    hi = mark.get(preds[j], 0) if j < i else len(rel.rows)
                    steps.append((rel, step, 0, hi))
                else:
                    _join(steps, list(template), fire)

    instances: list[_Instance] = []
    seen: set[tuple] = set()
    for by_key in found:
        for key in sorted(by_key):
            instance, signature = by_key[key]
            if signature not in seen:
                seen.add(signature)
                instances.append(instance)
    return _Coded(keys, derived, instances)


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
    return GroundProgram(rules=tuple(out))


def reduct(g: GroundProgram, i: Interpretation) -> GroundProgram:
    """The reduct of ``g`` by ``i``: rules whose negative body meets ``i``
    are dropped, the negative bodies of the rest are stripped."""
    kept = []
    for rule in g.rules:
        if any(a in i for a in rule.neg_body):
            continue
        kept.append(Rule(rule.head, rule.pos_body))
    return GroundProgram(rules=tuple(kept))


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
) -> tuple[int, list[Atom], list[tuple[int, int, int]], dict[_Key, int]]:
    """The relevant grounding of ``p`` in the mask form the search takes:
    its number of instances, the derivable atoms in bit order, the
    ``(head, pos, neg)`` masks, and the bit of each derivable atom.

    The head atoms of the relevant grounding are exactly the atoms
    derivable when all negative literals are ignored.  No other atom can
    appear in an answer set, so only these get a bit, in the order of
    predicate and argument names, and negative bodies lose the rest."""
    coded = _ground_coded(p, ground_cap)
    order = sorted(coded.derived, key=coded.keys.__getitem__)
    bits = [0] * len(coded.keys)
    for k, i in enumerate(order):
        bits[i] = 1 << k

    def mask(ids: tuple[int, ...]) -> int:
        m = 0
        for i in ids:
            m |= bits[i]
        return m

    masked = [(mask(h), mask(b), mask(n)) for h, b, n in coded.instances]
    keys = [coded.keys[i] for i in order]
    bit_of = {key: 1 << k for k, key in enumerate(keys)}
    return len(coded.instances), _decode(p, keys), masked, bit_of


def _decode(p: Program, keys: Iterable[_Key]) -> list[Atom]:
    """The atoms of ``p`` that coded atoms stand for."""
    terms = {t.name: t for t in p.constants}
    return [Atom(pred, tuple(terms[n] for n in names)) for pred, names in keys]


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
    instances, atoms, masked, _ = _relevant_search(p, ground_cap)
    budget = _Budget(candidate_cap)
    out = frozenset(
        _interpretation(atoms, m) for m in _stable_models(masked, budget)
    )
    return AnswerSetReport(
        answer_sets=out,
        candidates_examined=budget.spent,
        ground_rules=instances,
    )


def _interpretation(atoms: Sequence[Atom], m: int) -> Interpretation:
    return frozenset(a for i, a in enumerate(atoms) if m >> i & 1)


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


def _matcher(
    q: Query, domain: Iterable[Term]
) -> Callable[[Interpretation], set[Substitution]]:
    """A function giving the substitutions into ``domain`` under which
    ``q`` holds in an interpretation, found by matching the query atom
    against its atoms through the grounder's join."""
    pred, arity = q.atom.predicate, q.atom.arity
    n, template, slot = _layout([q.atom])
    (step,) = _plan([tuple(slot[t.name] for t in q.atom.args)], n)
    names = sorted(q.variables())
    allowed = {t.name for t in domain}

    def matches(m: Interpretation) -> set[Substitution]:
        rel = _Relation()
        for a in m:
            if a.predicate == pred and len(a.args) == arity:
                rel.add(tuple(t.name for t in a.args))
        out: set[Substitution] = set()

        def found(binding: list) -> None:
            values = binding[:n]
            if all(c in allowed for c in values):
                out.add(Substitution(tuple(zip(names, values))))

        _join([(rel, step, 0, len(rel.rows))], list(template), found)
        return out

    return matches


def _identity_if(holds: bool) -> frozenset[Substitution]:
    """The answer to a ground query: the identity substitution or none."""
    return frozenset({Substitution()}) if holds else frozenset()


def _every_substitution(q: Query, terms: Iterable[Term]) -> frozenset[Substitution]:
    """Every substitution of the variables of ``q`` into ``terms``: the
    cautious answer of an inconsistent program."""
    names = sorted(q.variables())
    return frozenset(
        Substitution.of(dict(zip(names, combo)))
        for combo in product(sorted(terms), repeat=len(names))
    )


def substitutions_brave(
    report: AnswerSetReport, q: Query, domain: Iterable[Term]
) -> frozenset[Substitution]:
    """Substitutions into ``domain`` whose query instance holds in at least
    one answer set.  An inconsistent program bravely entails nothing."""
    if q.is_ground:
        return _identity_if(any(q.atom in m for m in report.answer_sets))
    return _union_matches(q, domain, report.answer_sets)


def substitutions_cautious(
    report: AnswerSetReport, q: Query, domain: Iterable[Term]
) -> frozenset[Substitution]:
    """Substitutions into ``domain`` whose query instance holds in every
    answer set.  An inconsistent program cautiously entails every instance,
    the only case that enumerates the domain."""
    if q.is_ground:
        return _identity_if(all(q.atom in m for m in report.answer_sets))
    return _intersect_matches(q, domain, report.answer_sets)


def _union_matches(
    q: Query, domain: Iterable[Term], models: Iterable[Interpretation]
) -> frozenset[Substitution]:
    """The substitutions into ``domain`` under which ``q`` holds in at
    least one of ``models``."""
    matches = _matcher(q, domain)
    out: set[Substitution] = set()
    for m in models:
        out |= matches(m)
    return frozenset(out)


def _intersect_matches(
    q: Query, domain: Iterable[Term], models: Iterable[Interpretation]
) -> frozenset[Substitution]:
    """The substitutions into ``domain`` under which ``q`` holds in every
    one of ``models``, taken from them one at a time until none is left;
    every substitution when there are no models."""
    terms = frozenset(domain)
    matches = _matcher(q, terms)
    out: set[Substitution] | None = None
    for m in models:
        out = matches(m) if out is None else out & matches(m)
        if not out:
            break
    return _every_substitution(q, terms) if out is None else frozenset(out)


class QueryAnswer(NamedTuple):
    """The substitutions that answer a brave or cautious query, the number
    of search states the answer took, and the number of rule instances in
    the relevant grounding it searched."""

    substitutions: frozenset[Substitution]
    candidates_examined: int
    ground_rules: int


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

    A query with variables matches the query atom against the answer sets
    as the search finds them; substitutions range over ``domain``, the
    universe of ``p`` by default.  Brave unites the matches of every answer
    set.  Cautious intersects them and stops once the intersection is
    empty; only an inconsistent program, which cautiously entails every
    instance, enumerates the domain.
    """
    if mode not in ("brave", "cautious"):
        raise ValueError(f"unknown query mode {mode!r}")
    if domain is None:
        domain = universe(p)
    instances, atoms, masked, bit_of = _relevant_search(p, ground_cap)
    budget = _Budget(candidate_cap)
    if not q.is_ground:
        models = (_interpretation(atoms, m) for m in _stable_models(masked, budget))
        fold = _union_matches if mode == "brave" else _intersect_matches
        return QueryAnswer(fold(q, domain, models), budget.spent, instances)
    bit = bit_of.get(_key_of(q.atom), 0)
    if mode == "brave":
        holds = bool(bit) and (
            next(_stable_models(masked, budget, need=bit), None) is not None
        )
    else:
        holds = next(_stable_models(masked, budget, avoid=bit), None) is None
    return QueryAnswer(_identity_if(holds), budget.spent, instances)


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
