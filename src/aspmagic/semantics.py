"""Reference evaluation: grounding, answer sets, query answering.

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
models containing no nonempty unfounded subset; only it and the
unfounded-set test use that exhaustive grounding.  Both are deterministic;
neither is meant to compete with a real solver.

Query answering uses the primary search, directed by the query.  The
query atom is matched once against the derivable atoms; the matches are
the candidates, and a ground query is a query with no variables.  A brave
query prunes every branch whose upper bound holds no candidate still
unwitnessed, and each answer set found witnesses the candidates it holds;
a cautious query prunes every branch whose lower bound holds every
candidate still unrefuted, and each answer set found refutes the
candidates it lacks.  One search may do both, keeping each branch either
keeps; it ends once no candidate is left open.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .syntax import (
    Atom,
    Interpretation,
    Program,
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
    "AnswerSetReport",
    "Substitution",
    "ground",
    "answer_sets",
    "is_unfounded_set",
    "answer_sets_via_unfounded",
    "substitutions_brave",
    "substitutions_cautious",
    "QueryAnswer",
    "answer_query",
]

GROUND_CAP_DEFAULT = 10**6
CANDIDATE_CAP_DEFAULT = 2**22


class SolverCapError(Exception):
    """A configured resource cap would be exceeded."""


class GroundingTooLarge(SolverCapError):
    pass


class CandidateSpaceTooLarge(SolverCapError):
    pass


def ground(p: Program, ground_cap: int = GROUND_CAP_DEFAULT) -> Program:
    """The relevant instances of the rules of ``p``: those whose positive
    body lies in the least set of atoms closed under the rules of ``p``
    with negative bodies ignored.

    No other instance can fire in an answer set, so these are exactly the
    instances the search needs.  They are found by a semi-naive join in
    which each body atom reads only the derived atoms whose already-bound
    arguments match, through an argument index kept per predicate and per
    set of bound positions.  The grounder codes atoms as integer ids and
    instances as tuples of ids; the search reads those directly, and this
    function decodes the same instances into the rules of a ground
    :class:`Program`.  Each rule's join plan is compiled on the first
    grounding that meets the rule object and reused by every later one;
    bodiless rules are ground without a plan.  Instances come in
    derivation order: each positive body atom heads an earlier instance,
    and of two instances that collide the first one derived is kept.

    ``ground_cap`` bounds the number of distinct instances as they are
    emitted; crossing it raises :class:`GroundingTooLarge`.
    """
    coded = _ground_coded(p, ground_cap)
    atoms = _decode(p, coded.keys)
    return Program(
        Rule(
            [atoms[i] for i in head],
            [atoms[i] for i in pos],
            [atoms[i] for i in neg],
        )
        for head, pos, neg in coded.instances
    )


# A ground atom in the grounder's coding: predicate and argument names.
_Key = tuple[str, tuple[str, ...]]
# A coded instance: the atom ids of its head, positive and negative body.
_Instance = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class _Coded(NamedTuple):
    """The relevant grounding with atoms replaced by ids: ``keys[i]`` is
    atom ``i``, ``derived`` lists the ids of the derivable atoms, and
    ``instances`` are in the derivation order of :func:`ground`."""

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
    """The binding layout of one rule: the number of variables,
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
    """The join plan of a rule with a positive body: the template binding
    of :func:`_layout`, the predicate and argument slots of each atom of
    its head, positive and negative body, the positive body's predicates,
    and for each body atom the match order that starts from it with the
    join steps of that order."""

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
    return _Compiled(tuple(template), parts, preds, tuple(plans))


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
    are kept in the order first emitted, deduplicated on their id sets;
    ``ground_cap`` bounds the distinct ones, bodiless ones included.
    """
    keys: list[_Key] = []
    ids: dict[_Key, int] = {}
    derived: list[int] = []
    known: set[int] = set()
    pending: list[int] = []
    instances: list[_Instance] = []
    distinct: set[tuple] = set()

    def atom_id(key: _Key) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(keys)
            keys.append(key)
        return i

    def emit(instance: _Instance) -> None:
        head, pos, neg = instance
        signature = (frozenset(head), frozenset(pos), frozenset(neg))
        if signature in distinct:
            return
        distinct.add(signature)
        if len(distinct) > ground_cap:
            raise GroundingTooLarge(
                f"grounding needs more than {ground_cap} instances"
            )
        instances.append(instance)
        for a in head:
            if a not in known:
                known.add(a)
                derived.append(a)
                pending.append(a)

    def fire(parts, binding: list) -> None:
        """Emit the instance of a rule with atom slots ``parts`` that a
        complete binding gives."""
        emit(tuple([
            tuple([
                atom_id((pred, tuple([binding[s] for s in arg_slots])))
                for pred, arg_slots in part
            ])
            for part in parts
        ]))

    joined = []
    for rule in p.rules:
        if not rule.pos_body:
            # Ground by safety: its atoms go straight to their ids.
            emit((
                tuple([atom_id(_key_of(a)) for a in rule.head]),
                (),
                tuple([atom_id(_key_of(a)) for a in rule.neg_body]),
            ))
            continue
        joined.append(_compiled(rule))

    relations: dict[str, _Relation] = {}
    while pending:
        mark = {pred: len(rel.rows) for pred, rel in relations.items()}
        for a in pending:
            pred, args = keys[a]
            if pred not in relations:
                relations[pred] = _Relation()
            relations[pred].add(args)
        pending.clear()
        for template, parts, preds, plans in joined:
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
                    _join(steps, list(template), partial(fire, parts))

    return _Coded(keys, derived, instances)


def _ground_exhaustive(p: Program, ground_cap: int = GROUND_CAP_DEFAULT) -> Program:
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
    return Program(out)


class AnswerSetReport(NamedTuple):
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


def _closure(
    rules: Sequence[tuple[int, int, int]], blocked: int = 0, start: int = 0
) -> int:
    """The least superset of ``start`` closed under ``rules``: a
    ``(head, pos, neg)`` rule whose negative body misses ``blocked`` and
    whose positive body lies inside the set adds its head."""
    i = start
    outside = ~i
    changed = True
    while changed:
        changed = False
        for h, p, n in rules:
            if p & outside == 0 and h & outside and not n & blocked:
                i |= h
                outside = ~i
                changed = True
    return i


def _minimal_models_masks(
    normal: list[tuple[int, int, int]],
    disjunctive: list[tuple[int, int, int]],
    t: int,
    budget: _Budget,
) -> list[int]:
    """Minimal models of the reduct by ``t`` of a ground program, given as
    its single-head and its disjunctive rules in mask form.

    Models are produced by closing under single-head rules and branching on
    each head atom of the first unsatisfied disjunctive rule; every minimal
    model arises this way, so filtering the collected closures down to the
    inclusion-minimal ones is exact.  The explicit stack visits the branches
    lowest atom first, in the order of a recursive depth-first walk.
    """
    found: set[int] = set()
    expanded: set[int] = set()
    stack = [0]
    while stack:
        budget.spend()
        i = _closure(normal, t, stack.pop())
        if i in expanded:
            continue
        expanded.add(i)
        for h, p, n in disjunctive:
            if p & ~i == 0 and h & i == 0 and n & t == 0:
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


def _anything(possible: int, cert: int) -> bool:
    return True


def _stable_models(
    masked: list[tuple[int, int, int]],
    budget: _Budget,
    goal: Callable[[int, int], bool] = _anything,
) -> Iterator[int]:
    """The stable models of a relevant ground program that meet ``goal``,
    in mask form, as the search finds them.

    The search assigns a truth value to every atom occurring in a negative
    body.  At each node two monotone bounds prune the branch: atoms assumed
    true must stay optimistically derivable (the upper bound ``possible``),
    and atoms certainly derivable (by single-head rules whose negative body
    is already all-false, the lower bound ``cert``) must not be assumed
    false.  Every stable model below a node lies between the two bounds,
    so ``goal(possible, cert)`` is asked at every node, and a node where it
    fails is pruned too; a model ``m`` is yielded only if ``goal(m, m)``.
    The goal is called afresh each time, so a caller may narrow it between
    yields.  Each surviving leaf fixes the reduct; its minimal models that
    reproduce the assumed assignment are exactly the stable models there.
    A node branches on the lowest undecided atom that heads an applicable
    rule (positive body certain, negative body free of assumed-true atoms),
    else on the lowest undecided atom, so under a rewriting an atom waits
    for its magic guard.  The explicit stack visits the true branch before
    the false one, in the order of a recursive depth-first walk, so the
    default goal produces every stable model, in the same order, and any
    other goal visits a subset of the same nodes.
    """
    nb_mask = 0
    for _, _, n in masked:
        nb_mask |= n
    normal = [(h, p, n) for h, p, n in masked if h & (h - 1) == 0]
    disjunctive = [(h, p, n) for h, p, n in masked if h & (h - 1) != 0]

    stack = [(0, 0)]
    while stack:
        t, f = stack.pop()
        budget.spend()
        while True:
            possible = _closure(masked, t)
            if t & ~possible:
                break
            cert = _closure(normal, ~f)
            if cert & f or not goal(possible, cert):
                break
            undecided = nb_mask & ~t & ~f
            force_true = undecided & cert
            force_false = undecided & ~possible
            if force_true or force_false:
                t |= force_true
                f |= force_false
                continue
            if undecided == 0:
                for m in _minimal_models_masks(normal, disjunctive, t, budget):
                    if m & nb_mask == t and goal(m, m):
                        yield m
            else:
                ready = 0
                for h, p, n in masked:
                    if p & ~cert == 0 and n & t == 0:
                        ready |= h
                choice = undecided & ready or undecided
                bit = choice & -choice
                stack.append((t, f | bit))
                stack.append((t | bit, f))
            break


def _relevant_search(
    p: Program, ground_cap: int
) -> tuple[int, list[Atom], list[tuple[int, int, int]]]:
    """The relevant grounding of ``p`` in the mask form the search takes:
    its number of instances, the derivable atoms in bit order (atom ``k``
    is bit ``1 << k``) and the ``(head, pos, neg)`` masks.

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
    return len(coded.instances), _decode(p, [coded.keys[i] for i in order]), masked


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
    instances, atoms, masked = _relevant_search(p, ground_cap)
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


def is_unfounded_set(x: frozenset[Atom], p: Program, i: Interpretation) -> bool:
    """Whether ``x`` is unfounded with respect to ``i``: every rule with a
    head atom in ``x`` is either blocked under ``i``, consumes an atom of
    ``x`` positively, or is already satisfied by ``i`` outside ``x``.

    ``p`` is ground over its whole universe, since ``x`` and ``i`` may hold
    atoms that nothing derives; a ground program grounds to itself."""
    for rule in _ground_exhaustive(p).rules:
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
    return AnswerSetReport(
        answer_sets=frozenset(_interpretation(atoms, m) for m in found),
        candidates_examined=2 ** len(head_atoms),
        ground_rules=len(g.rules),
    )


class Substitution(NamedTuple):
    """An assignment of constants to the variables of a query, kept as a
    sorted tuple of (variable, constant) pairs."""

    bindings: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[str, Term]) -> "Substitution":
        return cls(tuple(sorted((v, t.name) for v, t in mapping.items())))

    def __str__(self) -> str:
        if not self.bindings:
            return "{}"
        return ", ".join(f"{v} = {c}" for v, c in self.bindings)


def _matches(
    q: Query, domain: Iterable[Term], atoms: Iterable[Atom]
) -> list[tuple[int, Substitution]]:
    """Each atom of ``atoms`` that is an instance of ``q`` under a
    substitution into ``domain``, as its index with that substitution.

    The query atom is unified with each atom in turn: a constant must be
    equal, a repeated variable must take the same value each time, and a
    substitution with a value outside ``domain`` is dropped.  A ground
    query matches its own atom under the identity substitution."""
    allowed = set(domain)
    pred, args = q.atom.predicate, q.atom.args
    out = []
    for k, a in enumerate(atoms):
        if a.predicate != pred or len(a.args) != len(args):
            continue
        binding: dict[str, Term] = {}
        for qt, t in zip(args, a.args):
            if qt.is_variable:
                if binding.setdefault(qt.name, t) != t:
                    break
            elif qt != t:
                break
        else:
            if allowed.issuperset(binding.values()):
                out.append((k, Substitution.of(binding)))
    return out


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
    held = frozenset().union(*report.answer_sets)
    return frozenset(s for _, s in _matches(q, domain, held))


def substitutions_cautious(
    report: AnswerSetReport, q: Query, domain: Iterable[Term]
) -> frozenset[Substitution]:
    """Substitutions into ``domain`` whose query instance holds in every
    answer set.  An inconsistent program cautiously entails every instance,
    the only case that enumerates the domain."""
    if not report.answer_sets:
        return _every_substitution(q, domain)
    held = frozenset.intersection(*report.answer_sets)
    return frozenset(s for _, s in _matches(q, domain, held))


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
    (``mode="cautious"``); substitutions range over ``domain``, the
    universe of ``p`` by default.

    The candidates are the derivable atoms that match ``q`` (see
    :func:`_matches`), found once before the search; a ground query has at
    most one.  No other instance of ``q`` can hold in an answer set.  One
    search then settles them, its goal narrowed after every model.  Brave
    keeps only the branches whose upper bound holds an unwitnessed
    candidate; each model witnesses every candidate it holds, and the
    search stops once none is left, so with no candidate there is no
    search.  Cautious keeps only the branches whose lower bound misses an
    unrefuted candidate; each model refutes every candidate it lacks.
    When some substitution has no derivable instance, the first model
    refutes it, so until then any model is accepted.  When the search
    finds no model, every substitution holds: either there is no answer
    set, or the candidates cover the domain and no answer set lacks one.
    """
    if mode not in ("brave", "cautious"):
        raise ValueError(f"unknown query mode {mode!r}")
    answers, *counts = _answer(p, q, (mode,), domain, ground_cap, candidate_cap)
    return QueryAnswer(answers[mode], *counts)


def _answer(
    p: Program, q: Query, modes: Sequence[str], domain: Iterable[Term] | None,
    ground_cap: int, candidate_cap: int,
) -> tuple[dict[str, frozenset[Substitution]], int, int]:
    """The answers to ``q`` over ``p`` in each of ``modes`` (``"brave"``,
    ``"cautious"`` or both) from one search, with its number of states
    and of rule instances in the relevant grounding.

    Two masks keep the candidates still open: ``unwitnessed`` for brave,
    ``unrefuted`` for cautious, each empty when its mode is not asked.  A
    branch is kept while its upper bound holds an unwitnessed candidate
    or its lower bound misses an unrefuted one; each model clears from
    ``unwitnessed`` the candidates it holds and from ``unrefuted`` those
    it lacks, and the search stops once both are empty.  For one mode
    this is the search :func:`answer_query` describes; for both it cuts
    only the nodes that both modes would cut, so it still visits a subset
    of the nodes of full enumeration.
    """
    terms = frozenset(universe(p) if domain is None else domain)
    instances, atoms, masked = _relevant_search(p, ground_cap)
    found = _matches(q, terms, atoms)
    candidates = sum(1 << k for k, _ in found)
    unwitnessed = candidates if "brave" in modes else 0
    unrefuted = candidates if "cautious" in modes else 0
    # cautious, some substitution without a candidate, and no model yet
    uncovered = "cautious" in modes and len(found) < len(terms) ** len(q.variables())

    def goal(possible: int, cert: int) -> bool:
        return uncovered or possible & unwitnessed != 0 or unrefuted & ~cert != 0

    budget = _Budget(candidate_cap)
    if unwitnessed or unrefuted or uncovered:
        for m in _stable_models(masked, budget, goal):
            uncovered = False
            unwitnessed &= ~m
            unrefuted &= m
            if not unwitnessed | unrefuted:
                break
    holds = {"brave": candidates & ~unwitnessed, "cautious": unrefuted}
    answers = {
        mode: frozenset(s for k, s in found if holds[mode] >> k & 1) for mode in modes
    }
    if uncovered:
        answers["cautious"] = _every_substitution(q, terms)
    return answers, budget.spent, instances
