"""Reference evaluation: grounding, answer sets, query answering.

The solver grounds by relevance: a semi-naive join builds only the rule
instances whose positive body is derivable with negation ignored, so the
magic predicates of a rewritten program cut what is instantiated.  Atoms
are coded as integer ids and instances as tuples of ids.  Each round
visits only the rules that read a predicate that grew, and each pivot of
such a rule, the body atom matched against the new atoms, is one loop:
it reads each body atom through an argument index on the positions
already bound, takes a positive body as the ids of the rows matched, and
keys, deduplicates and keeps each instance by the rule's emit plan, with
no call per instance.  The search turns the instances straight into
bitmasks, and :func:`ground` decodes them into rules.  One grounder
serves each question, be it one query, one side of a differential check
or one super-consistency check: it looks each of the program's rules up
once, a bodiless one as the keys of its atoms and any other as a layout
with its emit plan and a join plan per pivot, and every grounding it
makes shares them.  A layout is a function of the rule's ordered atoms
alone, so the most recently used few hundred shapes keep theirs for
every grounder of the process: the checks of a differential sweep
rewrite and ground the same few shapes over and over.  Facts added to a
fixed program, as those two checks add one fact set after another, are
keyed like the program's own bodiless rules, so no extended program is
built for them.  Since a relevant grounding is monotone in the facts,
several fact sets share one grounding over their union, in one mask
form, and each one's own grounding is cut from it by the search's own
positive closure from its facts, the union's bits kept.  Fact sets that
add the same facts, the program's own aside, have one grounding, so the
answers found for one serve the others: the facts the program does not
have are numbered once per check, for both of its sides, and each fact
set's are one int bitmask, whether the fact sets are cut from their
union or, when it is too large, ground one by one.  The search then
branches over the atoms that occur in negative bodies, keeps monotone
lower and upper bounds to cut hopeless branches early, each carried to a
child whose assumptions leave it as it was, and enumerates the minimal
models of the positive remainder at each leaf.  It is deterministic and
not meant to compete with a real solver; :mod:`~aspmagic.oracle`
cross-checks it and shares none of its code.

Query answering uses the search, directed by the query.  The query atom
is matched once against the coded atoms, none of them decoded, and once
for all the trials cut from one union; the matches among the derivable
atoms, the heads, are the candidates.  A brave query prunes every branch
whose upper bound holds no candidate still unwitnessed, and each answer
set found witnesses the candidates it holds; a cautious query prunes
every branch whose lower bound holds every candidate still unrefuted,
and each answer set found refutes the candidates it lacks.  One search
may do both, keeping each branch either keeps; it ends once no
candidate is left open.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial
from operator import itemgetter
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
    instances the search needs.  A semi-naive join finds them, in integer
    coding, keying and keeping each instance in the loop that finds it
    (see :func:`_ground_coded`); this function decodes them into the rules
    of a ground :class:`Program`.  Instances come in derivation order:
    each positive body atom heads an earlier instance, and of two
    instances that collide the first one derived is kept.

    ``ground_cap`` bounds the number of distinct instances as they are
    emitted; crossing it raises :class:`GroundingTooLarge`.
    """
    coded = _grounder(p, ground_cap)()
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
# An added fact: predicate and ground terms, as an Atom holds them.
_Fact = tuple[str, Sequence[Term]]
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
    """The argument tuples of one predicate and their atom ids, numbered
    in the order added, with an index per set of bound positions, built
    on its first lookup and extended by every later row.  An index keys a
    row by ``itemgetter(*positions)``: one name alone, several as a tuple."""

    __slots__ = ("rows", "ids", "_index")

    def __init__(self) -> None:
        self.rows: list[tuple[str, ...]] = []
        self.ids: list[int] = []
        self._index: dict[tuple[int, ...], tuple[Callable, dict]] = {}

    def add(self, args: tuple[str, ...], atom: int) -> None:
        row = len(self.rows)
        self.rows.append(args)
        self.ids.append(atom)
        for values, buckets in self._index.values():
            buckets.setdefault(values(args), []).append(row)

    def lookup(self, positions: tuple[int, ...], key: object) -> list[int]:
        """The row numbers, ascending, whose values at ``positions`` are
        ``key``."""
        entry = self._index.get(positions)
        if entry is None:
            values = itemgetter(*positions)
            entry = self._index[positions] = values, {}
            for row, args in enumerate(self.rows):
                entry[1].setdefault(values(args), []).append(row)
        return entry[1].get(key, [])


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


# One join step: a body atom's bound positions and an itemgetter of the
# slots their values come from (None if none), the slots its other positions
# bind, and the positions repeating a variable this same atom first binds.
_Pairs = tuple[tuple[int, int], ...]
_Step = tuple[tuple[int, ...], Callable[[list], object] | None, _Pairs, _Pairs]


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
        values = itemgetter(*keys) if keys else None
        steps.append((tuple(positions), values, tuple(binds), tuple(checks)))
    return steps


def _key_of(a: _Fact) -> _Key:
    """The key of a ground atom given as a ``(predicate, terms)`` pair,
    such as an :class:`Atom`."""
    pred, args = a
    return pred, tuple([t.name for t in args])


def _forms(a: _Fact) -> tuple[object, _Key]:
    """The key of a ground atom, as :func:`_key_of` gives it, after its
    lookup form: predicate and argument names as one tuple, or the bare
    predicate of an atom without arguments, as :func:`_compile`'s getters read."""
    pred, args = a
    names = tuple([t.name for t in args])
    return (pred, *names) if names else pred, (pred, names)


# A pivot's join plan: its step, then each other positive body atom's step
# and body position.
_Plan = tuple[_Step, tuple[tuple[_Step, int], ...]]
# An atom of an emit plan: an itemgetter of its lookup form (see _forms)
# from a complete binding, its predicate and its arity.
_Keyed = tuple[Callable[[list], object], str, int]


class _Compiled(NamedTuple):
    """A rule shape with a positive body, laid out for the join: the
    number of variables, the template binding of :func:`_layout` with a
    slot for each keyed atom's predicate added, the predicate and slots of
    each positive body atom, and the emit plan: ``keyed`` reads the head
    atoms, then from ``split`` on the negative body atoms, off a complete
    binding, and ``collapse`` tells whether a part has two atoms or more,
    so that an instance is not its own signature.  ``preds`` holds the
    positive body's predicates; ``plans[i]`` is the join plan with body
    atom ``i`` as the pivot, ``None`` until a grounding first needs it:
    the pivot's step, then ``(step, position)`` for each other atom."""

    n: int
    template: tuple[str | None, ...]
    pos: tuple[tuple[str, tuple[int, ...]], ...]
    keyed: tuple[_Keyed, ...]
    split: int
    collapse: bool
    preds: frozenset[str]
    plans: list[_Plan | None]


# At most this many rule shapes keep their layout: 512 hold about 1.1 MB
# with their plans, and the shapes of a differential sweep repeat enough
# for two lookups in three to hit.
_LAYOUTS = 512


@lru_cache(maxsize=_LAYOUTS)
def _compile(
    head: tuple[Atom, ...], pos_body: tuple[Atom, ...], neg_body: tuple[Atom, ...]
) -> _Compiled:
    """The layout of the rule shape with these atoms, in this order, and
    its emit plan.

    A layout depends on nothing but the ordered atoms, so it is made once
    per shape and shared, with the pivot plans :func:`_pivot_plan` adds to
    it, by every grounder that meets the shape.  The key is the ordered
    atoms, not the :class:`Rule`: rules equal as sets of atoms may list
    their bodies in different orders, and a plan records each atom's body
    position.  The emit plan is as static: one ``itemgetter`` of its
    predicate's slot and argument slots reads each head and negative body
    atom's lookup form (see :func:`_forms`) off a complete binding."""
    n, template, slot = _layout((*head, *pos_body, *neg_body))
    keyed = []
    for a in (*head, *neg_body):
        template.append(a.predicate)
        lookup = itemgetter(len(template) - 1, *(slot[t.name] for t in a.args))
        keyed.append((lookup, a.predicate, len(a.args)))
    pos = tuple((a.predicate, tuple(slot[t.name] for t in a.args)) for a in pos_body)
    collapse = max(len(head), len(pos_body), len(neg_body)) > 1
    return _Compiled(
        n, tuple(template), pos, tuple(keyed), len(head), collapse,
        frozenset(a.predicate for a in pos_body), [None] * len(pos),
    )


def _pivot_plan(c: _Compiled, i: int) -> _Plan:
    """The join plan of ``c`` with positive body atom ``i`` as the pivot,
    built on first use and kept in ``c.plans``."""
    plan = c.plans[i]
    if plan is None:
        order = (i, *(j for j in range(len(c.pos)) if j != i))
        first, *rest = _plan([c.pos[j][1] for j in order], c.n)
        plan = c.plans[i] = (first, tuple(zip(rest, order[1:])))
    return plan


# A bodiless rule, laid out: the lookup forms and keys of its head, then
# negative body atoms, where the head ends, and whether a part can collapse.
_Bodiless = tuple[tuple[tuple[object, _Key], ...], int, bool]


def _grounder(
    p: Program, ground_cap: int = GROUND_CAP_DEFAULT
) -> Callable[..., _Coded]:
    """A function ``ground(added=())`` giving the relevant grounding of
    ``p`` with the facts ``added`` (see :func:`_ground_coded`).

    The rules of ``p`` are laid out here, with one lookup each: a bodiless
    rule as the lookup forms and keys of its atoms (see :func:`_forms`),
    any other by :func:`_compile` and indexed by the predicates of its
    positive body, the ``readers`` through which a round finds the rules
    a grown predicate can feed.  The function keeps these for the
    caller's question: one query, one side of a differential check, one
    super-consistency check.  A layout and its plans belong to the rule's
    shape, so later questions that meet the shape, such as the next check
    of a differential sweep, find them made."""
    # a bodiless rule is ground by safety: its atoms go straight to keys
    bodiless = [
        (tuple(map(_forms, (*r.head, *r.neg_body))), len(r.head),
         max(len(r.head), len(r.neg_body)) > 1)
        for r in p.rules if not r.pos_body
    ]
    joined = [_compile(r.head, r.pos_body, r.neg_body) for r in p.rules if r.pos_body]
    readers: dict[str, list[int]] = {}
    for k, c in enumerate(joined):
        for pred in c.preds:
            readers.setdefault(pred, []).append(k)
    return partial(_ground_coded, bodiless, joined, readers, ground_cap)


def _ground_coded(
    bodiless: Sequence[_Bodiless],
    joined: Sequence[_Compiled],
    readers: Mapping[str, Sequence[int]],
    ground_cap: int,
    added: Iterable[tuple[object, _Key]] = (),
) -> _Coded:
    """The relevant grounding of a program ``p``, laid out by
    :func:`_grounder` as its ``bodiless`` and ``joined`` rules in program
    order, with facts ``added``, ground atoms in key order, each as its
    lookup form and key (see :func:`_forms`), in integer coding.

    An atom gets an id, found by its lookup form (see :func:`_forms`), the
    first time it is derived or read in a negative body, so instances
    compare by ids alone.  Instances are kept in the order first emitted,
    deduplicated on their parts as sets of ids; ``ground_cap`` bounds the
    distinct ones as each is kept.  One pass seeds the bodiless rules,
    then ``added``, so the result is that of ``p.with_facts`` of those
    atoms, order included, without building it; the caller takes their
    predicates from ``p`` with their arities, which is what
    :meth:`Program.with_facts` would check, and forms and sorts them.

    Every other rule joins in semi-naive rounds: a pivot matches the atoms
    new in the previous round, the body atoms before it old atoms only, so
    each new combination is found once.  A round visits, in program order,
    the ``readers`` of the predicates that grew, and in each the pivots
    whose predicate grew and whose earlier body atoms have old rows, the
    only pivots that can match.  Each pivot is one loop: it walks its
    plan's steps depth first from a copy of the rule's template binding,
    with an explicit stack of row iterators, so a long body does not
    recurse.  A step reads the rows whose bound positions match through
    the index of :class:`_Relation`, split old from new by bisection.  A
    row's atom id is written at its body position, so a positive body is
    the ids of the rows matched, and a complete binding is keyed by the
    emit plan (see :class:`_Compiled`), deduplicated and kept in the loop.
    """
    keys: list[_Key] = []
    ids: dict[object, int] = {}
    derived: list[int] = []
    known: set[int] = set()
    instances: list[_Instance] = []
    distinct: set[tuple] = set()
    too_large = f"grounding needs more than {ground_cap} instances"

    for atoms, split, collapse in [*bodiless, *[((a,), 1, False) for a in added]]:
        out = []
        for flat, key in atoms:
            atom = ids.get(flat)
            if atom is None:
                atom = ids[flat] = len(keys)
                keys.append(key)
            out.append(atom)
        head, neg = tuple(out[:split]), tuple(out[split:])
        instance = head, (), neg
        # sorting a part of fewer than two ids leaves it as it is
        signature = instance if not collapse else (
            tuple(sorted(set(head))), (), tuple(sorted(set(neg)))
        )
        if signature not in distinct:
            distinct.add(signature)
            if len(distinct) > ground_cap:
                raise GroundingTooLarge(too_large)
            instances.append(instance)
            for atom in head:
                if atom not in known:
                    known.add(atom)
                    derived.append(atom)

    relations: dict[str, _Relation] = {}
    # derived[done:] are the atoms new since the last round
    done = 0
    while done < len(derived):
        # the old rows of each predicate that grew; any other has no new row
        mark: dict[str, int] = {}
        for atom in derived[done:]:
            pred, args = keys[atom]
            rel = relations.get(pred)
            if rel is None:
                rel = relations[pred] = _Relation()
            if pred not in mark:
                mark[pred] = len(rel.rows)
            rel.add(args, atom)
        done = len(derived)
        if len(mark) == 1:
            visit = readers.get(next(iter(mark)), ())
        else:
            visit = sorted({k for pred in mark for k in readers.get(pred, ())})
        # each pivot that can match, in visiting order, with its plan's steps
        walks = []
        for k in visit:
            c = joined[k]
            # each body atom's relation and old rows; no match without rows
            body = []
            for pred, _ in c.pos:
                rel = relations.get(pred)
                if rel is None:
                    break
                body.append((rel, mark.get(pred, len(rel.rows))))
            else:
                for i, (rel, old) in enumerate(body):
                    if old < len(rel.rows):
                        first, others = _pivot_plan(c, i)
                        steps = [(rel, first, i, old, len(rel.rows))]
                        for step, j in others:
                            other, other_old = body[j]
                            hi = other_old if j < i else len(other.rows)
                            steps.append((other, step, j, 0, hi))
                        walks.append((c, steps))
                    if not old:
                        # pivots after this atom match it against old rows
                        break

        for c, steps in walks:
            keyed, split, collapse = c.keyed, c.split, c.collapse
            binding = list(c.template)
            matched = [0] * len(steps)
            last = len(steps) - 1
            entered: list[Iterator[int]] = []
            d = 0
            while d >= 0:
                rel, (positions, values, binds, checks), at, lo, hi = steps[d]
                if d == len(entered):
                    if positions:
                        bucket = rel.lookup(positions, values(binding))
                        hits = bucket[bisect_left(bucket, lo) : bisect_left(bucket, hi)]
                    else:
                        hits = range(lo, hi)
                    entered.append(iter(hits))
                rows, row_ids = rel.rows, rel.ids
                for r in entered[d]:
                    args = rows[r]
                    for p, s in binds:
                        binding[s] = args[p]
                    for p, s in checks:
                        if args[p] != binding[s]:
                            break
                    else:
                        matched[at] = row_ids[r]
                        if d < last:
                            d += 1
                            break
                        out = []
                        for lookup, pred, arity in keyed:
                            flat = lookup(binding)
                            atom = ids.get(flat)
                            if atom is None:
                                atom = ids[flat] = len(keys)
                                keys.append((pred, flat[1:] if arity else ()))
                            out.append(atom)
                        out = tuple(out)
                        head, pos, neg = out[:split], tuple(matched), out[split:]
                        instance = head, pos, neg
                        signature = instance if not collapse else (
                            head if len(head) < 2 else tuple(sorted(set(head))),
                            pos if len(pos) < 2 else tuple(sorted(set(pos))),
                            neg if len(neg) < 2 else tuple(sorted(set(neg))),
                        )
                        if signature not in distinct:
                            distinct.add(signature)
                            if len(distinct) > ground_cap:
                                raise GroundingTooLarge(too_large)
                            instances.append(instance)
                            for atom in head:
                                if atom not in known:
                                    known.add(atom)
                                    derived.append(atom)
                else:
                    entered.pop()
                    d -= 1

    return _Coded(keys, derived, instances)


class AnswerSetReport(NamedTuple):
    """The answer sets of a program and what it took to find them.

    ``ground_rules`` is the size of the grounding the solver searched: the
    relevant instances for :func:`answer_sets`, every instance over the
    universe for :func:`~aspmagic.oracle.answer_sets_via_unfounded`.
    """

    answer_sets: frozenset[Interpretation]
    candidates_examined: int
    ground_rules: int


class _Budget:
    """Counts candidate states and enforces the configured cap."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.cap:
            raise CandidateSpaceTooLarge(
                f"more than {self.cap} candidate states examined"
            )


def _closure(
    rules: Sequence[tuple[int, int, int]], blocked: int = 0, start: int = 0
) -> int:
    """The least superset of ``start`` closed under ``rules``: a
    ``(head, pos, neg)`` rule whose negative body misses ``blocked`` and
    whose positive body lies inside the set adds its head.

    Each pass over the rules keeps ``missed``, the union of the positive
    bodies it passed over for lacking an atom, and starts another pass
    only when a head it adds meets that union.  Otherwise every rule
    passed over still lacks an atom that nothing added after it, so the
    set is closed; rules listed in derivation order close in one pass,
    without a pass that only confirms it."""
    i = start
    outside = ~i
    again = True
    while again:
        again = False
        missed = 0
        for h, p, n in rules:
            if p & outside:
                missed |= p
            elif h & outside and not n & blocked:
                if h & outside & missed:
                    again = True
                i |= h
                outside = ~i
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
    yields.  The two bounds are the halves of the alternating fixpoint
    (Van Gelder, Ross & Schlipf, JACM 1991): ``possible`` is a function of
    the atoms assumed true ``t`` alone, and ``cert`` of the atoms assumed
    false ``f`` alone.  So each bound is carried with the assumptions it
    was closed for and recomputed only when they change: the false child
    keeps its parent's ``possible``, and the true child, like a forcing
    round that only forces atoms true, keeps ``cert``.  The lower bound
    only grows as atoms are assumed false, so it is closed again from the
    one it had rather than from nothing; at the root, with nothing assumed
    true, the upper bound is every head, since the heads of a relevant
    grounding are exactly the atoms derivable with negation ignored.  Each
    surviving leaf fixes the reduct; its minimal models that
    reproduce the assumed assignment are exactly the stable models there.
    Without disjunctive rules the reduct's only minimal model is the lower
    bound itself, which still counts as one state.
    A node branches on the lowest undecided atom that heads an applicable
    rule (positive body certain, negative body free of assumed-true atoms),
    else on the lowest undecided atom, so under a rewriting an atom waits
    for its magic guard.  The explicit stack visits the true branch before
    the false one, in the order of a recursive depth-first walk, so the
    default goal produces every stable model, in the same order, and any
    other goal visits a subset of the same nodes.
    """
    everything = nb_mask = 0
    normal: list[tuple[int, int, int]] = []
    disjunctive: list[tuple[int, int, int]] = []
    for r in masked:
        h, _, n = r
        everything |= h
        nb_mask |= n
        (disjunctive if h & (h - 1) else normal).append(r)

    # each node's assumptions, its upper bound or None to recompute it,
    # and its lower bound with whether f grew since it was closed
    stack = [(0, 0, everything, 0, True)]
    while stack:
        t, f, possible, cert, f_grew = stack.pop()
        budget.spend()
        while True:
            if possible is None:
                possible = _closure(masked, t)
            if t & ~possible:
                break
            if f_grew:
                cert = _closure(normal, ~f, cert)
            if cert & f or not goal(possible, cert):
                break
            undecided = nb_mask & ~t & ~f
            force_true = undecided & cert
            force_false = undecided & ~possible
            if force_true or force_false:
                t |= force_true
                f |= force_false
                if force_true:
                    possible = None
                f_grew = force_false != 0
                continue
            if undecided == 0:
                if disjunctive:
                    models = _minimal_models_masks(normal, disjunctive, t, budget)
                else:
                    # the reduct's rules are those whose negative body
                    # lies in f, so its least model is cert
                    budget.spend()
                    models = [cert]
                for m in models:
                    if m & nb_mask == t and goal(m, m):
                        yield m
            else:
                ready = 0
                for h, p, n in masked:
                    if p & ~cert == 0 and n & t == 0:
                        ready |= h
                choice = undecided & ready or undecided
                bit = choice & -choice
                stack.append((t, f | bit, possible, cert, True))
                stack.append((t | bit, f, None, cert, False))
            break


def _mask_form(
    keys: Sequence[_Key], derived: Iterable[int], instances: Sequence[_Instance]
) -> tuple[list[_Key], list[tuple[int, int, int]]]:
    """Coded instances whose heads are the atoms ``derived`` in the form
    the search takes: the derivable atoms' keys in bit order (atom ``k``
    is bit ``1 << k``) and the ``(head, pos, neg)`` masks, one per
    instance.

    The head atoms of a relevant grounding are exactly the atoms derivable
    when all negative literals are ignored.  No other atom can appear in
    an answer set, so only these get a bit, in the order of predicate and
    argument names, and negative bodies lose the rest."""
    order = sorted(derived, key=keys.__getitem__)
    bits = [0] * len(keys)
    for k, i in enumerate(order):
        bits[i] = 1 << k

    masked = []
    for head, pos, neg in instances:
        h = b = n = 0
        for i in head:
            h |= bits[i]
        for i in pos:
            b |= bits[i]
        for i in neg:
            n |= bits[i]
        masked.append((h, b, n))
    return [keys[i] for i in order], masked


_Masked = tuple[list[_Key], list[tuple[int, int, int]]]


# The facts that fact sets add to a program, in the form and order that
# _ground_coded takes, and what each fact set keeps of them (see _number).
_Draws = tuple[list[tuple[object, _Key]], list[int]]


def _number(p: Program, fact_sets: Sequence[Iterable[_Fact]]) -> _Draws:
    """The facts of ``fact_sets`` that ``p`` does not have as a single-head
    fact, numbered once in key order, which is their order as atoms, and
    each fact set's ``kept``, an int with bit ``i`` set when it adds the
    ``i``-th.  A fact of ``p`` is an instance of ``p``'s own, which
    :func:`_ground_coded` keeps whatever a fact set adds, so fact sets
    with equal ``kept`` have the same grounding.

    A differential check numbers its draws once, on the original, for
    both sides: the draws range over the original's extensional
    predicates, whose facts the rewriting keeps; the facts it changes are
    intensional ones, which it guards, and the magic seed, which it adds,
    and neither is ever drawn."""
    union = {f for facts in fact_sets for f in facts}
    for r in p.rules:
        if len(r.head) == 1 and not r.pos_body and not r.neg_body:
            union.discard(r.head[0])
    order = sorted(union)
    place = {f: 1 << i for i, f in enumerate(order)}
    kept = [sum({place.get(f, 0) for f in facts}) for facts in fact_sets]
    return list(map(_forms, order)), kept


def _trial_groundings(
    p: Program, ground_cap: int, draws: _Draws
) -> Callable[[int], _Masked]:
    """A function ``search`` giving for each ``t`` the relevant grounding
    of ``p`` with the facts that trial ``t`` keeps of ``draws`` added (see
    :func:`_number` and :func:`_ground_coded`) in the mask form of
    :func:`_mask_form`, every grounding made by one :func:`_grounder`.
    With one fact set, ``search`` grounds it when asked.

    With more, ``p`` is ground once, here, with every fact of ``draws``
    added, and put in mask form once.  A relevant grounding is monotone
    in the facts: the instances for a fact set are those of the union's
    grounding whose positive body the fact set derives.  The union's
    instances of the added facts are one run in key order, after the
    bodiless instances of ``p`` (see :func:`_ground_coded`), so
    ``added[i]`` is the run's ``i``-th instance.  Trial ``t`` keeps the
    run's instances of the bits of ``kept[t]`` and every instance outside
    the run, closes them with :func:`_closure`, negation ignored, and
    keeps the instances whose positive body lies in that closure, their
    negative bodies cut down to it.  The bits keep the union's key order,
    with holes where an atom is not derivable for the trial; the search
    reads only the relative order of bits, so it takes the same choices
    as on the trial's own grounding, whose instances these are, in the
    union's order.  The keys are the union's, so a caller reads which
    atoms are derivable off the heads.  When the union trips
    ``ground_cap``, each fact set is ground on its own instead; a trial's
    grounding is part of the union's, so no trial trips the cap when the
    union does not."""
    ground = _grounder(p, ground_cap)
    added, kept = draws

    def own(t: int) -> _Masked:
        bits = kept[t]
        return _mask_form(*ground([a for i, a in enumerate(added) if bits >> i & 1]))

    if len(kept) == 1:
        return own
    try:
        keys, masked = _mask_form(*ground(added))
    except GroundingTooLarge:
        return own
    # the run of added facts ends where the first instance with a body is
    stop = next((j for j, (_, b, _) in enumerate(masked) if b), len(masked))
    start = stop - len(added)

    def search(t: int) -> _Masked:
        rules = masked[:start]
        bits = kept[t]
        while bits:
            low = bits & -bits
            rules.append(masked[start + low.bit_length() - 1])
            bits ^= low
        rules += masked[stop:]
        reach = _closure(rules)
        return keys, [(h, b, n & reach) for h, b, n in rules if not b & ~reach]

    return search


def _consistent(
    p: Program, ground_cap: int, candidate_cap: int
) -> Callable[[Iterable[_Fact]], bool]:
    """A function telling whether ``p`` with ``facts`` added (see
    :func:`_ground_coded`) has an answer set; each search stops at the
    first one, and ``candidate_cap`` bounds its states.  Every fact set
    asked about is ground by the one :func:`_grounder` made here."""
    ground = _grounder(p, ground_cap)

    def consistent(facts: Iterable[_Fact]) -> bool:
        _, masked = _mask_form(*ground(map(_forms, sorted(facts))))
        return next(_stable_models(masked, _Budget(candidate_cap)), None) is not None

    return consistent


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
    keys, masked = _mask_form(*_grounder(p, ground_cap)())
    atoms = _decode(p, keys)
    budget = _Budget(candidate_cap)
    out = frozenset(
        _interpretation(atoms, m) for m in _stable_models(masked, budget)
    )
    return AnswerSetReport(
        answer_sets=out,
        candidates_examined=budget.spent,
        ground_rules=len(masked),
    )


def _interpretation(atoms: Sequence[Atom], m: int) -> Interpretation:
    return frozenset(a for i, a in enumerate(atoms) if m >> i & 1)


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


def _matches(q: Query, keys: Iterable[_Key]) -> list[tuple[int, Substitution]]:
    """Each coded atom of ``keys`` that is an instance of ``q``, as its
    index with the substitution that makes it so.

    The query atom is unified with each ``(predicate, names)`` key: a
    constant must be equal and a repeated variable must take the same
    value each time.  A ground query matches its own atom under the
    identity substitution.  Which substitutions range over the domain
    asked about is :func:`_within`'s test, so one unification serves
    every domain."""
    pred, args = q.atom.predicate, q.atom.args
    out = []
    for k, (p, names) in enumerate(keys):
        if p != pred or len(names) != len(args):
            continue
        binding: dict[str, str] = {}
        for qt, name in zip(args, names):
            if qt.is_variable:
                if binding.setdefault(qt.name, name) != name:
                    break
            elif qt.name != name:
                break
        else:
            out.append((k, Substitution(tuple(sorted(binding.items())))))
    return out


def _within(
    matched: Iterable[tuple[int, Substitution]], domain: Iterable[Term]
) -> list[tuple[int, Substitution]]:
    """The matches of :func:`_matches` whose substitution takes every
    variable into ``domain``."""
    allowed = {t.name for t in domain}
    return [
        (k, s) for k, s in matched if allowed.issuperset([c for _, c in s.bindings])
    ]


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
    return frozenset(s for _, s in _within(_matches(q, map(_key_of, held)), domain))


def substitutions_cautious(
    report: AnswerSetReport, q: Query, domain: Iterable[Term]
) -> frozenset[Substitution]:
    """Substitutions into ``domain`` whose query instance holds in every
    answer set.  An inconsistent program cautiously entails every instance,
    the only case that enumerates the domain."""
    if not report.answer_sets:
        return _every_substitution(q, domain)
    held = frozenset.intersection(*report.answer_sets)
    return frozenset(s for _, s in _within(_matches(q, map(_key_of, held)), domain))


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
    answers, *counts = _trial_answers(
        p, q, (mode,), ground_cap, candidate_cap, ([], [0])
    )(0, universe(p) if domain is None else domain)
    return QueryAnswer(answers[mode], *counts)


_Answers = tuple[dict[str, frozenset[Substitution]], int, int]


def _trial_answers(
    p: Program, q: Query, modes: Sequence[str], ground_cap: int,
    candidate_cap: int, draws: _Draws,
) -> Callable[[int, Iterable[Term]], _Answers]:
    """A function giving for each ``t`` and ``domain`` the answers to
    ``q`` over ``p`` with the facts that trial ``t`` keeps of ``draws``
    added, as :func:`_search_answers` gives them, over the groundings of
    :func:`_trial_groundings`: one query passes one empty fact set, a
    differential check one per trial, numbered by :func:`_number`.

    A search is a function of the domain and the trial's grounding, so
    of the domain and what the trial keeps: the int bitmask of the facts
    it adds that ``p`` does not have, numbered once before any trial is
    cut or ground, whether the trials are then cut from their union or
    ground on their own.  So a trial that keeps what an earlier trial
    kept, over the same domain, is answered from that trial, with the
    counts its own search would repeat, and without a cut, a grounding or
    a search.  Only answers are kept, never a grounding, and each only
    until the last trial that keeps the same facts is answered; a search
    that trips ``candidate_cap`` keeps nothing, so a trial that repeats
    it trips it again.

    The query is unified with each key list once (see :func:`_matches`):
    the trials cut from one union share its keys, so a side of a check
    unifies once, and a fact set ground on its own, alone or because the
    union tripped ``ground_cap``, unifies with its own keys."""
    search = _trial_groundings(p, ground_cap, draws)
    _, kept = draws
    # the last key list searched, and the query's matches among its keys
    last: list[_Key] | None = None
    matched: list[tuple[int, Substitution]] = []
    # the last trial that keeps each fact set, and the answers found for
    # a fact set that a later trial keeps
    last_kept = {k: t for t, k in enumerate(kept)}
    known: dict[tuple[int, frozenset[Term]], _Answers] = {}

    def answers(t: int, domain: Iterable[Term]) -> _Answers:
        nonlocal last, matched
        key = kept[t], frozenset(domain)
        found = known.pop(key, None)
        if found is None:
            keys, masked = search(t)
            if keys is not last:
                last, matched = keys, _matches(q, keys)
            found = _search_answers(q, modes, key[1], candidate_cap, matched, masked)
        if last_kept[kept[t]] > t:
            known[key] = found
        return found

    return answers


def _search_answers(
    q: Query, modes: Sequence[str], domain: Iterable[Term], candidate_cap: int,
    matched: list[tuple[int, Substitution]], masked: list[tuple[int, int, int]],
) -> _Answers:
    """The answers to ``q`` over a relevant grounding in the mask form of
    :func:`_mask_form`, substitutions ranging over ``domain``, in
    each of ``modes`` (``"brave"``, ``"cautious"`` or both) from one
    search, with its number of states and the grounding's number of
    instances.

    ``matched`` holds the matches of ``q`` among the grounding's keys, by
    :func:`_matches`.  The candidates are those that head an instance and
    lie in ``domain``: a grounding cut from a union keeps every key of the
    union, derivable for the trial or not.

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
    terms = frozenset(domain)
    heads = 0
    for h, _, _ in masked:
        heads |= h
    found = _within([(k, s) for k, s in matched if heads >> k & 1], terms)
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
    return answers, budget.spent, len(masked)
