"""The reference oracle: answer sets by unfounded sets, without reducts.

This route is the cross-check of the stable-model search in
:mod:`~aspmagic.semantics`, so it shares none of that search's code: not
its grounder, masks, closure or search.  It grounds every rule over the
whole universe, enumerates candidate interpretations outright and accepts
those that are models containing no nonempty unfounded subset; only it
and the unfounded-set test use that exhaustive grounding, and both decide
unfoundedness by one mask test.  From :mod:`~aspmagic.semantics` it takes
only the report it fills in, the decoding of a mask into atoms, and the
caps with their defaults.  It is deterministic, suits small programs only,
and is not meant to compete with a real solver.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .semantics import (
    CANDIDATE_CAP_DEFAULT,
    GROUND_CAP_DEFAULT,
    AnswerSetReport,
    CandidateSpaceTooLarge,
    GroundingTooLarge,
    _interpretation,
)
from .syntax import Atom, Interpretation, Program, Rule, universe

__all__ = ["is_unfounded_set", "answer_sets_via_unfounded"]


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


def _unfounded(masked: Iterable[tuple[int, int, int]], x: int, i: int) -> bool:
    """Whether the atoms of mask ``x`` are unfounded with respect to the
    interpretation ``i``, over ``(head, pos, neg)`` rule masks: every rule
    with a head atom in ``x`` is either blocked under ``i``, consumes an
    atom of ``x`` positively, or is already satisfied by ``i`` outside
    ``x``."""
    for h, p, n in masked:
        if h & x and p & ~i == 0 and n & i == 0 and p & x == 0 and h & i & ~x == 0:
            return False
    return True


def is_unfounded_set(x: frozenset[Atom], p: Program, i: Interpretation) -> bool:
    """Whether ``x`` is unfounded with respect to ``i`` (see
    :func:`_unfounded`).

    ``p`` is ground over its whole universe, since ``x`` and ``i`` may hold
    atoms that nothing derives; a ground program grounds to itself.  An
    atom that no ground rule mentions cannot decide the test, so only the
    others get a bit."""
    _, pos_of, masked = _index_rules(_ground_exhaustive(p).rules)

    def mask(atoms: Iterable[Atom]) -> int:
        return sum(1 << pos_of[a] for a in atoms if a in pos_of)

    return _unfounded(masked, mask(x), mask(i))


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
        # imask holds head atoms only; walk its nonempty subsets
        sub = imask
        while sub:
            if _unfounded(masked, sub, imask):
                return False
            sub = (sub - 1) & imask
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
