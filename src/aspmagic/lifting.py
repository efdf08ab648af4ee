"""Interpretation lifting: the artifacts of the paper's soundness proof.

The proof relates an interpretation of a program to one of its magic-set
rewriting.  :func:`magic_variant` rebuilds, from an interpretation of the
original program, the matching interpretation of the rewritten one, and
:func:`killed_atoms` names the atoms the rewriting proves irrelevant under
an interpretation.  Both sit above the rewriter, and :func:`magic_variant`
above the relevance grounder of :func:`~aspmagic.semantics.ground`, so
neither of those depends on this module.
"""

from __future__ import annotations

from typing import Mapping

from .rewriter import AdornedPredicate, dms_with_details, magic_atom, split_magic_name
from .semantics import ground
from .syntax import Atom, Interpretation, Program, Query, Term, base

__all__ = ["killed_atoms", "magic_variant"]


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


def killed_atoms(m: Interpretation, n: Interpretation, p: Program) -> frozenset[Atom]:
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


def magic_variant(i: Interpretation, q: Query, p: Program) -> Interpretation:
    """Rebuild, from an interpretation of ``p``, the matching interpretation
    of the rewritten program.

    Starting from the extensional facts, the fixpoint alternately imports an
    atom of ``i`` once one of its magic versions is present, and fires the
    ground magic rules whose bodies are satisfied (the seed enters through
    its empty body).  The magic rules range over the constants of the
    rewriting and of ``i``."""
    details = dms_with_details(q, p)
    # ``i`` need not be derivable in the rewritten program, so its atoms
    # join the grounding as facts: then every magic instance the fixpoint
    # can fire has a derivable positive body and is a relevant instance.
    g = ground(details.program.with_facts(i))
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
