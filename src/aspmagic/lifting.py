"""Interpretation lifting: the artifacts of the paper's soundness proof.

The proof relates an interpretation of a program to one of its magic-set
rewriting.  :func:`magic_variant` rebuilds, from an interpretation of the
original program, the matching interpretation of the rewritten one, and
:func:`killed_atoms` names the atoms the rewriting proves irrelevant under
an interpretation.  Both read the parts of the rewriting that
:func:`~aspmagic.rewriter.dms_with_details` keeps apart, and reach an
atom's magic versions through its adorned predicates and
:func:`~aspmagic.rewriter.magic_atom`; neither reads a magic name.
:func:`magic_variant` is the least model of a positive program, which the
relevance grounder of :func:`~aspmagic.semantics.ground` computes.
"""

from __future__ import annotations

from .rewriter import DmsResult, dms_with_details, magic_atom
from .semantics import ground
from .syntax import Atom, Interpretation, Program, Query, Rule, base

__all__ = ["killed_atoms", "magic_variant"]


def _magic_versions(atom: Atom, details: DmsResult) -> list[Atom]:
    """The magic atoms of ``atom`` under each adorned predicate of the
    rewriting ``details`` that adorns its predicate."""
    return [
        magic_atom(ap, atom.args)
        for ap in details.adorned
        if ap.predicate == atom.predicate
    ]


def killed_atoms(
    m: Interpretation, n: Interpretation, q: Query, p: Program
) -> frozenset[Atom]:
    """Atoms of the base of ``p`` outside ``n`` that the rewriting of ``p``
    for ``q`` proves irrelevant under ``n``: extensional atoms, and atoms
    with a magic version in ``n``."""
    if not n <= m:
        raise ValueError("n must be contained in m")
    details = dms_with_details(q, p)
    edb = p.edb_predicates
    return frozenset(
        atom
        for atom in base(p) - n
        if atom.predicate in edb
        or any(g in n for g in _magic_versions(atom, details))
    )


def magic_variant(i: Interpretation, q: Query, p: Program) -> Interpretation:
    """Rebuild, from an interpretation of ``p``, the matching interpretation
    of the rewritten program: the least model of the extensional facts, the
    magic rules (the seed among them), and one rule importing each atom of
    ``i`` from each of its magic versions.

    That program is positive and has no disjunction, so its least model is
    the set of heads of its relevant instances."""
    details = dms_with_details(q, p)
    imports = (
        Rule((atom,), (g,))
        for atom in i
        for g in _magic_versions(atom, details)
    )
    least = ground(Program((*details.edb_rules, *details.magic_rules, *imports)))
    return frozenset(r.head[0] for r in least.rules)
