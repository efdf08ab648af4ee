"""Predicate dependency analysis and consistency guarantees.

The classes checked here form a chain: programs with no recursion through
negation, programs whose dependency cycles all cross an even number of
negative edges, and programs that stay consistent under every added set of
facts.  Membership in the second class is decidable from the dependency
graph alone and implies membership in the third, which is what the
rewriting relies on.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations, islice, starmap
from typing import Iterator, NamedTuple

from .semantics import CANDIDATE_CAP_DEFAULT, GROUND_CAP_DEFAULT, _consistent
from .syntax import Atom, Program, _atoms_over

__all__ = [
    "DependencyEdge",
    "DependencyGraph",
    "dependency_graph",
    "is_stratified",
    "is_odd_cycle_free",
    "ScStatus",
    "ScVerdict",
    "check_super_consistent",
]


class DependencyEdge(NamedTuple):
    """Head predicate ``source`` depends on body predicate ``target``."""

    source: str
    target: str
    negative: bool


class DependencyGraph(NamedTuple):
    nodes: tuple[str, ...]
    edges: tuple[DependencyEdge, ...]


def dependency_graph(p: Program) -> DependencyGraph:
    edges: dict[DependencyEdge, None] = {}
    for rule in p.rules:
        heads = {a.predicate for a in rule.head}
        for h in sorted(heads):
            for a in rule.pos_body:
                edges.setdefault(DependencyEdge(h, a.predicate, False))
            for a in rule.neg_body:
                edges.setdefault(DependencyEdge(h, a.predicate, True))
    return DependencyGraph(
        nodes=tuple(sorted(p.predicates)), edges=tuple(sorted(edges))
    )


def _scc_index(nodes, edges) -> dict:
    """Number the strongly connected components and map each node to its
    component, by an iterative form of Tarjan's algorithm."""
    succ: dict = {v: [] for v in nodes}
    for a, b in edges:
        succ[a].append(b)
    order: dict = {}
    low: dict = {}
    index: dict = {}
    path: list = []
    components = 0
    for root in succ:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        path.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if w not in order:
                    order[w] = low[w] = len(order)
                    path.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w not in index:  # still on the path stack
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    while True:
                        w = path.pop()
                        index[w] = components
                        if w == v:
                            break
                    components += 1
    return index


def is_stratified(p: Program) -> bool:
    """True when no dependency cycle crosses a negative edge."""
    dg = dependency_graph(p)
    scc = _scc_index(dg.nodes, [(e.source, e.target) for e in dg.edges])
    return not any(
        e.negative and scc[e.source] == scc[e.target] for e in dg.edges
    )


def is_odd_cycle_free(p: Program) -> bool:
    """True when every dependency cycle crosses an even number of negative
    edges.

    Each predicate is split into an even and an odd copy and every edge
    flips the parity exactly when it is negative; an odd cycle through a
    predicate exists precisely when its two copies share a strongly
    connected component."""
    dg = dependency_graph(p)
    nodes = [(n, parity) for n in dg.nodes for parity in (0, 1)]
    edges = []
    for e in dg.edges:
        flip = 1 if e.negative else 0
        for parity in (0, 1):
            edges.append(((e.source, parity), (e.target, parity ^ flip)))
    scc = _scc_index(nodes, edges)
    return not any(scc[(n, 0)] == scc[(n, 1)] for n in dg.nodes)


class ScStatus(Enum):
    SUPER_CONSISTENT = "super_consistent"
    NOT_SUPER_CONSISTENT = "not_super_consistent"
    BUDGET_EXCEEDED = "budget_exceeded"


class ScVerdict(NamedTuple):
    status: ScStatus
    counterexample: frozenset[Atom] | None = None
    sets_tested: int = 0
    via_shortcut: bool = False


def _candidate_atoms(p: Program) -> Iterator[Atom]:
    """Every atom a hostile fact set could contain, built one at a time in
    atom order over the program's universe plus the witness constants
    ``xi_1``, ``xi_2``, ..., one fresh constant per rule variable.

    Facts added to the program can only interact with a rule through the
    constants it mentions or through values a variable may take; one fresh
    constant per variable occurrence, with all rules renamed apart, is
    enough to expose any inconsistency that some larger fact set would."""
    fresh = sum(len(rule.variables()) for rule in p.rules)
    return starmap(Atom, _atoms_over(p, p.predicates, "xi_", fresh))


def check_super_consistent(
    p: Program,
    budget: int = 10_000,
    *,
    use_shortcut: bool = True,
    ground_cap: int = GROUND_CAP_DEFAULT,
    candidate_cap: int = CANDIDATE_CAP_DEFAULT,
) -> ScVerdict:
    """Decide whether ``p`` stays consistent under every added fact set.

    With the shortcut enabled, an even-cycled dependency graph settles the
    question immediately.  Otherwise fact sets of the atoms that
    :func:`~aspmagic.syntax._atoms_over` enumerates over the universe of
    ``p`` plus its witness constants (see :func:`_candidate_atoms`) are
    tested by ascending size; ``budget`` bounds how many are tested
    before giving up.  Each fact set is passed beside ``p`` as its atoms
    (see :func:`_consistent`), with no extended program built, to one
    grounder that lays ``p`` out once for the whole check, and is
    searched only up to its first answer set; ``candidate_cap`` bounds the
    states of each of these searches."""
    if use_shortcut and is_odd_cycle_free(p):
        return ScVerdict(ScStatus.SUPER_CONSISTENT, via_shortcut=True)
    # Every single atom is tried before any pair, so a search stopped by
    # the budget never looks past the first ``budget`` atoms.
    candidates = tuple(islice(_candidate_atoms(p), budget + 1))
    consistent = _consistent(p, ground_cap, candidate_cap)
    tested = 0
    for size in range(len(candidates) + 1):
        for combo in combinations(range(len(candidates)), size):
            if tested >= budget:
                return ScVerdict(ScStatus.BUDGET_EXCEEDED, sets_tested=tested)
            tested += 1
            facts = [candidates[i] for i in combo]
            if not consistent(facts):
                return ScVerdict(
                    ScStatus.NOT_SUPER_CONSISTENT,
                    counterexample=frozenset(facts),
                    sets_tested=tested,
                )
    return ScVerdict(ScStatus.SUPER_CONSISTENT, sets_tested=tested)
