"""Workload inputs and the reference answers the outputs are checked
against.  Nothing here calls into aspmagic, so a defect in the package
cannot hide by also changing what it is compared with."""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Iterable, Protocol, Sequence

# The genealogy program of the paper's experiments: each related pair is
# a father or a brother link; ancestry is the closure of father links.
ANCESTRY_RULES = """\
father(X,Y) :- related(X,Y), not brother(X,Y).
brother(X,Y) :- related(X,Y), not father(X,Y).
ancestor(X,Y) :- father(X,Y).
ancestor(X,Y) :- father(X,Z), ancestor(Z,Y).
"""

CLOSURE_RULES = """\
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
"""


def person(i: int, j: int) -> str:
    return f"p_{i}_{j}"


def grid_program_text(n: int, rng: random.Random) -> str:
    """The genealogy rules over an n-by-n grid: each person is related to
    the right and the down neighbour.  The seed only orders the facts.

    The corner query is answered ``yes`` by construction: choosing
    ``father`` for every related pair is an answer set, and in it the
    top-left person is an ancestor of every other person."""
    facts = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j < n:
                facts.append(f"related({person(i, j)},{person(i, j + 1)}).")
            if i < n:
                facts.append(f"related({person(i, j)},{person(i + 1, j)}).")
    rng.shuffle(facts)
    return ANCESTRY_RULES + "\n".join(facts) + "\n"


def grid_query_text(n: int) -> str:
    return f"ancestor({person(1, 1)},{person(n, n)})?"


def node(k: int) -> str:
    return f"v{k}"


def closure_edges(nodes: int, extra: int, rng: random.Random) -> list[tuple[int, int]]:
    """A chain 0 -> 1 -> ... -> nodes-1 plus ``extra`` distinct random
    edges that are not self-loops."""
    edges = {(k, k + 1) for k in range(nodes - 1)}
    while len(edges) < nodes - 1 + extra:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def closure_program_text(edges: Iterable[tuple[int, int]]) -> str:
    facts = "".join(f"edge({node(a)},{node(b)}).\n" for a, b in edges)
    return CLOSURE_RULES + facts


def bfs_reachable(edges: Iterable[tuple[int, int]], start: int) -> set[int]:
    """Nodes reachable from ``start`` along one or more edges; ``start``
    itself only if it lies on a cycle."""
    succ: dict[int, list[int]] = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    seen: set[int] = set()
    frontier = list(succ[start])
    while frontier:
        k = frontier.pop()
        if k not in seen:
            seen.add(k)
            frontier.extend(succ[k])
    return seen


class GroundRule(Protocol):
    head: Sequence
    pos_body: Sequence


def kept_rules(rules: Iterable[GroundRule]) -> list[GroundRule]:
    """The ground rules whose positive body lies inside the least fixpoint
    of head derivability with negative bodies ignored: the rules a
    relevance-driven grounder would have to emit."""
    rules = list(rules)
    missing = []
    watchers: dict[object, list[int]] = defaultdict(list)
    for i, r in enumerate(rules):
        body = set(r.pos_body)
        missing.append(len(body))
        for a in body:
            watchers[a].append(i)
    derivable: set[object] = set()
    ready = [i for i, m in enumerate(missing) if m == 0]
    while ready:
        for a in rules[ready.pop()].head:
            if a not in derivable:
                derivable.add(a)
                for j in watchers[a]:
                    missing[j] -= 1
                    if missing[j] == 0:
                        ready.append(j)
    return [r for r, m in zip(rules, missing) if m == 0]
