"""Dependency classification checks.

The odd-cycle and stratification tests are compared against a
brute-force oracle that walks every simple cycle of the predicate graph
and counts its negative edges.
"""

from itertools import chain, combinations, islice

import pytest

from aspmagic import (
    Atom,
    DependencyEdge,
    ScStatus,
    answer_sets,
    check_super_consistent,
    dependency_graph,
    is_odd_cycle_free,
    is_stratified,
    parse_program,
    random_program,
)
from aspmagic.analysis import _candidate_atoms
from aspmagic.semantics import (
    CANDIDATE_CAP_DEFAULT,
    GROUND_CAP_DEFAULT,
    _Budget,
    _relevant_searches,
    _stable_models,
)


def _simple_cycle_negative_counts(p) -> set[int]:
    """How many negative edges each simple cycle of the dependency graph
    crosses."""
    dg = dependency_graph(p)
    adj: dict[str, list[tuple[str, int]]] = {}
    for e in dg.edges:
        adj.setdefault(e.source, []).append((e.target, 1 if e.negative else 0))
    counts: set[int] = set()

    def walk(start: str, node: str, negatives: int, visited: frozenset) -> None:
        for nxt, neg in adj.get(node, ()):
            if nxt == start:
                counts.add(negatives + neg)
            elif nxt not in visited:
                walk(start, nxt, negatives + neg, visited | {nxt})

    for n in dg.nodes:
        walk(n, n, 0, frozenset({n}))
    return counts


def _odd_simple_cycle_exists(p) -> bool:
    return any(c % 2 for c in _simple_cycle_negative_counts(p))


def _negative_simple_cycle_exists(p) -> bool:
    return any(c > 0 for c in _simple_cycle_negative_counts(p))


def test_dependency_graph_of_ancestry(ancestry):
    dg = dependency_graph(ancestry)
    assert set(dg.nodes) == {"father", "brother", "ancestor", "related"}
    assert DependencyEdge("father", "brother", True) in dg.edges
    assert DependencyEdge("ancestor", "father", False) in dg.edges
    assert DependencyEdge("ancestor", "ancestor", False) in dg.edges
    assert not any(e.source == "related" for e in dg.edges)


def test_disjunctive_heads_all_depend_on_the_body():
    p = parse_program("e(a). q(X) v p(X) :- e(X).")
    dg = dependency_graph(p)
    assert DependencyEdge("q", "e", False) in dg.edges
    assert DependencyEdge("p", "e", False) in dg.edges


def test_even_loop_is_odd_cycle_free_but_not_stratified(ancestry):
    assert not is_stratified(ancestry)
    assert is_odd_cycle_free(ancestry)


def test_classic_classifications():
    assert is_stratified(parse_program("e(a). p(X) :- e(X), not q(X). q(X) :- e(X)."))
    assert not is_odd_cycle_free(parse_program("a :- not a."))
    assert is_odd_cycle_free(parse_program("a :- not b. b :- not a."))
    three = parse_program("p :- not q. q :- not r. r :- not p.")
    assert not is_odd_cycle_free(three)
    assert not is_stratified(three)


def test_guarded_pair_is_not_odd_cycle_free(guarded_pair):
    assert not is_odd_cycle_free(guarded_pair)
    assert not is_stratified(guarded_pair)


def test_choice_with_odd_loop_classification(choice_with_odd_loop):
    assert not is_odd_cycle_free(choice_with_odd_loop)


@pytest.mark.parametrize("profile", ["odd_cycle_free", "arbitrary", "stratified"])
@pytest.mark.parametrize("seed", range(25))
def test_odd_cycle_check_matches_cycle_enumeration(profile, seed):
    p = random_program(seed, profile)
    assert is_odd_cycle_free(p) == (not _odd_simple_cycle_exists(p))


@pytest.mark.parametrize("profile", ["odd_cycle_free", "arbitrary", "stratified"])
@pytest.mark.parametrize("seed", range(25))
def test_stratification_matches_cycle_enumeration(profile, seed):
    p = random_program(seed, profile)
    assert is_stratified(p) == (not _negative_simple_cycle_exists(p))


@pytest.mark.parametrize(
    "text, odd",
    [
        ("a :- b, not c. b :- a. c :- not a.", False),
        ("a :- b. b :- not a.", True),
        ("a :- not b. b :- not c. c :- not d. d :- not a.", False),
        ("p :- q. q :- p.", False),
        ("p :- not q, not p.", True),
    ],
)
def test_odd_cycle_handpicked(text, odd):
    p = parse_program(text)
    assert is_odd_cycle_free(p) == (not odd)
    assert _odd_simple_cycle_exists(p) == odd


@pytest.mark.parametrize("seed", range(15))
def test_stratified_profile_and_inclusion(seed):
    p = random_program(seed, "stratified")
    assert is_stratified(p)
    assert is_odd_cycle_free(p)  # class inclusion


def test_sc_shortcut_on_even_cycles(ancestry):
    verdict = check_super_consistent(ancestry)
    assert verdict.status is ScStatus.SUPER_CONSISTENT
    assert verdict.via_shortcut


def test_sc_full_enumeration_on_two_atoms(guarded_pair):
    verdict = check_super_consistent(guarded_pair, use_shortcut=False)
    assert verdict.status is ScStatus.SUPER_CONSISTENT
    assert not verdict.via_shortcut
    assert verdict.sets_tested == 4  # subsets of {a, b}


def test_sc_counterexample_found(choice_with_odd_loop):
    verdict = check_super_consistent(choice_with_odd_loop)
    assert verdict.status is ScStatus.NOT_SUPER_CONSISTENT
    assert verdict.counterexample is not None
    assert {str(a) for a in verdict.counterexample} == {"q(a)"}
    assert verdict.sets_tested == 11
    # the counterexample really breaks the program
    broken = choice_with_odd_loop.with_facts(verdict.counterexample)
    assert not answer_sets(broken).answer_sets


def test_sc_budget_is_a_verdict(choice_with_odd_loop):
    verdict = check_super_consistent(choice_with_odd_loop, budget=3)
    assert verdict.status is ScStatus.BUDGET_EXCEEDED
    assert verdict.sets_tested == 3
    assert verdict.counterexample is None


def test_sc_candidate_atoms_cover_rule_variables(choice_with_odd_loop):
    atoms = tuple(_candidate_atoms(choice_with_odd_loop))
    # four unary predicates over a plus one witness constant per rule variable
    assert len(atoms) == 4 * 3
    names = {a.args[0].name for a in atoms}
    assert names == {"a", "xi_1", "xi_2"}
    assert list(atoms) == sorted(atoms)


def test_sc_witness_constants_skip_collisions():
    p = parse_program("e(xi_1). p(X) :- e(X).")
    names = {a.args[0].name for a in _candidate_atoms(p)}
    assert "xi_1" in names  # the program's own constant
    assert "xi_2" in names  # the fresh witness avoided the clash
    assert len(names) == 2


def test_sc_check_builds_no_candidate_atom_past_the_budget(monkeypatch):
    # 33 constants plus 4 witnesses: 37**4, about 1.87 million e/4 atoms,
    # but the empty fact set already breaks the odd loop.
    import aspmagic.analysis

    built = []

    def counting_atom(*args):
        built.append(args)
        return Atom(*args)

    monkeypatch.setattr(aspmagic.analysis, "Atom", counting_atom)
    facts = " ".join(f"e(c{i},c{i + 1},c{i + 2},c{i + 3})." for i in range(30))
    p = parse_program("p(X) :- e(X,Y,Z,W), not p(X). " + facts)
    verdict = check_super_consistent(p, 5)
    assert verdict.status is ScStatus.NOT_SUPER_CONSISTENT
    assert verdict.counterexample == frozenset()
    assert verdict.sets_tested == 1
    assert len(built) <= 5 + 1


@pytest.mark.parametrize("seed", range(8))
def test_ocf_programs_survive_budgeted_fact_injection(seed):
    """No counterexample may surface for an odd-cycle-free program, no
    matter how far the budget gets."""
    p = random_program(seed, "odd_cycle_free")
    verdict = check_super_consistent(p, budget=120, use_shortcut=False)
    assert verdict.status is not ScStatus.NOT_SUPER_CONSISTENT


def test_sc_check_stops_each_search_at_the_first_answer_set():
    # 256 answer sets, whose full enumeration takes 769 states; the first
    # one takes far fewer, so every extended program fits a cap of 200.
    pairs = "c(X) :- e(X), not d(X). d(X) :- e(X), not c(X). "
    facts = " ".join(f"e(k{i})." for i in range(1, 9))
    p = parse_program("a :- not a, not b. b :- not a. " + pairs + facts)
    assert answer_sets(p).candidates_examined > 200
    verdict = check_super_consistent(p, 3, candidate_cap=200)
    assert verdict.status is ScStatus.BUDGET_EXCEEDED
    assert verdict.sets_tested == 3
    # the cap bounds each search, not their sum (about 11 states each)
    verdict = check_super_consistent(p, 30, candidate_cap=200)
    assert verdict.status is ScStatus.BUDGET_EXCEEDED
    assert verdict.sets_tested == 30


@pytest.mark.parametrize("seed", range(12))
def test_sc_verdicts_match_full_enumeration(seed):
    """The check's verdict, recomputed by enumerating every answer set of
    each extended program in the check's own order of fact sets."""
    p = random_program(seed, "arbitrary")
    budget = 40
    candidates = tuple(_candidate_atoms(p))
    sets = chain.from_iterable(
        combinations(candidates, k) for k in range(len(candidates) + 1)
    )
    for tested, combo in enumerate(islice(sets, budget), 1):
        if not answer_sets(p.with_facts(combo)).answer_sets:
            expected = ScStatus.NOT_SUPER_CONSISTENT, frozenset(combo), tested
            break
    else:
        if 2 ** len(candidates) <= budget:
            expected = ScStatus.SUPER_CONSISTENT, None, 2 ** len(candidates)
        else:
            expected = ScStatus.BUDGET_EXCEEDED, None, budget
    verdict = check_super_consistent(p, budget, use_shortcut=False)
    assert (verdict.status, verdict.counterexample, verdict.sets_tested) == expected


def _sc_by_programs(p, budget):
    """The reference for ``check_super_consistent`` without the shortcut:
    each fact set is added with ``with_facts`` and the extended program is
    searched up to its first answer set."""
    candidates = tuple(islice(_candidate_atoms(p), budget + 1))
    sets = chain.from_iterable(
        combinations(candidates, k) for k in range(len(candidates) + 1)
    )
    tested = 0
    for combo in sets:
        if tested >= budget:
            return ScStatus.BUDGET_EXCEEDED, None, tested
        tested += 1
        _, masked = _relevant_searches(p.with_facts(combo), GROUND_CAP_DEFAULT, [()])(0)
        if next(_stable_models(masked, _Budget(CANDIDATE_CAP_DEFAULT)), None) is None:
            return ScStatus.NOT_SUPER_CONSISTENT, frozenset(combo), tested
    return ScStatus.SUPER_CONSISTENT, None, tested


def test_sc_verdicts_match_the_extended_programs():
    programs = (random_program(seed, "arbitrary") for seed in range(1000))
    drawn = list(islice((p for p in programs if not is_odd_cycle_free(p)), 60))
    assert len(drawn) == 60
    statuses = set()
    for p in drawn:
        verdict = check_super_consistent(p, 300, use_shortcut=False)
        got = verdict.status, verdict.counterexample, verdict.sets_tested
        assert got == _sc_by_programs(p, 300), str(p.rules)
        statuses.add(verdict.status)
    assert statuses == {ScStatus.NOT_SUPER_CONSISTENT, ScStatus.BUDGET_EXCEEDED}
