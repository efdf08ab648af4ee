"""Grounding, the two answer-set computations, query answering and the
interpretation-lifting artifacts.

Expected answer sets in this file were worked out by hand from the
definitions before the solver existed; they are frozen here as literals.
"""

import ast
import random
import sys
from collections import defaultdict
from itertools import combinations, product
from pathlib import Path

import pytest

from aspmagic import (
    Atom,
    CandidateSpaceTooLarge,
    GroundingTooLarge,
    GroundProgram,
    ProgramError,
    Query,
    Substitution,
    answer_query,
    answer_sets,
    answer_sets_via_unfounded,
    brave,
    base,
    cautious,
    check_equivalence,
    const,
    dms,
    dms_with_details,
    gen_related_instance,
    ground,
    is_model,
    is_unfounded_set,
    killed_atoms,
    magic_variant,
    parse_program,
    parse_query,
    random_edb,
    random_program,
    random_query,
    reduct,
    substitutions_brave,
    substitutions_cautious,
    universe,
    var,
)
from aspmagic import semantics
from aspmagic.semantics import (
    GROUND_CAP_DEFAULT,
    _ground_coded,
    _ground_exhaustive,
    _index_rules,
    _relevant_search,
)


def _sets(report):
    return sorted(sorted(str(a) for a in m) for m in report.answer_sets)


def _atoms(*texts):
    out = []
    for t in texts:
        p = parse_program(f"{t}.")
        out.append(p.rules[0].head[0])
    return frozenset(out)


# ---------------------------------------------------------------- grounding


def test_ground_instantiates_over_the_universe():
    p = parse_program("e(a). e(b). p(X) :- e(X), not q(X).")
    g = ground(p)
    assert len(g.rules) == 4
    assert all(not r.variables() for r in g.rules)
    texts = {str(r) for r in g.rules}
    assert "p(a) :- e(a), not q(a)." in texts


def test_ground_deduplicates_collapsing_instances():
    # both substitutions for Y collapse to the same instance head/body
    p = parse_program("e(a). e(b). p(X) :- e(X), e(X).")
    g = ground(p)
    assert len(g.rules) == 4


def test_ground_cap_is_checked_before_materializing():
    p = parse_program("p(X,Y,Z) :- e(X), e(Y), e(Z). e(a). e(b). e(c).")
    with pytest.raises(GroundingTooLarge):
        ground(p, ground_cap=20)
    assert len(ground(p, ground_cap=30).rules) == 30


def test_ground_cap_counts_instantiated_rules():
    # 202 constants, but only the 2 x 2 instances over e are derivable
    text = " ".join(f"c(k{i})." for i in range(200))
    p = parse_program(text + " e(a). e(b). p(X,Y) :- e(X), e(Y).")
    assert len(ground(p, ground_cap=1000).rules) == 206
    with pytest.raises(GroundingTooLarge):
        ground(p, ground_cap=205)


def _derivable(rules):
    """The atoms derivable from ``rules`` with negative bodies ignored, by
    naive iteration to the least fixpoint."""
    derived = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            if set(r.pos_body) <= derived and not set(r.head) <= derived:
                derived.update(r.head)
                changed = True
    return derived


def _assert_relevant_grounding(p):
    """``ground(p)`` is the exhaustive grounding filtered by a naive least
    fixpoint, in the same order and with the same first copies."""
    exhaustive = _ground_exhaustive(p).rules
    derivable = _derivable(exhaustive)
    relevant = tuple(r for r in exhaustive if set(r.pos_body) <= derivable)
    got = ground(p).rules
    assert got == relevant
    # same first copies too, atom order included
    assert [str(r) for r in got] == [str(r) for r in relevant]


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
@pytest.mark.parametrize("seed", range(20))
def test_ground_keeps_exactly_the_relevant_instances(profile, seed):
    p = random_program(seed, profile)
    facts = random_edb(p, seed, 0.3, fresh_constants=1, max_facts=4)
    for side in (p, dms(random_query(p, seed), p)):
        pf = side.with_facts(facts)
        _assert_relevant_grounding(pf)
        assert answer_sets(pf).answer_sets == answer_sets_via_unfounded(pf).answer_sets


def _search_form_of(rules):
    """The masks the search takes, computed from ground rules: bits for
    the derivable atoms only, in atom order, with every other atom dropped
    from the negative bodies."""
    atoms, _, masked = _index_rules(rules)
    derivable = 0
    for h, _, _ in masked:
        derivable |= h
    kept = [i for i in range(len(atoms)) if derivable >> i & 1]

    def squeeze(m):
        return sum(1 << k for k, i in enumerate(kept) if m >> i & 1)

    return (
        len(rules),
        [atoms[i] for i in kept],
        [(squeeze(h), squeeze(b), squeeze(n)) for h, b, n in masked],
    )


def _assert_search_reads_ground(p):
    count, atoms, masked, bit_of = _relevant_search(p, GROUND_CAP_DEFAULT)
    assert (count, atoms, masked) == _search_form_of(ground(p).rules)
    assert bit_of == {
        (a.predicate, tuple(t.name for t in a.args)): 1 << k
        for k, a in enumerate(atoms)
    }


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_search_reads_exactly_what_ground_returns(profile):
    # Two fresh constants and up to 12 facts put several rows in the
    # buckets of the argument index.
    for seed in range(30):
        p = random_program(seed, profile)
        facts = random_edb(p, seed, 0.4, fresh_constants=2, max_facts=12)
        for side in (p, dms(random_query(p, seed), p)):
            _assert_search_reads_ground(side.with_facts(facts))


JOIN_CASES = {
    "constants in body atoms": (
        "e(a,b). e(b,c). e(c,a). e(a,c). e(c,c). "
        "p(Y) :- e(a,Y). q(X) :- e(X,c), not p(X). r :- e(c,c), q(a)."
    ),
    "repeated variable": (
        "e(a,a). e(a,b). e(b,b). e(c,a). e(b,c). "
        "s(X) :- e(X,X). t(X,Y) :- e(X,Y), e(Y,Y), not s(X). u(X) :- e(X,Y), e(Y,X)."
    ),
    "self-join": (
        "edge(a,b). edge(b,c). edge(c,d). edge(d,b). edge(a,e). "
        "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), reach(Y,Z)."
    ),
    "bound positions from two earlier atoms": (
        "a(k1). a(k2). b(k2). b(k3). r(k1,k2,k3). r(k2,k3,k1). r(k2,k2,k2). "
        "r(k3,k1,k2). t(X,Y,Z) :- a(X), b(Y), r(X,Y,Z), not w(Z). w(Z) :- t(X,Y,Z)."
    ),
    # The index on reach's first argument is built in the second round and
    # then extended by every later round along the chain.
    "rows derived after the index was built": (
        "e(n0,n1). e(n1,n2). e(n2,n3). e(n3,n4). e(n4,n5). e(n5,n6). "
        "reach(X,Y) :- e(X,Y). reach(X,Z) :- reach(X,Y), reach(Y,Z). "
        "far(X) v near(X) :- reach(n0,X), reach(X,n6), not reach(X,X)."
    ),
}


@pytest.mark.parametrize("case", sorted(JOIN_CASES))
def test_indexed_join_cases_match_the_exhaustive_oracle(case):
    p = parse_program(JOIN_CASES[case])
    _assert_relevant_grounding(p)
    _assert_search_reads_ground(p)


def test_ground_sizes_of_the_benchmark_inputs():
    inst = gen_related_instance(3)
    assert len(ground(inst.program).rules) == 72
    assert len(ground(dms(inst.query, inst.program)).rules) == 141


def _reachable(succ, start):
    """Nodes reachable from ``start`` along one or more edges."""
    seen = set()
    frontier = list(succ[start])
    while frontier:
        k = frontier.pop()
        if k not in seen:
            seen.add(k)
            frontier.extend(succ[k])
    return seen


def test_plain_closure_grounding_matches_a_bfs_count():
    # A 24-node chain plus 6 random edges, as in the closure benchmark.
    rng = random.Random(5)
    edges = {(k, k + 1) for k in range(23)}
    while len(edges) < 29:
        a, b = rng.randrange(24), rng.randrange(24)
        if a != b:
            edges.add((a, b))
    succ = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    text = "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z). "
    p = parse_program(text + " ".join(f"edge(v{a},v{b})." for a, b in sorted(edges)))
    # the edge facts, one reach(X,Y) :- edge(X,Y) per edge, and one
    # reach(X,Z) :- reach(X,Y), edge(Y,Z) per reachable pair and edge out
    expected = 2 * len(edges) + sum(
        len(succ[y]) for x in range(24) for y in _reachable(succ, x)
    )
    assert len(ground(p).rules) == expected
    assert answer_sets(p).ground_rules == expected
    q = parse_query("reach(v3,X)?")
    assert brave(dms(q, p), q) == {
        Substitution((("X", f"v{k}"),)) for k in _reachable(succ, 3)
    }


# ------------------------------------------------------ compiled join plans


def _fresh_copy(p):
    """A program equal to ``p``, rule order and atom order included, that
    shares no rule object with it (``print_program`` would sort the rules)."""
    return parse_program("".join(f"{r}\n" for r in p.rules))


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_reused_rules_ground_like_fresh_ones(profile):
    # The same rule objects are ground under F1, F2, then F1 again; each
    # result must be what fresh, never-compiled rules give.
    compared = 0
    for seed in range(20):
        p = random_program(seed, profile)
        f1 = random_edb(p, seed, 0.4, fresh_constants=2, max_facts=8)
        f2 = random_edb(p, seed + 1000, 0.4, fresh_constants=2, max_facts=8)
        for side in (p, dms(random_query(p, seed), p)):
            for facts in (f1, f2, f1):
                pf = side.with_facts(facts)
                assert _ground_coded(pf) == _ground_coded(_fresh_copy(pf))
            if seed % 4:
                continue
            try:
                oracle = answer_sets_via_unfounded(pf, candidate_cap=1 << 14)
            except CandidateSpaceTooLarge:
                continue  # too many head atoms to enumerate
            assert answer_sets(pf).answer_sets == oracle.answer_sets
            compared += 1
    assert compared >= 3


def test_check_equivalence_compiles_each_rule_once(monkeypatch):
    compiled = []

    def counting(rule):
        compiled.append(rule)
        return real(rule)

    real = semantics._compile
    monkeypatch.setattr(semantics, "_compile", counting)
    for profile in ("stratified", "odd_cycle_free", "arbitrary"):
        p = random_program(3, profile)
        q = random_query(p, 3)
        compiled.clear()
        report = check_equivalence(p, q, trials=4, seed=3)
        assert report.fact_sets_tested == 4
        # no rule object twice, and never a bodiless one
        assert len({id(r) for r in compiled}) == len(compiled)
        assert all(r.pos_body for r in compiled)
        # every rule with a positive body, on both sides
        mine = [r for r in p.rules if r.pos_body]
        assert sum(any(r is c for c in compiled) for r in mine) == len(mine)
        expected = mine + [r for r in dms(q, p).rules if r.pos_body]
        assert sorted(map(str, compiled)) == sorted(map(str, expected))


def test_semantics_does_not_import_the_rewriter():
    tree = ast.parse(Path(semantics.__file__).read_text())
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert "rewriter" not in imported


def test_ground_program_rejects_open_rules():
    p = parse_program("e(a). p(X) :- e(X).")
    with pytest.raises(ProgramError, match="variables"):
        GroundProgram(rules=p.rules)


# ------------------------------------------------------------------ reduct


def test_reduct_drops_blocked_rules_and_strips_negation(guarded_pair):
    g = ground(guarded_pair)
    r_a = reduct(g, _atoms("a"))
    assert {str(r) for r in r_a.rules} == {"a v b."}
    r_empty = reduct(g, frozenset())
    assert {str(r) for r in r_empty.rules} == {"a v b.", "a."}


def test_is_model_examples(guarded_pair):
    g = ground(guarded_pair)
    assert is_model(_atoms("a"), g)
    assert is_model(_atoms("a", "b"), g)
    assert not is_model(frozenset(), g)  # disjunctive rule unsatisfied


# -------------------------------------------------------------- answer sets


def test_answer_sets_of_a_disjunction():
    assert _sets(answer_sets(parse_program("a v b."))) == [["a"], ["b"]]


def test_answer_sets_prune_supersets():
    # {a, b} is a model of the second program, but {a} is a smaller one
    assert _sets(answer_sets(parse_program("a v b. a :- b."))) == [["a"]]


def test_guarded_pair_has_two_answer_sets(guarded_pair):
    report = answer_sets(guarded_pair)
    assert _sets(report) == [["a"], ["b"]]
    assert report.candidates_examined > 0


def test_choice_with_odd_loop_collapses_to_one(choice_with_odd_loop):
    assert _sets(answer_sets(choice_with_odd_loop)) == [["edb(a)", "p(a)"]]


def test_odd_loop_alone_is_inconsistent():
    assert answer_sets(parse_program("a :- not a.")).answer_sets == frozenset()


def test_empty_program_has_the_empty_answer_set():
    report = answer_sets(parse_program(""))
    assert report.answer_sets == {frozenset()}


def test_positive_programs_have_their_least_model():
    p = parse_program("e(a). e(b). r(X,Y) :- e(X), e(Y). p(X) :- r(X,X).")
    report = answer_sets(p)
    assert len(report.answer_sets) == 1
    (m,) = report.answer_sets
    assert Atom("p", (const("a"),)) in m
    assert len(m) == 2 + 4 + 2


def test_answer_sets_are_minimal_models_of_their_reduct():
    # Minimality by brute force: no proper subset of an answer set is a
    # model of its reduct.  The answer sets here hold at most 4 atoms.
    checked = 0
    for seed in range(10):
        p = random_program(seed, "arbitrary")
        g = ground(p)
        for m in answer_sets(p).answer_sets:
            red = reduct(g, m)
            assert is_model(m, red)
            atoms = sorted(m)
            for k in range(len(atoms)):
                for subset in combinations(atoms, k):
                    assert not is_model(frozenset(subset), red), (seed, subset)
                    checked += 1
    assert checked > 0


def test_candidate_cap_trips(guarded_pair):
    with pytest.raises(CandidateSpaceTooLarge):
        answer_sets(guarded_pair, candidate_cap=2)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize(
    "text",
    [
        " ".join(f"a{i} :- not b{i}. b{i} :- not a{i}." for i in range(300)),
        " ".join(f"a{i} v b{i}." for i in range(300)),
    ],
    ids=["even_loops", "disjunctions"],
)
def test_deep_search_hits_the_cap_not_the_stack(text):
    # Both searches branch 300 levels deep; under a stack limit far below
    # that, only a search that does not recurse per level gets to the cap.
    p = parse_program(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 120)
    try:
        with pytest.raises(CandidateSpaceTooLarge):
            answer_sets(p, candidate_cap=600)
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------- unfounded sets


def test_mutual_support_is_unfounded():
    p = parse_program("p :- q. q :- p.")
    i = _atoms("p", "q")
    assert is_unfounded_set(_atoms("p", "q"), p, i)
    assert _sets(answer_sets(p)) == [[]]


def test_fact_is_never_unfounded():
    p = parse_program("p. q :- p.")
    assert not is_unfounded_set(_atoms("p"), p, _atoms("p", "q"))


def test_unfounded_via_satisfied_head_elsewhere(choice_with_odd_loop):
    # with p(a) chosen, the disjunctive rule is already satisfied outside {q(a)}
    i = _atoms("edb(a)", "p(a)")
    assert is_unfounded_set(_atoms("q(a)"), choice_with_odd_loop, i)
    assert not is_unfounded_set(_atoms("p(a)"), choice_with_odd_loop, i)


def test_unfounded_accepts_ground_program_input():
    p = parse_program("p :- q. q :- p.")
    assert is_unfounded_set(_atoms("q"), ground(p), _atoms("q"))


def test_via_unfounded_on_the_named_examples(guarded_pair, choice_with_odd_loop):
    assert _sets(answer_sets_via_unfounded(guarded_pair)) == [["a"], ["b"]]
    assert _sets(answer_sets_via_unfounded(choice_with_odd_loop)) == [["edb(a)", "p(a)"]]
    report = answer_sets_via_unfounded(guarded_pair)
    assert report.candidates_examined == 4


def test_via_unfounded_candidate_cap(guarded_pair):
    with pytest.raises(CandidateSpaceTooLarge):
        answer_sets_via_unfounded(guarded_pair, candidate_cap=3)


@pytest.mark.parametrize("profile", ["odd_cycle_free", "arbitrary"])
@pytest.mark.parametrize("seed", range(12))
def test_both_characterizations_agree(profile, seed):
    p = random_program(seed, profile)
    fast = answer_sets(p)
    slow = answer_sets_via_unfounded(p)
    assert fast.answer_sets == slow.answer_sets
    assert fast.ground_rules == len(ground(p).rules)
    assert slow.ground_rules == len(_ground_exhaustive(p).rules)
    facts = random_edb(p, seed, 0.3, fresh_constants=1, max_facts=4)
    pf = p.with_facts(facts)
    assert answer_sets(pf).answer_sets == answer_sets_via_unfounded(pf).answer_sets


# ------------------------------------------------------------------ queries


def test_brave_and_cautious_substitutions(ancestry):
    p = ancestry.with_facts([Atom("related", (const("p1"), const("p2")))])
    q = parse_query("ancestor(p1,X)?")
    assert brave(p, q) == {Substitution((("X", "p2"),))}
    assert cautious(p, q) == frozenset()


def test_ground_query_uses_the_identity_substitution(choice_with_odd_loop):
    q = parse_query("p(a)?")
    assert brave(choice_with_odd_loop, q) == {Substitution()}
    assert cautious(choice_with_odd_loop, q) == {Substitution()}
    assert brave(choice_with_odd_loop, parse_query("q(a)?")) == frozenset()


def test_inconsistent_programs_flip_the_conventions():
    p = parse_program("e(a). e(b). bad :- not bad.")
    q = parse_query("e(X)?")
    assert brave(p, q) == frozenset()
    assert cautious(p, q) == {
        Substitution((("X", "a"),)),
        Substitution((("X", "b"),)),
    }


def test_domain_parameter_widens_the_instances():
    p = parse_program("e(a). p(X) :- e(X).")
    q = parse_query("p(X)?")
    extra = universe(p) | {const("zz")}
    report = answer_sets(p)
    wide_brave = substitutions_brave(report, q, extra)
    wide_cautious = substitutions_cautious(report, q, extra)
    assert wide_brave == {Substitution((("X", "a"),))}
    # the zz instance is false in the single answer set
    assert Substitution((("X", "zz"),)) not in wide_cautious


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_directed_ground_queries_match_full_enumeration(profile):
    # Ground atoms come from the base, so many have no deriving rule; the
    # sampled facts make some arbitrary programs inconsistent.
    mismatches = []
    checked = inconsistent = 0
    for seed in range(40):
        p = random_program(seed, profile)
        facts = random_edb(p, seed, 0.3, fresh_constants=1, max_facts=4)
        rewritten = dms(random_query(p, seed), p)
        for label, side in (("original", p), ("dms", rewritten)):
            side = side.with_facts(facts)
            models = answer_sets(side).answer_sets
            inconsistent += not models
            rng = random.Random(f"{profile}:{seed}:{label}")
            pool = sorted(base(side))
            held = sorted({a for m in models for a in m})
            atoms = rng.sample(pool, min(8, len(pool)))
            atoms += rng.sample(held, min(4, len(held)))
            for atom in atoms:
                q = Query(atom)
                expected = {
                    "brave": any(atom in m for m in models),
                    "cautious": all(atom in m for m in models),
                }
                for mode, holds in expected.items():
                    got = answer_query(side, q, mode).substitutions
                    checked += 1
                    if got != ({Substitution()} if holds else frozenset()):
                        mismatches.append((seed, label, str(atom), mode))
    assert mismatches == []
    assert checked > 1000
    if profile == "arbitrary":
        assert inconsistent > 0


def test_cautious_variable_queries_stop_at_an_empty_intersection():
    inst = gen_related_instance(3)
    q = parse_query("ancestor(p_1_1,X)?")
    for target in (inst.program, dms(q, inst.program)):
        full = answer_sets(target)
        answer = answer_query(target, q, "cautious")
        assert answer.substitutions == frozenset()
        assert substitutions_cautious(full, q, universe(target)) == frozenset()
        # full enumeration: 12287 states plain, 1154 rewritten
        assert full.candidates_examined in (12287, 1154)
        assert answer.candidates_examined * 50 < full.candidates_examined


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_cautious_variable_queries_match_full_enumeration(profile):
    checked = 0
    for seed in range(30):
        p = random_program(seed, profile)
        facts = random_edb(p, seed, 0.3, fresh_constants=1, max_facts=4)
        q = random_query(p, seed)
        rewritten = dms(q, p)
        open_q = Query(Atom(q.atom.predicate, tuple(
            var(f"V{i}") for i in range(q.atom.arity)
        )))
        for side in (p, rewritten):
            side = side.with_facts(facts)
            report = answer_sets(side)
            for query in {q, open_q}:
                if query.is_ground:
                    continue
                domain = universe(side) | {t for t in q.atom.args if t.is_constant}
                got = answer_query(side, query, "cautious", domain=domain)
                assert got.substitutions == substitutions_cautious(
                    report, query, domain
                ), (seed, str(query))
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_brave_variable_queries_match_full_enumeration(profile):
    # A brave query with variables needs every answer set, so the search
    # takes exactly the states of full enumeration.
    checked = 0
    for seed in range(30):
        p = random_program(seed, profile)
        facts = random_edb(p, seed, 0.3, fresh_constants=1, max_facts=4)
        q = random_query(p, seed)
        open_q = Query(Atom(q.atom.predicate, tuple(
            var(f"V{i}") for i in range(q.atom.arity)
        )))
        for side in (p, dms(q, p)):
            side = side.with_facts(facts)
            report = answer_sets(side)
            for query in {q, open_q}:
                if query.is_ground:
                    continue
                domain = universe(side) | {t for t in q.atom.args if t.is_constant}
                got = answer_query(side, query, "brave", domain=domain)
                assert got.substitutions == substitutions_brave(
                    report, query, domain
                ), (seed, str(query))
                assert got.candidates_examined == report.candidates_examined
                assert got.ground_rules == report.ground_rules
                checked += 1
    assert checked > 50


def test_query_answers_report_the_ground_rules_searched():
    inst = gen_related_instance(3)
    q = parse_query("ancestor(p_1_1,X)?")
    for target, rules in ((inst.program, 72), (dms(inst.query, inst.program), 141)):
        assert answer_sets(target).ground_rules == rules
        for query in (inst.query, q):
            for mode in ("brave", "cautious"):
                assert answer_query(target, query, mode).ground_rules == rules
    # an atom nothing derives is answered without a search, not without
    # a grounding
    p = parse_program("e(a). p(X) :- e(X).")
    answer = answer_query(p, parse_query("p(b)?"), "brave")
    assert answer == (frozenset(), 0, 2)


def test_directed_brave_skips_the_search_for_underivable_atoms():
    p = parse_program("e(a). p(X) :- e(X), not q(X). q(X) :- e(X), not p(X).")
    answer = answer_query(p, parse_query("p(b)?"), "brave")
    assert answer.substitutions == frozenset()
    assert answer.candidates_examined == 0
    # no answer set holds p(b), so any one of them refutes it cautiously
    answer = answer_query(p, parse_query("p(b)?"), "cautious")
    assert answer.substitutions == frozenset()
    assert answer.candidates_examined > 0


def test_directed_cautious_on_an_inconsistent_program_says_yes():
    p = parse_program("e(a). bad :- not bad.")
    for text in ("e(a)?", "e(b)?", "bad?"):
        assert cautious(p, parse_query(text)) == {Substitution()}
        assert brave(p, parse_query(text)) == frozenset()


def test_answer_sets_repeat_the_grid_3_counts():
    inst = gen_related_instance(3)
    for target, sets, states in (
        (inst.program, 4096, 12287),
        (dms(inst.query, inst.program), 385, 1154),
    ):
        report = answer_sets(target)
        assert (len(report.answer_sets), report.candidates_examined) == (sets, states)
        # the directed search decides the corner query in a few states
        for mode, holds in (("brave", True), ("cautious", False)):
            answer = answer_query(target, inst.query, mode)
            assert bool(answer.substitutions) is holds
            assert answer.candidates_examined < 50


def test_answer_query_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        answer_query(parse_program("a."), parse_query("a?"), "sometimes")


def _enumerated(report, q, domain, combine):
    """The substitutions of ``q`` by enumerating every instance over
    ``domain``: the definition that matching against answer sets must
    reproduce."""
    names = sorted(q.variables())
    out = set()
    for combo in product(sorted(set(domain)), repeat=len(names)):
        binding = dict(zip(names, combo))
        atom = q.atom.substitute(binding)
        if combine(atom in m for m in report.answer_sets):
            out.add(Substitution.of(binding))
    return frozenset(out)


def _query_patterns(p):
    """Every query over the predicates of ``p`` whose arguments are drawn
    from two variables and one constant, repeated variables included."""
    terms = (var("X"), var("Y"), sorted(universe(p))[0])
    for pred, arity in sorted(p.predicates.items()):
        for args in product(terms, repeat=arity):
            yield Query(Atom(pred, args))


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_matching_equals_instance_enumeration(profile):
    choices = (
        "e(a,b). e(b,b). e(b,c). p(X,Y) :- e(X,Y), not q(X,Y). "
        "q(X,Y) :- e(X,Y), not p(X,Y). s(X,X) :- e(X,X)."
    )
    programs = [parse_program(choices), parse_program(choices + " bad :- not bad.")]
    for seed in range(15):
        p = random_program(seed, profile)
        programs.append(p.with_facts(random_edb(p, seed, 0.4, max_facts=4)))
    for p in programs:
        report = answer_sets(p)
        u = sorted(universe(p))
        domains = (set(u), set(u) | {const("zz"), const("zz2")}, set(u[:1]))
        for q in _query_patterns(p):
            for domain in domains:
                assert substitutions_brave(report, q, domain) == _enumerated(
                    report, q, domain, any
                ), (str(q), sorted(map(str, domain)))
                assert substitutions_cautious(report, q, domain) == _enumerated(
                    report, q, domain, all
                ), (str(q), sorted(map(str, domain)))


def test_substitution_display():
    assert str(Substitution()) == "{}"
    assert str(Substitution((("X", "a"), ("Y", "b")))) == "X = a, Y = b"
    assert Substitution.of({"X": const("a")}).bindings == (("X", "a"),)


# --------------------------------------------------- rewriting side checks


def test_killed_atoms_on_the_choice_program(choice_with_odd_loop):
    q = parse_query("q(a)?")
    rewritten = dms(q, choice_with_odd_loop)
    sets = {
        frozenset(str(a) for a in m): m
        for m in answer_sets(rewritten).answer_sets
    }
    m_p = sets[frozenset({"edb(a)", "magic_q_b(a)", "magic_p_b(a)", "p(a)"})]
    m_q = sets[frozenset({"edb(a)", "magic_q_b(a)", "magic_p_b(a)", "q(a)"})]
    killed_p = killed_atoms(m_p, m_p, choice_with_odd_loop, rewritten)
    killed_q = killed_atoms(m_q, m_q, choice_with_odd_loop, rewritten)
    assert killed_p == _atoms("q(a)")
    assert killed_q == _atoms("p(a)")
    for killed, m in ((killed_p, m_p), (killed_q, m_q)):
        restriction = frozenset(
            a for a in m if a.predicate in choice_with_odd_loop.predicates
        )
        assert is_unfounded_set(killed, choice_with_odd_loop, restriction)


def test_killed_atoms_requires_containment(choice_with_odd_loop):
    q = parse_query("q(a)?")
    rewritten = dms(q, choice_with_odd_loop)
    with pytest.raises(ValueError, match="contained"):
        killed_atoms(frozenset(), _atoms("edb(a)"), choice_with_odd_loop, rewritten)


def test_killed_atoms_include_extensional_gaps():
    p = parse_program("e(a). f(b). p(X) :- e(X).")
    rewritten = dms(parse_query("p(a)?"), p)
    (m,) = answer_sets(rewritten).answer_sets
    killed = killed_atoms(m, m, p, rewritten)
    # absent extensional instances are always killed; p(b) has no true
    # magic atom and stays unknown
    assert killed == _atoms("e(b)", "f(a)")


FROZEN_VARIANT = [
    "ancestor(p1,p2)",
    "father(p1,p2)",
    "magic_ancestor_bb(p1,p2)",
    "magic_ancestor_bb(p2,p2)",
    "magic_brother_bb(p1,p2)",
    "magic_brother_bb(p2,p2)",
    "magic_father_bb(p1,p2)",
    "magic_father_bb(p2,p2)",
    "magic_father_bf(p1)",
    "magic_father_bf(p2)",
    "related(p1,p2)",
]


def test_magic_variant_matches_the_hand_computation(ancestry):
    p = ancestry.with_facts([Atom("related", (const("p1"), const("p2")))])
    q = parse_query("ancestor(p1,p2)?")
    m = _atoms("related(p1,p2)", "father(p1,p2)", "ancestor(p1,p2)")
    v = magic_variant(m, q, p)
    assert sorted(str(a) for a in v) == FROZEN_VARIANT


def test_magic_variant_of_the_brother_side(ancestry):
    p = ancestry.with_facts([Atom("related", (const("p1"), const("p2")))])
    q = parse_query("ancestor(p1,p2)?")
    m = _atoms("related(p1,p2)", "brother(p1,p2)")
    v = magic_variant(m, q, p)
    assert Atom("brother", (const("p1"), const("p2"))) in v
    assert not any(a.predicate == "father" for a in v)
    assert not any(a.predicate == "ancestor" for a in v)


@pytest.mark.parametrize("seed", range(10))
def test_magic_variants_land_in_the_rewritten_answer_sets(seed):
    p = random_program(seed, "arbitrary")
    q = parse_query("p1(c1)?")
    d = dms_with_details(q, p)
    rewritten_sets = answer_sets(d.program).answer_sets
    for m in answer_sets(p).answer_sets:
        v = magic_variant(m, q, p)
        assert v in rewritten_sets
        assert (q.atom in m) == (q.atom in v)
