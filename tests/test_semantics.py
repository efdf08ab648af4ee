"""Grounding, the two answer-set computations, query answering and the
interpretation-lifting artifacts.

Expected answer sets in this file were worked out by hand from the
definitions before the solver existed; they are frozen here as literals.
"""

import ast
import copy
import hashlib
import pickle
import random
import sys
from collections import defaultdict
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from aspmagic import (
    Atom,
    CandidateSpaceTooLarge,
    GroundingTooLarge,
    Program,
    ProgramError,
    Query,
    Rule,
    Substitution,
    answer_query,
    answer_sets,
    answer_sets_via_unfounded,
    base,
    check_equivalence,
    check_super_consistent,
    const,
    dms,
    dms_with_details,
    gen_related_instance,
    ground,
    is_unfounded_set,
    killed_atoms,
    magic_atom,
    magic_variant,
    parse_program,
    parse_query,
    random_edb,
    random_program,
    random_query,
    split_magic_name,
    substitutions_brave,
    substitutions_cautious,
    universe,
    var,
)
from aspmagic import oracle, semantics
from aspmagic.harness import _draw_edb, _edb_pool
from aspmagic.oracle import _ground_exhaustive, _index_rules
from aspmagic.semantics import (
    CANDIDATE_CAP_DEFAULT,
    GROUND_CAP_DEFAULT,
    _LAYOUTS,
    _closure,
    _compile,
    _forms,
    _grounder,
    _number,
    _trial_answers,
    _trial_groundings,
)


def _key_order(facts):
    """``facts`` as a grounder takes them added: in key order, which is
    their order as atoms, each as its lookup form and key."""
    return [_forms(f) for f in sorted(facts)]


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


def test_instances_equal_as_sets_are_one_instance():
    # Atom ids: q(a) 0, q(b) 1, then the first head.  The positive body
    # keeps the rows matched, so q(a), q(a) stays (0, 0); q(b), q(a)
    # repeats q(a), q(b) as a set and is dropped.
    p = parse_program("q(a). q(b). r :- q(X), q(Y).")
    assert len(ground(p).rules) == 5
    facts = [((0,), (), ()), ((1,), (), ())]
    assert _grounder(p)().instances == facts + [
        ((2,), (0, 0), ()), ((2,), (0, 1), ()), ((2,), (1, 1), ()),
    ]
    # of two rules with the same instance, the one derived first is kept
    for rules, pos in (
        ("p(X) :- q(X), q(Y). p(X) :- q(X).", (0, 0)),
        ("p(X) :- q(X). p(X) :- q(X), q(Y).", (0,)),
    ):
        coded = _grounder(parse_program(f"q(a). {rules}"))()
        assert coded.instances == [((0,), (), ()), ((1,), pos, ())]
    # an added fact repeating a fact of the program is dropped
    added = [Atom("q", (const("b"),)), Atom("q", (const("a"),))]
    assert _grounder(p)(_key_order(added)) == _grounder(p)()


def test_ground_cap_is_checked_before_materializing():
    p = parse_program("p(X,Y,Z) :- e(X), e(Y), e(Z). e(a). e(b). e(c).")
    with pytest.raises(GroundingTooLarge):
        ground(p, ground_cap=20)
    assert len(ground(p, ground_cap=30).rules) == 30


def test_oracle_ground_cap_is_checked_before_materializing(monkeypatch):
    # 2 x 2 instances of the rule plus the 2 facts
    p = parse_program("p(X,Y) :- e(X), e(Y). e(a). e(b).")
    assert answer_sets_via_unfounded(p, ground_cap=6).ground_rules == 6

    def refuse(rule, binding):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(Rule, "substitute", refuse)
    with pytest.raises(GroundingTooLarge, match="more than 5 instances"):
        answer_sets_via_unfounded(p, ground_cap=5)


def test_ground_cap_counts_instantiated_rules():
    # 202 constants, but only the 2 x 2 instances over e are derivable
    text = " ".join(f"c(k{i})." for i in range(200))
    p = parse_program(text + " e(a). e(b). p(X,Y) :- e(X), e(Y).")
    assert len(ground(p, ground_cap=1000).rules) == 206
    with pytest.raises(GroundingTooLarge):
        ground(p, ground_cap=205)


@pytest.mark.parametrize(
    "text, added, last",
    [
        # the last instance is a bodiless rule, two atoms in each part
        ("e(a). e(b). f v g :- not h, not k.", [], ((2, 3), (), (4, 5))),
        # the last is an added fact; e(b) repeats a fact of the program
        ("e(a). e(b). p(X) :- f(X).", ["e(b)", "e(c)"], ((2,), (), ())),
        # the last is joined; q(b), q(a) repeats q(a), q(b) as a set
        ("q(a). q(b). r :- q(X), q(Y).", [], ((2,), (1, 1), ())),
    ],
    ids=["bodiless", "added_fact", "joined"],
)
def test_ground_cap_counts_distinct_instances_on_every_path(text, added, last):
    p = parse_program(text)
    facts = _key_order(next(iter(_atoms(a))) for a in added)
    coded = _grounder(p)(facts)
    n = len(coded.instances)
    assert coded.instances[-1] == last
    assert _grounder(p, n)(facts) == coded
    message = f"grounding needs more than {n - 1} instances"
    with pytest.raises(GroundingTooLarge, match=f"^{message}$"):
        _grounder(p, n - 1)(facts)


def test_an_instance_whose_parts_collapse_keeps_its_listed_form():
    # Each part is deduplicated as a set of ids, but an instance is kept
    # as it was derived: p(a) v p(a) holds atom 2 twice.
    p = parse_program(
        "e(a,a). e(a,b). p(X) v p(Y) :- e(X,Y). "
        "r(X) :- e(X,Y), not p(X), not p(Y)."
    )
    assert _grounder(p)().instances == [
        ((0,), (), ()), ((1,), (), ()), ((2, 2), (0,), ()), ((2, 3), (1,), ()),
        ((4,), (0,), (2, 2)), ((4,), (1,), (2, 3)),
    ]


def test_grounding_makes_no_call_per_instance():
    # 30 facts e and 900 instances of the rule over 60 atoms: the join
    # binds, keys and deduplicates each instance without a call.
    p = parse_program("p(X) :- e(X), e(Y). " + " ".join(f"e(c{i})." for i in range(30)))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        # comprehensions and generators are frames of their own before
        # Python 3.12, and a generator's every resumption is a call
        if (
            event == "call"
            and frame.f_globals.get("__name__") == semantics.__name__
            and not code.co_name.startswith("<")
        ):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        coded = _grounder(p)()
    finally:
        sys.setprofile(previous)
    assert (len(coded.instances), len(coded.keys)) == (930, 60)
    assert calls < 2 * len(coded.keys), calls


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
    """``ground(p)`` holds the rules of the exhaustive grounding filtered
    by a naive least fixpoint, each once."""
    exhaustive = _ground_exhaustive(p).rules
    derivable = _derivable(exhaustive)
    relevant = {r for r in exhaustive if set(r.pos_body) <= derivable}
    got = ground(p).rules
    assert len(set(got)) == len(got)
    assert set(got) == relevant


def _assert_derivation_order(p):
    """Each positive body atom of an instance heads an earlier one."""
    heads = set()
    for head, pos, _ in _grounder(p)().instances:
        assert heads.issuperset(pos)
        heads.update(head)


def test_grid_instances_come_in_derivation_order():
    inst = gen_related_instance(3)
    _assert_derivation_order(inst.program)
    _assert_derivation_order(dms(inst.query, inst.program))


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_instances_come_in_derivation_order(profile):
    for seed in range(20):
        p = random_program(seed, profile)
        facts = random_edb(p, seed, 0.4, fresh_constants=2, max_facts=12)
        for side in (p, dms(random_query(p, seed), p)):
            _assert_derivation_order(side.with_facts(facts))


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
    keys, masked = _trial_groundings(p, GROUND_CAP_DEFAULT, _number(p, [()]))(0)
    atoms = semantics._decode(p, keys)
    assert (len(masked), atoms, masked) == _search_form_of(ground(p).rules)


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_search_reads_exactly_what_ground_returns(profile):
    # Two fresh constants and up to 12 facts put several rows in the
    # buckets of the argument index.
    for seed in range(30):
        p = random_program(seed, profile)
        facts = random_edb(p, seed, 0.4, fresh_constants=2, max_facts=12)
        for side in (p, dms(random_query(p, seed), p)):
            _assert_search_reads_ground(side.with_facts(facts))


def _assert_keyed_facts_ground_like_with_facts(p, facts):
    """A grounding of ``p`` with ``facts`` passed beside it, in no
    particular order and one of them twice, the repeat as a plain
    ``(predicate, terms)`` pair, equals the grounding of ``p.with_facts``,
    order included, and its cap counts the added facts the same way."""
    added = list(facts)
    added += [tuple(a) for a in added[:1]]
    expected = _grounder(p.with_facts(facts))()
    assert _grounder(p)(_key_order(added)) == expected
    cap = len(expected.instances) - 1
    if cap >= 0:
        with pytest.raises(GroundingTooLarge):
            _grounder(p, cap)(_key_order(added))
        with pytest.raises(GroundingTooLarge):
            _grounder(p.with_facts(facts), cap)()


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_keyed_facts_ground_like_with_facts(profile):
    for seed in range(50):
        p = random_program(seed, profile)
        own = next(r.head[0] for r in p.rules if r.is_fact)
        fact_sets = (
            random_edb(p, seed, 0.3, max_facts=8),
            random_edb(p, seed + 1000, 0.6, fresh_constants=1),
            random_edb(p, seed + 2000, 0.3, max_facts=3) | {own},
        )
        for side in (p, dms(random_query(p, seed), p)):
            for facts in fact_sets:
                _assert_keyed_facts_ground_like_with_facts(side, facts)


def test_keyed_facts_ground_like_with_facts_on_a_nullary_predicate():
    p = parse_program("g(a). p(X) :- g(X), s. q(X) :- g(X), not s. r :- s, not q(b).")
    assert p.predicates["s"] == 0 and "s" in p.edb_predicates
    drawn = [random_edb(p, seed, 0.5) for seed in range(20)]
    assert any(Atom("s") in facts for facts in drawn)
    for facts in drawn:
        for side in (p, dms(parse_query("p(X)?"), p), dms(parse_query("r?"), p)):
            _assert_keyed_facts_ground_like_with_facts(side, facts)


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
    assert answer_query(dms(q, p), q, "brave").substitutions == {
        Substitution((("X", f"v{k}"),)) for k in _reachable(succ, 3)
    }


# ------------------------------------------------------ compiled join plans


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_reused_rules_ground_like_fresh_ones(profile):
    # One grounder grounds the same program under F1, F2, then F1 again;
    # each result must be what a fresh grounder of the extended program
    # gives, whatever pivot plans the earlier groundings built.
    compared = 0
    for seed in range(20):
        p = random_program(seed, profile)
        f1 = random_edb(p, seed, 0.4, fresh_constants=2, max_facts=8)
        f2 = random_edb(p, seed + 1000, 0.4, fresh_constants=2, max_facts=8)
        for side in (p, dms(random_query(p, seed), p)):
            reused = _grounder(side)
            for facts in (f1, f2, f1):
                pf = side.with_facts(facts)
                assert reused(_key_order(facts)) == _grounder(pf)()
            if seed % 4:
                continue
            try:
                oracle = answer_sets_via_unfounded(pf, candidate_cap=1 << 14)
            except CandidateSpaceTooLarge:
                continue  # too many head atoms to enumerate
            assert answer_sets(pf).answer_sets == oracle.answer_sets
            compared += 1
    assert compared >= 3


def _shape(rule):
    """The key of a rule's layout: its atoms, in order."""
    return rule.head, rule.pos_body, rule.neg_body


def _assert_compiled_once(made, p, q):
    """The ``_compile`` lookups ``made`` by a differential check of ``q``
    over ``p`` are one per rule with a positive body of each side, and
    since the cache was cleared each distinct shape was laid out once."""
    expected = [
        _shape(r) for side in (p, dms(q, p)) for r in side.rules if r.pos_body
    ]
    assert sorted(made) == sorted(expected)
    hits, misses, _, size = _compile.cache_info()
    assert misses == size == len(set(expected))
    assert hits == len(expected) - misses


def test_check_equivalence_compiles_each_rule_once(calls, ancestry):
    compiled = calls("_compile")
    for profile in ("stratified", "odd_cycle_free", "arbitrary"):
        p = random_program(3, profile)
        q = random_query(p, 3)
        _compile.cache_clear()
        compiled.clear()
        report = check_equivalence(p, q, trials=4, seed=3)
        assert report.fact_sets_tested == 4
        _assert_compiled_once(compiled, p, q)
    # A union over the cap grounds each trial on its own, through the
    # handle that looked the side up: seed 0's four draws each fit under
    # the cap, their union does not.
    q = parse_query("ancestor(p1,X)?")
    draws = [random_edb(ancestry, t, 0.3) for t in range(4)]
    sides = (ancestry, dms(q, ancestry))
    cap = max(len(ground(s.with_facts(d)).rules) for s in sides for d in draws)
    union = frozenset().union(*draws)
    assert max(len(ground(s.with_facts(union)).rules) for s in sides) > cap
    _compile.cache_clear()
    compiled.clear()
    report = check_equivalence(ancestry, q, 4, 0, 0.3, ground_cap=cap)
    assert report.fact_sets_tested == 4 and report.skipped == ()
    _assert_compiled_once(compiled, ancestry, q)


def test_check_super_consistent_compiles_each_rule_once_per_call(
    calls, choice_with_odd_loop
):
    # 11 fact sets, one grounder per call: each rule with a positive body
    # is looked up once per call, and only the first call lays it out.
    _compile.cache_clear()
    compiled = calls("_compile")
    mine = [_shape(r) for r in choice_with_odd_loop.rules if r.pos_body]
    for call in range(2):
        compiled.clear()
        verdict = check_super_consistent(choice_with_odd_loop, use_shortcut=False)
        assert verdict.sets_tested == 11
        assert sorted(compiled) == sorted(mine)
        hits, misses, _, _ = _compile.cache_info()
        assert (hits, misses) == (call * len(mine), len(mine))


# ------------------------------------------------------------ layout cache


def test_a_warm_layout_cache_grounds_like_a_cold_one():
    # The gate corpus: 3 profiles x 300 seeds x 3 fact sets.  Cold, every
    # grounding and check starts from an empty cache; warm, it finds every
    # layout made, with the plans that other grounders built for other
    # facts.
    seeds = range(300)
    for k, (sides, q, draws) in enumerate(_corpus_checks(seeds, trials=3)):
        seed = seeds[k % len(seeds)]
        for side in sides:
            cold = []
            for _, drawn in draws:
                _compile.cache_clear()
                cold.append(_grounder(side)(_key_order(drawn)))
            made = _compile.cache_info().misses
            warm = [_grounder(side)(_key_order(drawn)) for _, drawn in draws[::-1]]
            assert _compile.cache_info().misses == made
            assert warm[::-1] == cold
        _compile.cache_clear()
        cold = check_equivalence(sides[0], q, 3, seed, 0.3, max_facts=8)
        made = _compile.cache_info().misses
        warm = check_equivalence(sides[0], q, 3, seed, 0.3, max_facts=8)
        assert _compile.cache_info().misses == made
        assert warm._replace(timings_ms=()) == cold._replace(timings_ms=())


def test_rules_equal_as_sets_get_a_layout_per_body_order():
    text = "p(X,Y) :- a(X), b(X,Y), not c(Y).", "p(X,Y) :- b(X,Y), a(X), not c(Y)."
    first, second = (parse_program(t).rules[0] for t in text)
    assert first == second and hash(first) == hash(second)
    layouts = [_compile(*_shape(r)) for r in (first, second)]
    assert layouts[0] is not layouts[1]
    assert [[pred for pred, _ in c.pos] for c in layouts] == [["a", "b"], ["b", "a"]]
    # the same shape in another rule object shares its layout
    again = parse_program(text[0]).rules[0]
    assert _compile(*_shape(again)) is layouts[0]
    # each grounding writes the positive body in its own rule's order
    facts = parse_program("a(k). b(k,m).").rules
    for rule, order in ((first, ["a", "b"]), (second, ["b", "a"])):
        instances = [r for r in ground(Program([rule, *facts])).rules if r.pos_body]
        assert [[a.predicate for a in r.pos_body] for r in instances] == [order]


def test_the_layout_cache_holds_at_most_its_bound():
    _compile.cache_clear()
    n = _LAYOUTS + 100
    p = parse_program(" ".join(f"p{i}(X) :- e(X)." for i in range(n)) + " e(a).")
    grounding = ground(p)
    assert len(grounding.rules) == n + 1
    info = _compile.cache_info()
    assert info.maxsize == _LAYOUTS
    assert (info.misses, info.currsize) == (n, _LAYOUTS)
    # the evicted shapes are laid out again, and ground alike
    assert ground(p).rules == grounding.rules
    assert _compile.cache_info().currsize == _LAYOUTS


RULE_FIELDS = {"head", "pos_body", "neg_body", "_signature", "_atoms"}


def test_grounding_keeps_nothing_on_the_rules():
    # After every route that grounds, a rule holds its fields and its own
    # cached properties only, and so does a copy of it.
    rules = []
    for sides, q, _ in _corpus_checks(range(20), trials=2):
        for side in sides:
            ground(side)
            answer_sets(side)
            answer_query(side, q, "brave")
            answer_query(side, q, "cautious")
            rules += side.rules
        check_equivalence(sides[0], q, trials=2, seed=1, max_facts=8)
    assert any(r.pos_body for r in rules)
    for rule in rules:
        assert set(rule.__dict__) <= RULE_FIELDS, (str(rule), set(rule.__dict__))
        for twin in (copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
            assert twin == rule
            assert set(twin.__dict__) <= RULE_FIELDS


def test_a_single_fact_set_over_the_cap_is_ground_once(calls, ancestry):
    p = ancestry.with_facts(_atoms("related(p1,p2)", "related(p2,p3)"))
    q = parse_query("ancestor(p1,X)?")
    cap = len(ground(p).rules) - 1
    message = f"grounding needs more than {cap} instances"
    groundings = calls("_ground_coded")
    for solve in (
        lambda: answer_query(p, q, "brave", ground_cap=cap),
        lambda: answer_query(p, q, "cautious", ground_cap=cap),
        lambda: answer_sets(p, ground_cap=cap),
    ):
        groundings.clear()
        with pytest.raises(GroundingTooLarge, match=f"^{message}$"):
            solve()
        assert len(groundings) == 1
    # one trial: the plain side trips the cap on its only grounding, and
    # the trial is skipped before the rewriting is ground
    groundings.clear()
    report = check_equivalence(p, q, trials=1, ground_cap=cap)
    assert report.fact_sets_tested == 0
    assert report.skipped == (f"trial 0: {message}",)
    assert len(groundings) == 1


def _corpus_checks(seeds=range(100), trials=3):
    """The checks ``check_equivalence(p, q, trials, seed, 0.3,
    max_facts=8)`` makes on the random programs of every profile, drawn
    as it draws them: both sides, the program and its rewriting, the
    query, and each trial's shared substitution domain and drawn facts."""
    for profile in ("stratified", "odd_cycle_free", "arbitrary"):
        for seed in seeds:
            p = random_program(seed, profile)
            q = random_query(p, seed)
            candidates = _edb_pool(p, 2)
            qconsts = frozenset(t for t in q.atom.args if t.is_constant)
            draws = []
            for t in range(trials):
                drawn = _draw_edb(candidates, seed * 1_000_003 + t, 0.3, 8)
                terms = p.constants.union(*[args for _, args in drawn]) or universe(p)
                draws.append((terms | qconsts, drawn))
            yield (p, dms(q, p)), q, draws


def _corpus(seeds=range(100), trials=3):
    """The trials of :func:`_corpus_checks`, one side at a time: the side,
    the query, the domain and the drawn facts."""
    for sides, q, draws in _corpus_checks(seeds, trials):
        for domain, drawn in draws:
            for side in sides:
                yield side, q, domain, drawn


# A digest of the coded groundings of the corpus, in order, and of every
# answer with its state and instance counts, for brave, cautious and both,
# and the total state count.  A change that only makes the grounder or the
# search cheaper must leave both as they are.
CORPUS_DIGEST = "9a346aa6b2024e50b70a08369f9d8721a4831b05c783b3bb3888142b78163a1a"
CORPUS_STATES = 16956


def test_grounding_and_search_are_unchanged_on_the_corpus():
    digest = hashlib.sha256()
    states = 0
    for side, q, domain, drawn in _corpus():
        coded = _grounder(side)(_key_order(drawn))
        digest.update(repr(coded).encode())
        for modes in (("brave",), ("cautious",), ("brave", "cautious")):
            answers, spent, instances = _trial_answers(
                side, q, modes, GROUND_CAP_DEFAULT, CANDIDATE_CAP_DEFAULT,
                _number(side, [drawn]),
            )(0, domain)
            states += spent
            got = sorted((mode, sorted(subs)) for mode, subs in answers.items())
            digest.update(repr((got, spent, instances)).encode())
    assert (digest.hexdigest(), states) == (CORPUS_DIGEST, CORPUS_STATES)


def _heads(masked):
    heads = 0
    for h, _, _ in masked:
        heads |= h
    return heads


def test_every_relevant_atom_is_derivable_at_the_root():
    # The search starts its upper bound at every head, which is the
    # closure of the masks with nothing assumed true; a grounding cut from
    # the union has holes among its bits, so there the heads are fewer
    # than the keys.
    for side, _, _, drawn in _corpus():
        keys, masked = _trial_groundings(
            side, GROUND_CAP_DEFAULT, _number(side, [drawn])
        )(0)
        assert _closure(masked, 0) == _heads(masked) == (1 << len(keys)) - 1
    for sides, _, draws in _corpus_checks():
        fact_sets = [drawn for _, drawn in draws]
        for side in sides:
            cut = _trial_groundings(side, GROUND_CAP_DEFAULT, _number(side, fact_sets))
            for t in range(len(fact_sets)):
                _, masked = cut(t)
                assert _closure(masked, 0) == _heads(masked)


def _naive_closure(rules, blocked=0, start=0):
    """The reference for ``_closure``: pass over every rule until a whole
    pass adds nothing."""
    i = start
    changed = True
    while changed:
        changed = False
        for h, p, n in rules:
            if p & ~i == 0 and h & ~i and not n & blocked:
                i |= h
                changed = True
    return i


class _Passes(list):
    """A rule list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


_atom_set = st.sets(st.integers(0, 7), max_size=3).map(lambda s: sum(1 << b for b in s))


@given(
    rules=st.lists(st.tuples(_atom_set, _atom_set, _atom_set), max_size=16),
    blocked=st.integers(-(1 << 8), (1 << 8) - 1),
    start=st.integers(0, (1 << 8) - 1),
    rng=st.randoms(use_true_random=False),
)
def test_closure_is_the_repeated_pass_fixpoint(rules, blocked, start, rng):
    # A negative ``blocked`` is how the search passes ``~f``.
    shuffled = list(rules)
    rng.shuffle(shuffled)
    expected = _naive_closure(rules, blocked, start)
    for order in (rules, rules[::-1], shuffled):
        assert _closure(order, blocked, start) == expected


def test_closure_rescans_only_for_a_rule_it_passed_over():
    a, b, c = 1, 2, 4
    # derivation order: one pass, where the repeated-pass fixpoint takes two
    rules = _Passes([(a, 0, 0), (b, a, 0), (c, a | b, 0)])
    assert _closure(rules) == a | b | c and rules.passes == 1
    # b's rule comes before the rule that derives its body, so it fires
    # on the second pass, and a third pass finds c
    rules = _Passes([(c, b, 0), (b, a, 0), (a, 0, 0)])
    assert _closure(rules) == a | b | c and rules.passes == 3
    rules = _Passes([(b, a, 0), (a, 0, 0)])
    assert _closure(rules) == a | b and rules.passes == 2
    # a rule passed over for an atom nothing derives asks for no rescan
    rules = _Passes([(c, b, 0), (a, 0, 0)])
    assert _closure(rules) == a and rules.passes == 1
    # a blocked rule is passed over too, and stays unfired on the rescan
    rules = _Passes([(b, a, c), (a, 0, 0)])
    assert _closure(rules, blocked=c) == a and rules.passes == 2
    # only the atoms a head adds can ask for a rescan, not those it
    # shares with the set
    d = 8
    rules = _Passes([(c, a | b, 0), (a | d, 0, 0)])
    assert _closure(rules, start=a) == a | d and rules.passes == 1


MODES = (("brave",), ("cautious",), ("brave", "cautious"))


def _renumbered(keys, masked):
    """The keys of the heads of ``masked``, and the masks with those
    heads' bits, in order, mapped onto ``0..k-1``.  A grounding cut from
    the union keeps the union's bits, with holes where an atom is not
    derivable in the trial; renumbered, it compares with the trial's own.
    Every bit of a mask must be a head's."""
    heads = _heads(masked)
    bits = [i for i in range(heads.bit_length()) if heads >> i & 1]

    def renumber(m):
        assert m & ~heads == 0
        return sum(1 << new for new, old in enumerate(bits) if m >> old & 1)

    return [keys[i] for i in bits], [tuple(map(renumber, r)) for r in masked]


def _assert_cut_grounds_like_each_trial(side, q, draws):
    """Each trial's grounding cut from the union of ``draws`` has, once its
    bits are renumbered, the instances and keys of the trial's own
    grounding, and answers alike; without a disjunctive rule, whose
    branching follows the instance order, the search takes the same
    states too."""
    fact_sets = [drawn for _, drawn in draws]
    numbered = _number(side, fact_sets)
    cut = _trial_groundings(side, GROUND_CAP_DEFAULT, numbered)
    disjunctive = any(len(r.head) > 1 for r in side.rules)
    for t, (domain, drawn) in enumerate(draws):
        keys, masked = _renumbered(*cut(t))
        own = _trial_groundings(side, GROUND_CAP_DEFAULT, _number(side, [drawn]))(0)
        assert (len(masked), keys) == (len(own[1]), own[0])
        assert sorted(masked) == sorted(own[1])
        for modes in MODES:
            answer = _trial_answers(
                side, q, modes, GROUND_CAP_DEFAULT, CANDIDATE_CAP_DEFAULT, numbered
            )
            got = answer(t, domain)
            expected = _trial_answers(
                side, q, modes, GROUND_CAP_DEFAULT, CANDIDATE_CAP_DEFAULT,
                _number(side, [drawn]),
            )(0, domain)
            assert (got[0], got[2]) == (expected[0], expected[2])
            if not disjunctive:
                assert got[1] == expected[1]


def test_a_grounding_cut_from_the_union_is_the_trials_own():
    for sides, q, draws in _corpus_checks():
        for side in sides:
            _assert_cut_grounds_like_each_trial(side, q, draws)


def test_a_cross_product_cut_from_the_union_is_the_trials_own():
    # The body joins two unrelated atoms, so the union of the draws can
    # ground more instances than all the trials together.
    p = parse_program("p(X,Y) :- e(X), e(Y), not q(X).")
    candidates = _edb_pool(p, 3)
    larger = 0
    for seed in range(10):
        draws = []
        for t in range(4):
            drawn = _draw_edb(candidates, seed * 1_000_003 + t, 0.4, None)
            terms = p.constants.union(*[args for _, args in drawn]) or universe(p)
            draws.append((terms, drawn))
        union = {f for _, drawn in draws for f in drawn}
        grounder = _grounder(p)
        own = sum(len(grounder(_key_order(d)).instances) for _, d in draws)
        larger += len(grounder(_key_order(union)).instances) > own
        for text in ("p(X,Y)?", "p(X,X)?", "p(f1,Y)?"):
            q = parse_query(text)
            for side in (p, dms(q, p)):
                _assert_cut_grounds_like_each_trial(side, q, draws)
    assert larger


def test_semantics_does_not_import_the_rewriter():
    tree = ast.parse(Path(semantics.__file__).read_text())
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert "rewriter" not in imported


# ------------------------------------------------------------------ reduct
#
# The reduct and the model test are the textbook definitions, kept here as
# an independent check of the answer sets' minimality; the solver never
# builds a reduct as rules.


def _reduct(rules, i):
    """The reduct of ground ``rules`` by ``i``: rules whose negative body
    meets ``i`` are dropped, the negative bodies of the rest are stripped."""
    return [
        Rule(r.head, r.pos_body) for r in rules if not any(a in i for a in r.neg_body)
    ]


def _is_model(i, rules):
    """Whether every ground rule with a true body has a true head atom."""
    return all(
        any(a in i for a in r.head)
        for r in rules
        if all(a in i for a in r.pos_body) and not any(a in i for a in r.neg_body)
    )


def test_reduct_drops_blocked_rules_and_strips_negation(guarded_pair):
    g = ground(guarded_pair).rules
    assert {str(r) for r in _reduct(g, _atoms("a"))} == {"a v b."}
    assert {str(r) for r in _reduct(g, frozenset())} == {"a v b.", "a."}


def test_is_model_examples(guarded_pair):
    g = ground(guarded_pair).rules
    assert _is_model(_atoms("a"), g)
    assert _is_model(_atoms("a", "b"), g)
    assert not _is_model(frozenset(), g)  # disjunctive rule unsatisfied


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
        g = ground(p).rules
        for m in answer_sets(p).answer_sets:
            red = _reduct(g, m)
            assert _is_model(m, red)
            atoms = sorted(m)
            for k in range(len(atoms)):
                for subset in combinations(atoms, k):
                    assert not _is_model(frozenset(subset), red), (seed, subset)
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


def test_a_long_body_grounds_without_recursing_per_atom():
    # The join walks a 300-atom body; under a stack limit far below that,
    # only a join that does not recurse per body atom grounds the rule.
    body = ", ".join(f"e{i}(X)" for i in range(300))
    p = parse_program(f"p(X) :- {body}. " + " ".join(f"e{i}(a)." for i in range(300)))
    q = parse_query("p(a)?")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 120)
    try:
        assert len(ground(p).rules) == 301
        for side in (p, dms(q, p)):
            assert answer_query(side, q, "brave").substitutions == {Substitution()}
        report = check_equivalence(p, q, trials=2)
    finally:
        sys.setrecursionlimit(limit)
    assert report.ok and report.fact_sets_tested == 2


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
    assert answer_query(p, q, "brave").substitutions == {
        Substitution((("X", "p2"),))
    }
    assert answer_query(p, q, "cautious").substitutions == frozenset()


def test_ground_query_uses_the_identity_substitution(choice_with_odd_loop):
    p, q = choice_with_odd_loop, parse_query("p(a)?")
    assert answer_query(p, q, "brave").substitutions == {Substitution()}
    assert answer_query(p, q, "cautious").substitutions == {Substitution()}
    assert answer_query(p, parse_query("q(a)?"), "brave").substitutions == frozenset()


def test_inconsistent_programs_flip_the_conventions():
    p = parse_program("e(a). e(b). bad :- not bad.")
    q = parse_query("e(X)?")
    assert answer_query(p, q, "brave").substitutions == frozenset()
    assert answer_query(p, q, "cautious").substitutions == {
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


def test_brave_variable_queries_stop_once_every_candidate_is_witnessed():
    inst = gen_related_instance(3)
    q = parse_query("ancestor(p_1_1,X)?")
    for target in (inst.program, dms(q, inst.program)):
        full = answer_sets(target)
        answer = answer_query(target, q, "brave")
        assert answer.substitutions == substitutions_brave(full, q, universe(target))
        assert len(answer.substitutions) == 8
        # full enumeration: 12287 states plain, 1154 rewritten; the
        # directed search takes 95 and 38
        assert full.candidates_examined in (12287, 1154)
        assert answer.candidates_examined * 25 < full.candidates_examined


def test_grid_4_brave_variable_query_stays_under_a_small_cap():
    inst = gen_related_instance(4)
    q = parse_query("ancestor(p_1_1,X)?")
    others = {
        Substitution((("X", f"p_{i}_{j}"),))
        for i in range(1, 5) for j in range(1, 5) if (i, j) != (1, 1)
    }
    for target in (inst.program, dms(q, inst.program)):
        answer = answer_query(target, q, "brave", candidate_cap=2000)
        assert answer.substitutions == others


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
                assert got.candidates_examined <= report.candidates_examined
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_brave_variable_queries_match_full_enumeration(profile):
    # The directed search visits a subset of the nodes of full
    # enumeration, in the same order.
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
                assert got.candidates_examined <= report.candidates_examined
                assert got.ground_rules == report.ground_rules
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_one_search_answers_both_modes(profile):
    # The search of the differential check: both modes at once, on both
    # sides, with sampled facts.  It keeps every node that either mode
    # keeps alone, so it still visits a subset of full enumeration's.
    modes = ("brave", "cautious")
    checked = oracle_checked = 0
    for seed in range(30):
        p = random_program(seed, profile)
        q = random_query(p, seed)
        facts = random_edb(p, seed, 0.3, max_facts=8)
        open_q = Query(Atom(q.atom.predicate, tuple(
            var(f"V{i}") for i in range(q.atom.arity)
        )))
        for side in (p, dms(q, p)):
            side = side.with_facts(facts)
            report = answer_sets(side)
            if seed % 4 == 0:
                try:
                    oracle = answer_sets_via_unfounded(side, candidate_cap=1 << 14)
                except CandidateSpaceTooLarge:
                    pass  # too many head atoms to enumerate
                else:
                    assert report.answer_sets == oracle.answer_sets, seed
                    oracle_checked += 1
            domain = universe(side) | {t for t in q.atom.args if t.is_constant}
            for query in {q, open_q}:
                answers, states, rules = _trial_answers(
                    side, query, modes, GROUND_CAP_DEFAULT, CANDIDATE_CAP_DEFAULT,
                    _number(side, [()]),
                )(0, domain)
                assert answers == {
                    "brave": substitutions_brave(report, query, domain),
                    "cautious": substitutions_cautious(report, query, domain),
                }, (seed, str(query))
                for mode in modes:
                    single = answer_query(side, query, mode, domain=domain)
                    assert answers[mode] == single.substitutions, (seed, mode)
                assert states <= report.candidates_examined
                assert rules == report.ground_rules
                checked += 1
    assert checked > 100
    assert oracle_checked >= 8


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
    a = const("a")
    for text, every in (
        ("e(a)?", {Substitution()}),
        ("e(b)?", {Substitution()}),
        ("bad?", {Substitution()}),
        ("e(X)?", {Substitution.of({"X": a})}),
        # nothing derives p, so no candidate stands for these instances
        ("p(X,Y)?", {Substitution.of({"X": a, "Y": a})}),
    ):
        q = parse_query(text)
        assert answer_query(p, q, "cautious").substitutions == every
        assert answer_query(p, q, "brave").substitutions == frozenset()


def test_answer_sets_repeat_the_grid_3_counts():
    inst = gen_related_instance(3)
    for target, sets, states in (
        (inst.program, 4096, 12287),
        (dms(inst.query, inst.program), 385, 1154),
    ):
        report = answer_sets(target)
        assert (len(report.answer_sets), report.candidates_examined) == (sets, states)
    # the directed search decides the corner query in a few states, on
    # grid 3 and on grid 6, whose full enumeration is out of reach
    for n, mode, holds, plain, rewritten in (
        (3, "brave", True, 18, 12),
        (3, "cautious", False, 14, 4),
        (6, "brave", True, 72, 27),
        (6, "cautious", False, 62, 4),
    ):
        inst = gen_related_instance(n)
        for target, states in (
            (inst.program, plain),
            (dms(inst.query, inst.program), rewritten),
        ):
            answer = answer_query(target, inst.query, mode)
            assert bool(answer.substitutions) is holds
            assert answer.candidates_examined == states, (n, mode)


def test_each_search_bound_is_closed_again_only_when_its_assumptions_change(calls):
    # ``possible`` depends on the atoms assumed true alone and ``cert`` on
    # those assumed false alone, so a child keeps the bound its branch
    # leaves as it was; the states are those pinned above.
    closures = calls("_closure")
    for n, mode, plain, rewritten in (
        (3, "brave", 29, 17),
        (3, "cautious", 25, 5),
        (6, "brave", 131, 41),
        (6, "cautious", 121, 5),
    ):
        inst = gen_related_instance(n)
        for target, expected in (
            (inst.program, plain),
            (dms(inst.query, inst.program), rewritten),
        ):
            closures.clear()
            answer_query(target, inst.query, mode)
            assert len(closures) == expected, (n, mode)


def _lines_run(code, call):
    """The number of lines of the function with code object ``code`` that
    ``call()`` executes, counted by :func:`sys.settrace` in that
    function's frames alone."""
    count = 0

    def line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return line

    def enter(frame, event, arg):
        return line if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def test_grounding_and_rewriting_a_chain_take_linear_work():
    # Each grounding round visits the readers of what grew, and each
    # adorned predicate the rules defining it, so a 4n-rule chain takes
    # about 4 times the lines of an n-rule one, on any Python version.
    lines = []
    for n in (50, 200):
        p = parse_program("p0. " + " ".join(f"p{i} :- p{i - 1}." for i in range(1, n)))
        q = parse_query(f"p{n - 1}?")
        lines.append((
            _lines_run(semantics._ground_coded.__code__, _grounder(p)),
            _lines_run(dms_with_details.__code__, lambda: dms_with_details(q, p)),
        ))
    for small, large in zip(*lines):
        assert large <= 4.5 * small, lines


STRATEGIC_COMPANIES = """
strategic(C1) v strategic(C2) :- produced_by(P,C1,C2).
strategic(W) :- controlled_by(W,X,Y), strategic(X), strategic(Y).
produced_by(p0,c0,c1). produced_by(p1,c1,c2). produced_by(p2,c2,c3).
produced_by(p3,c3,c4). produced_by(p4,c4,c5). produced_by(p5,c5,c6).
produced_by(p6,c6,c7). produced_by(p7,c7,c0). produced_by(p8,c0,c4).
produced_by(p9,c1,c5). produced_by(p10,c2,c6). produced_by(p11,c3,c7).
produced_by(p12,c0,c2). produced_by(p13,c1,c3). produced_by(p14,c4,c6).
produced_by(p15,c5,c7).
controlled_by(c0,c3,c5). controlled_by(c2,c4,c7).
controlled_by(c5,c1,c6). controlled_by(c7,c0,c1).
"""


def test_strategic_companies_repeat_their_state_counts():
    # No negation, so the search has one leaf and every state is a step
    # of the minimal-model walk over the disjunctive rules.
    p = parse_program(STRATEGIC_COMPANIES)
    q = parse_query("strategic(c0)?")
    for target, states in ((p, 66), (dms(q, p), 46)):
        report = answer_sets(target)
        assert (len(report.answer_sets), report.candidates_examined) == (4, states)
        for mode, holds in (("brave", True), ("cautious", False)):
            answer = answer_query(target, q, mode)
            assert bool(answer.substitutions) is holds
            assert answer.candidates_examined == states


def test_rewritten_grid_3_with_sampled_facts_answers_cautiously():
    # The search branches first on atoms that head an applicable rule, so
    # on the rewritten side it meets a model without the corner atom
    # early instead of walking through thousands that hold it.
    inst = gen_related_instance(3)
    facts = random_edb(inst.program, 0, 0.3)
    for target in (inst.program, dms(inst.query, inst.program)):
        pf = target.with_facts(facts)
        for mode, holds in (("cautious", frozenset()), ("brave", {Substitution()})):
            answer = answer_query(pf, inst.query, mode, candidate_cap=1000)
            assert answer.substitutions == holds


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
    killed_p = killed_atoms(m_p, m_p, q, choice_with_odd_loop)
    killed_q = killed_atoms(m_q, m_q, q, choice_with_odd_loop)
    assert killed_p == _atoms("q(a)")
    assert killed_q == _atoms("p(a)")
    for killed, m in ((killed_p, m_p), (killed_q, m_q)):
        restriction = frozenset(
            a for a in m if a.predicate in choice_with_odd_loop.predicates
        )
        assert is_unfounded_set(killed, choice_with_odd_loop, restriction)


def test_killed_atoms_requires_containment(choice_with_odd_loop):
    with pytest.raises(ValueError, match="contained"):
        killed_atoms(
            frozenset(), _atoms("edb(a)"), parse_query("q(a)?"), choice_with_odd_loop
        )


def test_killed_atoms_include_extensional_gaps():
    p = parse_program("e(a). f(b). p(X) :- e(X).")
    rewritten = dms(parse_query("p(a)?"), p)
    (m,) = answer_sets(rewritten).answer_sets
    killed = killed_atoms(m, m, parse_query("p(a)?"), p)
    # absent extensional instances are always killed; p(b) has no true
    # magic atom and stays unknown
    assert killed == _atoms("e(b)", "f(a)")


def _killed_by_decoding_names(m, n, p):
    """:func:`killed_atoms` by its definition, reading each magic atom of
    ``n`` back into the predicate and adornment its name encodes."""
    if not n <= m:
        raise ValueError("n must be contained in m")
    lookup = defaultdict(set)
    for atom in n:
        decoded = split_magic_name(atom.predicate)
        if decoded is not None:
            lookup[decoded].add(atom.args)

    def covered(atom):
        return any(
            pred == atom.predicate
            and len(adornment) == atom.arity
            and tuple(a for a, l in zip(atom.args, adornment) if l == "b") in seen
            for (pred, adornment), seen in lookup.items()
        )

    return frozenset(
        a for a in base(p) - n if a.predicate in p.edb_predicates or covered(a)
    )


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_killed_atoms_equal_the_name_decoding_reference(profile):
    # Every answer set of the rewriting, against itself and against every
    # other atom of it; the killed sets must reach past the extensional gaps.
    compared = by_magic = 0
    for seed in range(20):
        p = random_program(seed, profile)
        q = random_query(p, seed)
        pf = p.with_facts(random_edb(p, seed, 0.3, max_facts=4))
        for w in answer_sets(dms(q, pf)).answer_sets:
            for n in (w, frozenset(sorted(w)[::2])):
                expected = _killed_by_decoding_names(w, n, pf)
                assert killed_atoms(w, n, q, pf) == expected, (seed, sorted(n))
                compared += 1
                by_magic += any(a.predicate in pf.idb_predicates for a in expected)
    # 56, 42 and 32 comparisons by profile; 49, 32 and 30 of them by magic
    assert compared >= 20 and by_magic >= 10, (compared, by_magic)


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


def _magic_variant_over_the_whole_universe(i, q, p):
    """:func:`magic_variant` by its definition: the same fixpoint over
    every instance of the rewriting's magic rules, derivable or not."""
    details = dms_with_details(q, p)
    magic_ground = [
        r
        for r in _ground_exhaustive(details.program).rules
        if split_magic_name(r.head[0].predicate) is not None and len(r.head) == 1
    ]
    v = {r.head[0] for r in details.edb_rules}
    while True:
        additions = {
            a
            for a in i - v
            for ap in details.adorned
            if ap.predicate == a.predicate
            and len(ap.adornment) == a.arity
            and magic_atom(ap, a.args) in v
        }
        additions |= {
            r.head[0]
            for r in magic_ground
            if r.head[0] not in v and all(a in v for a in r.pos_body)
        }
        if not additions:
            return frozenset(v)
        v |= additions


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_magic_variant_equals_the_whole_universe_fixpoint(profile):
    # Every answer set of the program with sampled facts, and the
    # restriction to its predicates of every answer set of the rewriting.
    compared = 0
    for seed in range(20):
        p = random_program(seed, profile)
        q = random_query(p, seed)
        pf = p.with_facts(random_edb(p, seed, 0.3, max_facts=4))
        rewritten = answer_sets(dms(q, pf)).answer_sets
        sides = [
            *answer_sets(pf).answer_sets,
            *(frozenset(a for a in w if a.predicate in pf.predicates)
              for w in rewritten),
        ]
        for i in sides:
            expected = _magic_variant_over_the_whole_universe(i, q, pf)
            assert magic_variant(i, q, pf) == expected, (seed, sorted(i))
            compared += 1
    assert compared >= 20  # 56, 44 and 30 interpretations by profile


@pytest.mark.parametrize("text, query", [
    ("a :- not b. b :- not a. c :- a.", "c?"),  # 0-ary
    ("edb(a). q(X) v p(X) :- edb(X). co(X) :- q(X), not co(X).", "q(a)?"),
    ("e(a,b). e(b,c). t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y).", "e(a,X)?"),
    ("e(a,b). e(b,c). t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y).", "t(zz,X)?"),
    # a query predicate the program does not use takes any arity
    ("e(a). p(X) :- e(X).", "z(a,b)?"),
])
def test_lifting_equals_the_references_on_corner_cases(text, query):
    p, q = parse_program(text), parse_query(query)
    rewritten = answer_sets(dms(q, p)).answer_sets
    for i in answer_sets(p).answer_sets:
        assert magic_variant(i, q, p) == _magic_variant_over_the_whole_universe(i, q, p)
    for w in rewritten:
        assert killed_atoms(w, w, q, p) == _killed_by_decoding_names(w, w, p)


@pytest.mark.parametrize("query", ["e(a,b)?", "p(a,b)?"])
def test_lifting_rejects_a_query_at_another_arity(query):
    # an extensional query predicate as well as an intensional one
    p, q = parse_program("e(a). p(X) :- e(X)."), parse_query(query)
    (i,) = answer_sets(p).answer_sets
    message = f"has 2 arguments, but {query[0]} has arity 1 in the program$"
    with pytest.raises(ProgramError, match=message):
        dms_with_details(q, p)
    with pytest.raises(ProgramError, match=message):
        magic_variant(i, q, p)
    with pytest.raises(ProgramError, match=message):
        killed_atoms(i, i, q, p)


def test_the_pipeline_never_grounds_exhaustively(monkeypatch, ancestry):
    def refuse(*args, **kwargs):
        raise AssertionError("exhaustive grounding outside the oracles")

    monkeypatch.setattr(oracle, "_ground_exhaustive", refuse)
    p = ancestry.with_facts([Atom("related", (const("p1"), const("p2")))])
    q = parse_query("ancestor(p1,p2)?")
    assert len(ground(p).rules) == 4
    brother = _atoms("related(p1,p2)", "brother(p1,p2)")
    (m,) = answer_sets(p).answer_sets - {brother}
    assert answer_query(p, q, "brave").substitutions == {Substitution()}
    assert sorted(str(a) for a in magic_variant(m, q, p)) == FROZEN_VARIANT
    with pytest.raises(AssertionError, match="outside the oracles"):
        is_unfounded_set(frozenset(), p, m)


def test_answering_decodes_no_atom(monkeypatch, ancestry, choice_with_odd_loop):
    # The query is matched against coded atoms; only ``answer_sets`` and
    # ``ground`` build atoms from the grounding.
    def refuse(*args, **kwargs):
        raise AssertionError("decoded atoms while answering")

    monkeypatch.setattr(semantics, "_decode", refuse)
    p = ancestry.with_facts(_atoms("related(p1,p2)", "related(p2,p3)"))
    yes = Substitution()
    x2, x3 = (Substitution((("X", c),)) for c in ("p2", "p3"))
    for text, mode, expected in [
        ("ancestor(p1,p3)?", "brave", {yes}),
        ("ancestor(p1,p3)?", "cautious", set()),
        ("ancestor(p1,X)?", "brave", {x2, x3}),
        ("ancestor(p1,X)?", "cautious", set()),
        ("related(p1,X)?", "cautious", {x2}),
    ]:
        q = parse_query(text)
        for side in (p, dms(q, p)):
            assert answer_query(side, q, mode).substitutions == expected, (text, mode)
    q = parse_query("ancestor(p1,X)?")
    assert check_equivalence(ancestry, q, trials=3).fact_sets_tested == 3
    verdict = check_super_consistent(choice_with_odd_loop, use_shortcut=False)
    assert verdict.counterexample == _atoms("q(a)")
    with pytest.raises(AssertionError, match="decoded atoms"):
        answer_sets(p)
