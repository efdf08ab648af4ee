"""Binding strategy, adornment and the assembled rewriting.

The ancestry program doubles as the reference input: its rewriting has a
known shape down to each magic rule, which pins the binding strategy's
choice of which body atoms pass bindings on.
"""

import pytest

from aspmagic import (
    AdornedPredicate,
    ProgramError,
    Program,
    ReservedPredicateError,
    Sips,
    adorn,
    answer_sets,
    build_query_seed,
    check_equivalence,
    const,
    default_sips,
    dms,
    dms_with_details,
    generate,
    magic_atom,
    modify,
    parse_program,
    parse_query,
    random_program,
    random_query,
    split_magic_name,
    universe,
    var,
)


def _rule(p, idx):
    return p.rules[idx]


# ancestry rule positions: 0 father, 1 brother, 2 ancestor base, 3 ancestor step


def test_default_sips_head_binds_everything_when_fully_bound(ancestry):
    father_rule = _rule(ancestry, 0)
    s = default_sips(father_rule, father_rule.head[0], "bb")
    related, brother = father_rule.pos_body[0], father_rule.neg_body[0]
    assert s.bound_vars(s.selected) == {"X", "Y"}
    assert s.precedes(s.selected, related)
    assert s.precedes(s.selected, brother)
    # with both variables bound by the head, related contributes nothing
    assert not s.precedes(related, brother)


def test_default_sips_body_source_used_when_needed(ancestry):
    father_rule = _rule(ancestry, 0)
    s = default_sips(father_rule, father_rule.head[0], "bf")
    related, brother = father_rule.pos_body[0], father_rule.neg_body[0]
    assert s.bound_vars(s.selected) == {"X"}
    assert s.precedes(related, brother)  # related now supplies Y
    assert s.bound_vars(related) == {"X", "Y"}
    assert s.bound_vars(brother) == frozenset()


def test_default_sips_chains_through_positive_body(ancestry):
    step = _rule(ancestry, 3)  # ancestor(X,Y) :- father(X,Z), ancestor(Z,Y).
    s = default_sips(step, step.head[0], "bb")
    father_atom, ancestor_atom = step.pos_body
    assert s.precedes(father_atom, ancestor_atom)
    assert not s.precedes(ancestor_atom, father_atom)


def test_sips_rejects_passive_atoms_as_sources(ancestry):
    father_rule = _rule(ancestry, 0)
    brother = father_rule.neg_body[0]
    with pytest.raises(ProgramError, match="may not precede"):
        Sips(
            rule=father_rule,
            selected=father_rule.head[0],
            after={
                father_rule.head[0]: frozenset(father_rule.atoms()[1:]),
                brother: frozenset({father_rule.pos_body[0]}),
            },
            bound={},
        )


def test_sips_requires_selected_head_first(ancestry):
    father_rule = _rule(ancestry, 0)
    with pytest.raises(ProgramError, match="selected head"):
        Sips(rule=father_rule, selected=father_rule.head[0], after={}, bound={})


def test_sips_requires_transitivity():
    p = parse_program("h(X) :- e(X,Y), f(Y,Z), g(Z).")
    rule = p.rules[0]
    e, f, g = rule.pos_body
    with pytest.raises(ProgramError, match="transitive"):
        Sips(
            rule=rule,
            selected=rule.head[0],
            after={
                rule.head[0]: frozenset((e, f, g)),
                e: frozenset({f}),
                f: frozenset({g}),
            },
            bound={},
        )


def test_default_sips_closure_keeps_chains_ordered():
    p = parse_program("h(X) :- e(X,Y), f(Y,Z), g(Z).")
    rule = p.rules[0]
    e, f, g = rule.pos_body
    s = default_sips(rule, rule.head[0], "b")
    assert s.precedes(e, f) and s.precedes(f, g)
    assert s.precedes(e, g)  # forced by transitivity


def test_adorn_marks_bound_positions(ancestry):
    step = _rule(ancestry, 3)
    idb = ancestry.idb_predicates
    ap = AdornedPredicate("ancestor", "bb")
    s = default_sips(step, step.head[0], "bb")
    ra = adorn(step, ap, step.head[0], s, idb)
    father_atom, ancestor_atom = step.pos_body
    assert ra.adornment_of(father_atom) == "bf"
    assert ra.adornment_of(ancestor_atom) == "bb"  # Z flows in from father


def test_adorn_skips_extensional_atoms(ancestry):
    father_rule = _rule(ancestry, 0)
    s = default_sips(father_rule, father_rule.head[0], "bb")
    ra = adorn(
        father_rule, AdornedPredicate("father", "bb"), father_rule.head[0],
        s, ancestry.idb_predicates,
    )
    assert ra.adornment_of(father_rule.pos_body[0]) is None  # related is EDB
    assert ra.adornment_of(father_rule.neg_body[0]) == "bb"


def test_generate_golden_rules_for_the_recursive_step(ancestry):
    step = _rule(ancestry, 3)
    s = default_sips(step, step.head[0], "bb")
    ra = adorn(step, AdornedPredicate("ancestor", "bb"), step.head[0], s,
               ancestry.idb_predicates)
    produced = {str(r) for r in generate(ra, s)}
    assert produced == {
        "magic_father_bf(X) :- magic_ancestor_bb(X,Y).",
        "magic_ancestor_bb(Z,Y) :- magic_ancestor_bb(X,Y), father(X,Z).",
    }


def test_modify_prepends_magic_guards(ancestry):
    father_rule = _rule(ancestry, 0)
    s = default_sips(father_rule, father_rule.head[0], "bf")
    ra = adorn(father_rule, AdornedPredicate("father", "bf"), father_rule.head[0],
               s, ancestry.idb_predicates)
    assert str(modify(ra)) == (
        "father(X,Y) :- magic_father_bf(X), related(X,Y), not brother(X,Y)."
    )


GOLDEN_MAGIC = """
magic_father_bb(X,Y) :- magic_ancestor_bb(X,Y).
magic_father_bf(X) :- magic_ancestor_bb(X,Y).
magic_ancestor_bb(Z,Y) :- magic_ancestor_bb(X,Y), father(X,Z).
magic_brother_bb(X,Y) :- magic_father_bb(X,Y).
magic_brother_bb(X,Y) :- magic_father_bf(X), related(X,Y).
magic_father_bb(X,Y) :- magic_brother_bb(X,Y).
"""

GOLDEN_MODIFIED = """
ancestor(X,Y) :- magic_ancestor_bb(X,Y), father(X,Y).
ancestor(X,Y) :- magic_ancestor_bb(X,Y), father(X,Z), ancestor(Z,Y).
father(X,Y) :- magic_father_bb(X,Y), related(X,Y), not brother(X,Y).
father(X,Y) :- magic_father_bf(X), related(X,Y), not brother(X,Y).
brother(X,Y) :- magic_brother_bb(X,Y), related(X,Y), not father(X,Y).
"""


def test_dms_reproduces_the_reference_rewriting(ancestry):
    d = dms_with_details(parse_query("ancestor(p1,p2)?"), ancestry)
    assert str(d.seed) == "magic_ancestor_bb(p1,p2)."
    assert set(d.magic_rules) == {d.seed, *parse_program(GOLDEN_MAGIC).rules}
    assert len(d.magic_rules) == 7
    assert set(d.modified_rules) == set(parse_program(GOLDEN_MODIFIED).rules)
    assert len(d.modified_rules) == 5
    assert d.adorned == {
        AdornedPredicate("ancestor", "bb"),
        AdornedPredicate("father", "bb"),
        AdornedPredicate("father", "bf"),
        AdornedPredicate("brother", "bb"),
    }


def test_dms_with_absent_query_constants_is_exactly_the_papers_rewriting(ancestry):
    q = parse_query("ancestor(p1,p2)?")
    p = ancestry.with_facts(parse_program("related(p3,p4).").rules[0].head)
    d = dms_with_details(q, p)
    assert [str(r) for r in d.edb_rules] == ["related(p3,p4)."]
    assert d.program.rules == (*d.magic_rules, *d.modified_rules, *d.edb_rules)
    # the seed alone carries the query's constants into the universe
    assert {const("p1"), const("p2")} <= universe(d.program)
    assert check_equivalence(p, q, 3, 0, 0.3, max_facts=6).ok
    with_fact = ancestry.with_facts(parse_program("related(p1,p2).").rules[0].head)
    d2 = dms_with_details(q, with_fact)
    assert [str(r) for r in d2.edb_rules] == ["related(p1,p2)."]


def test_dms_on_choice_program_matches_printed_form(choice_with_odd_loop):
    rewritten = dms(parse_query("q(a)?"), choice_with_odd_loop)
    assert rewritten == parse_program("""
        edb(a).
        magic_q_b(a).
        magic_p_b(X) :- magic_q_b(X).
        magic_q_b(X) :- magic_p_b(X).
        q(X) v p(X) :- magic_q_b(X), magic_p_b(X), edb(X).
    """)


def test_dms_is_deterministic(ancestry):
    q = parse_query("ancestor(p1,p2)?")
    assert dms(q, ancestry).rules == dms(q, ancestry).rules


def test_extensional_query_keeps_facts_and_seed():
    p = parse_program("e(a). e(b). p(X) :- e(X).")
    d = dms_with_details(parse_query("e(b)?"), p)
    assert str(d.seed) == "magic_e_b(b)."
    assert d.modified_rules == ()
    assert d.program == parse_program("magic_e_b(b). e(a). e(b).")


def test_query_seed_of_an_extensional_predicate():
    p = parse_program("e(a). p(X) :- e(X).")
    seed = build_query_seed(parse_query("e(a)?"))
    assert str(seed) == "magic_e_b(a)."
    assert dms_with_details(parse_query("e(a)?"), p).seed == seed


def test_seed_adornment_mixes_bound_and_free():
    seen: set[AdornedPredicate] = set()
    seed = build_query_seed(parse_query("p(a,Y)?"), seen)
    assert str(seed) == "magic_p_bf(a)."
    assert seen == {AdornedPredicate("p", "bf")}


def test_reserved_namespace_is_refused():
    p = parse_program("magic_p_b(a). q(X) :- magic_p_b(X).")
    with pytest.raises(ReservedPredicateError, match="magic_p_b"):
        dms(parse_query("q(a)?"), p)


def test_split_magic_name_round_trip():
    for pred, adornment in [("anc", "bbf"), ("p", ""), ("x_y", "b")]:
        name = AdornedPredicate(pred, adornment).magic_name
        assert split_magic_name(name) == (pred, adornment)
    assert split_magic_name("ancestor") is None
    assert split_magic_name("magic_") is None
    assert split_magic_name("magic_p_c") is None  # not a b/f string
    with pytest.raises(ProgramError, match="^bad adornment 'bx'$"):
        AdornedPredicate("p", "bx")


def test_magic_atom_keeps_bound_positions_only():
    ap = AdornedPredicate("anc", "bfb")
    a = magic_atom(ap, (var("X"), var("Y"), var("Z")))
    assert str(a) == "magic_anc_bfb(X,Z)"
    with pytest.raises(ProgramError, match="does not fit"):
        magic_atom(ap, (var("X"),))


def test_zero_arity_rewriting_answers_like_the_original():
    p = parse_program("win :- not lose. lose :- not win.")
    q = parse_query("win?")
    rewritten = dms(q, p)
    assert any(r.head[0].predicate == "magic_win_" for r in rewritten.rules)
    original_brave = any(
        q.atom in m for m in answer_sets(p).answer_sets
    )
    rewritten_brave = any(
        q.atom in m for m in answer_sets(rewritten).answer_sets
    )
    assert original_brave == rewritten_brave is True


@pytest.mark.parametrize("seed", range(12))
def test_generated_rewrites_are_well_formed(seed):
    p = random_program(seed, "odd_cycle_free")
    q = random_query(p, seed)
    d = dms_with_details(q, p)
    edb = p.edb_predicates
    for r in d.magic_rules:
        assert len(r.head) == 1
        assert split_magic_name(r.head[0].predicate) is not None
    for r in d.modified_rules:
        guards = r.pos_body[: len(r.head)]
        for h, g in zip(r.head, guards):
            decoded = split_magic_name(g.predicate)
            assert decoded is not None and decoded[0] == h.predicate
        assert all(h.predicate not in edb for h in r.head)
