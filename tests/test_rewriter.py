"""Binding strategy, adornment and the assembled rewriting.

The ancestry program doubles as the reference input: its rewriting has a
known shape down to each magic rule, which pins the binding strategy's
choice of which body atoms pass bindings on.
"""

import random
from itertools import product

import pytest

from aspmagic import (
    AdornedPredicate,
    Atom,
    ProgramError,
    Program,
    ReservedPredicateError,
    Rule,
    answer_sets,
    check_equivalence,
    const,
    dms,
    dms_with_details,
    magic_atom,
    parse_program,
    parse_query,
    random_program,
    random_query,
    split_magic_name,
    universe,
    var,
)
from aspmagic import rewriter


def _ancestry_rewriting(ancestry):
    return dms_with_details(parse_query("ancestor(p1,p2)?"), ancestry)


def _texts(rules):
    return {str(r) for r in rules}


# father(X,Y) :- related(X,Y), not brother(X,Y). is reached as father^bb
# from the base rule and as father^bf from the recursive step


def test_default_sips_head_binds_everything_when_fully_bound(ancestry):
    magic = _texts(_ancestry_rewriting(ancestry).magic_rules)
    # with both variables bound by the head, related passes nothing on
    assert "magic_brother_bb(X,Y) :- magic_father_bb(X,Y)." in magic


def test_default_sips_body_source_used_when_needed(ancestry):
    magic = _texts(_ancestry_rewriting(ancestry).magic_rules)
    # under father^bf, related supplies Y
    assert "magic_brother_bb(X,Y) :- magic_father_bf(X), related(X,Y)." in magic


def test_default_sips_chains_through_positive_body(ancestry):
    magic = _texts(_ancestry_rewriting(ancestry).magic_rules)
    # ancestor(X,Y) :- father(X,Z), ancestor(Z,Y). under ancestor^bb:
    # father feeds ancestor, never the other way round
    assert "magic_ancestor_bb(Z,Y) :- magic_ancestor_bb(X,Y), father(X,Z)." in magic
    assert "magic_father_bf(X) :- magic_ancestor_bb(X,Y)." in magic


def test_default_sips_closure_keeps_chains_ordered():
    p = parse_program("h(X) :- e(X,Y), f(Y,Z), g(Z). g(Z) :- d(Z).")
    d = dms_with_details(parse_query("h(a)?"), p)
    # f feeds g directly, and e comes along because it feeds f
    assert [str(r) for r in d.magic_rules] == [
        "magic_h_b(a).",
        "magic_g_b(Z) :- magic_h_b(X), e(X,Y), f(Y,Z).",
    ]


def test_adorn_marks_bound_positions(ancestry):
    adorned = _ancestry_rewriting(ancestry).adorned
    # in the recursive step, father gets X from the head, and ancestor gets
    # Z from father
    assert AdornedPredicate("father", "bf") in adorned
    assert AdornedPredicate("ancestor", "bb") in adorned


def test_adorn_skips_extensional_atoms(ancestry):
    adorned = _ancestry_rewriting(ancestry).adorned
    assert {ap.predicate for ap in adorned} == {"ancestor", "father", "brother"}
    assert AdornedPredicate("brother", "bb") in adorned


def test_generate_golden_rules_for_the_recursive_step(ancestry):
    magic = _ancestry_rewriting(ancestry).magic_rules
    # after the seed and the one magic rule of the base rule
    assert [str(r) for r in magic[2:4]] == [
        "magic_father_bf(X) :- magic_ancestor_bb(X,Y).",
        "magic_ancestor_bb(Z,Y) :- magic_ancestor_bb(X,Y), father(X,Z).",
    ]


def test_modify_prepends_magic_guards(ancestry):
    modified = _texts(_ancestry_rewriting(ancestry).modified_rules)
    assert (
        "father(X,Y) :- magic_father_bf(X), related(X,Y), not brother(X,Y)."
        in modified
    )


def test_dms_selects_a_non_first_disjunctive_head():
    p = parse_program("""
        h(X) :- e(X,Y), f(Y,Z), g(Z).  g(Z) :- d(Z).
        p(X) v q(X) :- r(X), not s(X).  s(X) :- r(X).  r(a).
    """)
    d = dms_with_details(parse_query("q(a)?"), p)
    assert [str(r) for r in d.program.rules] == [
        "magic_q_b(a).",
        "magic_p_b(X) :- magic_q_b(X).",
        "magic_s_b(X) :- magic_q_b(X).",
        "magic_q_b(X) :- magic_p_b(X).",
        "magic_s_b(X) :- magic_p_b(X).",
        "p(X) v q(X) :- magic_p_b(X), magic_q_b(X), r(X), not s(X).",
        "s(X) :- magic_s_b(X), r(X).",
        "r(a).",
    ]


def test_query_arity_mismatch_keeps_its_message():
    # the message ``aspmagic`` prints for the same query
    p = parse_program("p(X) :- e(X).")
    message = r"^query p\(X,Y\)\? has 2 arguments, but p has arity 1 in the program$"
    with pytest.raises(ProgramError, match=message):
        dms(parse_query("p(X,Y)?"), p)


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
    d = dms_with_details(parse_query("e(a)?"), p)
    assert str(d.seed) == "magic_e_b(a)."
    assert AdornedPredicate("e", "b") in d.adorned


def test_seed_adornment_mixes_bound_and_free():
    p = parse_program("e(a,b). p(X,Y) :- e(X,Y).")
    d = dms_with_details(parse_query("p(a,Y)?"), p)
    assert str(d.seed) == "magic_p_bf(a)."
    assert d.adorned == {AdornedPredicate("p", "bf")}


def test_reserved_namespace_is_refused():
    p = parse_program("magic_p_b(a). q(X) :- magic_p_b(X).")
    with pytest.raises(ReservedPredicateError, match="magic_p_b"):
        dms(parse_query("q(a)?"), p)


def test_reserved_name_is_listed_once():
    # the query's predicate is also one of the program's
    p = parse_program("magic_p_b(a).")
    with pytest.raises(ReservedPredicateError) as err:
        dms(parse_query("magic_p_b(a)?"), p)
    assert str(err.value) == "predicate names reserved for the rewriting: magic_p_b"


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


# ------------------------------------------------------- the binding strategy


def _scanned_feeds(rule, head_atom, head_bound):
    """The feeds of every atom of ``rule`` but ``head_atom`` by the
    body-order scan that defines the binding strategy: a candidate feeds
    the target when it holds a variable of the target that neither the
    head nor an earlier feeding candidate covers, and brings its own feeds
    along.  Quadratic in the body length; the reference for the
    rewriter's first-holder map."""
    pos = [a for a in rule.pos_body if a != head_atom]
    feeds = {}

    def feeders(target, sources):
        covered = set(head_bound)
        out = set()
        for s in sources:
            if (s.variables() & target.variables()) - covered:
                out.add(s)
                out |= feeds[s]
                covered |= s.variables()
        return out

    for i, target in enumerate(pos):
        feeds[target] = feeders(target, pos[:i])
    for target in (*rule.neg_body, *rule.head):
        if target != head_atom and target not in feeds:
            feeds[target] = feeders(target, pos)
    return feeds


def _long_rule(rng):
    """A random safe rule with a long positive body over a few variables
    and constants, a head of up to three atoms and a short negative body;
    a head atom may recur in the body."""
    names = [var(v) for v in "UVWXYZ"] + [const("a"), const("b")]

    arities = {"e": 1, "f": 2, "g": 3, "h": 2, "p": 2, "q": 1}

    def atom(pool):
        pred = rng.choice(list(arities))
        return Atom(pred, [rng.choice(pool) for _ in range(arities[pred])])

    pos = [atom(names) for _ in range(rng.randint(20, 60))]
    held = sorted({t for a in pos for t in a.args}) or [const("a")]
    head = [atom(held) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.2:
        pos.insert(rng.randrange(len(pos)), head[0])
    neg = [atom(held) for _ in range(rng.randint(0, 3))]
    return Rule(head, pos, neg)


def test_first_holders_feed_like_the_body_order_scan():
    rng = random.Random(7)
    compared = 0
    for _ in range(100):
        rule = _long_rule(rng)
        variables = {a: a.variables() for a in rule.atoms()}
        for head_atom in rule.head:
            for labels in product("bf", repeat=head_atom.arity):
                head_bound = frozenset(
                    t.name
                    for t, label in zip(head_atom.args, labels)
                    if label == "b" and t.is_variable
                )
                feeds = rewriter._feeds(rule, head_atom, head_bound, variables)
                expected = _scanned_feeds(rule, head_atom, head_bound)
                for target in rule.atoms():
                    if target != head_atom:
                        assert feeds(target) == expected[target], (str(rule), target)
                        compared += 1
    assert compared > 3_000


def test_long_rules_rewrite_like_the_body_order_scan(monkeypatch):
    # Long bodies over intensional predicates: the whole rewriting, magic
    # rules and adornments included, is the one the reference scan gives.
    rng = random.Random(11)
    programs = [Program([_long_rule(rng) for _ in range(3)]) for _ in range(8)]
    queries = [parse_query(t) for t in ("p(a,X)?", "p(X,Y)?", "q(X)?", "h(X,b)?")]

    def rewrite_all():
        return [
            ([str(r) for r in d.program.rules], d.adorned)
            for p in programs
            for q in queries
            for d in [dms_with_details(q, p)]
        ]

    # each run starts from an empty rewrite memo, so each rewrites afresh
    rewriter._rewrite_rule.cache_clear()
    fast = rewrite_all()
    monkeypatch.setattr(
        rewriter,
        "_feeds",
        lambda rule, head_atom, head_bound, _: _scanned_feeds(
            rule, head_atom, head_bound
        ).__getitem__,
    )
    rewriter._rewrite_rule.cache_clear()
    assert fast == rewrite_all()
    assert sum(len(rules) for rules, _ in fast) > 1_000


def test_rewriting_a_long_body_reads_each_atoms_variables_once(monkeypatch):
    # The body-order scan would read them about n**2 / 2 times.
    n = 2000
    p = parse_program("p(X) :- " + ", ".join(f"e{i}(X)" for i in range(n)) + ".")
    real = Atom.variables
    reads = 0

    def counting(self):
        nonlocal reads
        reads += 1
        return real(self)

    monkeypatch.setattr(Atom, "variables", counting)
    rewriter._rewrite_rule.cache_clear()
    for text in ("p(X)?", "p(a)?"):
        reads = 0
        rewritten = dms(parse_query(text), p)
        assert len(rewritten.rules) == 2
        # once for the rewriting, once for the safety check of the
        # guarded rule
        assert reads <= 3 * n


# ------------------------------------------------------------ rewrite memo


def _fields(d):
    """A rewriting field by field, each rule list in order and as text."""
    return (
        [str(r) for r in d.program.rules],
        str(d.seed),
        [str(r) for r in d.magic_rules],
        [str(r) for r in d.modified_rules],
        [str(r) for r in d.edb_rules],
        d.adorned,
    )


def _uncached(q, p):
    """The rewriting of ``p`` for ``q`` with every rule rewritten afresh,
    the memo neither read nor filled."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rewriter, "_rewrite_rule", rewriter._rewrite_rule.__wrapped__)
        return dms_with_details(q, p)


def test_a_warm_rewrite_memo_rewrites_like_a_cold_one():
    # Cold, no rule is found rewritten; warm, each program finds the
    # rewritings that every earlier program's shapes left in the memo.
    cases = [
        (p, random_query(p, seed))
        for profile in ("stratified", "odd_cycle_free", "arbitrary")
        for seed in range(300)
        for p in [random_program(seed, profile)]
    ]
    rewriter._rewrite_rule.cache_clear()
    warm = [_fields(dms_with_details(q, p)) for p, q in cases]
    assert warm == [_fields(_uncached(q, p)) for p, q in cases]
    assert rewriter._rewrite_rule.cache_info().hits > 0


def test_the_rewrite_memo_holds_at_most_its_bound():
    rewriter._rewrite_rule.cache_clear()
    n = rewriter._REWRITINGS + 100
    p = parse_program(
        " ".join(f"q(X) :- e(X), p{i}(X). p{i}(X) :- e(X)." for i in range(n))
    )
    d = dms_with_details(parse_query("q(a)?"), p)
    assert len(d.modified_rules) == 2 * n
    info = rewriter._rewrite_rule.cache_info()
    assert info.maxsize == rewriter._REWRITINGS
    assert (info.misses, info.currsize) == (2 * n, rewriter._REWRITINGS)
    # the evicted shapes are rewritten again, and alike
    assert _fields(dms_with_details(parse_query("q(a)?"), p)) == _fields(d)
    assert rewriter._rewrite_rule.cache_info().currsize == rewriter._REWRITINGS


@pytest.mark.parametrize(
    "texts, queries",
    [
        # rules equal as sets, with the body in another order
        (
            ("p(X,Y) :- a(X,Z), b(Z,Y). a(X,Y) :- e(X,Y). b(X,Y) :- e(X,Y).",
             "p(X,Y) :- b(Z,Y), a(X,Z). a(X,Y) :- e(X,Y). b(X,Y) :- e(X,Y)."),
            ("p(k,Y)?", "p(k,Y)?"),
        ),
        # another selected head of the same rule: p(k)? selects both
        (("p(X) v q(X) :- r(X,Y), s(Y). s(Y) :- e(Y).",) * 2, ("p(k)?", "q(X)?")),
        # another adornment of the same head: p(X)? adorns p both ways
        (("p(X) :- r(X,Y), p(Y). p(X) :- e(X).",) * 2, ("p(k)?", "p(X)?")),
        # the same rule, with a body predicate intensional in one program
        # and extensional in the other
        (
            ("p(X) :- r(X,Y), s(Y). s(Y) :- e(Y).", "p(X) :- r(X,Y), s(Y). s(k)."),
            ("p(k)?", "p(k)?"),
        ),
    ],
)
def test_each_rewriting_key_gets_its_own_entry(texts, queries):
    programs = [parse_program(t) for t in texts]
    queries = [parse_query(t) for t in queries]
    rewriter._rewrite_rule.cache_clear()
    warm = []
    for q, p in zip(queries, programs):
        before = rewriter._rewrite_rule.cache_info().misses
        warm.append(dms_with_details(q, p))
        # the second rewriting still makes an entry of its own
        assert rewriter._rewrite_rule.cache_info().misses > before
    info = rewriter._rewrite_rule.cache_info()
    assert info.misses == info.currsize
    assert [_fields(d) for d in warm] == [
        _fields(_uncached(q, p)) for q, p in zip(queries, programs)
    ]
    assert _fields(warm[0])[3] != _fields(warm[1])[3]
