import copy
import pickle

import pytest

from aspmagic import (
    Atom,
    Program,
    ProgramError,
    Query,
    Rule,
    Term,
    base,
    const,
    edb_idb_split,
    fact,
    ground,
    parse_program,
    universe,
    var,
)
from aspmagic.syntax import RESERVED_UNIVERSE_CONSTANT


def test_term_kinds():
    assert Term("a").is_constant
    assert Term("0box").is_constant
    assert Term("X").is_variable
    assert Term("Xyz_3").is_variable
    assert not Term("abc").is_variable


@pytest.mark.parametrize("bad", ["", "_x", "-a", "p q", "a.b", "ünicode"])
def test_term_rejects_bad_names(bad):
    with pytest.raises(ProgramError):
        Term(bad)


def test_const_and_var_check_the_class():
    assert const("c1") == Term("c1")
    assert var("X") == Term("X")
    with pytest.raises(ProgramError):
        const("X")
    with pytest.raises(ProgramError):
        var("c1")


def test_atom_basics():
    a = Atom("edge", (Term("a"), Term("X")))
    assert a.arity == 2
    assert not a.is_ground
    assert a.variables() == {"X"}
    assert str(a) == "edge(a,X)"
    assert str(Atom("flag")) == "flag"
    grounded = a.substitute({"X": Term("b")})
    assert grounded.is_ground and str(grounded) == "edge(a,b)"


def test_atom_rejects_bad_predicate():
    with pytest.raises(ProgramError):
        Atom("Upper", ())
    with pytest.raises(ProgramError):
        Atom("p", ("notaterm",))  # type: ignore[arg-type]


def test_rule_stores_order_but_compares_as_sets():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    r1 = Rule((a, b), (c,), ())
    r2 = Rule((b, a, b), (c, c), ())
    assert r1 == r2
    assert hash(r1) == hash(r2)
    assert r2.head == (b, a)  # duplicates removed, first occurrence kept
    assert r1 != Rule((a,), (c,))


def test_memoized_atoms_keep_each_rules_own_order():
    facts = parse_program("e(a). f(a). q(b).").rules
    r1 = parse_program("p(X) :- e(X), f(X), not q(X).").rules[0]
    r2 = parse_program("p(X) :- f(X), e(X), not q(X).").rules[0]
    assert r1 == r2
    assert hash(r1) == hash(r2)
    for rule, body in ((r1, "e(X), f(X)"), (r2, "f(X), e(X)")):
        assert rule.atoms() is rule.atoms()  # computed once
        assert ", ".join(map(str, rule.atoms()[1:3])) == body
        # the grounder compiles each rule object on its own, so the equal
        # rule does not lend it its body order
        g = ground(Program((*facts, rule)))
        assert str(g.rules[-1]) == f"p(a) :- {body.replace('X', 'a')}, not q(a)."
        for twin in (copy.deepcopy(rule), pickle.loads(pickle.dumps(rule))):
            assert twin == rule
            assert hash(twin) == hash(rule)
            assert twin.atoms() == rule.atoms()
            again = ground(Program((*facts, twin))).rules
            assert [str(r) for r in again] == [str(r) for r in g.rules]


def test_rule_safety_errors():
    e = Atom("e", (var("X"),))
    p = Atom("p", (var("X"), var("Y")))
    with pytest.raises(ProgramError, match="unsafe rule: Y"):
        Rule((p,), (e,))
    with pytest.raises(ProgramError, match="unsafe"):
        Rule((Atom("q"),), (), (e,))
    with pytest.raises(ProgramError, match="unsafe"):
        Rule((e,))  # bodiless rules must be ground
    with pytest.raises(ProgramError):
        Rule(())


def test_fact_detection():
    assert fact(Atom("p", (const("a"),))).is_fact
    ground_with_body = Rule((Atom("p"),), (Atom("q"),))
    assert not ground_with_body.is_fact
    two_headed = Rule((Atom("p"), Atom("q")))
    assert not two_headed.is_fact


def test_rule_str_forms():
    x = var("X")
    r = Rule(
        (Atom("p", (x,)), Atom("q", (x,))),
        (Atom("e", (x,)),),
        (Atom("r", (x,)),),
    )
    assert str(r) == "p(X) v q(X) :- e(X), not r(X)."
    assert str(fact(Atom("p", (const("a"),)))) == "p(a)."


def test_rule_substitute_grounds_everything():
    x, y = var("X"), var("Y")
    r = Rule((Atom("p", (x,)),), (Atom("e", (x, y)),))
    g = r.substitute({"X": const("a"), "Y": const("b")})
    assert not g.variables()
    assert str(g) == "p(a) :- e(a,b)."


def test_program_arity_conflict():
    ok = Program((fact(Atom("p", (const("a"),))),))
    assert ok.predicates == {"p": 1}
    with pytest.raises(ProgramError, match="arities 1 and 2"):
        Program((
            fact(Atom("p", (const("a"),))),
            fact(Atom("p", (const("a"), const("b")))),
        ))


def test_program_order_preserved_equality_setwise():
    r1 = fact(Atom("a"))
    r2 = Rule((Atom("b"),), (Atom("a"),))
    p1 = Program((r1, r2))
    p2 = Program((r2, r1, r2))
    assert p1 == p2
    assert hash(p1) == hash(p2)
    assert p2.rules == (r2, r1)
    assert len(p2) == 2
    assert list(p2) == [r2, r1]


def test_edb_idb_membership(ancestry):
    assert ancestry.idb_predicates == {"father", "brother", "ancestor"}
    assert ancestry.edb_predicates == {"related"}


def test_predicate_with_fact_and_rule_is_idb():
    p = Program((
        fact(Atom("p", (const("a"),))),
        Rule((Atom("p", (var("X"),)),), (Atom("e", (var("X"),)),)),
        fact(Atom("e", (const("b"),))),
    ))
    assert p.idb_predicates == {"p"}
    edb_rules, idb_rules = edb_idb_split(p)
    # the p(a) fact defends an intensional predicate, so it is not EDB
    assert [str(r) for r in edb_rules] == ["e(b)."]
    assert len(idb_rules) == 2
    assert set(edb_rules) | set(idb_rules) == set(p.rules)


def test_universe_falls_back_to_reserved_constant():
    p = Program((Rule((Atom("a"),), (), (Atom("b"),)),))
    assert universe(p) == {Term(RESERVED_UNIVERSE_CONSTANT)}
    q = Program((fact(Atom("p", (const("a"),))),))
    assert universe(q) == {const("a")}


def test_base_is_all_predicate_instances():
    p = Program((
        fact(Atom("e", (const("a"), const("b")))),
        Rule((Atom("p", (var("X"),)),), (Atom("e", (var("X"), var("Y"))),)),
    ))
    # two constants: 2^2 atoms for e plus 2 for p
    assert len(base(p)) == 6
    assert Atom("p", (const("b"),)) in base(p)


def test_with_facts_sorts_and_validates():
    p = Program((Rule((Atom("p", (var("X"),)),), (Atom("e", (var("X"),)),)),))
    extended = p.with_facts([Atom("e", (const("z"),)), Atom("e", (const("a"),))])
    tail = [str(r) for r in extended.rules[-2:]]
    assert tail == ["e(a).", "e(z)."]
    with pytest.raises(ProgramError, match="non-ground"):
        p.with_facts([Atom("e", (var("X"),))])


def test_query_ground_and_str():
    q = Query(Atom("anc", (const("a"), var("X"))))
    assert not q.is_ground
    assert q.variables() == {"X"}
    assert str(q) == "anc(a,X)?"
