import copy
import pickle
import re

import pytest

from aspmagic import (
    AdornedPredicate,
    AnswerSetReport,
    Atom,
    BenchmarkCell,
    DependencyEdge,
    DependencyGraph,
    EquivReport,
    Program,
    ProgramError,
    Query,
    Rule,
    ScStatus,
    ScVerdict,
    Substitution,
    Term,
    base,
    const,
    dms_with_details,
    edb_idb_split,
    fact,
    gen_related_instance,
    ground,
    parse_program,
    random_edb,
    random_program,
    universe,
    var,
)
from aspmagic.harness import Mismatch
from aspmagic.syntax import RESERVED_UNIVERSE_CONSTANT


def test_term_kinds():
    assert Term("a").is_constant
    assert Term("0box").is_constant
    assert Term("X").is_variable
    assert Term("Xyz_3").is_variable
    assert not Term("abc").is_variable


@pytest.mark.parametrize("bad", ["", "_x", "-a", "p q", "a.b", "ünicode"])
def test_term_rejects_bad_names(bad):
    with pytest.raises(ProgramError, match=f"^not a valid term name: {re.escape(repr(bad))}$"):
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
    with pytest.raises(ProgramError, match="^not a valid predicate name: 'Upper'$"):
        Atom("Upper", ())
    with pytest.raises(ProgramError, match="^atom argument is not a Term: 'notaterm'$"):
        Atom("p", (Term("a"), "notaterm"))  # type: ignore[arg-type]


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


def test_with_facts_equals_a_program_built_from_scratch():
    p = parse_program("e(a). p(X) :- e(X), not q(X). q(b) :- p(b).")
    atoms = parse_program("e(b). e(a). r(c,d). e(b).").rules
    extended = p.with_facts(r.head[0] for r in atoms)
    scratch = Program((*p.rules, *sorted(atoms, key=lambda r: r.head)))
    # e(a) is already a fact and e(b) comes twice: each collapses
    assert extended.rules == scratch.rules
    assert [str(r) for r in extended.rules[len(p.rules):]] == ["e(b).", "r(c,d)."]
    assert extended.predicates == scratch.predicates
    assert extended.constants == scratch.constants == set(map(const, "abcd"))
    assert extended.idb_predicates == scratch.idb_predicates
    assert extended.edb_predicates == scratch.edb_predicates == {"e", "r"}
    assert extended == scratch and hash(extended) == hash(scratch)
    assert p.predicates == {"e": 1, "p": 1, "q": 1}  # the base is unchanged
    assert p.constants == {const("a"), const("b")}
    with pytest.raises(ProgramError, match="arities 1 and 2"):
        p.with_facts([Atom("e", (const("a"), const("b")))])
    with pytest.raises(ProgramError, match="arities 2 and 1"):
        extended.with_facts([Atom("r", (const("a"),))])


def test_fact_builds_the_rule_of_a_ground_atom():
    a = Atom("e", (const("a"), const("b")))
    built = fact(a)
    assert (built.head, built.pos_body, built.neg_body) == ((a,), (), ())
    assert built == Rule((a,)) and hash(built) == hash(Rule((a,)))
    assert built.is_fact and built.atoms() == (a,) and not built.variables()
    assert repr(built) == "Rule<e(a,b).>"
    with pytest.raises(AttributeError):
        built.head = ()
    with pytest.raises(ProgramError) as caught:
        fact(Atom("e", (const("a"), var("X"))))
    assert str(caught.value) == "unsafe rule: X not bound by the positive body in e(a,X)."


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_with_facts_appends_the_new_atoms_as_facts_in_atom_order(profile):
    repeated = 0
    for seed in range(30):
        p = random_program(seed, profile)
        facts = random_edb(p, seed, 0.5)
        new = facts - {r.head[0] for r in p.rules if r.is_fact}
        repeated += len(facts) - len(new)
        extended = p.with_facts([*facts, *facts])
        scratch = Program((*p.rules, *map(fact, sorted(new))))
        assert [str(r) for r in extended.rules] == [str(r) for r in scratch.rules]
        assert extended.rules == scratch.rules
        assert extended.predicates == scratch.predicates
        assert extended.constants == scratch.constants
    assert repeated > 0  # some drawn atoms are facts of the program already


def test_with_facts_errors_keep_their_messages():
    p = parse_program("e(a). p(X) :- e(X).")
    with pytest.raises(ProgramError) as caught:
        p.with_facts([Atom("e", (const("b"),)), Atom("e", (var("X"),))])
    assert str(caught.value) == "cannot add non-ground fact e(X)"
    with pytest.raises(ProgramError) as caught:
        p.with_facts([Atom("e", (const("a"), const("b")))])
    assert str(caught.value) == "predicate e used with arities 1 and 2"


def test_query_ground_and_str():
    q = Query(Atom("anc", (const("a"), var("X"))))
    assert not q.is_ground
    assert q.variables() == {"X"}
    assert str(q) == "anc(a,X)?"


# ------------------------------------------- value and identity semantics

A = Atom("p", (Term("a"), Term("X")))

# Each class compared by its fields, with the plain tuple of those fields:
# it hashes, orders and prints as a frozen record of them would.
VALUES = [
    (Term("a"), ("a",)),
    (A, ("p", (Term("a"), Term("X")))),
    (Query(A), (A,)),
    (Substitution((("X", "a"),)), ((("X", "a"),),)),
    (AnswerSetReport(frozenset({frozenset({A})}), 3, 2),
     (frozenset({frozenset({A})}), 3, 2)),
    (DependencyEdge("p", "q", True), ("p", "q", True)),
    (DependencyGraph(("p", "q"), (DependencyEdge("p", "q", True),)),
     (("p", "q"), (DependencyEdge("p", "q", True),))),
    (ScVerdict(ScStatus.SUPER_CONSISTENT),
     (ScStatus.SUPER_CONSISTENT, None, 0, False)),
    (AdornedPredicate("p", "bf"), ("p", "bf")),
    (Mismatch((A,), (Substitution(),), ()), ((A,), (Substitution(),), ())),
    (EquivReport("id", Query(A), 1, (), (), ((3, 4),), ((0.5, 0.25),), ()),
     ("id", Query(A), 1, (), (), ((3, 4),), ((0.5, 0.25),), ())),
    (BenchmarkCell(1, "plain", 0, "ok"),
     (1, "plain", 0, "ok", None, None, None, None)),
]


@pytest.mark.parametrize("value, fields", VALUES, ids=lambda v: type(v).__name__)
def test_values_hash_print_and_freeze_as_records_of_their_fields(value, fields):
    assert hash(value) == hash(fields)
    # the one difference from a frozen record: the tuple of the fields is
    # an equal value
    assert value == fields and tuple(value) == fields
    shown = ", ".join(f"{n}={getattr(value, n)!r}" for n in value._fields)
    assert repr(value) == f"{type(value).__name__}({shown})"
    for name in (value._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_term_and_atom_reprs():
    assert repr(Term("a")) == "Term(name='a')"
    assert repr(Atom("p", (Term("a"),))) == "Atom(predicate='p', args=(Term(name='a'),))"
    assert repr(Atom("f")) == "Atom(predicate='f', args=())"


def test_values_sort_by_their_fields():
    a, b, x = Term("a"), Term("b"), Term("X")
    assert sorted([b, x, a]) == [x, a, b]  # by name: uppercase first
    atoms = [Atom("q"), Atom("p", (b,)), Atom("p", (a, b)), Atom("p", (a,))]
    assert sorted(atoms) == [atoms[3], atoms[2], atoms[1], atoms[0]]
    subs = [Substitution((("X", "b"),)), Substitution(), Substitution((("X", "a"),))]
    assert sorted(subs) == [subs[1], subs[2], subs[0]]
    aps = [AdornedPredicate("p", "f"), AdornedPredicate("p", "bf"), AdornedPredicate("a", "f")]
    assert sorted(aps) == [aps[2], aps[1], aps[0]]
    edges = [DependencyEdge("p", "q", True), DependencyEdge("p", "q", False)]
    assert sorted(edges) == edges[::-1]


def test_atom_args_become_a_tuple():
    a = Atom("p", [Term("a")])
    assert type(a.args) is tuple and a.args == (Term("a"),)
    assert Atom(predicate="p") == Atom("p", ())


def test_identity_classes_freeze_and_print_their_fields():
    inst = gen_related_instance(2)
    p = inst.program
    rule = p.rules[3]
    details = dms_with_details(inst.query, p)
    for obj, field in ((rule, "head"), (p, "rules"), (p, "constants"),
                       (details, "program"), (inst, "n"), (inst, "program")):
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    # cached properties still fill in once
    assert inst.program is p
    assert repr(inst) == (
        f"RelatedInstance(n=2, persons={inst.persons!r}, facts={inst.facts!r}, "
        f"query={inst.query!r})"
    )
    assert repr(details).startswith(f"DmsResult(program={details.program!r}, seed=")
    # they compare by identity
    again = dms_with_details(inst.query, p)
    assert again != details and again.program == details.program


def test_program_survives_pickle_and_deepcopy():
    p = parse_program("e(a). p(X) :- e(X), not q(X). q(b) :- p(b).")
    p.constants  # a cached value travels with the program
    for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(twin) is Program
        assert twin == p and hash(twin) == hash(p)
        assert twin.rules == p.rules and twin.predicates == p.predicates
        assert [str(r) for r in ground(twin).rules] == [str(r) for r in ground(p).rules]
        with pytest.raises(AttributeError):
            twin.rules = ()
