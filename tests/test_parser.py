import pytest
from hypothesis import given, strategies as st

from aspmagic import (
    Atom,
    Program,
    SourceError,
    const,
    fact,
    parse_program,
    parse_query,
    print_program,
    print_query,
    random_program,
)


def test_parse_simple_program():
    p = parse_program("p(a). q(X) :- p(X), not r(X).")
    assert len(p) == 2
    assert p.predicates == {"p": 1, "q": 1, "r": 1}
    rule = p.rules[1]
    assert [str(a) for a in rule.pos_body] == ["p(X)"]
    assert [str(a) for a in rule.neg_body] == ["r(X)"]


def test_both_disjunction_spellings_agree():
    assert parse_program("a v b.") == parse_program("a | b.")


def test_comments_and_whitespace():
    text = """
    % genealogy facts
    related(p1, p2).   % inline too
    """
    p = parse_program(text)
    assert [str(r) for r in p.rules] == ["related(p1,p2)."]


def test_zero_arity_and_numeric_constants():
    p = parse_program("go. lvl(0, 9second).")
    assert p.predicates == {"go": 0, "lvl": 2}


def test_error_position_missing_dot():
    with pytest.raises(SourceError) as err:
        parse_program("a :- b")
    assert err.value.line == 1
    assert err.value.column == 7
    assert "expected '.'" in err.value.message


def test_error_position_unexpected_character():
    with pytest.raises(SourceError) as err:
        parse_program("ok.\np :- $x.")
    assert (err.value.line, err.value.column) == (2, 6)


@pytest.mark.parametrize("parse, text, line, column, found", [
    (parse_program, "ok.\np(,).", 2, 3, "','"),
    (parse_query, "q(a,)?", 1, 5, "')'"),
])
def test_missing_term_is_reported_where_it_is_missing(parse, text, line, column, found):
    with pytest.raises(SourceError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert err.value.message == f"expected a term, found {found}"


def test_not_cannot_name_an_atom():
    with pytest.raises(SourceError, match="reserved"):
        parse_program("not(a).")
    with pytest.raises(SourceError, match="reserved"):
        parse_program("a :- not not b.")


def test_arity_conflict_points_at_second_use():
    with pytest.raises(SourceError) as err:
        parse_program("p(a).\np(a,b).")
    assert err.value.line == 2
    assert "arity 2" in err.value.message and "line 1" in err.value.message


def test_unsafe_rule_reported_at_rule_start():
    with pytest.raises(SourceError) as err:
        parse_program("ok.\n  p(X) :- not q(X).")
    assert (err.value.line, err.value.column) == (2, 3)
    assert "unsafe" in err.value.message


def test_parse_query_forms():
    q = parse_query("ancestor(p1,X)?")
    assert str(q) == "ancestor(p1,X)?"
    assert parse_query("go?").is_ground
    with pytest.raises(SourceError, match="expected '\\?'"):
        parse_query("p(a)")
    with pytest.raises(SourceError, match="after query"):
        parse_query("p(a)? q(b)?")


def test_print_program_is_sorted_and_reparsable(ancestry):
    text = print_program(ancestry)
    lines = text.splitlines()
    assert lines == sorted(lines, key=lambda l: (l.split("(")[0], l))
    assert parse_program(text) == ancestry


def test_print_query_round_trip():
    q = parse_query("anc(a,X)?")
    assert parse_query(print_query(q)) == q


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
@pytest.mark.parametrize("seed", range(0, 12, 3))
def test_generated_programs_round_trip(profile, seed):
    p = random_program(seed, profile)
    assert parse_program(print_program(p)) == p


@given(st.text(alphabet="abpqXY(),.:-|?%v \n01_not", max_size=60))
def test_parser_never_raises_anything_but_source_error(text):
    try:
        parse_program(text)
    except SourceError:
        pass


@given(st.text(max_size=40))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_query(text)
    except SourceError:
        pass


_name = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True).filter(
    lambda s: s != "not"
)


@given(
    pred=_name,
    args=st.lists(_name, max_size=3),
)
def test_ground_atom_round_trips_through_text(pred, args):
    atom = Atom(pred, tuple(const(a) for a in args))
    assert parse_program(f"{atom}.") == Program((fact(atom),))
