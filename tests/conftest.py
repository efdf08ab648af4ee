import pytest

from aspmagic import ancestry_program, parse_program, semantics


@pytest.fixture
def guarded_pair():
    """Two-atom program whose odd loop is defused by the disjunction."""
    return parse_program("a v b. a :- not a, not b.")


@pytest.fixture
def choice_with_odd_loop():
    """A head choice feeding an odd negative loop; consistent on its own
    but breakable by adding one fact."""
    return parse_program("edb(a). q(X) v p(X) :- edb(X). co(X) :- q(X), not co(X).")


@pytest.fixture
def ancestry():
    return ancestry_program()


@pytest.fixture
def calls(monkeypatch):
    """``calls(name)`` returns a list that records the arguments of every
    later call of ``semantics.<name>``, which still does its work."""

    def record(name):
        seen = []
        real = getattr(semantics, name)

        def counting(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(semantics, name, counting)
        return seen

    return record
