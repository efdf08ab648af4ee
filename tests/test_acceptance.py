"""The acceptance gate for the whole toolkit.

Each test covers one delivery criterion and prints a single verdict line;
run ``pytest tests/test_acceptance.py -s`` to see them.  Time limits are
asserted inside the tests, so a slow pass fails loudly instead of rotting
quietly.
"""

import time
from contextlib import contextmanager
from functools import lru_cache
from itertools import product

from aspmagic import (
    AdornedPredicate,
    ScStatus,
    answer_sets,
    answer_sets_via_unfounded,
    check_equivalence,
    check_super_consistent,
    dms,
    dms_with_details,
    gen_related_instance,
    is_odd_cycle_free,
    is_unfounded_set,
    killed_atoms,
    magic_variant,
    parse_program,
    parse_query,
    random_edb,
    random_program,
    random_query,
    run_benchmark,
    substitutions_brave,
    universe,
)
from aspmagic.harness import ancestry_program


@contextmanager
def criterion(number, limit=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, limit {limit}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


@lru_cache(maxsize=None)
def _cycle_free_corpus():
    return tuple(random_program(seed, "odd_cycle_free") for seed in range(200))


@lru_cache(maxsize=None)
def _mixed_corpus():
    return tuple(random_program(seed, "arbitrary") for seed in range(40))


def _sample_facts(p, seed):
    return random_edb(p, seed, 0.3, fresh_constants=1, max_facts=4)


def _query_truths(q, interpretation, domain):
    names = sorted(q.atom.variables())
    truths = set()
    for combo in product(sorted(domain), repeat=len(names)):
        inst = q.atom.substitute(dict(zip(names, combo)))
        if inst in interpretation:
            truths.add(inst)
    return truths


def _atoms(*texts):
    out = []
    for t in texts:
        out.append(parse_program(f"{t}.").rules[0].head[0])
    return frozenset(out)


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


def test_acceptance_1_golden_rewriting():
    """The genealogy rewriting comes out exactly as the known-good form:
    one seed fact, six magic rules, five modified rules."""
    with criterion(1, limit=1.0):
        q = parse_query("ancestor(p1,p2)?")
        d = dms_with_details(q, ancestry_program())
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
        # the same rules appear when the query constants already occur in
        # the program
        fact = _atoms("related(p1,p2)")
        d2 = dms_with_details(q, ancestry_program().with_facts(fact))
        assert set(d2.magic_rules) == set(d.magic_rules)
        assert set(d2.modified_rules) == set(d.modified_rules)


def test_acceptance_2_unsound_rewriting_detected(choice_with_odd_loop):
    """The odd-loop choice program keeps one answer set while its rewriting
    has two, the brave answer flips, and the fact-addition checker pins the
    culprit fact."""
    with criterion(2, limit=5.0):
        q = parse_query("q(a)?")
        original = answer_sets(choice_with_odd_loop).answer_sets
        assert original == {_atoms("edb(a)", "p(a)")}
        rewritten = dms(q, choice_with_odd_loop)
        report = answer_sets(rewritten)
        assert report.answer_sets == {
            _atoms("magic_q_b(a)", "magic_p_b(a)", "edb(a)", "p(a)"),
            _atoms("magic_q_b(a)", "magic_p_b(a)", "edb(a)", "q(a)"),
        }
        domain = universe(rewritten)
        assert not any(q.atom in m for m in original)
        assert substitutions_brave(report, q, domain)
        verdict = check_super_consistent(choice_with_odd_loop)
        assert verdict.status is ScStatus.NOT_SUPER_CONSISTENT
        assert verdict.counterexample == _atoms("q(a)")


def test_acceptance_3_odd_cycle_yet_robust(guarded_pair):
    """The two-rule program with a guarded odd loop fails the syntactic
    cycle check but survives every fact addition, confirmed by exhausting
    its candidate fact space."""
    with criterion(3, limit=30.0):
        assert not is_odd_cycle_free(guarded_pair)
        verdict = check_super_consistent(guarded_pair, use_shortcut=False)
        assert verdict.status is ScStatus.SUPER_CONSISTENT
        assert not verdict.via_shortcut
        assert verdict.sets_tested == 4
        assert answer_sets(guarded_pair).answer_sets == {
            _atoms("a"),
            _atoms("b"),
        }


def test_acceptance_4_equivalence_suite():
    """200 cycle-free programs, 5 sampled fact sets and one query each:
    the rewriting never changes a brave or cautious answer."""
    with criterion(4, limit=600.0):
        brave_bad = cautious_bad = tested = skipped = 0
        for seed, p in enumerate(_cycle_free_corpus()):
            q = random_query(p, seed)
            report = check_equivalence(p, q, trials=5, seed=seed, density=0.3)
            brave_bad += len(report.brave_mismatches)
            cautious_bad += len(report.cautious_mismatches)
            tested += report.fact_sets_tested
            skipped += len(report.skipped)
        assert brave_bad == 0
        assert cautious_bad == 0
        assert skipped == 0
        assert tested == 1000


def test_acceptance_5_solver_cross_check(guarded_pair, choice_with_odd_loop):
    """Both answer-set characterizations agree on the whole corpus and the
    named small programs, with and without sampled facts."""
    with criterion(5):
        named = [
            guarded_pair,
            choice_with_odd_loop,
            ancestry_program(),
            ancestry_program().with_facts(_atoms("related(p1,p2)")),
        ]
        compared = 0
        for seed, p in enumerate((*_cycle_free_corpus(), *_mixed_corpus())):
            for side in (p, p.with_facts(_sample_facts(p, seed))):
                fast = answer_sets(side).answer_sets
                slow = answer_sets_via_unfounded(side).answer_sets
                assert fast == slow
                compared += 1
        for p in named:
            assert (
                answer_sets(p).answer_sets
                == answer_sets_via_unfounded(p).answer_sets
            )
            compared += 1
        assert compared == 2 * 240 + 4


def test_acceptance_6_lifting_artifacts():
    """Killed sets are always unfounded, and the magic variant of every
    original answer set is an answer set of the rewriting agreeing on the
    query."""
    with criterion(6):
        variants = killed_checked = 0
        for seed, p in enumerate((*_cycle_free_corpus(), *_mixed_corpus())):
            q = random_query(p, seed)
            pf = p.with_facts(_sample_facts(p, seed))
            rewritten = dms(q, pf)
            rewritten_sets = answer_sets(rewritten).answer_sets
            domain = universe(pf)
            for m in answer_sets(pf).answer_sets:
                v = magic_variant(m, q, pf)
                assert v in rewritten_sets
                assert _query_truths(q, m, domain) == _query_truths(q, v, domain)
                variants += 1
            for w in rewritten_sets:
                killed = killed_atoms(w, w, q, pf)
                restriction = frozenset(
                    a for a in w if a.predicate in pf.predicates
                )
                assert is_unfounded_set(killed, pf, restriction)
                killed_checked += 1
        assert variants > 200
        assert killed_checked > 200


def test_acceptance_7_grid_benchmark():
    """Plain and rewritten evaluation agree on the corner-to-corner query
    for the 1, 2 and 3 grids; each cell answers it by the directed search
    of ``aspmagic query --brave``, and full enumeration of the plain 3-grid,
    4096 answer sets, still fits the time limit."""
    with criterion(7):
        cells = run_benchmark([1, 2, 3], mode="both", timeout=60.0)
        by_key = {(c.n, c.mode): c for c in cells}
        assert len(cells) == 6
        assert all(c.status == "ok" for c in cells)
        for n, expected in ((1, "no"), (2, "yes"), (3, "yes")):
            assert by_key[(n, "plain")].answer == expected
            assert by_key[(n, "dms")].answer == expected
        for c in cells:
            # the 1-grid has no related facts, so nothing is derivable
            if (c.n, c.mode) == (1, "plain"):
                assert c.ground_rules == 0
            else:
                assert c.ground_rules > 0
            assert c.time_ms is not None and c.time_ms < 60_000
        t0 = time.perf_counter()
        report = answer_sets(gen_related_instance(3).program)
        assert len(report.answer_sets) == 4096
        assert time.perf_counter() - t0 < 60.0
