"""Instance generation, the program corpus drivers and the differential
check and benchmark machinery."""

import random
from itertools import product

import pytest

from aspmagic import (
    Atom,
    BenchmarkCell,
    EquivReport,
    ProgramError,
    Substitution,
    Term,
    answer_query,
    benchmark_table,
    check_equivalence,
    const,
    dms,
    gen_related_instance,
    ground,
    is_odd_cycle_free,
    is_stratified,
    parse_program,
    parse_query,
    print_program,
    random_edb,
    random_program,
    random_query,
    run_benchmark,
    universe,
)
from aspmagic import harness, semantics
from aspmagic.harness import _diff, _edb_pool
from aspmagic.semantics import (
    CANDIDATE_CAP_DEFAULT,
    GROUND_CAP_DEFAULT,
    SolverCapError,
    _number,
    _trial_answers,
    _trial_groundings,
)


# ------------------------------------------------------------ genealogy grid


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_instance_counts(n):
    inst = gen_related_instance(n)
    assert len(inst.persons) == n * n
    assert len(inst.facts) == 2 * n * (n - 1)
    assert all(r.is_fact for r in inst.facts)
    mentioned = {t.name for t in universe(inst.program)}
    if n >= 2:
        assert mentioned == set(inst.persons)


def test_grid_query_spans_the_diagonal():
    inst = gen_related_instance(3)
    assert str(inst.query) == "ancestor(p_1_1,p_3_3)?"
    assert inst.program.predicates["related"] == 2


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 1"):
        gen_related_instance(0)


# ----------------------------------------------------------------- fact sets


def test_random_edb_density_extremes():
    p = random_program(0, "stratified")
    assert random_edb(p, 7, 0.0) == frozenset()
    full = random_edb(p, 7, 1.0)
    assert full
    assert all(a.predicate in p.edb_predicates for a in full)
    assert all(not a.variables() for a in full)


def test_random_edb_is_deterministic_per_seed():
    p = random_program(0, "stratified")
    assert random_edb(p, 3, 0.5) == random_edb(p, 3, 0.5)
    draws = {random_edb(p, s, 0.5) for s in range(6)}
    assert len(draws) > 1


def test_random_edb_brings_fresh_constants():
    p = random_program(0, "stratified")
    names = {t.name for a in random_edb(p, 1, 1.0) for t in a.args}
    assert {"f1", "f2"} <= names
    only_old = {
        t.name for a in random_edb(p, 1, 1.0, fresh_constants=0) for t in a.args
    }
    assert not {n for n in only_old if n.startswith("f")}


def test_random_edb_max_facts_thins_the_draw():
    p = random_program(0, "stratified")
    capped = random_edb(p, 1, 1.0, max_facts=3)
    assert len(capped) == 3
    assert capped <= random_edb(p, 1, 1.0)


def _edb_by_atoms(p, seed, density, fresh_constants=2, max_facts=None):
    """The reference draw for ``random_edb``: every candidate is built as
    an ``Atom`` and the list is sorted before the draw."""
    pool = set(universe(p))
    taken = {t.name for t in pool}
    added, i = 0, 0
    while added < fresh_constants:
        i += 1
        if f"f{i}" not in taken:
            taken.add(f"f{i}")
            pool.add(Term(f"f{i}"))
            added += 1
    pool = sorted(pool)
    candidates = []
    for pred in sorted(p.edb_predicates):
        for args in product(pool, repeat=p.predicates[pred]):
            candidates.append(Atom(pred, args))
    candidates.sort()
    rng = random.Random(f"edb:{seed}")
    chosen = [a for a in candidates if rng.random() < density]
    if max_facts is not None and len(chosen) > max_facts:
        chosen = rng.sample(chosen, max_facts)
    return frozenset(chosen)


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_random_edb_draws_what_the_atom_list_drew(profile):
    for seed in range(50):
        p = random_program(seed, profile)
        for density, max_facts in ((0.3, None), (0.4, 4), (0.9, 3)):
            assert random_edb(p, seed, density, max_facts=max_facts) == _edb_by_atoms(
                p, seed, density, max_facts=max_facts
            ), (seed, density, max_facts)


def test_edb_pool_skips_fresh_names_the_program_uses():
    p = parse_program("e(f1). p(X) :- e(X).")
    assert _edb_pool(p, 2) == [("e", (const(n),)) for n in ("f1", "f2", "f3")]


def test_random_edb_needs_an_extensional_predicate(guarded_pair):
    with pytest.raises(ProgramError, match="no extensional"):
        random_edb(guarded_pair, 0, 0.5)


# -------------------------------------------------------------- program pool


def test_random_program_is_deterministic():
    assert random_program(5, "arbitrary") == random_program(5, "arbitrary")
    assert random_program(5, "arbitrary") != random_program(6, "arbitrary")


def test_random_program_rejects_unknown_profile():
    with pytest.raises(ValueError, match="unknown profile"):
        random_program(0, "total")


@pytest.mark.parametrize("seed", range(15))
def test_profiles_deliver_their_class(seed):
    assert is_stratified(random_program(seed, "stratified"))
    assert is_odd_cycle_free(random_program(seed, "odd_cycle_free"))


@pytest.mark.parametrize("profile", ["stratified", "odd_cycle_free", "arbitrary"])
def test_generated_programs_stay_small(profile):
    for seed in range(10):
        p = random_program(seed, profile)
        assert len(p.rules) <= 12
        assert set(p.predicates) <= {"g1", "g2", "p1", "p2"}
        assert all(arity <= 2 for arity in p.predicates.values())
        assert p.edb_predicates, "always at least one fact predicate"


def test_random_query_targets_an_intensional_predicate():
    p = random_program(2, "odd_cycle_free")
    q = random_query(p, 4)
    assert q == random_query(p, 4)
    assert q.atom.predicate in p.idb_predicates
    assert q.atom.arity == p.predicates[q.atom.predicate]


def test_random_query_varies_with_the_seed():
    p = random_program(2, "odd_cycle_free")
    assert len({random_query(p, s) for s in range(8)}) > 1


def test_random_query_names_every_free_position_apart():
    p = parse_program("e(a). p(A,B,C,D,E,F) :- e(A), e(B), e(C), e(D), e(E), e(F).")
    free = []
    for seed in range(20):
        q = random_query(p, seed)
        names = [t.name for t in q.atom.args if t.is_variable]
        assert len(set(names)) == len(names), str(q)
        free.append(len(names))
    assert max(free) >= 5, free


# ------------------------------------------------------- differential checks


def test_equivalence_holds_on_the_genealogy_program(ancestry):
    q = parse_query("ancestor(p1,X)?")
    report = check_equivalence(ancestry, q, trials=3, seed=1)
    assert report.ok
    assert report.fact_sets_tested == 3
    assert not report.skipped
    assert len(report.ground_rule_counts) == 3
    assert len(report.timings_ms) == 3
    assert all(a > 0 and b > 0 for a, b in report.ground_rule_counts)
    assert len(report.program_id) == 12


def test_equivalence_counts_the_ground_rules_of_both_sides(ancestry):
    q = parse_query("ancestor(p1,X)?")
    report = check_equivalence(ancestry, q, trials=3, seed=0)
    assert report.fact_sets_tested == 3
    rewritten = dms(q, ancestry)
    expected = []
    for t in range(3):  # trial t of seed 0 samples its facts with seed t
        facts = random_edb(ancestry, t, 0.3)
        expected.append((
            len(ground(ancestry.with_facts(facts)).rules),
            len(ground(rewritten.with_facts(facts)).rules),
        ))
    assert report.ground_rule_counts == tuple(expected)


def test_equivalence_flags_the_odd_loop_program(choice_with_odd_loop):
    # dropping the unqueried constraint-like rule changes the brave answer
    q = parse_query("q(a)?")
    report = check_equivalence(choice_with_odd_loop, q, trials=1, density=0.0)
    assert not report.ok
    (mm,) = report.brave_mismatches
    assert mm.only_original == ()
    assert mm.only_rewritten == (Substitution(),)
    assert report.cautious_mismatches == ()


def test_equivalence_with_no_trials(ancestry, guarded_pair):
    report = check_equivalence(ancestry, parse_query("ancestor(p1,X)?"), trials=0)
    assert report.ok
    assert report.fact_sets_tested == 0
    assert report.ground_rule_counts == ()
    # the candidate facts are built for a first trial only, so a program
    # with nothing to sample fails only when a trial needs facts
    report = check_equivalence(guarded_pair, parse_query("a?"), trials=0)
    assert report.ok and report.fact_sets_tested == 0 and report.skipped == ()
    with pytest.raises(ProgramError, match="no extensional"):
        check_equivalence(guarded_pair, parse_query("a?"), trials=1)


def test_equivalence_counts_capped_trials(ancestry):
    q = parse_query("ancestor(p1,X)?")
    report = check_equivalence(ancestry, q, trials=2, candidate_cap=1)
    assert report.fact_sets_tested == 0
    assert len(report.skipped) == 2
    assert "trial 0" in report.skipped[0]


@pytest.mark.parametrize("text", ["ancestor(p_1_1,p_3_3)?", "ancestor(p_1_1,X)?"])
def test_equivalence_answers_the_grid_3_through_the_directed_search(text):
    # Full enumeration of the plain side takes 12287 states, far over the
    # cap; one directed search per side stays within it.
    report = check_equivalence(
        gen_related_instance(3).program, parse_query(text),
        trials=1, density=0, candidate_cap=1000,
    )
    assert report.fact_sets_tested == 1
    assert report.skipped == ()
    assert report.ok


def _check_by_programs(
    p, q, trials, seed, density, max_facts, ground_cap=GROUND_CAP_DEFAULT,
    candidate_cap=CANDIDATE_CAP_DEFAULT,
):
    """The reference for ``check_equivalence``: each trial draws its facts
    with ``random_edb``, builds both extended programs with ``with_facts``,
    grounds and searches each on its own under ``ground_cap`` and
    ``candidate_cap`` and takes the domain from the extended original's
    universe."""
    import hashlib

    rewritten = dms(q, p)
    qconsts = frozenset(t for t in q.atom.args if t.is_constant)
    modes = ("brave", "cautious")
    bad = {mode: [] for mode in modes}
    counts, skipped = [], []
    for t in range(trials):
        facts = random_edb(p, seed * 1_000_003 + t, density, max_facts=max_facts)
        side_a, side_b = p.with_facts(facts), rewritten.with_facts(facts)
        domain = universe(side_a) | qconsts
        try:
            answers_a, _, rules_a = _trial_answers(
                side_a, q, modes, ground_cap, candidate_cap, _number(side_a, [()])
            )(0, domain)
            answers_b, _, rules_b = _trial_answers(
                side_b, q, modes, ground_cap, candidate_cap, _number(side_b, [()])
            )(0, domain)
        except SolverCapError as exc:
            skipped.append(f"trial {t}: {exc}")
            continue
        counts.append((rules_a, rules_b))
        for mode, mismatches in bad.items():
            if mm := _diff(answers_a[mode], answers_b[mode], facts):
                mismatches.append(mm)
    return EquivReport(
        program_id=hashlib.sha1(print_program(p).encode()).hexdigest()[:12],
        query=q,
        fact_sets_tested=len(counts),
        brave_mismatches=tuple(bad["brave"]),
        cautious_mismatches=tuple(bad["cautious"]),
        ground_rule_counts=tuple(counts),
        timings_ms=(),
        skipped=tuple(skipped),
    )


@pytest.mark.parametrize(
    ("profile", "ground_cap"),
    [
        pytest.param(profile, cap, id=profile + suffix)
        for cap, suffix in ((GROUND_CAP_DEFAULT, ""), (30, "-cap30"))
        for profile in ("stratified", "odd_cycle_free", "arbitrary")
    ],
)
def test_equivalence_reports_what_extended_programs_report(profile, ground_cap):
    # At a cap of 30, 191 of the 600 sides trip it on the union of their
    # draws and ground each trial on its own.
    with_facts = 0
    for seed in range(100):
        p = random_program(seed, profile)
        q = random_query(p, seed)
        max_facts = (8, None, 3)[seed % 3]
        report = check_equivalence(
            p, q, 4, seed, 0.3, max_facts=max_facts, ground_cap=ground_cap
        )
        assert len(report.timings_ms) == report.fact_sets_tested
        assert report._replace(timings_ms=()) == _check_by_programs(
            p, q, 4, seed, 0.3, max_facts, ground_cap=ground_cap
        ), seed
        # the rewriting numbers the check's draws as the original does
        draws = [random_edb(p, seed * 1_000_003 + t, 0.3, max_facts=max_facts)
                 for t in range(4)]
        assert _kept(p, draws) == _kept(dms(q, p), draws), seed
        with_facts += sum(
            1 for mm in report.brave_mismatches + report.cautious_mismatches
            if mm.fact_set
        )
    if profile == "arbitrary":
        assert with_facts > 0


def test_equivalence_domain_falls_back_to_the_reserved_constant():
    # No constant in the program: the domain is the facts' constants, or
    # the reserved one when a trial draws no fact.  Without ``e`` the
    # original is inconsistent, so it cautiously entails c(u0).
    p = parse_program(
        "a :- e. b :- not a, f. c(X) :- d(X), not a. z :- not z, not e."
    )
    for q in (parse_query("c(X)?"), parse_query("b?")):
        for seed in range(10):
            for density in (0.0, 0.3):
                report = check_equivalence(p, q, 3, seed, density)
                assert report._replace(timings_ms=()) == _check_by_programs(
                    p, q, 3, seed, density, None
                )


def _instance_counts(p, q, facts):
    """The relevant grounding sizes of ``p`` and its rewriting with
    ``facts`` added, each ground on its own."""
    return [len(ground(side.with_facts(facts)).rules) for side in (p, dms(q, p))]


def test_a_union_over_the_cap_falls_back_to_grounding_each_trial(ancestry):
    # Each side is ground once over the union of the draws; when that
    # union trips the cap, every trial is ground on its own as before.
    q = parse_query("ancestor(p1,X)?")
    draws = [random_edb(ancestry, t, 0.3) for t in range(4)]  # seed 0's trials
    largest = [max(_instance_counts(ancestry, q, facts)) for facts in draws]
    cap = max(largest)
    assert max(_instance_counts(ancestry, q, frozenset().union(*draws))) > cap
    report = check_equivalence(ancestry, q, 4, 0, 0.3, ground_cap=cap)
    assert report.fact_sets_tested == 4 and report.skipped == ()
    assert report._replace(timings_ms=()) == _check_by_programs(
        ancestry, q, 4, 0, 0.3, None, ground_cap=cap
    )
    # a cap that one draw alone exceeds skips that trial, and only it
    cap = sorted(largest)[-2]
    (over,) = [t for t, n in enumerate(largest) if n > cap]
    report = check_equivalence(ancestry, q, 4, 0, 0.3, ground_cap=cap)
    assert report.fact_sets_tested == 3
    assert report.skipped == (f"trial {over}: grounding needs more than {cap} instances",)
    assert report._replace(timings_ms=()) == _check_by_programs(
        ancestry, q, 4, 0, 0.3, None, ground_cap=cap
    )


def test_the_query_is_unified_once_per_side_on_the_union(calls):
    # The checks of the semantics tests' corpus: the trials cut from one
    # union share its keys, so each side unifies the query with them once.
    unified = calls("_matches")
    for profile in ("stratified", "odd_cycle_free", "arbitrary"):
        for seed in range(100):
            p = random_program(seed, profile)
            q = random_query(p, seed)
            unified.clear()
            report = check_equivalence(p, q, 3, seed, 0.3, max_facts=8)
            assert len(unified) == 2, (profile, seed)
            assert report._replace(timings_ms=()) == _check_by_programs(
                p, q, 3, seed, 0.3, 8
            )


def test_a_side_over_the_cap_unifies_the_query_once_per_trial(calls, ancestry):
    # The set-up of the union-over-the-cap test: every draw fits under the
    # cap, and a side whose union does not grounds, and unifies, each
    # trial on its own.
    q = parse_query("ancestor(p1,X)?")
    draws = [random_edb(ancestry, t, 0.3) for t in range(4)]
    cap = max(max(_instance_counts(ancestry, q, facts)) for facts in draws)
    over = [n > cap for n in _instance_counts(ancestry, q, frozenset().union(*draws))]
    assert any(over)
    unified = calls("_matches")
    report = check_equivalence(ancestry, q, 4, 0, 0.3, ground_cap=cap)
    assert report.fact_sets_tested == 4 and report.skipped == ()
    assert len(unified) == sum(4 if trips else 1 for trips in over)


# Its pool is g1(c1), g1(f1) and g1(f2), and g1(c1) is a fact of the
# program, so a trial keeps one of four added fact sets.
_TINY_POOL = "g1(c1). p1(X) :- g1(X), not p2(X). p2(X) :- g1(X), not p1(X)."


def _tiny_pool_draws(seed, trials=12):
    """The program, its query ``p1(X)?``, its fact ``g1(c1)`` and the
    draws of ``check_equivalence(p, q, trials, seed)``."""
    p = parse_program(_TINY_POOL)
    draws = [random_edb(p, seed * 1_000_003 + t, 0.3) for t in range(trials)]
    return p, parse_query("p1(X)?"), frozenset({Atom("g1", (const("c1"),))}), draws


def _searches_per_side(monkeypatch, *args, **kwargs):
    """The report of ``check_equivalence(*args, **kwargs)`` and the number
    of searches, ``semantics._search_answers`` calls, each side made:
    the original's, then the rewriting's."""
    searches = []
    side = None
    real_answers, real_search = harness._trial_answers, semantics._search_answers

    def search(*search_args):
        searches[side] += 1
        return real_search(*search_args)

    def trial_answers(*side_args):
        answers = real_answers(*side_args)
        mine = len(searches)
        searches.append(0)

        def answers_as_side(t, domain):
            nonlocal side
            side = mine
            return answers(t, domain)

        return answers_as_side

    monkeypatch.setattr(semantics, "_search_answers", search)
    monkeypatch.setattr(harness, "_trial_answers", trial_answers)
    report = check_equivalence(*args, **kwargs)
    monkeypatch.undo()
    return report, searches


def test_a_trial_keeping_an_earlier_trials_facts_is_answered_from_it(monkeypatch):
    # Seed 5's 12 trials draw 8 distinct fact sets, and some differ only by
    # the program's own fact, so they keep 4: each side searches 4 times.
    p, q, given, draws = _tiny_pool_draws(5)
    kept = {facts - given for facts in draws}
    assert (len(set(draws)), len(kept)) == (8, 4)
    report, searches = _searches_per_side(monkeypatch, p, q, 12, 5)
    assert searches == [len(kept)] * 2
    assert report.fact_sets_tested == len(report.timings_ms) == 12
    assert report._replace(timings_ms=()) == _check_by_programs(p, q, 12, 5, 0.3, None)


def test_a_trial_over_the_candidate_cap_trips_it_each_time_it_repeats(monkeypatch):
    # Keeping g1(f1) and g1(f2) takes 15 states on each side, keeping less
    # at most 9.  Seed 2's trials 2, 7 and 11 keep both, the last with
    # g1(c1) too: nothing is kept for a search that trips the cap, so each
    # searches the original again, trips it again and is skipped with the
    # same message, and the rewriting is not searched for them.
    p, q, given, draws = _tiny_pool_draws(2)
    over = [t for t, facts in enumerate(draws) if len(facts - given) == 2]
    assert over == [2, 7, 11]
    under = {facts - given for facts in draws if len(facts - given) < 2}
    report, searches = _searches_per_side(monkeypatch, p, q, 12, 2, candidate_cap=14)
    assert searches == [len(under) + len(over), len(under)] == [6, 3]
    assert report.skipped == tuple(
        f"trial {t}: more than 14 candidate states examined" for t in over
    )
    assert report.fact_sets_tested == 9
    assert report._replace(timings_ms=()) == _check_by_programs(
        p, q, 12, 2, 0.3, None, candidate_cap=14
    )


def test_identical_draws_over_the_ground_cap_are_answered_once(monkeypatch):
    # The fallback of the union-over-the-cap test on the tiny pool: none of
    # seed 1's trials draws both g1(f1) and g1(f2), but their union holds
    # both, and only the rewriting's union trips the largest trial's size.
    # The original's trials are cut from its union; each of the rewriting's
    # is ground on its own.  Both sides number the same added facts, the
    # program's g1(c1) aside, so on each side a trial is answered from an
    # earlier one that adds the same facts, whether or not it draws g1(c1):
    # 5 distinct draws keep 3 fact sets.
    p, q, given, draws = _tiny_pool_draws(1)
    cap = max(max(_instance_counts(p, q, facts)) for facts in draws)
    union = _instance_counts(p, q, frozenset().union(*draws))
    assert [n > cap for n in union] == [False, True]
    report, searches = _searches_per_side(monkeypatch, p, q, 12, 1, ground_cap=cap)
    kept = {facts - given for facts in draws}
    assert (len(set(draws)), len(kept)) == (5, 3)
    assert searches == [len(kept)] * 2 == [3, 3]
    assert report.fact_sets_tested == 12 and report.skipped == ()
    assert report._replace(timings_ms=()) == _check_by_programs(
        p, q, 12, 1, 0.3, None, ground_cap=cap
    )


def _kept(side, draws):
    """What each of ``draws`` keeps on ``side``: the int bitmask of the
    added facts it draws that ``side`` does not have."""
    return _number(side, draws)[1]


# g1(c1) is an extensional fact, and p1(c1) an intensional one, which the
# rewriting for p1(c1)? guards: p1(c1) :- magic_p1_b(c1).
_IDB_FACT = "g1(c1). p1(c1). p1(X) :- g1(X), not p2(X). p2(X) :- g1(X), not p1(X)."


def test_one_numbering_serves_the_union_and_each_trial_alone():
    # The rewriting's union of seed 1's draws has 22 instances and each
    # trial at most 15, so under a cap of 15 each trial is ground on its
    # own, and else cut from the union.  Both paths read one numbering of
    # the added facts, made on the original: g1(f1) then g1(f2) in key
    # order, and not the program's g1(c1), so a trial that draws only
    # g1(c1) keeps nothing.  The rewriting would number them alike.
    p, q, given, draws = _tiny_pool_draws(1)
    side = dms(q, p)
    trials = [_instance_counts(p, q, facts)[1] for facts in draws]
    union = _instance_counts(p, q, frozenset().union(*draws))[1]
    assert union == 22 > 15 == max(trials)
    numbered = added, kept = _number(p, draws)
    assert [key for _, key in added] == [("g1", ("f1",)), ("g1", ("f2",))]
    assert kept == _kept(side, draws) == [0, 0, 0, 2, 2, 0, 0, 1, 0, 0, 1, 2]
    assert [t for t, facts in enumerate(draws) if facts == given] == [0, 6, 8]
    over = _trial_groundings(side, 15, numbered)
    cut = _trial_groundings(side, GROUND_CAP_DEFAULT, numbered)
    for search in (over, cut):
        assert [len(search(t)[1]) for t in range(len(draws))] == trials
    # The draws range over the extensional predicates, whose facts the
    # rewriting keeps, so an intensional fact it guards is never drawn.
    p, q = parse_program(_IDB_FACT), parse_query("p1(c1)?")
    side = dms(q, p)
    guarded = parse_program("p1(c1) :- magic_p1_b(c1).").rules[0]
    assert guarded in side.rules and p.rules[1] not in side.rules
    draws = [random_edb(p, 3 * 1_000_003 + t, 0.3) for t in range(6)]
    assert _kept(p, draws) == _kept(side, draws) == [2, 2, 0, 0, 1, 2]
    report = check_equivalence(p, q, trials=6, seed=3)
    assert report._replace(timings_ms=()) == _check_by_programs(p, q, 6, 3, 0.3, None)


def test_equivalence_report_is_reproducible(ancestry):
    q = parse_query("ancestor(p1,X)?")
    a = check_equivalence(ancestry, q, trials=2, seed=9)
    b = check_equivalence(ancestry, q, trials=2, seed=9)
    assert a.program_id == b.program_id
    assert a.ground_rule_counts == b.ground_rule_counts
    assert a.brave_mismatches == b.brave_mismatches


# ----------------------------------------------------------------- benchmark


def test_run_benchmark_small_grid():
    cells = run_benchmark([1, 2], mode="both")
    assert len(cells) == 4
    assert [c.status for c in cells] == ["ok"] * 4
    by_key = {(c.n, c.mode): c for c in cells}
    assert by_key[(1, "plain")].answer == "no"
    assert by_key[(1, "dms")].answer == "no"
    assert by_key[(2, "plain")].answer == "yes"
    assert by_key[(2, "dms")].answer == "yes"
    for c in cells:
        assert c.time_ms is not None and c.time_ms >= 0
        # the 1-grid has no related facts, so nothing is derivable
        if (c.n, c.mode) == (1, "plain"):
            assert c.ground_rules == 0
        else:
            assert c.ground_rules > 0
        # no rule derives the 1-grid's query atom, so there is no search
        if c.n == 1:
            assert c.candidates == 0
        else:
            assert c.candidates > 0


def test_run_benchmark_counts_are_stable_across_reps():
    cells = run_benchmark([1], mode="plain", repetitions=2)
    assert len(cells) == 2
    assert cells[0].ground_rules == cells[1].ground_rules
    assert cells[0].candidates == cells[1].candidates
    assert cells[0].answer == cells[1].answer


def test_run_benchmark_timeout_row():
    # the plain 8-grid corner query takes seconds
    (cell,) = run_benchmark([8], mode="plain", timeout=0.05)
    assert cell.status == "timeout"
    assert cell.time_ms is None
    assert cell.answer is None


def test_run_benchmark_answers_the_4_grid():
    # Full enumeration of the 4-grid does not finish in 30 s; the directed
    # search answers it in milliseconds.
    cells = run_benchmark([4], mode="both", timeout=30)
    assert [(c.mode, c.status, c.answer) for c in cells] == [
        ("plain", "ok", "yes"), ("dms", "ok", "yes"),
    ]


def test_run_benchmark_times_the_query_search():
    # Each cell reports what answer_query reports for the same query: the
    # states of the directed search, not those of full enumeration.
    inst = gen_related_instance(3)
    cells = run_benchmark([3], mode="both")
    by_mode = {c.mode: c for c in cells}
    for mode, target, states in (
        ("plain", inst.program, 18),
        ("dms", dms(inst.query, inst.program), 12),
    ):
        answer = answer_query(target, inst.query, "brave")
        assert answer.candidates_examined == states
        assert by_mode[mode].candidates == states
        assert by_mode[mode].ground_rules == answer.ground_rules
        assert by_mode[mode].answer == "yes"


def test_run_benchmark_times_the_rewriting(monkeypatch):
    import time

    import aspmagic.harness

    def slow_dms(q, p):
        time.sleep(0.2)
        return dms(q, p)

    # patched before the fork, so the worker inherits it
    monkeypatch.setattr(aspmagic.harness, "dms", slow_dms)
    (cell,) = run_benchmark([2], mode="dms")
    assert cell.status == "ok" and cell.answer == "yes"
    assert cell.time_ms >= 200


def test_run_benchmark_times_out_while_building_the_instance(monkeypatch):
    import time

    import aspmagic.harness

    def slow_instance(n):
        time.sleep(1.0)
        return gen_related_instance(n)

    # patched before the fork: the worker builds the instance, inside the
    # cell's timeout
    monkeypatch.setattr(aspmagic.harness, "gen_related_instance", slow_instance)
    (cell,) = run_benchmark([2], mode="plain", timeout=0.3)
    assert cell.status == "timeout"


def test_run_benchmark_rejects_sizes_below_1_before_forking(monkeypatch):
    import aspmagic.harness

    monkeypatch.setattr(aspmagic.harness, "_bench_worker", None)  # never reached
    with pytest.raises(ValueError, match="at least 1"):
        run_benchmark([2, 0])


def test_run_benchmark_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        run_benchmark([1], mode="fast")


def test_benchmark_table_format():
    cells = (
        BenchmarkCell(1, "plain", 0, "ok", 1.25, 10, 3, "no"),
        BenchmarkCell(3, "dms", 0, "timeout"),
    )
    lines = benchmark_table(cells).splitlines()
    assert lines[0] == "n,mode,rep,status,time_ms,ground_rules,candidates,answer"
    assert lines[1] == "1,plain,0,ok,1.2,10,3,no"
    assert lines[2] == "3,dms,0,timeout,,,,"


def test_grid_program_mentions_only_related_facts():
    inst = gen_related_instance(2)
    edb_atoms = {r.head[0] for r in inst.facts}
    assert Atom("related", (const("p_1_1"), const("p_1_2"))) in edb_atoms
    assert all(a.predicate == "related" for a in edb_atoms)
