"""Differential testing and benchmarking around the rewriting.

Three pieces live here: a generator for the genealogy grid instances used
by the benchmark, deterministic random generators for programs, fact sets
and queries, and the drivers that compare query answers between an
original program and its rewriting, or time both on growing instances.
Both answer through the directed search of :func:`answer_query`, the
one ``aspmagic query`` runs: the differential check searches each side
once for its brave and cautious answers together, and the benchmark
asks its ground corner query bravely, as ``aspmagic query --brave``.
"""

from __future__ import annotations

import random
import time
from functools import cached_property
from io import StringIO
from itertools import starmap
from typing import Iterable, NamedTuple

from .analysis import is_odd_cycle_free, is_stratified
from .parser import parse_program, print_program
from .rewriter import dms
from .semantics import (
    CANDIDATE_CAP_DEFAULT,
    GROUND_CAP_DEFAULT,
    SolverCapError,
    Substitution,
    _number,
    _trial_answers,
    answer_query,
)
from .syntax import (
    Atom,
    Program,
    ProgramError,
    Query,
    Rule,
    Term,
    _Frozen,
    _atoms_over,
    fact,
    universe,
    var,
)

__all__ = [
    "ancestry_program",
    "RelatedInstance",
    "gen_related_instance",
    "random_edb",
    "random_program",
    "random_query",
    "Mismatch",
    "EquivReport",
    "check_equivalence",
    "BenchmarkCell",
    "run_benchmark",
    "benchmark_table",
]

_ANCESTRY_TEXT = """
father(X,Y) :- related(X,Y), not brother(X,Y).
brother(X,Y) :- related(X,Y), not father(X,Y).
ancestor(X,Y) :- father(X,Y).
ancestor(X,Y) :- father(X,Z), ancestor(Z,Y).
"""


def ancestry_program() -> Program:
    """The genealogy rules: each related pair is a father or a brother
    link, and ancestry is the transitive closure of father links."""
    return parse_program(_ANCESTRY_TEXT)


class RelatedInstance(_Frozen):
    """A genealogy instance on an n-by-n grid of persons.

    Facts connect each person to the right and to the down neighbour, so
    every fact set has 2n(n-1) edges over the n^2 person constants, and
    the query asks whether the top-left person can be an ancestor of the
    bottom-right one.  The grid layout is our choice of instance shape.
    """

    _fields = ("n", "persons", "facts", "query")

    def __init__(
        self, n: int, persons: tuple[str, ...], facts: tuple[Rule, ...], query: Query
    ) -> None:
        self.__dict__.update(n=n, persons=persons, facts=facts, query=query)

    @cached_property
    def program(self) -> Program:
        return Program((*ancestry_program().rules, *self.facts))


def gen_related_instance(n: int) -> RelatedInstance:
    if n < 1:
        raise ValueError("n must be at least 1")
    name = lambda i, j: f"p_{i}_{j}"
    persons = tuple(name(i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    facts = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j < n:
                facts.append(fact(Atom("related", (Term(name(i, j)), Term(name(i, j + 1))))))
            if i < n:
                facts.append(fact(Atom("related", (Term(name(i, j)), Term(name(i + 1, j))))))
    query = Query(Atom("ancestor", (Term(name(1, 1)), Term(name(n, n)))))
    return RelatedInstance(n=n, persons=persons, facts=tuple(facts), query=query)


def random_edb(
    p: Program,
    seed: int,
    density: float,
    fresh_constants: int = 2,
    max_facts: int | None = None,
) -> frozenset[Atom]:
    """A reproducible random set of ground facts over the extensional
    predicates of ``p``.

    The candidates are the atoms of its extensional predicates that
    :func:`~aspmagic.syntax._atoms_over` enumerates over the universe of
    ``p`` plus ``fresh_constants`` constants ``f1``, ``f2``, ... not
    occurring in it; each is kept with probability ``density``.
    ``max_facts``, when given, thins an oversized draw so downstream
    exhaustive checks stay feasible.  The candidates come from
    :func:`_edb_pool` and the draw from :func:`_draw_edb`, which
    :func:`check_equivalence` calls itself so that it builds the
    candidates once for all its trials.
    """
    chosen = _draw_edb(_edb_pool(p, fresh_constants), seed, density, max_facts)
    return frozenset(Atom(pred, args) for pred, args in chosen)


# A candidate fact: an extensional predicate and its argument terms.
_Candidate = tuple[str, tuple[Term, ...]]


def _edb_pool(p: Program, fresh_constants: int) -> list[_Candidate]:
    """Every candidate fact of :func:`random_edb` on ``p``, in atom order;
    only the atoms drawn are built."""
    if not p.edb_predicates:
        raise ProgramError("program has no extensional predicate")
    return list(_atoms_over(p, p.edb_predicates, "f", max(fresh_constants, 0)))


def _draw_edb(
    candidates: list[_Candidate], seed: int, density: float, max_facts: int | None
) -> list[_Candidate]:
    """The candidates :func:`random_edb` keeps for ``seed``: each with
    probability ``density``, then at most ``max_facts`` of them."""
    rng = random.Random(f"edb:{seed}")
    chosen = [c for c in candidates if rng.random() < density]
    if max_facts is not None and len(chosen) > max_facts:
        chosen = rng.sample(chosen, max_facts)
    return chosen


_PROFILES = ("stratified", "odd_cycle_free", "arbitrary")


def _profile_holds(p: Program, profile: str) -> bool:
    if profile == "stratified":
        return is_stratified(p)
    if profile == "odd_cycle_free":
        return is_odd_cycle_free(p)
    return True


def _draw_program(rng: random.Random, profile: str) -> Program:
    c1, c2 = Term("c1"), Term("c2")
    x, y = var("X"), var("Y")
    use_g2 = rng.random() < 0.5
    use_p2 = rng.random() < 0.7
    edb_preds = [("g1", 1)] + ([("g2", 2)] if use_g2 else [])
    idb_preds = [("p1", 1)] + ([("p2", 1)] if use_p2 else [])
    strata = {"g1": 0, "g2": 0, "p1": 1, "p2": 2}

    rules: list[Rule] = [fact(Atom("g1", (c1,)))]
    if rng.random() < 0.6:
        rules.append(fact(Atom("g1", (c2,))))
    if use_g2:
        for _ in range(rng.randint(1, 2)):
            rules.append(fact(Atom("g2", (rng.choice((c1, c2)), rng.choice((c1, c2))))))

    def body_atom(pred: str, arity: int) -> Atom:
        args = []
        for _ in range(arity):
            roll = rng.random()
            if roll < 0.15:
                args.append(rng.choice((c1, c2)))
            elif roll < 0.6:
                args.append(x)
            else:
                args.append(y)
        return Atom(pred, tuple(args))

    for pred, _ in idb_preds:
        for _ in range(rng.randint(1, 2)):
            head = [Atom(pred, (x,))]
            if use_p2 and rng.random() < 0.25:
                other = "p2" if pred == "p1" else "p1"
                head.append(Atom(other, (x,)))
            head_floor = min(strata[h.predicate] for h in head)
            pos: list[Atom] = []
            neg: list[Atom] = []
            for _ in range(rng.randint(1, 2)):
                negate = rng.random() < 0.35
                choices = edb_preds + idb_preds
                if profile == "stratified":
                    allowed = [
                        (bp, ba)
                        for bp, ba in choices
                        if strata[bp] < head_floor
                        or (not negate and strata[bp] <= head_floor)
                    ]
                    choices = allowed or [("g1", 1)]
                bp, ba = rng.choice(choices)
                if negate and (profile != "stratified" or strata[bp] < head_floor):
                    neg.append(body_atom(bp, ba))
                else:
                    pos.append(body_atom(bp, ba))
            needed = set()
            for a in (*head, *neg):
                needed |= a.variables()
            for a in pos:
                needed -= a.variables()
            for v in sorted(needed):
                pos.append(Atom("g1", (var(v),)))
            rules.append(Rule(tuple(head), tuple(pos), tuple(neg)))
    return Program(tuple(rules))


def random_program(seed: int, profile: str = "odd_cycle_free") -> Program:
    """A reproducible small program in the requested class.

    Stratified draws are built against a fixed predicate ordering; the
    odd-cycle-free profile redraws until the dependency check passes.
    Sizes are kept small enough that the exhaustive cross-check solver
    can handle the grounded result.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    rng = random.Random(f"{profile}:{seed}")
    last = None
    for _ in range(60):
        last = _draw_program(rng, profile)
        if _profile_holds(last, profile):
            return last
    # Give up on redrawing and strip the negative bodies; a positive
    # program is in every class we generate for.
    assert last is not None
    stripped = tuple(
        Rule(r.head, r.pos_body) if r.neg_body else r for r in last.rules
    )
    return Program(stripped)


def random_query(p: Program, seed: int) -> Query:
    """A reproducible query against an intensional predicate of ``p``,
    with each argument position randomly bound to a constant or left as
    a variable."""
    rng = random.Random(f"query:{seed}")
    idb = sorted(p.idb_predicates)
    preds = idb or sorted(p.predicates)
    if not preds:
        raise ProgramError("program has no predicates to query")
    pred = rng.choice(preds)
    consts = sorted(universe(p))
    args = []
    for i in range(p.predicates[pred]):
        if consts and rng.random() < 0.6:
            args.append(rng.choice(consts))
        else:
            args.append(var("XYZW"[i] if i < 4 else f"X{i}"))
    return Query(Atom(pred, tuple(args)))


class Mismatch(NamedTuple):
    """Substitution sets that differ between original and rewriting for
    one sampled fact set."""

    fact_set: tuple[Atom, ...]
    only_original: tuple[Substitution, ...]
    only_rewritten: tuple[Substitution, ...]


class EquivReport(NamedTuple):
    program_id: str
    query: Query
    fact_sets_tested: int
    brave_mismatches: tuple[Mismatch, ...]
    cautious_mismatches: tuple[Mismatch, ...]
    ground_rule_counts: tuple[tuple[int, int], ...]
    timings_ms: tuple[tuple[float, float], ...]
    skipped: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.brave_mismatches and not self.cautious_mismatches


def _diff(
    a: frozenset[Substitution], b: frozenset[Substitution], facts: Iterable[Atom]
) -> Mismatch | None:
    if a == b:
        return None
    return Mismatch(
        fact_set=tuple(sorted(facts)),
        only_original=tuple(sorted(a - b)),
        only_rewritten=tuple(sorted(b - a)),
    )


def check_equivalence(
    p: Program,
    q: Query,
    trials: int = 5,
    seed: int = 0,
    density: float = 0.3,
    *,
    max_facts: int | None = None,
    ground_cap: int = GROUND_CAP_DEFAULT,
    candidate_cap: int = CANDIDATE_CAP_DEFAULT,
) -> EquivReport:
    """Compare brave and cautious answers of ``p`` and its rewriting on
    ``trials`` sampled fact sets.

    The rewriting is computed once, and so are the candidate facts of
    :func:`random_edb`, before the first trial.  Each trial draws its
    facts as ``random_edb`` would, and every draw is made before the first
    trial.  The draws are then prepared once for both sides: the drawn
    facts that ``p`` does not have are formed, sorted and numbered, and
    each trial keeps an int bitmask of those it adds.  The rewriting
    keeps the extensional facts of ``p``, over which the draws range, so
    this one numbering serves it too.  Each side is ground once, with the
    union of the draws added as facts, and put in the search's mask form
    once.  Each trial's grounding is cut from it by the search's own
    positive closure from the trial's facts: the instances whose positive
    body those facts derive, which are exactly those of grounding the
    trial alone, kept in the union's order and bit numbering (see
    :func:`_trial_answers`).  No extended program is built.  When the
    union trips ``ground_cap``, that side grounds each trial on its own
    instead.  Either way, a trial that keeps what an earlier trial kept
    is answered from that trial on that side, with no cut, grounding or
    search; only answers are kept, each only while a trial still to run
    keeps the same facts.  The query is evaluated over a shared
    substitution domain, the universe of ``p`` with the trial's facts
    added plus the query's constants, so any reported difference is a
    genuine answer difference.
    Each side is answered by one directed search, the one ``aspmagic
    query`` runs, settling its brave and cautious answers together;
    ``timings_ms`` holds the time of each side's grounding, search and
    answering, or of its lookup for a trial answered from an earlier
    one, and the first trial tested also carries each side's shared
    grounding.  Like the draws, their preparation is set-up of the
    check, and neither side's time includes it.  Trials tripping a
    solver cap are skipped and counted; nothing is kept for them, so a
    trial that repeats one trips the cap again.
    """
    import hashlib  # loaded only here, not by every CLI call

    program_id = hashlib.sha1(print_program(p).encode()).hexdigest()[:12]
    rewritten = dms(q, p)
    qconsts = frozenset(t for t in q.atom.args if t.is_constant)
    candidates = _edb_pool(p, 2) if trials > 0 else []

    modes = ("brave", "cautious")
    draws = [
        _draw_edb(candidates, seed * 1_000_003 + t, density, max_facts)
        for t in range(trials)
    ]
    numbered = _number(p, draws)
    # each side is ground once for all trials, and the first trial
    # tested is charged with that time
    sides, shared = [], []
    for side in (p, rewritten) if draws else ():
        t0 = time.perf_counter()
        sides.append(
            _trial_answers(side, q, modes, ground_cap, candidate_cap, numbered)
        )
        shared.append((time.perf_counter() - t0) * 1000.0)
    bad: dict[str, list[Mismatch]] = {mode: [] for mode in modes}
    counts: list[tuple[int, int]] = []
    timings: list[tuple[float, float]] = []
    skipped: list[str] = []
    for t, drawn in enumerate(draws):
        # universe(p.with_facts(drawn)): the reserved constant only when
        # neither the program nor the facts have one
        terms = p.constants.union(*[args for _, args in drawn]) or universe(p)
        domain = terms | qconsts
        try:
            t0 = time.perf_counter()
            answers_a, _, rules_a = sides[0](t, domain)
            t1 = time.perf_counter()
            answers_b, _, rules_b = sides[1](t, domain)
            t2 = time.perf_counter()
        except SolverCapError as exc:
            skipped.append(f"trial {t}: {exc}")
            continue
        counts.append((rules_a, rules_b))
        timings.append(((t1 - t0) * 1000.0 + shared[0], (t2 - t1) * 1000.0 + shared[1]))
        shared = [0.0, 0.0]
        for mode, mismatches in bad.items():
            if mm := _diff(answers_a[mode], answers_b[mode], starmap(Atom, drawn)):
                mismatches.append(mm)
    return EquivReport(
        program_id=program_id,
        query=q,
        fact_sets_tested=len(counts),
        brave_mismatches=tuple(bad["brave"]),
        cautious_mismatches=tuple(bad["cautious"]),
        ground_rule_counts=tuple(counts),
        timings_ms=tuple(timings),
        skipped=tuple(skipped),
    )


class BenchmarkCell(NamedTuple):
    n: int
    mode: str
    rep: int
    status: str
    time_ms: float | None = None
    ground_rules: int | None = None
    candidates: int | None = None
    answer: str | None = None


def _bench_worker(conn, n: int, mode: str, rep: int,
                  ground_cap: int, candidate_cap: int) -> None:
    try:
        inst = gen_related_instance(n)
        p, q = inst.program, inst.query
        t0 = time.perf_counter()
        target = dms(q, p) if mode == "dms" else p
        answer = answer_query(
            target, q, "brave", ground_cap=ground_cap, candidate_cap=candidate_cap
        )
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        cell = BenchmarkCell(
            n, mode, rep, "ok", elapsed_ms, answer.ground_rules,
            answer.candidates_examined, "yes" if answer.substitutions else "no",
        )
    except SolverCapError as exc:
        cell = BenchmarkCell(n, mode, rep, f"cap exceeded: {exc}")
    except Exception as exc:  # surfaced in the report, not swallowed
        cell = BenchmarkCell(n, mode, rep, f"error: {exc}")
    try:
        conn.send(cell)
    finally:
        conn.close()


def run_benchmark(
    sizes: Iterable[int],
    mode: str = "both",
    repetitions: int = 1,
    *,
    timeout: float = 60.0,
    ground_cap: int = GROUND_CAP_DEFAULT,
    candidate_cap: int = CANDIDATE_CAP_DEFAULT,
) -> tuple[BenchmarkCell, ...]:
    """Time the corner-to-corner brave query on grid instances of the
    given sizes, evaluating the plain program, its rewriting, or both.

    Each cell answers the query through :func:`answer_query`, the directed
    search that ``aspmagic query --brave`` runs, and reports the size of
    the relevant grounding and the search states it took; a dms cell's
    time includes the rewriting, not the building of the instance.  Every
    cell runs in a forked worker, which builds its own instance and is
    killed at ``timeout`` seconds, so a blown-up size yields a timeout row
    instead of hanging the run.
    """
    if mode not in ("plain", "dms", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    sizes = tuple(sizes)
    if any(n < 1 for n in sizes):
        raise ValueError("n must be at least 1")
    import multiprocessing  # loaded only here, not by every CLI call

    mode_list = ("plain", "dms") if mode == "both" else (mode,)
    ctx = multiprocessing.get_context("fork")
    cells = []
    for n in sizes:
        for m in mode_list:
            for rep in range(repetitions):
                recv_end, send_end = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_bench_worker,
                    args=(send_end, n, m, rep, ground_cap, candidate_cap),
                )
                proc.start()
                send_end.close()
                proc.join(timeout)
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
                    cells.append(BenchmarkCell(n, m, rep, "timeout"))
                elif recv_end.poll():
                    cells.append(recv_end.recv())
                else:
                    cells.append(
                        BenchmarkCell(n, m, rep, "error: worker produced no result")
                    )
                recv_end.close()
    return tuple(cells)


def benchmark_table(cells: Iterable[BenchmarkCell]) -> str:
    """The cells as comma-separated text, one row per repetition, with the
    fields of :class:`BenchmarkCell` in order and ``time_ms`` to one
    decimal; empty fields are values a timed-out or capped cell does not
    have."""
    import csv  # loaded only here, not by every CLI call

    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BenchmarkCell._fields)
    for c in cells:
        writer.writerow(
            c if c.time_ms is None else c._replace(time_ms=f"{c.time_ms:.1f}")
        )
    return out.getvalue()
