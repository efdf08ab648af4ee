"""Command-line front end.

Subcommands cover the whole pipeline: rewrite a program for a query,
enumerate answer sets, answer brave or cautious queries (with the
rewriting applied automatically when it is known safe), classify a
program, differential-test the rewriting, and run the grid benchmark.
``query``, ``bench`` and ``diff`` answer through one directed search
(``diff`` once per side for both modes), so a bench cell takes the search
states ``query --brave`` reports; only ``solve`` enumerates every answer set.

A call loads only the modules its subcommand runs, and argparse builds
only that subcommand's arguments.  The parser, syntax and semantics
modules load with this one; ``query`` adds the analysis module when it
considers the rewriting and the rewriter when it applies it, ``rewrite``
the rewriter, ``check`` the analysis module, and ``diff`` and ``bench``
the harness (which loads the rest).  Of the standard library a call adds
little beyond argparse: ``json`` only for ``--format structured`` (and
``diff`` and ``bench``, through the harness), files are read and written
with ``open`` rather than ``pathlib``, the help width is found without
``shutil``, and no module of the package loads ``inspect``.

Exit codes: 0 success, 1 differential mismatch, 2 usage or input errors,
3 resource cap exceeded (also ``diff`` when every trial tripped a cap, so
it compared nothing), 4 internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Sequence

from .parser import SourceError, parse_program, parse_query, print_program
from .semantics import (
    CANDIDATE_CAP_DEFAULT,
    GROUND_CAP_DEFAULT,
    QueryAnswer,
    SolverCapError,
    answer_query,
    answer_sets,
)
from .syntax import Program, ProgramError, Query, universe

__all__ = ["main"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return value


def _size_list(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")
    if not sizes or any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be integers >= 1")
    return sizes


def _help_width() -> int:
    """The help width argparse reads from ``shutil``, without loading it and
    its compression modules: ``COLUMNS``, else the terminal's, else 80, less 2."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return (columns or 80) - 2


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Only subcommands named in ``argv`` get
    their arguments; argparse dispatches to no other one, and the rest are
    listed by name and help text, which is all ``aspmagic --help`` and an
    unknown-subcommand error show of them."""
    formatter = partial(argparse.HelpFormatter, width=_help_width())
    root = argparse.ArgumentParser(
        prog="aspmagic",
        description="magic-set rewriting and reference evaluation for disjunctive programs",
        formatter_class=formatter,
    )
    sub = root.add_subparsers(dest="command", required=True)

    def subcommand(name, help_text, func) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_text, formatter_class=formatter)
        if name not in argv:
            return None
        p.add_argument(
            "--ground-cap", type=_positive_int, default=GROUND_CAP_DEFAULT,
            help="largest allowed number of ground rule instances; only "
                 "instances whose positive body is derivable are counted",
        )
        p.add_argument(
            "--candidate-cap", type=_positive_int, default=CANDIDATE_CAP_DEFAULT,
            help="largest allowed number of candidate states",
        )
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="plain text or JSON output",
        )
        p.set_defaults(func=func)
        return p

    if p := subcommand(
        "rewrite", "print the rewriting of a program for a query", _cmd_rewrite
    ):
        p.add_argument("program")
        p.add_argument("--query", required=True)

    if p := subcommand("solve", "enumerate answer sets", _cmd_solve):
        p.add_argument("program")
        p.add_argument("--max", type=_positive_int, default=None,
                       help="print at most this many answer sets")

    if p := subcommand("query", "answer a brave or cautious query", _cmd_query):
        p.add_argument("program")
        p.add_argument("--query", required=True)
        kind = p.add_mutually_exclusive_group(required=True)
        kind.add_argument("--brave", action="store_true")
        kind.add_argument("--cautious", action="store_true")
        p.add_argument(
            "--rewrite", choices=("auto", "on", "off"), default="auto",
            help="apply the magic-set rewriting before solving",
        )

    if p := subcommand("check", "classify a program", _cmd_check):
        p.add_argument("program")
        what = p.add_mutually_exclusive_group(required=True)
        what.add_argument("--stratified", action="store_true")
        what.add_argument("--odd-cycle-free", action="store_true")
        what.add_argument("--super-consistent", action="store_true")
        p.add_argument("--budget", type=_positive_int, default=10_000,
                       help="fact sets to try before giving up")

    if p := subcommand(
        "diff", "compare query answers of a program and its rewriting", _cmd_diff
    ):
        p.add_argument("program")
        p.add_argument("--query", required=True)
        p.add_argument("--trials", type=_positive_int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--density", type=_probability, default=0.3,
                       help="probability of each candidate fact, in [0, 1]")

    if p := subcommand("bench", "run a benchmark suite", _cmd_bench):
        p.add_argument("suite", choices=("related",))
        p.add_argument("--sizes", type=_size_list, default=[1, 2, 3])
        p.add_argument("--mode", choices=("plain", "dms", "both"), default="both")
        p.add_argument("--reps", type=_positive_int, default=1)
        p.add_argument("--out", default=None,
                       help="write the structured report to this path")

    return root


def _print_json(record: dict, indent: int | None = 2) -> None:
    """Print ``record`` as JSON; ``json`` is imported here, so that a call
    printing text does not load it."""
    import json

    print(json.dumps(record, indent=indent))


def _load_program(path: str) -> Program:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ProgramError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_program(text)


def _load_query(text: str, p: Program) -> Query:
    """Parse ``text`` as a query on ``p``: its predicate must have the arity
    it has in ``p``, if ``p`` uses it."""
    q = parse_query(text)
    arity = p.predicates.get(q.atom.predicate)
    if arity is not None and arity != q.atom.arity:
        raise ProgramError(
            f"query {q} has {q.atom.arity} arguments, but {q.atom.predicate} "
            f"has arity {arity} in the program"
        )
    return q


def _cmd_rewrite(args: argparse.Namespace) -> int:
    from .rewriter import dms

    p = _load_program(args.program)
    q = _load_query(args.query, p)
    rewritten = dms(q, p)
    text = print_program(rewritten)
    if args.format == "structured":
        _print_json({"rules": text.splitlines()})
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    report = answer_sets(
        p, ground_cap=args.ground_cap, candidate_cap=args.candidate_cap
    )
    ordered = sorted(
        report.answer_sets,
        key=lambda m: (len(m), tuple(sorted(str(a) for a in m))),
    )[: args.max]
    if args.format == "structured":
        records = [sorted(str(a) for a in m) for m in ordered]
        _print_json({
            "answer_sets": records,
            "count": len(report.answer_sets),
            "candidates_examined": report.candidates_examined,
        })
    else:
        for m in ordered:
            print("{" + ", ".join(str(a) for a in sorted(m)) + "}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    q = _load_query(args.query, p)
    bound = any(t.is_constant for t in q.atom.args)
    apply_rewriting = False
    if args.rewrite == "on" or (args.rewrite == "auto" and bound):
        from .analysis import is_odd_cycle_free

        odd_cycle_free = is_odd_cycle_free(p)
        if args.rewrite == "on" and not odd_cycle_free:
            print(
                "warning: the program has a dependency cycle crossing an odd "
                "number of negative edges; the rewriting is not guaranteed to "
                "preserve brave or cautious answers here",
                file=sys.stderr,
            )
        apply_rewriting = args.rewrite == "on" or odd_cycle_free
    target = p
    if apply_rewriting:
        from .rewriter import dms

        target = dms(q, p)
    mode = "brave" if args.brave else "cautious"
    answer = answer_query(
        target, q, mode,
        domain=universe(p) | {t for t in q.atom.args if t.is_constant},
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    return _print_query_result(args, q, mode, answer, apply_rewriting)


def _print_query_result(
    args, q: Query, mode: str, answer: QueryAnswer, rewritten: bool
) -> int:
    record = {
        "query": str(q), "mode": mode, "rewriting_applied": rewritten,
        "candidates_examined": answer.candidates_examined,
    }
    if q.is_ground:
        text = "yes" if answer.substitutions else "no"
        if args.format == "structured":
            _print_json({**record, "answer": text})
        else:
            print(text)
        return 0
    ordered = sorted(answer.substitutions)
    if args.format == "structured":
        _print_json({
            **record, "substitutions": [dict(s.bindings) for s in ordered],
        })
    else:
        for s in ordered:
            print(s)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import check_super_consistent, is_odd_cycle_free, is_stratified

    p = _load_program(args.program)
    for asked, label, test in (
        (args.stratified, "stratified", is_stratified),
        (args.odd_cycle_free, "odd-cycle-free", is_odd_cycle_free),
    ):
        if asked:
            verdict = test(p)
            if args.format == "structured":
                _print_json({"check": label, "holds": verdict}, indent=None)
            else:
                print(f"{label}: {'yes' if verdict else 'no'}")
            return 0
    result = check_super_consistent(
        p, args.budget,
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    if args.format == "structured":
        _print_json({
            "check": "super-consistent",
            "status": result.status.value,
            "counterexample": (
                None if result.counterexample is None
                else sorted(str(a) for a in result.counterexample)
            ),
            "sets_tested": result.sets_tested,
            "via_shortcut": result.via_shortcut,
        })
    else:
        print(f"super-consistent: {result.status.value}")
        if result.counterexample is not None:
            listing = ", ".join(str(a) for a in sorted(result.counterexample))
            print(f"inconsistent after adding: {{{listing}}}")
        if result.via_shortcut:
            print("decided by the dependency-cycle check")
        else:
            print(f"fact sets tested: {result.sets_tested}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from .harness import check_equivalence

    p = _load_program(args.program)
    q = _load_query(args.query, p)
    report = check_equivalence(
        p, q, args.trials, args.seed, args.density,
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    compared_nothing = not report.fact_sets_tested
    if args.format == "structured":
        _print_json({
            "program_id": report.program_id,
            "query": str(report.query),
            "fact_sets_tested": report.fact_sets_tested,
            "skipped": list(report.skipped),
            "brave_mismatches": _mismatch_records(report.brave_mismatches),
            "cautious_mismatches": _mismatch_records(report.cautious_mismatches),
            "ok": report.ok and not compared_nothing,
        })
    else:
        print(f"program {report.program_id}, query {report.query}")
        print(f"fact sets tested: {report.fact_sets_tested}"
              + (f" (skipped {len(report.skipped)})" if report.skipped else ""))
        for kind, mms in (
            ("brave", report.brave_mismatches),
            ("cautious", report.cautious_mismatches),
        ):
            for m in mms:
                facts = ", ".join(str(a) for a in m.fact_set) or "(none)"
                print(f"{kind} mismatch with facts {{{facts}}}:")
                for s in m.only_original:
                    print(f"  only original: {s}")
                for s in m.only_rewritten:
                    print(f"  only rewritten: {s}")
        if compared_nothing:
            print("nothing compared: every trial tripped a cap")
        elif report.ok:
            print("no mismatches")
    return 3 if compared_nothing else 0 if report.ok else 1


def _mismatch_records(mismatches: Sequence) -> list[dict]:
    return [
        {
            "facts": [str(a) for a in m.fact_set],
            "only_original": [str(s) for s in m.only_original],
            "only_rewritten": [str(s) for s in m.only_rewritten],
        }
        for m in mismatches
    ]


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness import benchmark_json, benchmark_table, run_benchmark

    cells = run_benchmark(
        args.sizes, args.mode, args.reps,
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    if args.format == "structured":
        print(benchmark_json(cells))
    else:
        sys.stdout.write(benchmark_table(cells))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(benchmark_json(cells))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except SolverCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SourceError, ProgramError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # here, so that calls which succeed skip its import

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
