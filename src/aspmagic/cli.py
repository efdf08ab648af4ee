"""Command-line front end.

Subcommands cover the whole pipeline: rewrite a program for a query,
enumerate answer sets, answer brave or cautious queries (with the
rewriting applied automatically when it is known safe), classify a
program, differential-test the rewriting, and run the grid benchmark.
``query``, ``bench`` and ``diff`` answer through one directed search
(``diff`` once per side for both modes), so a bench cell takes the search
states ``query --brave`` reports; only ``solve`` enumerates every answer set.

Each subcommand builds its report once, as one record: ``--format
structured`` prints that record as indented JSON, and the text output (the
CSV table, for ``bench``) is rendered from the same record, so a field is
added in one place.  ``bench --out`` writes that same JSON to a file, and
each bench cell builds its grid instance inside its worker, so the cell's
timeout covers it.  ``rewrite`` takes no cap options, since it neither
grounds nor searches.

A call loads only the modules its subcommand runs, and argparse builds
only that subcommand's arguments.  The parser, syntax and semantics
modules load with this one; ``query`` adds the analysis module when it
considers the rewriting and the rewriter when it applies it, ``rewrite``
the rewriter, ``check`` the analysis module, and ``diff`` and ``bench``
the harness (which loads the rest).  Of the standard library a call adds
little beyond argparse: ``json`` only for ``--format structured`` and
``bench --out``, files are read and written
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
    SolverCapError,
    answer_query,
    answer_sets,
)
from .syntax import Program, ProgramError, Query, _check_query_arity, universe

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
        if name != "rewrite":  # the one subcommand that neither grounds nor searches
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


def _report(args: argparse.Namespace, record: dict, lines) -> None:
    """Print a report: under ``--format structured`` its ``record`` as
    indented JSON, else the text ``lines`` rendered from that record.
    ``json`` is imported here, so that a call printing text does not load
    it."""
    if args.format == "structured":
        import json

        print(json.dumps(record, indent=2))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))


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
    _check_query_arity(q, p)
    return q


def _cmd_rewrite(args: argparse.Namespace) -> int:
    from .rewriter import dms

    p = _load_program(args.program)
    q = _load_query(args.query, p)
    record = {"rules": print_program(dms(q, p)).splitlines()}
    _report(args, record, record["rules"])
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    report = answer_sets(
        p, ground_cap=args.ground_cap, candidate_cap=args.candidate_cap
    )
    # sorted strings keep the order of sorted atoms: "(", "," and ")" sort
    # below every character of a name
    listed = sorted(
        (sorted(map(str, m)) for m in report.answer_sets), key=lambda m: (len(m), m)
    )[: args.max]
    record = {
        "answer_sets": listed,
        "count": len(report.answer_sets),
        "candidates_examined": report.candidates_examined,
    }
    _report(args, record, ("{" + ", ".join(m) + "}" for m in listed))
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
    record = {
        "query": str(q), "mode": mode, "rewriting_applied": apply_rewriting,
        "candidates_examined": answer.candidates_examined,
    }
    if q.is_ground:
        record["answer"] = "yes" if answer.substitutions else "no"
        lines = [record["answer"]]
    else:
        ordered = sorted(answer.substitutions)
        record["substitutions"] = [dict(s.bindings) for s in ordered]
        lines = map(str, ordered)
    _report(args, record, lines)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import check_super_consistent, is_odd_cycle_free, is_stratified

    p = _load_program(args.program)
    for asked, label, test in (
        (args.stratified, "stratified", is_stratified),
        (args.odd_cycle_free, "odd-cycle-free", is_odd_cycle_free),
    ):
        if asked:
            holds = test(p)
            _report(
                args, {"check": label, "holds": holds},
                [f"{label}: {'yes' if holds else 'no'}"],
            )
            return 0
    result = check_super_consistent(
        p, args.budget,
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    record = {
        "check": "super-consistent",
        "status": result.status.value,
        "counterexample": (
            None if result.counterexample is None
            else sorted(str(a) for a in result.counterexample)
        ),
        "sets_tested": result.sets_tested,
        "via_shortcut": result.via_shortcut,
    }
    lines = [f"super-consistent: {record['status']}"]
    if record["counterexample"] is not None:
        listing = ", ".join(record["counterexample"])
        lines.append(f"inconsistent after adding: {{{listing}}}")
    lines.append(
        "decided by the dependency-cycle check" if record["via_shortcut"]
        else f"fact sets tested: {record['sets_tested']}"
    )
    _report(args, record, lines)
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
    record = {
        "program_id": report.program_id,
        "query": str(report.query),
        "fact_sets_tested": report.fact_sets_tested,
        "skipped": list(report.skipped),
    }
    lines = [
        f"program {record['program_id']}, query {record['query']}",
        f"fact sets tested: {record['fact_sets_tested']}"
        + (f" (skipped {len(record['skipped'])})" if record["skipped"] else ""),
    ]
    for kind in ("brave", "cautious"):
        mismatches = record[f"{kind}_mismatches"] = [
            {
                "facts": [str(a) for a in m.fact_set],
                "only_original": [str(s) for s in m.only_original],
                "only_rewritten": [str(s) for s in m.only_rewritten],
            }
            for m in getattr(report, f"{kind}_mismatches")
        ]
        for m in mismatches:
            facts = ", ".join(m["facts"]) or "(none)"
            lines.append(f"{kind} mismatch with facts {{{facts}}}:")
            for side in ("original", "rewritten"):
                lines += [f"  only {side}: {s}" for s in m[f"only_{side}"]]
    record["ok"] = report.ok and not compared_nothing
    if compared_nothing:
        lines.append("nothing compared: every trial tripped a cap")
    elif record["ok"]:
        lines.append("no mismatches")
    _report(args, record, lines)
    return 3 if compared_nothing else 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness import benchmark_table, run_benchmark

    cells = run_benchmark(
        args.sizes, args.mode, args.reps,
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    # the grid layout is our own choice of instance shape, not a given
    record = {
        "instance_pattern": "grid (right and down edges; layout is an assumption)",
        "cells": [c._asdict() for c in cells],
    }
    if args.out is not None:
        import json

        with open(args.out, "w", encoding="utf-8") as f:
            f.write(json.dumps(record, indent=2))
    _report(args, record, benchmark_table(cells).splitlines())
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
