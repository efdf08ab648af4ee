"""Command-line front end.

Subcommands cover the whole pipeline: rewrite a program for a query,
enumerate answer sets, answer brave or cautious queries (with the
rewriting applied automatically when it is known safe), classify a
program, differential-test the rewriting, and run the grid benchmark.

Exit codes: 0 success, 1 differential mismatch, 2 usage or input errors,
3 resource cap exceeded, 4 internal error (the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .analysis import check_super_consistent, is_odd_cycle_free, is_stratified
from .harness import (
    Mismatch,
    benchmark_json,
    benchmark_table,
    check_equivalence,
    run_benchmark,
)
from .parser import SourceError, parse_program, parse_query, print_program
from .rewriter import dms
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


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
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


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--ground-cap", type=_positive_int, default=GROUND_CAP_DEFAULT,
        help="largest allowed number of ground rule instances; only "
             "instances whose positive body is derivable are counted",
    )
    shared.add_argument(
        "--candidate-cap", type=_positive_int, default=CANDIDATE_CAP_DEFAULT,
        help="largest allowed number of candidate states",
    )
    shared.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="plain text or JSON output",
    )

    root = argparse.ArgumentParser(
        prog="aspmagic",
        description="magic-set rewriting and reference evaluation for disjunctive programs",
    )
    sub = root.add_subparsers(dest="command", required=True)

    p_rewrite = sub.add_parser(
        "rewrite", parents=[shared], help="print the rewriting of a program for a query"
    )
    p_rewrite.add_argument("program")
    p_rewrite.add_argument("--query", required=True)
    p_rewrite.set_defaults(func=_cmd_rewrite)

    p_solve = sub.add_parser(
        "solve", parents=[shared], help="enumerate answer sets"
    )
    p_solve.add_argument("program")
    p_solve.add_argument("--max", type=_positive_int, default=None,
                         help="print at most this many answer sets")
    p_solve.set_defaults(func=_cmd_solve)

    p_query = sub.add_parser(
        "query", parents=[shared], help="answer a brave or cautious query"
    )
    p_query.add_argument("program")
    p_query.add_argument("--query", required=True)
    kind = p_query.add_mutually_exclusive_group(required=True)
    kind.add_argument("--brave", action="store_true")
    kind.add_argument("--cautious", action="store_true")
    p_query.add_argument(
        "--rewrite", choices=("auto", "on", "off"), default="auto",
        help="apply the magic-set rewriting before solving",
    )
    p_query.set_defaults(func=_cmd_query)

    p_check = sub.add_parser(
        "check", parents=[shared], help="classify a program"
    )
    p_check.add_argument("program")
    what = p_check.add_mutually_exclusive_group(required=True)
    what.add_argument("--stratified", action="store_true")
    what.add_argument("--odd-cycle-free", action="store_true")
    what.add_argument("--super-consistent", action="store_true")
    p_check.add_argument("--budget", type=_positive_int, default=10_000,
                         help="fact sets to try before giving up")
    p_check.set_defaults(func=_cmd_check)

    p_diff = sub.add_parser(
        "diff", parents=[shared],
        help="compare query answers of a program and its rewriting",
    )
    p_diff.add_argument("program")
    p_diff.add_argument("--query", required=True)
    p_diff.add_argument("--trials", type=_nonnegative_int, default=5)
    p_diff.add_argument("--seed", type=int, default=0)
    p_diff.add_argument("--density", type=_probability, default=0.3,
                        help="probability of each candidate fact, in [0, 1]")
    p_diff.set_defaults(func=_cmd_diff)

    p_bench = sub.add_parser(
        "bench", parents=[shared], help="run a benchmark suite"
    )
    p_bench.add_argument("suite", choices=("related",))
    p_bench.add_argument("--sizes", type=_size_list, default=[1, 2, 3])
    p_bench.add_argument("--mode", choices=("plain", "dms", "both"), default="both")
    p_bench.add_argument("--reps", type=_positive_int, default=1)
    p_bench.add_argument("--out", default=None,
                         help="write the structured report to this path")
    p_bench.set_defaults(func=_cmd_bench)

    return root


def _load_program(path: str) -> Program:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ProgramError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_program(text)


def _cmd_rewrite(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    q = parse_query(args.query)
    rewritten = dms(q, p)
    if args.format == "structured":
        print(json.dumps({"rules": [str(r) for r in rewritten.rules]}, indent=2))
    else:
        sys.stdout.write(print_program(rewritten))
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
        print(json.dumps({
            "answer_sets": records,
            "count": len(report.answer_sets),
            "candidates_examined": report.candidates_examined,
        }, indent=2))
    else:
        for m in ordered:
            print("{" + ", ".join(str(a) for a in sorted(m)) + "}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    q = parse_query(args.query)
    arity = p.predicates.get(q.atom.predicate)
    if arity is not None and arity != q.atom.arity:
        raise ProgramError(
            f"query {q} has {q.atom.arity} arguments, but {q.atom.predicate} "
            f"has arity {arity} in the program"
        )
    bound = any(t.is_constant for t in q.atom.args)
    if args.rewrite == "on":
        apply_rewriting = True
        if not is_odd_cycle_free(p):
            print(
                "warning: the program has a dependency cycle crossing an odd "
                "number of negative edges; the rewriting is not guaranteed to "
                "preserve brave or cautious answers here",
                file=sys.stderr,
            )
    elif args.rewrite == "auto":
        apply_rewriting = bound and is_odd_cycle_free(p)
    else:
        apply_rewriting = False
    target = dms(q, p) if apply_rewriting else p
    mode = "brave" if args.brave else "cautious"
    answer = answer_query(
        target, q, mode,
        domain=universe(target) | {t for t in q.atom.args if t.is_constant},
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
            print(json.dumps({**record, "answer": text}, indent=2))
        else:
            print(text)
        return 0
    ordered = sorted(answer.substitutions)
    if args.format == "structured":
        print(json.dumps({
            **record, "substitutions": [dict(s.bindings) for s in ordered],
        }, indent=2))
    else:
        for s in ordered:
            print(s)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    if args.stratified:
        verdict = is_stratified(p)
        if args.format == "structured":
            print(json.dumps({"check": "stratified", "holds": verdict}))
        else:
            print(f"stratified: {'yes' if verdict else 'no'}")
        return 0
    if args.odd_cycle_free:
        verdict = is_odd_cycle_free(p)
        if args.format == "structured":
            print(json.dumps({"check": "odd-cycle-free", "holds": verdict}))
        else:
            print(f"odd-cycle-free: {'yes' if verdict else 'no'}")
        return 0
    result = check_super_consistent(
        p, args.budget,
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    if args.format == "structured":
        print(json.dumps({
            "check": "super-consistent",
            "status": result.status.value,
            "counterexample": (
                None if result.counterexample is None
                else sorted(str(a) for a in result.counterexample)
            ),
            "sets_tested": result.sets_tested,
            "via_shortcut": result.via_shortcut,
        }, indent=2))
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
    p = _load_program(args.program)
    q = parse_query(args.query)
    report = check_equivalence(
        p, q, args.trials, args.seed, args.density,
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    if args.format == "structured":
        print(json.dumps({
            "program_id": report.program_id,
            "query": str(report.query),
            "fact_sets_tested": report.fact_sets_tested,
            "skipped": list(report.skipped),
            "brave_mismatches": _mismatch_records(report.brave_mismatches),
            "cautious_mismatches": _mismatch_records(report.cautious_mismatches),
            "ok": report.ok,
        }, indent=2))
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
        if report.ok:
            print("no mismatches")
    return 0 if report.ok else 1


def _mismatch_records(mismatches: Sequence[Mismatch]) -> list[dict]:
    return [
        {
            "facts": [str(a) for a in m.fact_set],
            "only_original": [str(s) for s in m.only_original],
            "only_rewritten": [str(s) for s in m.only_rewritten],
        }
        for m in mismatches
    ]


def _cmd_bench(args: argparse.Namespace) -> int:
    cells = run_benchmark(
        args.sizes, args.mode, args.reps,
        ground_cap=args.ground_cap, candidate_cap=args.candidate_cap,
    )
    if args.format == "structured":
        print(benchmark_json(cells))
    else:
        sys.stdout.write(benchmark_table(cells))
    if args.out is not None:
        Path(args.out).write_text(benchmark_json(cells), encoding="utf-8")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        return args.func(args)
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # here, so that calls which succeed skip its import

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
