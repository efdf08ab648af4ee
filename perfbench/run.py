#!/usr/bin/env python3
"""Benchmark of aspmagic's parse -> rewrite -> ground -> search pipeline.

Run from the repository root, for example:

    python3 perfbench/run.py --workload grid_query --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Workload parameters, metric definitions and the predicted layer-to-metric
links are in perfbench/spec.json; metric names, units and regression
bounds are in BENCHMARK.json.  The load is a closed loop: one client, one
operation at a time, and at most one child process besides this one.

Each CLI call runs through the console-script entry point
aspmagic.cli:main in a shim that times a fixed reference workload
(speed.py) in the same process before and after the call; end-to-end
times are reported at reference speed, which cancels the host's drift.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
also replays each operation in-process under spans around every call into
the package, writes the spans to perfbench/out/, and reports the
per-layer metrics.  Every output is checked against a reference that
does not come from the package.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from measure import Tracer, deadline, median, percentile, run_child, self_times, span_cost_s
from speed import at_reference_speed, reference_work_s
from reference import (
    bfs_reachable,
    closure_edges,
    closure_program_text,
    grid_program_text,
    grid_query_text,
    kept_rules,
    node,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
LIMITS = SPEC["limits"]
MODES = ("plain", "dms")
REWRITE_FLAG = {"plain": "off", "dms": "auto"}
CLI_WORKLOADS = ("grid_query", "closure_ground")
WORKLOADS = (*CLI_WORKLOADS, "diff_sweep")
# A diff_sweep check must report no mismatch unless its program may have
# an odd cycle; the paper's soundness result covers the other profiles.
UNSOUND_PROFILES = ("arbitrary",)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class OperationTimeout(Exception):
    pass


def raise_timeout() -> None:
    raise OperationTimeout()


# Every CLI call runs through the console-script entry point,
# aspmagic.cli:main, inside this shim.  It times the reference work before
# and after the call in the same process, which cancels the host's speed
# drift, and reports how long main() took, so the process overhead
# (interpreter start, imports, exit) is measured within the call itself.
SHIM_TAG = "perfbench-timing"
CLI_SHIM = f"""\
import sys, time
from speed import reference_work_s
before = reference_work_s()
from aspmagic.cli import main
t0 = time.perf_counter()
try:
    code = main(sys.argv[1:])
finally:
    main_s = time.perf_counter() - t0
    print("{SHIM_TAG}", before, reference_work_s(), main_s, file=sys.stderr)
sys.exit(code)
"""
IMPORT_PROBE = """\
import time
from speed import reference_work_s
before = reference_work_s()
t0 = time.perf_counter()
import {module}
import_s = time.perf_counter() - t0
print(before, reference_work_s(), import_s)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), str(HERE), env.get("PYTHONPATH"))))
    return env


def import_package():
    sys.path.insert(0, str(SRC))
    import aspmagic

    if Path(aspmagic.__file__).resolve().parent != SRC / "aspmagic":
        raise BenchError(f"imported aspmagic from {aspmagic.__file__}, not from {SRC}")
    return aspmagic


class Tally:
    """Attempted operations, and failed ones by cause."""

    def __init__(self) -> None:
        self.attempted = 0
        self.causes: Counter[str] = Counter()

    def record(self, cause: str | None) -> None:
        self.attempted += 1
        if cause is not None:
            self.causes[cause] += 1

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


def import_probe(module: str) -> tuple[float, float, float]:
    """Import ``module`` in a fresh interpreter.  Returns the reference
    seconds before and after the import, and the import's own seconds."""
    r = run_child(
        [sys.executable, "-c", IMPORT_PROBE.format(module=module)],
        env=child_env(), timeout_s=LIMITS["cli_timeout_s"], scratch=OUT,
    )
    if r.exit_code != 0:
        raise BenchError(f"importing {module} failed: {r.stderr.strip()}")
    before, after, import_s = map(float, r.stdout.split())
    return before, after, import_s


def timed_setup(prepare: Callable[[], object]) -> tuple[float, object]:
    """Median seconds, at reference speed, over repeated set-ups:
    ``prepare`` generates and writes the inputs, then a fresh process
    imports the package, which also warms the bytecode and file caches the
    first operation uses."""
    samples = []
    for _ in range(LIMITS["setup_reps"]):
        t0 = time.perf_counter()
        inputs = prepare()
        before, after, _ = import_probe("aspmagic")
        elapsed = time.perf_counter() - t0 - before - after
        samples.append(at_reference_speed(elapsed, before, after))
    return median(samples), inputs


def med(values: list[float]) -> float:
    """Median, or 0 when every operation of the kind failed."""
    return median(values) if values else 0.0


# ---------------------------------------------------------------- CLI workloads


@dataclass(frozen=True)
class Call:
    pair: int
    mode: str
    wall_s: float  # the CLI call's wall time, the shim's reference work excluded
    time_s: float  # wall_s at reference speed
    reference_s: float
    peak_rss_mb: float


@dataclass(frozen=True)
class CliInputs:
    program_path: Path
    program_text: str
    # (query text, expected answer) for each plain/dms pair, used in turn.
    queries: tuple[tuple[str, object], ...]


def prepare_cli(workload: str, seed: int) -> CliInputs:
    params = SPEC["workloads"][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid_query":
        n = params["grid_n"]
        text = grid_program_text(n, rng)
        queries = ((grid_query_text(n), "yes"),)
    else:
        edges = closure_edges(params["nodes"], params["extra_edges"], rng)
        text = closure_program_text(edges)
        starts = [rng.randrange(params["nodes"]) for _ in range(256)]
        queries = tuple(
            (f"reach({node(k)},X)?", frozenset(node(m) for m in bfs_reachable(edges, k)))
            for k in starts
        )
    path = OUT / f"{workload}.dl"
    path.write_text(text, encoding="utf-8")
    return CliInputs(path, text, queries)


def shim_timing(r) -> tuple[float, float, float] | None:
    """The reference seconds before and after, and main()'s seconds, as
    the CLI shim reported them."""
    for line in reversed(r.stderr.splitlines()):
        if line.startswith(SHIM_TAG):
            before, after, main_s = map(float, line.split()[1:])
            return before, after, main_s
    return None


def cli_failure(r, mode: str, expected: object, timing) -> str | None:
    """The cause for which a CLI call failed, or None if its output is
    right.  Exit 1 is the code ``diff`` uses for a mismatch; from
    ``query`` it can only be an uncaught error, so it is a failure."""
    if r.exit_code is None:
        return "timeout"
    if r.exit_code == 3:
        return "cap_hit"
    if r.exit_code != 0:
        return f"exit_{r.exit_code}"
    if timing is None:
        return "bad_output"
    try:
        out = json.loads(r.stdout)
        if out["rewriting_applied"] is not (mode == "dms"):
            return "rewriting_flag"
        if "answer" in out:
            got = out["answer"]
        else:
            got = frozenset(s["X"] for s in out["substitutions"])
    except (ValueError, KeyError, TypeError):
        return "bad_output"
    return None if got == expected else "wrong_answer"


def replay_query(lib, tracer: Tracer, text: str, query: str, mode: str):
    """The CLI's `query --brave` path in-process and traced, in its order:
    parse, classify, rewrite, solve, answer.  One more ground call outside
    the pipeline gives the grounding counts.  Returns the brave
    substitutions."""
    with tracer.span("pipeline", mode=mode):
        with tracer.span("parser.parse_program") as s:
            p = lib.parse_program(text)
        s.counts["rules"] = len(p.rules)
        q = lib.parse_query(query)
        target = p
        if mode == "dms":
            with tracer.span("analysis.is_odd_cycle_free"):
                lib.is_odd_cycle_free(p)
            with tracer.span("rewriter.dms") as rewriting:
                target = lib.dms(q, p)
        domain = lib.universe(target) | {t for t in q.atom.args if t.is_constant}
        subs = solve_and_answer(lib, tracer, target, q, domain, cautious=False)
    if mode == "dms":
        count_rewriting(lib, rewriting, target)
    ground_counts(lib, tracer, target, mode)
    return subs


def count_rewriting(lib, span, rewritten) -> None:
    span.counts["rules"] = len(rewritten.rules)
    span.counts["magic"] = sum(
        1 for r in rewritten.rules
        if any(lib.split_magic_name(a.predicate) for a in r.head)
    )


def solve_and_answer(lib, tracer: Tracer, target, q, domain, cautious: bool):
    with tracer.span("semantics.answer_sets") as s:
        report = lib.answer_sets(target)
    s.counts["states"] = report.candidates_examined
    s.counts["models"] = len(report.answer_sets)
    instances = len(domain) ** len(q.variables())
    with tracer.span("semantics.substitutions_brave") as s:
        subs = lib.substitutions_brave(report, q, domain)
    s.counts["instances"] = instances
    if cautious:
        with tracer.span("semantics.substitutions_cautious") as s:
            lib.substitutions_cautious(report, q, domain)
        s.counts["instances"] = instances
    return subs


def ground_counts(lib, tracer: Tracer, target, mode: str) -> None:
    with tracer.span("semantics.ground", mode=mode) as s:
        g = lib.ground(target)
    s.counts["rules"] = len(g.rules)
    s.counts["kept"] = len(kept_rules(g.rules))


def replay_answer(subs, expected: object) -> object:
    if expected == "yes":
        return "yes" if subs else "no"
    return frozenset(c for s in subs for _, c in s.bindings)


def run_cli_workload(workload: str, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    OUT.mkdir(exist_ok=True)
    setup_s, inputs = timed_setup(lambda: prepare_cli(workload, seed))
    lib = import_package() if tracer else None
    env = child_env()
    tally = Tally()
    calls: list[Call] = []  # the calls that succeeded
    start = time.perf_counter()
    pair = 0
    last = 0.0
    # Start a pair only if it is expected to end within the run.
    while pair == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        query, expected = inputs.queries[pair % len(inputs.queries)]
        for mode in MODES:
            argv = [
                sys.executable, "-c", CLI_SHIM, "query", str(inputs.program_path),
                "--query", query, "--brave", "--rewrite", REWRITE_FLAG[mode],
                "--format", "structured",
            ]
            r = run_child(argv, env=env, timeout_s=LIMITS["cli_timeout_s"], scratch=OUT)
            timing = shim_timing(r)
            cause = cli_failure(r, mode, expected, timing)
            if cause is not None and not tally.failed:
                print(f"first failure ({cause}): {r.stderr.strip()[-2000:]}", file=sys.stderr)
            if cause is None:
                before, after, main_s = timing
                wall = r.wall_s - before - after
                calls.append(Call(pair, mode, wall, at_reference_speed(wall, before, after),
                                  (before + after) / 2, r.peak_rss_mb))
                if tracer is not None:
                    cause = traced_cli_op(
                        lib, tracer, inputs.program_text, query, expected, mode, len(calls),
                        wall, main_s,
                    )
            tally.record(cause)
        last = time.perf_counter() - t0
        pair += 1

    pair_means = []
    for k in range(pair):
        times = [c.time_s for c in calls if c.pair == k]
        if len(times) == len(MODES):
            pair_means.append(sum(times) / len(times))
    by_mode = {m: [c for c in calls if c.mode == m] for m in MODES}
    metrics = {
        "setup_s": setup_s,
        "plain_query_s": med([c.time_s for c in by_mode["plain"]]),
        "dms_query_s": med([c.time_s for c in by_mode["dms"]]),
        "ops_per_s": ratio(len(calls), sum(c.time_s for c in calls)),
        "op_p50_ms": med(pair_means) * 1000,
        "peak_rss_mb": max((c.peak_rss_mb for c in calls), default=0.0),
    }
    extra = {
        "pairs": pair,
        "raw_plain_query_s": med([c.wall_s for c in by_mode["plain"]]),
        "raw_dms_query_s": med([c.wall_s for c in by_mode["dms"]]),
        "reference_ms": med([c.reference_s for c in calls]) * 1000,
    }
    return {"tally": tally, "metrics": metrics, "extra": extra}


def traced_cli_op(lib, tracer, text, query, expected, mode, op, wall_s, main_s) -> str | None:
    """Replay one CLI call in-process under spans; record the call's wall
    time and the time its own process spent in ``main`` on the
    operation's span."""
    tracer.op = op
    with tracer.span("op", mode=mode) as s:
        subs = replay_query(lib, tracer, text, query, mode)
    s.counts.update(cli_wall_ms=wall_s * 1000, cli_main_ms=main_s * 1000)
    return None if replay_answer(subs, expected) == expected else "replay_wrong_answer"


# ---------------------------------------------------------------- diff_sweep


def run_check(lib, p, q, pseed: int, profile: str):
    """One check_equivalence call under the per-call deadline.  Returns
    the report (None if it raised) and the failure cause, if any."""
    params = SPEC["workloads"]["diff_sweep"]
    try:
        with deadline(LIMITS["check_timeout_s"], raise_timeout):
            report = lib.check_equivalence(
                p, q, params["trials"], pseed, params["density"],
                max_facts=params["max_facts"],
            )
    except OperationTimeout:
        return None, "timeout"
    except lib.SolverCapError:
        return None, "cap_hit"
    except Exception as exc:  # an escape from the package fails the operation, not the run
        traceback.print_exc()
        return None, f"error_{type(exc).__name__}"
    if report.skipped:
        return report, "cap_hit"
    if not report.ok and profile not in UNSOUND_PROFILES:
        return report, "unsound_mismatch"
    return report, None


def draw_check(lib, seed: int, i: int):
    profiles = SPEC["workloads"]["diff_sweep"]["profiles"]
    profile = profiles[i % len(profiles)]
    pseed = seed * 100_000 + i
    p = lib.random_program(pseed, profile)
    return profile, pseed, p, lib.random_query(p, pseed)


def replay_check(lib, tracer: Tracer, p, q, pseed: int) -> None:
    """What check_equivalence does for each trial, call by call: draw the
    facts, solve and answer both sides, then ground both sides again for
    the rule counts (as its count-only re-ground does)."""
    params = SPEC["workloads"]["diff_sweep"]
    with tracer.span("rewriter.dms", mode="dms") as s:
        rewritten = lib.dms(q, p)
    count_rewriting(lib, s, rewritten)
    qconsts = {t for t in q.atom.args if t.is_constant}
    sides = []
    for t in range(params["trials"]):
        with tracer.span("harness.random_edb"):
            # check_equivalence derives trial t's seed this way.
            facts = lib.random_edb(
                p, pseed * 1_000_003 + t, params["density"], max_facts=params["max_facts"]
            )
        side_a = p.with_facts(facts)
        domain = lib.universe(side_a) | qconsts
        for mode, side in (("plain", side_a), ("dms", rewritten.with_facts(facts))):
            with tracer.span("pipeline", mode=mode):
                solve_and_answer(lib, tracer, side, q, domain, cautious=True)
            sides.append((mode, side))
    for mode, side in sides:
        ground_counts(lib, tracer, side, mode)


def oracle_sample(lib, seed: int, checks: int, tally: Tally) -> dict:
    """Outside the timed region: on a seeded sample of the checked
    programs, the primary solver must agree with the unfounded-set one."""
    params = SPEC["workloads"]["diff_sweep"]
    rng = random.Random(f"oracle:{seed}")
    compared = skipped = 0
    for i in rng.sample(range(checks), min(params["oracle_samples"], checks)):
        _, _, p, q = draw_check(lib, seed, i)
        facts = lib.random_edb(
            p, rng.randrange(1 << 30), params["density"], max_facts=params["max_facts"]
        )
        for side in (p.with_facts(facts), lib.dms(q, p).with_facts(facts)):
            try:
                with deadline(LIMITS["check_timeout_s"], raise_timeout):
                    primary = lib.answer_sets(side).answer_sets
                    oracle = lib.answer_sets_via_unfounded(
                        side, candidate_cap=params["oracle_candidate_cap"]
                    ).answer_sets
            except lib.SolverCapError:
                skipped += 1  # too many head atoms for exhaustive enumeration
                continue
            except OperationTimeout:
                tally.record("oracle_timeout")
                continue
            compared += 1
            tally.record(None if primary == oracle else "oracle_mismatch")
    return {"oracle_compared": compared, "oracle_skipped": skipped}


@dataclass(frozen=True)
class Check:
    profile: str
    latency_s: float
    report: object  # EquivReport, or None if the call raised
    ok: bool
    block: int  # checks between reference_s[block] and reference_s[block + 1]


def run_diff_workload(seed: int, seconds: float, tracer: Tracer | None) -> dict:
    OUT.mkdir(exist_ok=True)
    lib = import_package()
    setup_s, _ = timed_setup(lambda: None)
    tally = Tally()
    checks: list[Check] = []
    # The reference work runs between blocks of checks, in this process.
    reference_s = [reference_work_s()]
    start = time.perf_counter()
    i = 0
    tracer = tracer or Tracer(enabled=False)
    while time.perf_counter() - start < seconds:
        profile, pseed, p, q = draw_check(lib, seed, i)
        tracer.op = i
        with tracer.span("op"):
            with tracer.span("harness.check_equivalence") as c:
                t0 = time.perf_counter()
                report, cause = run_check(lib, p, q, pseed, profile)
                latency = time.perf_counter() - t0
            if tracer.enabled and report is not None:
                c.counts.update(
                    solve_ms=sum(a + b for a, b in report.timings_ms),
                    trials=report.fact_sets_tested,
                    skipped=len(report.skipped),
                    mismatches=len(report.brave_mismatches) + len(report.cautious_mismatches),
                )
                replay_check(lib, tracer, p, q, pseed)
        checks.append(Check(profile, latency, report, cause is None, len(reference_s) - 1))
        tally.record(cause)
        i += 1
        if i % LIMITS["checks_per_reference"] == 0:
            reference_s.append(reference_work_s())
    reference_s.append(reference_work_s())
    extra = oracle_sample(lib, seed, i, tally)

    def scaled(c: Check, seconds: float) -> float:
        return at_reference_speed(seconds, reference_s[c.block], reference_s[c.block + 1])

    ok = [c for c in checks if c.ok]
    latencies_ms = [scaled(c, c.latency_s) * 1000 for c in ok]
    side_s = {
        mode: [scaled(c, sum(t[k] for t in c.report.timings_ms) / 1000) for c in ok]
        for k, mode in enumerate(MODES)
    }
    metrics = {
        "setup_s": setup_s,
        "plain_query_s": med(side_s["plain"]),
        "dms_query_s": med(side_s["dms"]),
        "ops_per_s": ratio(len(ok), sum(latencies_ms) / 1000),
        "op_p50_ms": med(latencies_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra["checks_per_s"] = metrics["ops_per_s"]
    extra["check_p50_ms"] = metrics["op_p50_ms"]
    if len(latencies_ms) >= 200:
        extra["check_p95_ms"] = percentile(latencies_ms, 95)
    extra["checks"] = len(checks)
    extra["arbitrary_mismatches"] = sum(
        1 for c in checks
        if c.report is not None and not c.report.ok and c.profile in UNSOUND_PROFILES
    )
    extra["raw_check_p50_ms"] = med([c.latency_s * 1000 for c in ok])
    extra["reference_ms"] = median(reference_s) * 1000
    return {"tally": tally, "metrics": metrics, "extra": extra}


# ---------------------------------------------------------------- per-layer metrics


def span_rows(spans) -> dict[tuple[int, str | None], defaultdict]:
    """Per operation and mode: each span name's summed self time (ms),
    wall time (``<name>.wall``, ms) and counts (``<name>.<count>``)."""
    selfs = self_times(spans)
    rows: dict[tuple[int, str | None], defaultdict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = rows[(s.op, s.mode)]
        row[s.name] += selfs[s.id] * 1000
        row[s.name + ".wall"] += s.duration * 1000
        for key, value in s.counts.items():
            row[f"{s.name}.{key}"] += value
    return rows


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# metric -> (span a row must hold for the metric to apply, value of the row)
PER_MODE: dict[str, tuple[str, Callable[[dict], float]]] = {
    "cli.process_overhead_ms": ("op.cli_wall_ms", lambda r: r["op.cli_wall_ms"] - r["op.cli_main_ms"]),
    "semantics.ground_ms": ("semantics.ground", lambda r: r["semantics.ground"]),
    "semantics.ground_rules": ("semantics.ground", lambda r: r["semantics.ground.rules"]),
    "semantics.kept_rules": ("semantics.ground", lambda r: r["semantics.ground.kept"]),
    "semantics.ground_kept_ratio": (
        "semantics.ground", lambda r: ratio(r["semantics.ground.rules"], r["semantics.ground.kept"])
    ),
    # A subtraction: answer_sets grounds internally, so its time minus a
    # separate ground call of the same program stands for the search.
    "semantics.solve_ms": (
        "semantics.answer_sets", lambda r: r["semantics.answer_sets"] - r["semantics.ground"]
    ),
    "semantics.search_states": ("semantics.answer_sets", lambda r: r["semantics.answer_sets.states"]),
    "semantics.answer_sets": ("semantics.answer_sets", lambda r: r["semantics.answer_sets.models"]),
    "semantics.answer_sets_per_state": (
        "semantics.answer_sets",
        lambda r: ratio(r["semantics.answer_sets.models"], r["semantics.answer_sets.states"]),
    ),
    "semantics.answer_ms": (
        "semantics.substitutions_brave",
        lambda r: r["semantics.substitutions_brave"] + r["semantics.substitutions_cautious"],
    ),
    "semantics.query_instances": (
        "semantics.substitutions_brave",
        lambda r: r["semantics.substitutions_brave.instances"]
        + r["semantics.substitutions_cautious.instances"],
    ),
    "pipeline.ms": ("pipeline", lambda r: r["pipeline.wall"]),
    "pipeline.self_ms": ("pipeline", lambda r: r["pipeline"]),
}

# Summed over an operation's modes.
PER_OP: dict[str, tuple[str, Callable[[dict], float]]] = {
    "parser.parse_ms": ("parser.parse_program", lambda r: r["parser.parse_program"]),
    "parser.rules_parsed": ("parser.parse_program", lambda r: r["parser.parse_program.rules"]),
    "analysis.classify_ms": ("analysis.is_odd_cycle_free", lambda r: r["analysis.is_odd_cycle_free"]),
    "rewriter.dms_ms": ("rewriter.dms", lambda r: r["rewriter.dms"]),
    "rewriter.rules_out": ("rewriter.dms", lambda r: r["rewriter.dms.rules"]),
    "rewriter.magic_rules": ("rewriter.dms", lambda r: r["rewriter.dms.magic"]),
    "harness.check_ms": ("harness.check_equivalence", lambda r: r["harness.check_equivalence"]),
    "harness.solve_ms": ("harness.check_equivalence", lambda r: r["harness.check_equivalence.solve_ms"]),
    "harness.nonsolve_ms": (
        "harness.check_equivalence",
        lambda r: r["harness.check_equivalence"] - r["harness.check_equivalence.solve_ms"],
    ),
    "harness.trials": ("harness.check_equivalence", lambda r: r["harness.check_equivalence.trials"]),
    "harness.skipped": ("harness.check_equivalence", lambda r: r["harness.check_equivalence.skipped"]),
    "harness.mismatches": (
        "harness.check_equivalence", lambda r: r["harness.check_equivalence.mismatches"]
    ),
}


# Rare events, reported as totals over the run rather than per operation.
RUN_TOTALS = ("harness.skipped", "harness.mismatches")


def layer_metrics(spans) -> dict[str, float]:
    """Each per-layer metric as its median over the traced operations (or
    its total, for RUN_TOTALS); a layer the workload never passes through
    reads 0.  The tracing overhead of an operation is its span count times
    the measured cost of one span."""
    rows = span_rows(spans)
    per_span_ms = span_cost_s() * 1000
    spans_per_op = Counter(s.op for s in spans)
    per_op: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
    for (op, _), row in rows.items():
        for key, value in row.items():
            per_op[op][key] += value
    out = {}
    for name, (needs, value) in PER_MODE.items():
        for mode in MODES:
            out[f"{name}.{mode}"] = med(
                [value(r) for (_, m), r in rows.items() if m == mode and needs in r]
            )
    for name, (needs, value) in PER_OP.items():
        values = [value(r) for r in per_op.values() if needs in r]
        out[name] = sum(values) if name in RUN_TOTALS else med(values)
    out["trace.overhead_ms"] = med([n * per_span_ms for n in spans_per_op.values()])
    return out


# ---------------------------------------------------------------- entry point


def benchmark_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    end_to_end, per_layer = benchmark_metrics()
    tracer = Tracer() if trace else None
    if workload in CLI_WORKLOADS:
        res = run_cli_workload(workload, seed, seconds, tracer)
    else:
        res = run_diff_workload(seed, seconds, tracer)
    tally: Tally = res["tally"]
    print(f"== {workload} seed={seed} trace={int(trace)}")
    for name, value in res["metrics"].items():
        print(f"{workload}: {name} = {value:.6g} {end_to_end[name]}")
    print(f"{workload}: failed_ratio = {ratio(tally.failed, tally.attempted):.6g} "
          f"({tally.failed}/{tally.attempted}) causes={dict(tally.causes)}")
    for key, value in res["extra"].items():
        print(f"{workload}: {key} = {value:.6g}")
    metrics, units = res["metrics"], end_to_end
    if tracer is not None:
        spans_path = OUT / f"spans-{workload}-{seed}.json"
        tracer.write(spans_path)
        probes = LIMITS["import_probes"]
        import_ms = [import_probe("aspmagic")[2] * 1000 for _ in range(probes)]
        nx_ms = [import_probe("networkx")[2] * 1000 for _ in range(probes)]
        metrics = {
            "cli.import_ms": median(import_ms),
            "cli.networkx_import_ms": median(nx_ms),
            **layer_metrics(tracer.spans),
        }
        units = per_layer
        for name, value in metrics.items():
            print(f"{workload}: {name} = {value:.6g} {units[name]}")
        for mode in MODES:
            pipe = metrics[f"pipeline.ms.{mode}"]
            print(f"{workload}: share of the {mode} pipeline: "
                  f"ground {ratio(metrics[f'semantics.ground_ms.{mode}'], pipe):.1%}, "
                  f"solve {ratio(metrics[f'semantics.solve_ms.{mode}'], pipe):.1%}")
        rules = [metrics[f"semantics.ground_rules.{mode}"] for mode in ("dms", "plain")]
        print(f"{workload}: ground rules dms/plain = {rules[0]:.0f}/{rules[1]:.0f}")
        print(f"{workload}: spans written to {spans_path.relative_to(ROOT)}")
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "aspmagic" / "__init__.py").is_file():
            raise BenchError(f"no aspmagic sources under {SRC}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
