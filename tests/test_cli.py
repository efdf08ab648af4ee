"""End-to-end runs of the command-line front end through ``main``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aspmagic
import aspmagic.cli
from aspmagic import gen_related_instance, print_program
from aspmagic.cli import main

ANCESTRY = """\
father(X,Y) :- related(X,Y), not brother(X,Y).
brother(X,Y) :- related(X,Y), not father(X,Y).
ancestor(X,Y) :- father(X,Y).
ancestor(X,Y) :- father(X,Z), ancestor(Z,Y).
related(p1,p2).
"""

CHOICE = """\
edb(a).
q(X) v p(X) :- edb(X).
co(X) :- q(X), not co(X).
"""

GUARDED = "a v b. a :- not a, not b.\n"


@pytest.fixture
def write(tmp_path):
    def _write(text, name="program.dl"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


# ------------------------------------------------------------------- rewrite


def test_rewrite_prints_the_magic_program(write, capsys):
    assert main(["rewrite", write(ANCESTRY), "--query", "ancestor(p1,p2)?"]) == 0
    out = capsys.readouterr().out
    assert "magic_ancestor_bb(p1,p2)." in out
    assert "magic_ancestor_bb(Z,Y) :- magic_ancestor_bb(X,Y), father(X,Z)." in out
    assert "related(p1,p2)." in out
    # seed, six magic rules, five modified rules and the kept fact
    assert out.count("\n") == 13


def test_rewrite_structured(write, capsys):
    path = write(ANCESTRY)
    code = main([
        "rewrite", path, "--query", "ancestor(p1,p2)?", "--format", "structured",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rules"]) == 13
    assert any(r.startswith("magic_") for r in payload["rules"])
    # the same rules in the same order as the text output
    assert main(["rewrite", path, "--query", "ancestor(p1,p2)?"]) == 0
    assert payload["rules"] == capsys.readouterr().out.splitlines()


# --------------------------------------------------------------------- solve


def test_solve_lists_answer_sets(write, capsys):
    assert main(["solve", write(GUARDED)]) == 0
    assert capsys.readouterr().out == "{a}\n{b}\n"


def test_solve_max_truncates(write, capsys):
    assert main(["solve", write(GUARDED), "--max", "1"]) == 0
    assert capsys.readouterr().out == "{a}\n"


def test_solve_structured(write, capsys):
    assert main(["solve", write(GUARDED), "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer_sets"] == [["a"], ["b"]]
    assert payload["count"] == 2
    assert payload["candidates_examined"] > 0


# --------------------------------------------------------------------- query


def test_ground_query_answers_yes_no(write, capsys):
    path = write(CHOICE)
    assert main(["query", path, "--query", "p(a)?", "--brave"]) == 0
    assert capsys.readouterr().out == "yes\n"
    assert main(["query", path, "--query", "q(a)?", "--brave"]) == 0
    assert capsys.readouterr().out == "no\n"
    assert main(["query", path, "--query", "p(a)?", "--cautious"]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_open_query_prints_substitutions(write, capsys):
    path = write(ANCESTRY)
    assert main(["query", path, "--query", "ancestor(p1,X)?", "--brave"]) == 0
    assert capsys.readouterr().out == "X = p2\n"
    assert main(["query", path, "--query", "ancestor(p1,X)?", "--cautious"]) == 0
    assert capsys.readouterr().out == ""


def test_rewrite_modes_agree_on_cycle_free_input(write, capsys):
    path = write(ANCESTRY)
    outs = []
    for mode in ("auto", "on", "off"):
        assert main([
            "query", path, "--query", "ancestor(p1,X)?", "--brave",
            "--rewrite", mode,
        ]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] == "X = p2\n"


def test_forced_rewriting_warns_on_odd_cycles(write, capsys):
    path = write(CHOICE)
    code = main([
        "query", path, "--query", "q(a)?", "--brave", "--rewrite", "on",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "odd" in captured.err
    # the dropped odd loop resurrects the q choice, which is what the
    # warning is about
    assert captured.out == "yes\n"


def test_rewritten_cautious_query_answers_over_the_programs_constants(
    write, capsys
):
    # inconsistent, so every substitution is cautiously entailed; the
    # rewriting drops t's rule and c with it, yet c stays in the domain
    path = write("q(X) :- r(X), not q(X).\nr(a).\nt(c) :- r(a).\n")
    for rewrite in ("on", "off"):
        assert main([
            "query", path, "--query", "q(X)?", "--cautious", "--rewrite", rewrite,
        ]) == 0
        assert capsys.readouterr().out == "X = a\nX = c\n"


def test_structured_query_reports_the_rewriting_flag(write, capsys):
    path = write(ANCESTRY)
    code = main([
        "query", path, "--query", "ancestor(p1,p2)?", "--brave",
        "--format", "structured",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] == "yes"
    assert payload["mode"] == "brave"
    assert payload["rewriting_applied"] is True


def test_structured_query_reports_the_states_searched(write, capsys):
    path = write(ANCESTRY)
    assert main(["solve", path, "--format", "structured"]) == 0
    full = json.loads(capsys.readouterr().out)["candidates_examined"]
    for query, rewrite in (("ancestor(p1,X)?", "off"), ("ancestor(p1,p2)?", "off"),
                           ("ancestor(p1,p2)?", "auto")):
        code = main([
            "query", path, "--query", query, "--brave", "--rewrite", rewrite,
            "--format", "structured",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["candidates_examined"] > 0
        if rewrite == "off" and query.endswith("X)?"):
            # the directed search visits no more states than enumeration
            assert payload["candidates_examined"] <= full
    # the text output does not change
    assert main(["query", path, "--query", "ancestor(p1,p2)?", "--brave"]) == 0
    assert capsys.readouterr().out == "yes\n"


@pytest.mark.parametrize("rewrite", ["off", "auto"])
def test_grid_4_corner_query_stays_under_a_small_cap(write, capsys, rewrite):
    # Enumerating the answer sets of the 4-grid takes far more than 1000
    # states; the directed search needs a few dozen.
    inst = gen_related_instance(4)
    path = write(print_program(inst.program))
    code = main([
        "query", path, "--query", str(inst.query), "--brave",
        "--candidate-cap", "1000", "--rewrite", rewrite,
    ])
    assert code == 0
    assert capsys.readouterr().out == "yes\n"


def test_grid_4_brave_variable_query_stays_under_a_small_cap(write, capsys):
    # one search witnesses all 15 other persons in a few hundred states
    path = write(print_program(gen_related_instance(4).program))
    code = main([
        "query", path, "--query", "ancestor(p_1_1,X)?", "--brave",
        "--rewrite", "off", "--candidate-cap", "2000",
    ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 15


@pytest.mark.parametrize("rewrite", ["auto", "on", "off"])
@pytest.mark.parametrize("query", ["p(X,Y)?", "p(a,b)?", "p(X,X)?", "p?"])
def test_query_arity_mismatch_exits_2(write, capsys, rewrite, query):
    path = write("e(a).\np(X) :- e(X).\n")
    for mode in ("--brave", "--cautious"):
        code = main(["query", path, "--query", query, mode, "--rewrite", rewrite])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "arity 1" in captured.err


@pytest.mark.parametrize("command", ["query", "rewrite", "diff"])
def test_every_subcommand_reports_a_wrong_arity_alike(write, capsys, command):
    path = write("e(a).\np(X) :- e(X).\n")
    extra = ["--brave"] if command == "query" else []
    assert main([command, path, "--query", "p(X,Y)?", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: query p(X,Y)? has 2 arguments, but p has arity 1 in the program\n"
    )


# --------------------------------------------------------------------- check


def test_check_stratified_and_cycles(write, capsys):
    path = write(ANCESTRY)
    assert main(["check", path, "--stratified"]) == 0
    assert capsys.readouterr().out == "stratified: no\n"
    assert main(["check", path, "--odd-cycle-free"]) == 0
    assert capsys.readouterr().out == "odd-cycle-free: yes\n"


def test_check_super_consistent_shortcut(write, capsys):
    assert main(["check", write(ANCESTRY), "--super-consistent"]) == 0
    out = capsys.readouterr().out
    assert "super-consistent: super_consistent" in out
    assert "dependency-cycle check" in out


def test_check_super_consistent_counterexample(write, capsys):
    assert main(["check", write(CHOICE), "--super-consistent"]) == 0
    out = capsys.readouterr().out
    assert "super-consistent: not_super_consistent" in out
    assert "inconsistent after adding: {q(a)}" in out
    assert "fact sets tested: 11" in out


def test_check_structured(write, capsys):
    code = main([
        "check", write(CHOICE), "--super-consistent", "--format", "structured",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "not_super_consistent"
    assert payload["counterexample"] == ["q(a)"]
    assert payload["via_shortcut"] is False


# ---------------------------------------------------------------------- diff


def test_diff_flags_the_unsafe_rewriting(write, capsys):
    code = main([
        "diff", write(CHOICE), "--query", "q(a)?",
        "--trials", "1", "--density", "0.0",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "brave mismatch" in out
    assert "only rewritten: {}" in out


def test_diff_passes_on_cycle_free_input(write, capsys):
    code = main([
        "diff", write(ANCESTRY), "--query", "ancestor(p1,X)?", "--trials", "2",
    ])
    assert code == 0
    assert "no mismatches" in capsys.readouterr().out


ODD_DIFF = (
    "g1(c1). p1(X) :- g1(X), not g1(X). p1(X) :- p1(X). "
    "p2(X) :- g1(X), not p2(X).\n"
)


def test_diff_prints_the_fact_sets_of_its_mismatches(write, capsys):
    # Sampled facts with fresh constants: each mismatch names its facts in
    # atom order, and the domain holds the constants they bring.
    code = main([
        "diff", write(ODD_DIFF), "--query", "p1(X)?", "--trials", "2", "--seed", "34",
    ])
    assert code == 1
    assert capsys.readouterr().out == (
        "program 70f3a3456a81, query p1(X)?\n"
        "fact sets tested: 2\n"
        "cautious mismatch with facts {g1(f1), g1(f2)}:\n"
        "  only original: X = c1\n"
        "  only original: X = f1\n"
        "  only original: X = f2\n"
        "cautious mismatch with facts {g1(f1)}:\n"
        "  only original: X = c1\n"
        "  only original: X = f1\n"
    )


def test_diff_needs_an_extensional_predicate(write, capsys):
    path = write("a :- not b. b :- not a.\n")
    code = main(["diff", path, "--query", "a?", "--trials", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: program has no extensional predicate\n"


def test_diff_structured(write, capsys):
    code = main([
        "diff", write(CHOICE), "--query", "q(a)?",
        "--trials", "1", "--density", "0.0", "--format", "structured",
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["brave_mismatches"][0]["only_rewritten"] == ["{}"]


def test_diff_that_compared_nothing_exits_3(write, capsys):
    code = main([
        "diff", write(ANCESTRY), "--query", "ancestor(p1,X)?", "--trials", "2",
        "--candidate-cap", "1",
    ])
    assert code == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "fact sets tested: 0 (skipped 2)",
        "nothing compared: every trial tripped a cap",
    ]


def test_diff_structured_that_compared_nothing_exits_3(write, capsys):
    code = main([
        "diff", write(ANCESTRY), "--query", "ancestor(p1,X)?", "--trials", "2",
        "--candidate-cap", "1", "--format", "structured",
    ])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["fact_sets_tested"] == 0
    assert len(payload["skipped"]) == 2
    assert payload["ok"] is False


# --------------------------------------------------------------------- bench


def test_bench_writes_csv_and_report(write, capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main([
        "bench", "related", "--sizes", "1", "--mode", "plain",
        "--out", str(out_path),
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mode,rep,status,time_ms,ground_rules,candidates,answer"
    assert lines[1].startswith("1,plain,0,ok,")
    assert lines[1].endswith(",no")
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["cells"][0]["status"] == "ok"


def test_bench_prints_and_writes_one_record(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main([
        "bench", "related", "--sizes", "1,2", "--mode", "both",
        "--format", "structured", "--out", str(out_path),
    ])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(out_path.read_text(encoding="utf-8")) == printed
    assert "assumption" in printed["instance_pattern"]
    assert [(c["n"], c["mode"], c["answer"]) for c in printed["cells"]] == [
        (1, "plain", "no"), (1, "dms", "no"), (2, "plain", "yes"), (2, "dms", "yes"),
    ]


# ------------------------------------------------------------ pinned output

# One representative call of each report, with its literal stdout in both
# formats and its exit code.  Bench times are masked.
PINNED = [
    (
        ["rewrite", "{choice}", "--query", "p(a)?"], 0,
        "edb(a).\n"
        "magic_p_b(X) :- magic_q_b(X).\n"
        "magic_p_b(a).\n"
        "magic_q_b(X) :- magic_p_b(X).\n"
        "q(X) v p(X) :- magic_q_b(X), magic_p_b(X), edb(X).\n",
        '{\n  "rules": [\n    "edb(a).",\n'
        '    "magic_p_b(X) :- magic_q_b(X).",\n    "magic_p_b(a).",\n'
        '    "magic_q_b(X) :- magic_p_b(X).",\n'
        '    "q(X) v p(X) :- magic_q_b(X), magic_p_b(X), edb(X)."\n  ]\n}\n',
    ),
    (
        ["solve", "{guarded}"], 0,
        "{a}\n{b}\n",
        '{\n  "answer_sets": [\n    [\n      "a"\n    ],\n    [\n      "b"\n'
        '    ]\n  ],\n  "count": 2,\n  "candidates_examined": 16\n}\n',
    ),
    (
        ["query", "{ancestry}", "--query", "ancestor(p1,X)?", "--brave"], 0,
        "X = p2\n",
        '{\n  "query": "ancestor(p1,X)?",\n  "mode": "brave",\n'
        '  "rewriting_applied": true,\n  "candidates_examined": 4,\n'
        '  "substitutions": [\n    {\n      "X": "p2"\n    }\n  ]\n}\n',
    ),
    (
        ["query", "{choice}", "--query", "p(a)?", "--cautious"], 0,
        "yes\n",
        '{\n  "query": "p(a)?",\n  "mode": "cautious",\n'
        '  "rewriting_applied": false,\n  "candidates_examined": 6,\n'
        '  "answer": "yes"\n}\n',
    ),
    (
        ["check", "{ancestry}", "--odd-cycle-free"], 0,
        "odd-cycle-free: yes\n",
        '{\n  "check": "odd-cycle-free",\n  "holds": true\n}\n',
    ),
    (
        ["check", "{choice}", "--super-consistent"], 0,
        "super-consistent: not_super_consistent\n"
        "inconsistent after adding: {q(a)}\n"
        "fact sets tested: 11\n",
        '{\n  "check": "super-consistent",\n'
        '  "status": "not_super_consistent",\n'
        '  "counterexample": [\n    "q(a)"\n  ],\n  "sets_tested": 11,\n'
        '  "via_shortcut": false\n}\n',
    ),
    (
        ["diff", "{choice}", "--query", "q(a)?", "--trials", "1",
         "--density", "0.0"], 1,
        "program 2569573d3168, query q(a)?\n"
        "fact sets tested: 1\n"
        "brave mismatch with facts {(none)}:\n"
        "  only rewritten: {}\n",
        '{\n  "program_id": "2569573d3168",\n  "query": "q(a)?",\n'
        '  "fact_sets_tested": 1,\n  "skipped": [],\n'
        '  "brave_mismatches": [\n    {\n      "facts": [],\n'
        '      "only_original": [],\n      "only_rewritten": [\n'
        '        "{}"\n      ]\n    }\n  ],\n  "cautious_mismatches": [],\n'
        '  "ok": false\n}\n',
    ),
    (
        ["bench", "related", "--sizes", "1", "--mode", "plain"], 0,
        "n,mode,rep,status,time_ms,ground_rules,candidates,answer\n"
        "1,plain,0,ok,T,0,0,no\n",
        '{\n  "instance_pattern": "grid (right and down edges; layout is an '
        'assumption)",\n  "cells": [\n    {\n      "n": 1,\n'
        '      "mode": "plain",\n      "rep": 0,\n      "status": "ok",\n'
        '      "time_ms": T,\n      "ground_rules": 0,\n'
        '      "candidates": 0,\n      "answer": "no"\n    }\n  ]\n}\n',
    ),
]


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize(
    "argv, code, text, structured", PINNED, ids=[p[0][0] for p in PINNED]
)
def test_output_is_pinned(write, capsys, argv, code, text, structured, fmt):
    paths = {
        "ancestry": write(ANCESTRY, "ancestry.dl"),
        "choice": write(CHOICE, "choice.dl"),
        "guarded": write(GUARDED, "guarded.dl"),
    }
    argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
    assert main([*argv, "--format", fmt]) == code
    out = capsys.readouterr().out
    if argv[0] == "bench":
        out = re.sub(r"\d+\.\d+(e-?\d+)?", "T", out)
    assert out == (text if fmt == "text" else structured)


# --------------------------------------------------------------- exit codes


def test_parse_errors_exit_2(write, capsys):
    path = write("p(X\n")
    assert main(["solve", path]) == 2
    assert "error: line" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    path = str(tmp_path / "absent.dl")
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"


def test_usage_errors_exit_2(write, capsys):
    assert main(["solve", write(GUARDED), "--no-such-flag"]) == 2
    assert main(["query", write(GUARDED), "--query", "a?"]) == 2  # no mode
    assert main(["bench", "related", "--sizes", "0"]) == 2
    capsys.readouterr()


def test_non_utf8_program_exits_2(tmp_path, capsys):
    path = tmp_path / "program.dl"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} is not UTF-8 text: 'utf-8' codec can't decode byte "
        "0xff in position 0: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "flags",
    [["--trials", "-3"], ["--density", "5"], ["--density", "nan"],
     ["--density", "-0.1"], ["--trials", "0"]],
)
def test_diff_rejects_out_of_range_sampling(write, capsys, flags):
    argv = ["diff", write(ANCESTRY), "--query", "ancestor(p1,X)?", *flags]
    assert main(argv) == 2
    assert "no mismatches" not in capsys.readouterr().out


@pytest.mark.parametrize("cap", ["--ground-cap", "--candidate-cap"])
def test_rewrite_takes_no_caps(write, capsys, cap):
    # it neither grounds nor searches
    argv = ["rewrite", write(ANCESTRY), "--query", "ancestor(p1,p2)?", cap, "5"]
    assert main(argv) == 2
    assert f"unrecognized arguments: {cap} 5" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "rewrite" in capsys.readouterr().out


def test_cap_exhaustion_exits_3(write, capsys):
    assert main(["solve", write(GUARDED), "--candidate-cap", "1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_ground_cap_counts_only_derivable_instances(write, capsys):
    # 202 constants put the product bound far above the cap; only the
    # 206 relevant instances count against it
    text = "".join(f"c(k{i}).\n" for i in range(200))
    path = write(text + "e(a). e(b).\np(X,Y) :- e(X), e(Y).\n")
    assert main(["solve", path, "--ground-cap", "1000"]) == 0
    assert "p(a,b)" in capsys.readouterr().out


@pytest.mark.parametrize("rewrite", ["off", "auto"])
def test_query_over_the_ground_cap_grounds_once(write, capsys, calls, rewrite):
    groundings = calls("_ground_coded")
    argv = ["query", write(ANCESTRY), "--query", "ancestor(p1,X)?", "--brave",
            "--rewrite", rewrite, "--ground-cap", "2"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: grounding needs more than 2 instances\n"
    assert len(groundings) == 1


def test_import_loads_no_graph_library():
    # networkx may be installed, so only a fresh interpreter shows whether
    # the package pulls it in.
    code = "import sys, aspmagic, aspmagic.cli; print('networkx' in sys.modules)"
    src = str(Path(aspmagic.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


def test_import_loads_neither_multiprocessing_nor_hashlib():
    # Only ``bench`` forks workers and only ``diff`` hashes programs; every
    # other call should not pay for importing either.
    code = (
        "import sys, aspmagic.cli; "
        "print(sorted({'multiprocessing', 'hashlib'} & set(sys.modules)))"
    )
    src = str(Path(aspmagic.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def _run_bare(code: str) -> str:
    """The output of ``code`` in a fresh interpreter started without
    ``site`` (``-S``), whose ``.pth`` files may import modules of their own."""
    src = str(Path(aspmagic.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    ).stdout


def test_cli_calls_load_neither_dataclasses_nor_inspect(write):
    # Text output needs no json, file access no pathlib and the help
    # width no shutil either.  The second query applies the rewriting, so
    # the rewriter is loaded.
    path = write(ANCESTRY)
    calls = [
        ["query", path, "--query", "ancestor(p1,p2)?", "--brave", "--rewrite", "off"],
        ["query", path, "--query", "ancestor(p1,p2)?", "--brave"],
        ["rewrite", path, "--query", "ancestor(p1,X)?"],
        ["solve", path],
        ["check", path, "--odd-cycle-free"],
    ]
    out = _run_bare(
        "import sys; from aspmagic.cli import main; "
        f"codes = [main(argv) for argv in {calls!r}]; "
        "print(codes, 'aspmagic.rewriter' in sys.modules, sorted("
        "{'dataclasses', 'inspect', 'json', 'pathlib', 'shutil'} & set(sys.modules)))"
    )
    assert out.splitlines()[-1] == "[0, 0, 0, 0, 0] True []"


@pytest.mark.parametrize("columns", ["40", "80", "200", "0", "wide", None])
def test_help_width_is_the_one_shutil_gives(monkeypatch, columns):
    import shutil

    from aspmagic.cli import _help_width

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert _help_width() == shutil.get_terminal_size().columns - 2


def test_no_submodule_loads_dataclasses():
    modules = ["analysis", "cli", "harness", "lifting", "oracle", "parser",
               "rewriter", "semantics", "syntax"]
    out = _run_bare(
        "import importlib, sys; "
        f"[importlib.import_module('aspmagic.' + m) for m in {modules!r}]; "
        "print('dataclasses' in sys.modules)"
    )
    assert out.strip() == "False"


def _loaded_after(code: str) -> list[str]:
    """The ``aspmagic`` submodules a fresh interpreter has loaded after
    running ``code``, as the last line it prints."""
    code += (
        "; import json, sys; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('aspmagic.'))))"
    )
    src = str(Path(aspmagic.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_package_import_loads_no_submodule():
    assert _loaded_after("import aspmagic") == []


def test_plain_query_loads_no_rewriting_code(write):
    path = write(ANCESTRY)
    loaded = _loaded_after(
        "from aspmagic.cli import main; "
        f"main(['query', {path!r}, '--query', 'ancestor(p1,X)?', '--brave', "
        "'--rewrite', 'off'])"
    )
    assert "aspmagic.semantics" in loaded
    for module in ("harness", "rewriter", "analysis", "lifting", "oracle"):
        assert f"aspmagic.{module}" not in loaded


def test_rewritten_query_loads_no_harness(write):
    path = write(ANCESTRY)
    loaded = _loaded_after(
        "from aspmagic.cli import main; "
        f"main(['query', {path!r}, '--query', 'ancestor(p1,X)?', '--brave'])"
    )
    assert {"aspmagic.analysis", "aspmagic.rewriter"} <= set(loaded)
    assert "aspmagic.harness" not in loaded
    assert "aspmagic.oracle" not in loaded


def test_no_subcommand_loads_the_oracle(write):
    # the oracle cross-checks the search and lifting the rewriting, both
    # outside the command line
    path = write(ANCESTRY)
    q = ["--query", "ancestor(p1,p2)?"]
    calls = [
        ["solve", path],
        ["query", path, *q, "--brave", "--rewrite", "on"],
        ["query", path, *q, "--cautious", "--rewrite", "off"],
        ["rewrite", path, *q],
        ["check", path, "--odd-cycle-free"],
        ["check", path, "--super-consistent", "--budget", "5"],
        ["diff", path, *q, "--trials", "2"],
        ["bench", "related", "--sizes", "1", "--mode", "both"],
    ]
    loaded = _loaded_after(
        f"from aspmagic.cli import main; [main(argv) for argv in {calls!r}]"
    )
    assert {"aspmagic.harness", "aspmagic.rewriter", "aspmagic.analysis"} <= set(loaded)
    assert not {"aspmagic.lifting", "aspmagic.oracle"} & set(loaded)


@pytest.mark.parametrize(
    "command, stage",
    [(["solve"], "answer_sets"),
     (["query", "--query", "p(a)?", "--brave"], "answer_query"),
     (["rewrite", "--query", "p(a)?"], "dms")],
)
def test_internal_errors_exit_4(write, capsys, monkeypatch, command, stage):
    def broken(*args, **kwargs):
        raise RuntimeError("stage broke")

    # ``rewrite`` imports the rewriter when it runs, so patch it at home.
    home = "aspmagic.rewriter" if stage == "dms" else "aspmagic.cli"
    monkeypatch.setattr(f"{home}.{stage}", broken)
    path = write("e(a).\np(X) :- e(X).\n")
    assert main([command[0], path, *command[1:]]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.splitlines()[-1] == "internal error: RuntimeError: stage broke"


def test_unsafe_program_exits_2(write, capsys):
    path = write("p(X) :- not q(X).\n")
    assert main(["solve", path]) == 2
    assert "error:" in capsys.readouterr().err
