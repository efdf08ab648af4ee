"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

from measure import Span, Tracer, median, percentile, self_times
from reference import (
    bfs_reachable,
    closure_edges,
    grid_program_text,
    kept_rules,
)
from speed import REFERENCE_NOMINAL_S, at_reference_speed

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
aspmagic = pytest.importorskip("aspmagic")


def test_percentile_matches_inclusive_quantiles():
    rng = random.Random(3)
    for n in (2, 3, 10, 57):
        values = [rng.random() for _ in range(n)]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        assert percentile(values, 25) == pytest.approx(quartiles[0])
        assert median(values) == pytest.approx(statistics.median(values))
        assert percentile(values, 75) == pytest.approx(quartiles[2])


def test_percentile_edges():
    assert median([4.0]) == 4.0
    assert median([1, 2, 3, 4]) == 2.5
    assert percentile(list(range(1, 101)), 95) == pytest.approx(95.05)
    assert percentile([5, 1, 3], 0) == 1 and percentile([5, 1, 3], 100) == 5
    with pytest.raises(ValueError):
        median([])


def test_at_reference_speed_scales_by_mean_reference_time():
    assert at_reference_speed(2.0, REFERENCE_NOMINAL_S) == pytest.approx(2.0)
    # The machine ran the reference twice as slow as nominal: halve the time.
    slow = 2 * REFERENCE_NOMINAL_S
    assert at_reference_speed(2.0, slow) == pytest.approx(1.0)
    assert at_reference_speed(3.0, slow, REFERENCE_NOMINAL_S) == pytest.approx(2.0)


def span(id_, parent, start, end):
    return Span(id_, f"s{id_}", parent, 0, None, start, end)


def test_self_time_subtracts_children_once():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),  # overlaps span 1: covered is 1..6, not 3 + 3
        span(3, 1, 1.5, 2.0),
        span(4, 0, 9.0, 12.0),  # runs past its parent: only 9..10 counts
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10 - 5 - 1)
    assert got[1] == pytest.approx(3 - 0.5)
    assert got[2] == pytest.approx(3)
    assert got[3] == pytest.approx(0.5)
    assert got[4] == pytest.approx(3)


def test_tracer_nests_and_inherits_mode():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("outer", mode="dms"):
        with tracer.span("inner") as inner:
            inner.counts["rules"] = 3
    outer_rec, inner_rec = tracer.spans
    assert inner_rec.parent == outer_rec.id and outer_rec.parent is None
    assert inner_rec.mode == "dms" and inner_rec.op == 7
    assert outer_rec.start <= inner_rec.start <= inner_rec.end <= outer_rec.end
    off = Tracer(enabled=False)
    with off.span("x"):
        pass
    assert off.spans == []


def test_bfs_reachable():
    edges = [(0, 1), (1, 2), (2, 0), (3, 4)]
    assert bfs_reachable(edges, 0) == {0, 1, 2}
    assert bfs_reachable(edges, 3) == {4}
    assert bfs_reachable(edges, 4) == set()
    chain = closure_edges(6, 0, random.Random(0))
    assert bfs_reachable(chain, 2) == {3, 4, 5}


def test_closure_edges_are_distinct_and_seeded():
    a = closure_edges(24, 6, random.Random("x"))
    assert len(a) == len(set(a)) == 23 + 6
    assert all(x != y for x, y in a)
    assert a == closure_edges(24, 6, random.Random("x"))


def test_grid_text_is_the_packaged_instance():
    for n in (2, 3):
        text = grid_program_text(n, random.Random(n))
        assert aspmagic.parse_program(text) == aspmagic.gen_related_instance(n).program


def naive_kept(rules):
    derivable = set()
    changed = True
    while changed:
        changed = False
        for r in rules:
            if set(r.pos_body) <= derivable and not set(r.head) <= derivable:
                derivable |= set(r.head)
                changed = True
    return [r for r in rules if set(r.pos_body) <= derivable]


def test_kept_rules_on_grid_2():
    g = aspmagic.ground(aspmagic.gen_related_instance(2).program)
    assert len(g.rules) == 116
    kept = kept_rules(g.rules)
    # 4 facts, 4 father and 4 brother rules over related pairs, 4 ancestor
    # base rules, and 2 recursive ancestor rules through a middle person.
    assert len(kept) == 18
    assert kept == naive_kept(g.rules)


def test_kept_rules_agree_with_naive_fixpoint_on_random_programs():
    for i in range(30):
        p = aspmagic.random_program(i, ("stratified", "odd_cycle_free", "arbitrary")[i % 3])
        facts = aspmagic.random_edb(p, i, 0.3, max_facts=8)
        rules = aspmagic.ground(p.with_facts(facts)).rules
        assert kept_rules(rules) == naive_kept(rules)


def test_spec_covers_benchmark_metrics():
    """Every per-layer metric has a prediction, and every workload has
    its parameters recorded."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    predicted = {name for p in spec["predictions"] for name in p["layer"]}
    for m in bench["per_layer"]:
        base = m["name"].removesuffix(".plain").removesuffix(".dms")
        assert base in predicted, m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
