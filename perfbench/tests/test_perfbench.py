"""Tests of the benchmark itself: seeding, the checker, the tracer, the tables.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checker  # noqa: E402
import gauge  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from bicheb import elliptic  # noqa: E402
from bicheb.bipartite import QuarticCoeffs, coefficients_from_recurrence  # noqa: E402
from bicheb.roots import IsolatedRoot  # noqa: E402

WORKED = (-2, -3, 2, 2)
SYMMETRIC = (0, -5, 0, 4)
LOG = (0, 2, 0, 1)


def decide_output(n, c):
    out, _text, err = workloads._decide_verify(n, QuarticCoeffs.of(*c))
    return out, err


# -- seeding ---------------------------------------------------------------------


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    make = workloads.WORKLOADS[name]
    keys = [op.key for op in make(7)]
    assert keys == [op.key for op in make(7)]
    assert len(set(keys)) == len(keys)
    assert keys != [op.key for op in make(8)]


def test_refusal_screen_matches_exact_f1():
    c = (F(1), F(-3, 2), F(2), F(1, 2))
    for s in (2, 3, 6, 12):
        _, f1 = coefficients_from_recurrence(s, QuarticCoeffs.of(*c))
        p = (1 << 61) - 1
        assert workloads.f1_mod_prime(s, c) == f1.numerator * pow(f1.denominator, -1, p) % p


# -- checker: accepts known-good outputs ----------------------------------------


@pytest.mark.parametrize("n, c", [(3, WORKED), (4, SYMMETRIC), (2, LOG)])
def test_checker_accepts_known_good(n, c):
    assert checker.check_closed_form(n, c, *decide_output(n, c)) == []


def test_checker_flags_the_known_sigma_defect():
    fails = checker.check_closed_form(30, WORKED, *decide_output(30, WORKED))
    assert "sigma_mismatch" in fails and "verify_over_tol" in fails


# -- checker: rejects altered outputs ------------------------------------------------


def test_checker_rejects_one_flipped_sigma():
    cf, err = decide_output(3, WORKED)
    pieces = list(cf.pieces)
    pieces[1] = dataclasses.replace(pieces[1], sigma=-pieces[1].sigma)
    bad = dataclasses.replace(cf, pieces=pieces)
    assert checker.check_closed_form(3, WORKED, bad, err) == ["sigma_mismatch"]


def test_checker_rejects_a_wrong_identity():
    cf, err = decide_output(3, WORKED)
    bad = dataclasses.replace(cf, m2=cf.m2 + 1)
    assert "residual_nonzero" in checker.check_closed_form(3, WORKED, bad, err)


def test_checker_rejects_one_altered_refusal_triple():
    c = (F(1), F(2), F(-1), F(3, 2))
    rc, text = workloads._cli_decide(12, c)
    assert checker.check_refusal_cli(12, c, rc, text) == []
    payload = json.loads(text)
    payload["divisors"][2]["aux"] = str(F(payload["divisors"][2]["aux"]) + 1)
    assert checker.check_refusal_cli(12, c, rc, json.dumps(payload)) == [
        "refusal_triple_mismatch"
    ]
    assert "verdict_wrong" in checker.check_refusal_cli(12, c, 0, text)


def test_checker_rejects_exact_root_moved_off_f1():
    fixed = {1: F(-2), 3: F(2), 4: F(2)}
    result = elliptic.complete_coefficient(3, fixed, 2)
    assert checker.check_completion(3, fixed, 2, result) == []
    entry = result.entries[0]
    moved = dataclasses.replace(entry, root=IsolatedRoot(entry.root.lo + F(1, 7), entry.root.lo + F(1, 7)))
    bad = dataclasses.replace(result, entries=[moved])
    assert checker.check_completion(3, fixed, 2, bad) == ["completion_root_wrong"]


def test_checker_rejects_interval_moved_off_its_root():
    fixed = {2: F(-5, 8), 3: F(3, 4), 4: F(1, 8)}
    result = elliptic.complete_coefficient(8, fixed, 1)
    assert checker.check_completion(8, fixed, 1, result) == []
    inexact = [i for i, e in enumerate(result.entries) if not e.root.exact]
    assert inexact
    i = inexact[0]
    r = result.entries[i].root
    width = r.hi - r.lo
    shifted = IsolatedRoot(r.hi + width, r.hi + 2 * width, r.multiplicity)
    entries = list(result.entries)
    entries[i] = dataclasses.replace(entries[i], root=shifted)
    bad = dataclasses.replace(result, entries=entries)
    assert checker.check_completion(8, fixed, 1, bad) == ["completion_root_wrong"]


def test_checker_fk_tables():
    table, lines = workloads._fk_body(6)
    point = (F(1), F(-2), F(1, 3), F(2))
    assert checker.check_fk(6, point, table, lines) == []
    assert checker.check_fk(6, point, table, lines[:-1]) == ["table_mismatch"]
    bigger, big_lines = workloads._fk_body(12)
    assert checker.check_fk(12, point, bigger, big_lines) == []
    assert checker.check_fk(12, point, table, big_lines) != []


def test_checker_multi_shifted_known_yes():
    pool = workloads.multi_fk(3)
    shifted = [op for op in pool if op.kind.startswith("multi shifted")]
    assert shifted
    for op in shifted:
        out = op.run()
        assert out[0].solvable() and out[2] is not None
        assert op.check(out) == []


# -- tracer --------------------------------------------------------------------------------


def test_tracer_self_time_and_restore():
    original = elliptic.real_roots
    tr = tracer.Tracer()
    tr.install()
    try:
        assert elliptic.real_roots is not original
        tr.active = True
        with tr.span("op"):
            elliptic.decide(6, QuarticCoeffs.of(*WORKED))
        tr.active = False
    finally:
        tr.uninstall()
    assert elliptic.real_roots is original
    stats = tr.span_stats()
    assert stats["elliptic.decide"]["calls"] == 1
    assert stats["roots.real_roots"]["calls"] >= 2
    total = stats["op"]["total_s"]
    assert sum(st["self_s"] for st in stats.values()) == pytest.approx(total)
    assert tr.counts["roots.sign_at.calls"] > 0
    assert tr.counts["elliptic.decide.divisors_scanned"] == 3  # s = 2, 3, 6


# -- gauge and failure counts ------------------------------------------------------------------


def test_gauge_scales_by_the_nearby_reference_times():
    g = gauge.Gauge()
    g.readings = [(float(t), gauge.NOMINAL_S * (1 if t < 10 else 2)) for t in range(20)]
    assert g.scale(3.0, 3.0) == pytest.approx(1.0)  # widened to the 3 nearest
    assert g.scale(15.0, 15.2) == pytest.approx(0.5)
    assert g.scale(9.9, 10.0) == pytest.approx(0.5)  # readings 9, 10, 11
    g = gauge.Gauge()
    g.read()
    g.maybe_read()  # too soon after the last reading
    assert len(g.readings) == 1


def test_failures_count_inputs_not_repeats():
    good = workloads.Op("a", "k", None, lambda out: [], None)
    bad = workloads.Op("b", "k", None, lambda out: ["sigma_mismatch"], None)
    records = [(good, 0, 1, None), (bad, 0, 1, None), (good, 0, 1, None),
               (bad, 0, 1, None), (good, 0, 1, "raised")]
    first = {"a": (good, 0, "out"), "b": (bad, 0, "out")}
    tags, checker_ok = worker.check_outputs(records, first)
    assert checker_ok
    assert tags == {"a": {"raised"}, "b": {"sigma_mismatch"}}


# -- tables and statistics -------------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(153) == 90.0
    assert metrics.tail_percentile(99) == 75.0
    assert metrics.tail_percentile(200) == 95.0


def test_percentile_estimate():
    assert metrics.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert metrics.percentile([7.0] * 9, 90) == pytest.approx(7.0)
    xs = [float(v * v) for v in range(40)]
    p50, p75, p90 = (metrics.percentile(xs, p) for p in (50, 75, 90))
    assert min(xs) < p50 < p75 < p90 < max(xs)
    assert p75 == pytest.approx(29.25**2, rel=0.05)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "multi_fk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
