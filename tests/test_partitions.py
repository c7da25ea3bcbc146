import contextlib
import functools
import io
import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicheb import bipartite, cli, partitions
from bicheb.bipartite import QuarticCoeffs, _f1_float, conditions, f1_polynomial
from bicheb.partitions import (
    Partition,
    distinct_perms,
    fk_table_by_products,
    fk_table_by_recurrence,
    format_fk,
    part_factor,
    partition_coeff,
    partitions_bounded,
)
from bicheb.poly import Poly


def P(*parts):
    return Partition(tuple(parts))


# -- Fraction oracles ----------------------------------------------------------
#
# The recurrence and the one-variable view on Fractions: the references for
# the tables the integer recurrence builds, and for F_1 as a polynomial in
# one coefficient, which bipartite.f1_polynomial reads from the integer
# conditions recurrence.


def fraction_recurrence(s):
    """{k: {Partition: Fraction}} from F_s = 1 down, in insertion order."""
    tables = {s: {Partition(()): F(1)}}
    for k in range(s - 1, -1, -1):
        entry = {}
        for i in range(2 if k == 0 else 1, 5):
            if k + i > s:
                continue
            factor = part_factor(i, s - k, s)
            for lam, coeff in tables[k + i].items():
                key = Partition(tuple(sorted(lam.parts + (i,), reverse=True)))
                entry[key] = entry.get(key, F(0)) + factor * coeff
        tables[k] = {lam: v for lam, v in entry.items() if v != 0}
    return tables


def fraction_poly_in(entry, index, fixed):
    """F_k as coefficients in c_<index>, multiplying in the type of fixed."""
    coeffs = {}
    for lam, coeff in entry.items():
        power = sum(1 for p in lam.parts if p == index)
        rest = F(1)
        for p in lam.parts:
            if p != index:
                rest *= fixed[p]
        coeffs[power] = coeffs.get(power, F(0)) + coeff * rest
    top = max(coeffs, default=0)
    return [coeffs.get(i, F(0)) for i in range(top + 1)]


def monomial_text(lam):
    """c-monomial with grouped powers in ascending part, e.g. (2,1,1) -> c1^2*c2."""
    if not lam.parts:
        return "1"
    counts = [(p, lam.parts.count(p)) for p in sorted(set(lam.parts))]
    return "*".join(f"c{p}" if e == 1 else f"c{p}^{e}" for p, e in counts)


def fraction_format(entry, k):
    """One F_k line from a Partition -> Fraction dict, terms by parts tuple."""
    if not entry:
        return f"F_{k} = 0"
    terms = []
    for lam, coeff in sorted(entry.items(), key=lambda item: item[0].parts):
        mono = monomial_text(lam)
        if lam.parts:
            terms.append(f"({coeff})*{mono}" if coeff != 1 else mono)
        else:
            terms.append(f"{coeff}")
    return f"F_{k} = " + " + ".join(terms)


def fraction_values(table, c):
    """(F_0, ..., F_s) at c = (c1, c2, c3, c4), on Fractions."""
    cf = dict(enumerate(c, 1))
    return [fraction_poly_in(table[k], 0, cf)[0] for k in table.ks()]


@pytest.mark.parametrize("s", range(1, 41))
def test_integer_recurrence_equals_the_fraction_oracle(s):
    table, oracle = fk_table_by_recurrence(s), fraction_recurrence(s)
    assert table.ks() == sorted(oracle)
    for k in table.ks():
        assert list(table[k].items()) == list(oracle[k].items()), k


@pytest.mark.parametrize("s", range(1, 41))
def test_format_fk_equals_the_fraction_formatting(s):
    table = fk_table_by_recurrence(s)
    for k in table.ks():
        assert format_fk(table, k) == fraction_format(table[k], k), k


@pytest.mark.parametrize("s", range(1, 11))
def test_format_fk_of_packed_products_tables(s):
    products, recurrence = fk_table_by_products(s), fk_table_by_recurrence(s)
    for k in products.ks():
        text = format_fk(products, k)
        assert text == fraction_format(products[k], k) == format_fk(recurrence, k), k


GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"


def test_fk_text_builds_no_partition_and_no_fraction(monkeypatch):
    def unbuilt(*args):
        raise AssertionError(f"built from {args}")

    want = next(e for e in json.loads(GOLDEN.read_text()) if e["argv"] == ["fk", "--s", "30"])
    monkeypatch.setattr(partitions, "_counted", unbuilt)
    monkeypatch.setattr(partitions, "Fraction", unbuilt)
    bipartite.fk_table.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["fk", "--s", "30"])
    assert (code, buf.getvalue()) == (want["exit"], want["stdout"])


@pytest.mark.parametrize("s", ["6", "17"])
def test_fk_json_builds_no_partition_and_no_fraction(monkeypatch, s):
    def unbuilt(*args):
        raise AssertionError(f"built from {args}")

    argv = ["fk", "--s", s, "--json"]
    want = next(e for e in json.loads(GOLDEN.read_text()) if e["argv"] == argv)
    monkeypatch.setattr(partitions, "_counted", unbuilt)
    monkeypatch.setattr(partitions, "Fraction", unbuilt)
    bipartite.fk_table.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert (code, buf.getvalue()) == (want["exit"], want["stdout"])


def test_fk_json_terms_equal_the_fraction_view():
    for s in range(1, 31):
        table = fk_table_by_recurrence(s)
        for k in table.ks():
            want = sorted(table[k].items(), key=lambda item: item[0].parts, reverse=True)
            assert partitions.fk_terms(table, k) == [
                {"parts": list(lam.parts), "coeff": str(coeff)} for lam, coeff in want
            ]


def test_tracker_decodes_row_1_only(monkeypatch):
    # the tracker reads F_1's integer row as it is: it touches no other row,
    # builds no Partition view and makes no Fraction
    def unexpected(*args):
        raise AssertionError("the tracker left the integer row")

    s = 12
    table = bipartite.fk_table(s)
    read = []

    class Rows(dict):
        def __getitem__(self, k):
            read.append(k)
            return super().__getitem__(k)

    monkeypatch.setattr(table, "rows", Rows(table.rows))
    monkeypatch.setattr(partitions, "_counted", unexpected)
    monkeypatch.setattr(partitions, "Fraction", unexpected)
    monkeypatch.setattr(bipartite, "Fraction", unexpected)
    _f1_float(s, 0.5, -1.25, 2.0)
    _f1_float(s, -0.5, 1.25, 3.0)
    assert read == [1, 1]


table_at = functools.lru_cache(fk_table_by_recurrence)
coefficient = st.builds(
    F, st.integers(-9, 9), st.sampled_from((1, 3, 5, 7, 12))
) | st.just(F(0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 30), st.tuples(coefficient, coefficient, coefficient, coefficient))
@example(30, (F(-9, 7), F(5, 12), F(-1, 3), F(7, 5)))
@example(4, (F(0), F(0), F(0), F(0)))
def test_f1_polynomial_equals_the_fraction_oracle(s, c):
    entry = table_at(s)[1]
    for target in range(1, 5):
        fixed = {p: v for p, v in enumerate(c, 1) if p != target}
        want = Poly(fraction_poly_in(entry, target, fixed))
        assert f1_polynomial(s, target, fixed) == want, target


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert P(3, 1).weight == 4 and P(3, 1).length == 2


def test_partitions_bounded_enumeration():
    assert partitions_bounded(0, 4) == [P()]
    four = partitions_bounded(4, 4)
    assert four == [P(4), P(3, 1), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1)]
    assert partitions_bounded(3, 2) == [P(2, 1), P(1, 1, 1)]


def test_partitions_bounded_counts():
    # partitions with parts <= 4: OEIS A001400 starts 1,1,2,3,5,6,9,11,15,18
    expected = [1, 1, 2, 3, 5, 6, 9, 11, 15, 18]
    got = [len(partitions_bounded(k, 4)) for k in range(10)]
    assert got == expected


def test_distinct_perms_s_variant():
    seqs = distinct_perms(P(2, 1, 1))
    assert seqs == [(2, 1, 1), (1, 2, 1), (1, 1, 2)]  # descending lexicographic
    assert len(seqs) == 3  # multinomial 3!/2!


def test_partition_coeff_full_weight_keeps_only_trailing_parts_above_one():
    # at weight = s only the permutations ending in a part > 1 contribute:
    # of (2,1,1), (1,2,1), (1,1,2) that is (1,1,2) alone
    assert partition_coeff(P(2, 1, 1), 4) == (
        part_factor(1, 1, 4) * part_factor(1, 2, 4) * part_factor(2, 4, 4)
    )
    # below full weight every permutation contributes
    assert partition_coeff(P(2, 1, 1), 5) == (
        part_factor(2, 2, 5) * part_factor(1, 3, 5) * part_factor(1, 4, 5)
        + part_factor(1, 1, 5) * part_factor(2, 3, 5) * part_factor(1, 4, 5)
        + part_factor(1, 1, 5) * part_factor(1, 2, 5) * part_factor(2, 4, 5)
    )


def test_part_factor_values():
    assert part_factor(1, 2, 3) == F(3, 8)
    assert part_factor(2, 3, 3) == F(2, 9)
    assert part_factor(2, 2, 2) == F(1, 2)
    with pytest.raises(ValueError):
        part_factor(1, 0, 3)
    with pytest.raises(ValueError):
        part_factor(1, 4, 3)


def test_partition_coeff_values():
    assert partition_coeff(P(1, 1), 3) == F(9, 16)
    assert partition_coeff(P(2), 3) == F(3, 4)
    # all-ones partition of weight s vanishes
    assert partition_coeff(P(1, 1, 1), 3) == 0
    assert partition_coeff(P(1, 1, 1, 1), 4) == 0


def test_fk_tables_small_s():
    t2 = fk_table_by_recurrence(2)
    assert t2[1] == {P(1): F(1)}
    assert t2[0] == {P(2): F(1, 2)}
    t3 = fk_table_by_recurrence(3)
    assert t3[2] == {P(1): F(3, 2)}
    assert t3[1] == {P(1, 1): F(9, 16), P(2): F(3, 4)}
    assert t3[0] == {P(2, 1): F(1, 3), P(3): F(1, 2)}


def test_fk_f_sminus1_is_half_s_c1():
    for s in range(2, 9):
        t = fk_table_by_recurrence(s)
        assert t[s - 1] == {P(1): F(s, 2)}


@pytest.mark.parametrize("s", range(1, 13))
def test_dual_route_equality(s):
    assert fk_table_by_recurrence(s) == fk_table_by_products(s)


def test_positivity_and_support():
    for s in range(1, 11):
        table = fk_table_by_recurrence(s)
        for k in range(s + 1):
            entry = table[k]
            assert all(coeff > 0 for coeff in entry.values())
            expected = set(partitions_bounded(s - k, 4))
            if k == 0:
                ones = P(*([1] * s))
                assert ones not in entry
                expected.discard(ones)
            assert set(entry) == expected


def test_grading_under_weighted_scaling():
    rng = random.Random(5)
    for s in (2, 3, 5, 7):
        table = fk_table_by_recurrence(s)
        for _ in range(5):
            c = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
            lam = F(rng.randint(1, 5), rng.randint(1, 3))
            scaled = [c[i] * lam ** -(i + 1) for i in range(4)]
            base = fraction_values(table, c)
            got = fraction_values(table, scaled)
            for k in range(s + 1):
                assert got[k] == base[k] * lam ** -(s - k)


def test_fk_known_values():
    # the table, and the conditions run that fk --eval prints (F_1 in place
    # of the pinned a_1)
    for s, c, want in ((3, (-2, -3, 2, 2), [3, 0, -3, 1]), (2, (0, -5, 0, 4), [F(-5, 2), 0, 1]),
                       (2, (0, 0, 0, 0), [0, 0, 1]), (4, (0, 0, 0, 0), [0, 0, 0, 0, 1]),
                       (6, (0, 0, 0, 0), [0] * 6 + [1])):
        c = tuple(map(F, c))
        assert fraction_values(fk_table_by_recurrence(s), c) == want
        cond = conditions(s, QuarticCoeffs.of(*c))
        assert [*cond.a[:1], cond.f1, *cond.a[2:]] == want


def test_f1_polynomial_in_c1():
    got = f1_polynomial(3, 1, {2: F(-3), 3: F(0), 4: F(0)})
    assert got == Poly((F(-9, 4), F(0), F(9, 16)))


def test_format_fk_text():
    t3 = fk_table_by_recurrence(3)
    assert format_fk(t3, 1) == "F_1 = (9/16)*c1^2 + (3/4)*c2"
    assert format_fk(t3, 3) == "F_3 = 1"


def test_tracker_float_f1_is_the_float_image_of_the_oracle():
    # the continuation tracker multiplies in floats, in table order; the
    # values must stay bit-identical to the Fraction-times-float oracle
    rng = random.Random(13)
    for s in (2, 3, 4, 7, 12):
        table = fk_table_by_recurrence(s)
        for _ in range(5):
            c2, c3, c4 = (rng.uniform(-3, 3) for _ in range(3))
            want = [float(v) for v in fraction_poly_in(table[1], 1, {2: c2, 3: c3, 4: c4})]
            assert _f1_float(s, c2, c3, c4) == want
