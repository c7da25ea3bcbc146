"""Acceptance suite: one test per criterion, tolerances pinned in-line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the explicit
PASS lines).  Every exact assertion is zero-tolerance; numeric oracles
carry the stated bounds.
"""

import math
import random
import time
from fractions import Fraction as F

from bicheb.bipartite import (
    QuarticCoeffs,
    coefficients_from_recurrence,
    conditions,
    continuation,
    identity_residual,
    solve_c1,
)
from bicheb.bipartite import Branch
from bicheb.elliptic import (
    BRANCH_ARCSINH,
    BRANCH_LOG,
    ClosedForm,
    Refusal,
    complete_coefficient,
    decide,
    numeric_check,
)
from bicheb.multipartite import coefficients_general
from bicheb.partitions import (
    Partition,
    fk_table_by_products,
    fk_table_by_recurrence,
    partitions_bounded,
)
from bicheb.poly import Poly
from bicheb.scalars import rational_sqrt

WORKED = QuarticCoeffs.of(-2, -3, 2, 2)
SYMMETRIC = QuarticCoeffs.of(0, -5, 0, 4)
HYPER = QuarticCoeffs.of(0, -2, 0, 2)


def _announce(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_symmetric_quartic_reproduction():
    t0 = time.perf_counter()
    cf = decide(2, SYMMETRIC)
    elapsed = time.perf_counter() - t0
    assert isinstance(cf, ClosedForm)
    assert cf.G.scale(1 / rational_sqrt(cf.m2)) == Poly((F(-5, 3), F(0), F(2, 3)))  # (2x^2-5)/3
    assert rational_sqrt(cf.m2) == F(3, 2)
    assert elapsed < 0.1
    _announce(1, f"g/m = (2x^2-5)/3, m = 3/2, decided in {elapsed * 1e3:.2f} ms")


def test_criterion_02_worked_circular_instance():
    t0 = time.perf_counter()
    cf = decide(3, WORKED)
    assert isinstance(cf, ClosedForm)
    assert cf.G == Poly((F(3), F(0), F(-3), F(1)))  # x^3 - 3x^2 + 3
    assert cf.convention == "g" and cf.m2 == 1 and cf.d == 9
    err = numeric_check(cf, (-0.95, -0.75), 1e-10)
    elapsed = time.perf_counter() - t0
    assert err <= 1e-8
    assert elapsed < 1.0
    _announce(2, f"g = x^3-3x^2+3, d = 9, numeric error {err:.2e} in {elapsed:.3f} s")


def test_criterion_03_hyperbolic_branch():
    cf2 = decide(2, HYPER)
    assert isinstance(cf2, ClosedForm) and cf2.branch == BRANCH_ARCSINH
    assert cf2.G == Poly((F(-1), F(0), F(1)))
    err = numeric_check(cf2, (0.0, 1.0), 1e-10)
    assert err <= 1e-8

    cf6 = decide(6, HYPER)
    u = Poly((F(-1), F(0), F(1)))
    assert cf6.G == (u * u * u).scale(4) + u.scale(3)  # 4(x^2-1)^3 + 3(x^2-1)
    assert not cf6.residual()

    out4 = decide(4, HYPER)
    assert isinstance(out4, Refusal)
    assert "even outer degree" in out4.reason
    _announce(3, f"arcsinh form err {err:.2e}; n=6 exact; n=4 refused (even n/s)")


def test_criterion_04_logarithmic_branch():
    cf = decide(2, QuarticCoeffs.of(0, 2, 0, 1))
    assert isinstance(cf, ClosedForm) and cf.branch == BRANCH_LOG
    assert cf.d == 0 and cf.G == Poly((F(1), F(0), F(1)))
    err = numeric_check(cf, (1.0, 2.0), 1e-12)
    assert err <= 1e-10
    _announce(4, f"(1/2) log(x^2+1) + C, d = 0 exactly, numeric error {err:.2e}")


def test_criterion_05_dual_route_tables():
    t0 = time.perf_counter()
    for s in range(1, 13):
        assert fk_table_by_recurrence(s) == fk_table_by_products(s), s
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(5, f"recurrence and product tables identical for s <= 12 in {elapsed:.2f} s")


def _evaluate(table, c):
    """(F_0, ..., F_s) at c, summed from the table's monomials."""
    return [
        sum(coeff * math.prod(c[p - 1] for p in lam.parts) for lam, coeff in table[k].items())
        for k in table.ks()
    ]


def test_criterion_06_coefficient_table_properties():
    rng = random.Random(20250809)
    for s in range(1, 11):
        table = fk_table_by_recurrence(s)
        for k in range(s + 1):
            entry = table[k]
            assert all(v > 0 for v in entry.values())
            expected = set(partitions_bounded(s - k, 4))
            if k == 0:
                expected.discard(Partition(tuple([1] * s)))
            assert set(entry) == expected
        for _ in range(3):
            c = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
            lam = F(rng.randint(1, 7), rng.randint(1, 5))
            scaled = [c[i] * lam ** -(i + 1) for i in range(4)]
            base, got = _evaluate(table, c), _evaluate(table, scaled)
            assert all(got[k] == base[k] * lam ** -(s - k) for k in range(s + 1))
    _announce(6, "positivity, grading, and support (no c1^s in F_0) for s <= 10")


def test_criterion_07_soundness_negative_control():
    c = QuarticCoeffs.of(0, -3, 1, 1)
    out = decide(2, c)
    assert isinstance(out, Refusal)
    dv = out.divisors[0]
    assert dv.f1 == 0 and dv.aux == 1
    # direct expansion: no m makes 4 x^2 (u^2 - m^2) equal p u'^2
    a, _ = coefficients_from_recurrence(2, c)
    u = Poly(a)
    for m2 in (F(0), F(1), F(5, 4), F(9, 7), F(100)):
        res = identity_residual(u, "g", c.poly(), 2, m2, Branch.CIRCULAR)
        assert res[3] == -4  # m-independent defect
    _announce(7, "refused with F_1 = 0, aux = 1; defect persists for every m")


def test_criterion_08_continuation():
    starts = solve_c1(4, F(-2), 0, 0)
    assert len(starts) == 3
    vals = [r.value() for r in starts]
    assert all(abs(a - b) > 1e-6 for i, a in enumerate(vals) for b in vals[i + 1:])
    bounds = []
    for k in (1, 2, 3):
        r = continuation(4, F(-2), F(1, 100), F(1, 100), k)
        assert r.reached and r.tau_star == 1.0
        # exact verification after rational reconstruction, or certified
        # numeric with the divided-ODE polynomial residual bounded on [-2,2]
        assert r.f1_exact_zero or r.ode_polypart_residual_bound(-2.0, 2.0) <= 1e-9
        bounds.append(r.ode_polypart_residual_bound(-2.0, 2.0))
    _announce(8, f"3 distinct starts, all paths at tau=1, residual bounds {max(bounds):.2e}")


def test_criterion_09_cross_framework_consistency():
    rng = random.Random(90210)
    x = Poly.x()
    for s in range(2, 7):
        for _ in range(5):
            c = QuarticCoeffs.of(
                *[F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(4)]
            )
            a, f1 = coefficients_from_recurrence(s, c)
            sys_ = coefficients_general(s, c.poly(), x)
            assert sys_.a == a
            assert sys_.origin_residual == 2 * (s * s - 1) * f1
            assert sys_.neg_residuals[0] == 2 * conditions(s, c).aux
            assert sys_.neg_residuals[1] == 0 and sys_.neg_residuals[2] == 0
    _announce(9, "general q=x machinery matches the quartic module exactly, s in 2..6")


def test_criterion_10_composition_closure():
    cf = decide(4, SYMMETRIC)
    assert isinstance(cf, ClosedForm)
    u = Poly((F(-5, 2), F(0), F(1)))
    # parity-exact check on g/m: ((4/3) u^2 - 3/2) / (3/2) = (8/9) u^2 - 1
    assert cf.convention == "g-over-m"
    assert cf.G == (u * u).scale(F(8, 9)) - Poly.one()
    assert rational_sqrt(cf.m2) == F(3, 2)
    assert not cf.residual()
    _announce(10, "n=4 composition g = (4/3)(x^2-5/2)^2 - 3/2, residual exactly zero")


def test_criterion_11_completion_nonemptiness():
    rng = random.Random(411)
    triples = [
        tuple(F(rng.randint(-24, 24), 8) for _ in range(3)) for _ in range(50)
    ]
    for n in range(2, 21, 2):
        for c2, c3, c4 in triples:
            r = complete_coefficient(n, {2: c2, 3: c3, 4: c4}, 1)
            assert len(r.entries) >= 1, (n, c2, c3, c4)
    r3 = complete_coefficient(3, {1: F(-2), 3: F(2), 4: F(2)}, 2)
    assert [e.root.lo for e in r3.entries] == [F(-3)]
    assert all(e.root.exact for e in r3.entries)
    _announce(11, "c1 completion nonempty for 50 triples x even n <= 20; c2 case exact {-3}")
