import random
from fractions import Fraction as F

import pytest

from bicheb.poly import LaurentPoly, Poly, chebyshev_t, sinh_chebyshev


def rand_poly(rng, max_deg=8):
    deg = rng.randint(0, max_deg)
    return Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg + 1)])


def test_mul_difference_of_squares():
    xp1 = Poly((F(1), F(1)))
    xm1 = Poly((F(-1), F(1)))
    assert xp1 * xm1 == Poly((F(-1), F(0), F(1)))


def test_derivative_power_rule():
    p = Poly((F(3), F(0), F(-3), F(1)))  # x^3 - 3x^2 + 3
    assert p.derivative() == Poly((F(0), F(-6), F(3)))


def test_compose_and_eval():
    outer = Poly((F(-1), F(0), F(2)))  # 2y^2 - 1
    inner = Poly((F(-5, 2), F(0), F(1)))  # x^2 - 5/2
    comp = outer.compose(inner)
    assert comp.eval(F(0)) == F(23, 2)
    assert comp.eval(F(1, 3)) == outer.eval(inner.eval(F(1, 3)))


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(40):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == Poly.zero()


def test_divmod():
    a = Poly.from_roots([F(1), F(-1), F(2)])
    b = Poly.from_roots([F(1), F(2)])
    q, r = a.divmod(b)
    assert not r
    assert q == Poly.from_roots([F(-1)])


def test_zero_polynomial_degree():
    assert Poly(()).degree == -1
    assert Poly((F(0), F(0))).degree == -1
    assert Poly((F(0), F(1))).degree == 1


def test_chebyshev_first_kind():
    assert chebyshev_t(0) == Poly.one()
    assert chebyshev_t(1) == Poly.x()
    assert chebyshev_t(2) == Poly((F(-1), F(0), F(2)))
    assert chebyshev_t(3) == Poly((F(0), F(-3), F(0), F(4)))
    for n in range(1, 9):
        assert chebyshev_t(n).leading() == F(2) ** (n - 1)


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_chebyshev_composition_semigroup(a, b):
    assert chebyshev_t(a).compose(chebyshev_t(b)) == chebyshev_t(a * b)


def test_sinh_chebyshev_small():
    assert sinh_chebyshev(1) == Poly.x()
    assert sinh_chebyshev(3) == Poly((F(0), F(3), F(0), F(4)))
    assert sinh_chebyshev(5) == Poly((F(0), F(5), F(0), F(20), F(0), F(16)))


def test_sinh_chebyshev_rejects_even():
    with pytest.raises(ValueError):
        sinh_chebyshev(2)
    with pytest.raises(ValueError):
        sinh_chebyshev(0)


@pytest.mark.parametrize("a", (1, 3, 5))
@pytest.mark.parametrize("b", (1, 3, 5))
def test_sinh_chebyshev_composition_semigroup(a, b):
    assert sinh_chebyshev(a).compose(sinh_chebyshev(b)) == sinh_chebyshev(a * b)


def test_sinh_chebyshev_odd_and_increasing():
    for n in (3, 5, 7):
        p = sinh_chebyshev(n)
        assert all(p[k] == 0 for k in range(0, n + 1, 2))
        dp = p.derivative()
        # even polynomial with positive coefficients: positive everywhere
        assert all(c >= 0 for c in dp.coeffs) and dp[0] > 0


def test_laurent_quartic_tail():
    p = Poly((F(2), F(2), F(-3), F(-2), F(1)))  # worked quartic
    pt = LaurentPoly(p, 2)
    assert pt.coeff(2) == 1
    assert pt.coeff(-1) == 2
    assert pt.coeff(-2) == 2
    assert pt.tail() == [F(2), F(2)]
    dpt = pt.derivative()
    assert dpt.coeff(1) == 2
    assert dpt.coeff(-2) == -2  # d/dx of c3/x
    assert dpt.coeff(-3) == -4  # d/dx of c4/x^2
    assert dpt.tail() == [F(0), F(-2), F(-4)]


def test_laurent_mul_matches_poly():
    p = Poly((F(1), F(2), F(3)))
    q = Poly((F(-1), F(1)))
    a = LaurentPoly(p, 1) * LaurentPoly(q, 2)
    b = LaurentPoly(p * q, 3)
    assert a == b
    assert (a - b).is_zero()


def test_poly_format():
    p = Poly((F(3), F(0), F(-3), F(1)))
    assert p.format() == "x^3 - 3*x^2 + 3"
    assert Poly(()).format() == "0"
    assert Poly((F(-5, 3), F(2, 3))).format() == "(2/3)*x - (5/3)"
