import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebyshev_oracle import chebyshev_t, sinh_chebyshev

from bicheb.poly import Poly


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


def _sinh_chebyshev_by_recurrence(n: int) -> Poly:
    """S_n by the odd-step recurrence S_(k+2) = 2 (1 + 2x^2) S_k - S_(k-2),
    seeded with S_(-1) = -x and S_1 = x: an oracle independent of T_n."""
    prev, cur = [0, -1], [0, 1]  # indices -1 and 1
    for _ in range((n - 1) // 2):
        step = [2 * c for c in cur] + [0, 0]
        for i, c in enumerate(cur):
            step[i + 2] += 4 * c
        for i, c in enumerate(prev):
            step[i] -= c
        prev, cur = cur, step
    return Poly(cur)


def test_sinh_chebyshev_matches_the_odd_step_recurrence():
    for n in range(1, 200, 2):
        assert sinh_chebyshev(n) == _sinh_chebyshev_by_recurrence(n)


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


def test_poly_format():
    p = Poly((F(3), F(0), F(-3), F(1)))
    assert p.format() == "x^3 - 3*x^2 + 3"
    assert Poly(()).format() == "0"
    assert Poly((F(-5, 3), F(2, 3))).format() == "(2/3)*x - (5/3)"


# -- the integer-backed Poly against a Fraction-list schoolbook oracle ----------------
#
# Lists hold ascending coefficients with no trailing zero; [] is zero.


def o_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def o_add(a, b):
    n = max(len(a), len(b))
    return o_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def o_scale(a, k):
    return o_trim([c * k for c in a])


def o_mul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return o_trim(out)


def o_deriv(a):
    return o_trim([k * c for k, c in enumerate(a)][1:])


def o_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def o_compose(a, b):
    acc = []
    for c in reversed(a):
        acc = o_add(o_mul(acc, b), [c])
    return acc


def o_divmod(a, b):
    rem, q = list(a), [F(0)] * max(0, len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        f = rem[k + len(b) - 1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            rem[k + i] -= f * c
    return o_trim(q), o_trim(rem)


def coeffs_of(p):
    return list(p.coeffs)


BIG = 2**70
# 2^k - 1 fills k bits: products of such vectors sit at the top of a slot
boundary = st.integers(1, 72).flatmap(lambda k: st.sampled_from([2**k - 1, 1 - 2**k]))
numer = st.one_of(st.integers(-BIG, BIG), boundary, st.just(0), st.integers(-3, 3))
denom = st.one_of(st.just(1), st.integers(1, BIG), boundary.map(abs))
coeff = st.builds(F, numer, denom)


def coeff_lists(max_deg):
    return st.one_of(
        st.lists(coeff, max_size=max_deg + 1),
        st.lists(boundary.map(F), min_size=1, max_size=max_deg + 1),
        st.lists(st.integers(-1, 1).map(F), max_size=max_deg + 1),
    )


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    coeff_lists(40),
    coeff_lists(40),
    coeff_lists(8),
    coeff_lists(3),
    coeff,
    st.integers(0, 4),
)
@example([], [], [], [], F(0), 0)  # zero everywhere
@example([F(5, 3)], [F(-7)], [F(2)], [F(-1, 2)], F(3), 3)  # constants
@example([F(1), F(-2, 9)], [F(0), F(3), F(-4, 5)], [F(1), F(0), F(-1)], [F(0), F(-1)], F(-1, 7), 2)
@example([F(2**8 - 1)] * 3, [F(1 - 2**8)] * 3, [F(2**7 - 1)] * 2, [F(1 - 2**7)], F(2**70 - 1), 4)
def test_integer_poly_matches_the_fraction_oracle(a, b, c, d, k, n):
    A, B, C, D = (Poly(v) for v in (a, b, c, d))
    a, b, c, d = (o_trim(v) for v in (a, b, c, d))
    assert coeffs_of(A) == a and A.degree == len(a) - 1
    assert coeffs_of(A * B) == o_mul(a, b)
    assert coeffs_of(A + B) == o_add(a, b)
    assert coeffs_of(A - B) == o_add(a, o_scale(b, -1))
    assert coeffs_of(A.scale(k)) == o_scale(a, k)
    assert coeffs_of(A.derivative()) == o_deriv(a)
    assert A.eval(k) == o_eval(a, k)
    assert coeffs_of(C.compose(D)) == o_compose(c, d)
    want = [F(1)]
    for _ in range(n):
        want = o_mul(want, c)
    assert coeffs_of(C**n) == want
    if b:
        q, r = A.divmod(B)
        assert (coeffs_of(q), coeffs_of(r)) == o_divmod(a, b)
    # the representation: positive content, primitive integers
    for p in (A * B, A + B, A.derivative(), C.compose(D)):
        assert p.content > 0 and (not p.ints or math.gcd(*p.ints) == 1)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 8, 9])
def test_kronecker_products_at_the_slot_boundary(length):
    # primitive vectors of 2^k - 1 and 2^k - 2, so that the stored integers
    # are these: |product coefficients| reach about length * (2^k - 1)^2,
    # and for every k some slot widths leave no spare bit, so an
    # off-by-one width or a lost borrow shows as a wrong coefficient
    for k in range(1, 80):
        top = [2**k - 1 - i % 2 for i in range(length)]
        for sa, sb, alt in ((1, 1, 1), (1, -1, 1), (-1, -1, 1), (1, 1, -1), (-1, 1, -1)):
            a = [F(sa * t) for t in top]
            b = [F(sb * t * alt**i) for i, t in enumerate(top)]
            assert coeffs_of(Poly(a) * Poly(b)) == o_mul(a, b), (k, sa, sb, alt)


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly([1.0, 2])
    with pytest.raises(TypeError):
        Poly((F(1), F(2))).eval(0.5)
    assert all(isinstance(v, F) for v in Poly((1, F(1, 2))).coeffs)
