import contextlib
import functools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import FAMILIES

from bicheb.bipartite import QuarticCoeffs, f1_polynomial
from bicheb.elliptic import ClosedForm, decide
from bicheb import roots
from bicheb.poly import Poly
from bicheb.roots import (
    isolate_squarefree,
    real_roots,
    squarefree_decomposition,
    sturm_chain,
)


# Sturm counts and gcds over the private integer helpers: oracles for the
# descent and the shape classification in tests/test_bipartite.py


def variations(signs):
    """Sign changes along a sequence of signs, zeros skipped."""
    count, prev = 0, 0
    for s in signs:
        if s:
            count += prev == -s
            prev = s
    return count


def variations_at(chain, x):
    """Sign changes along the chain at x."""
    return variations(roots._signs(chain, F(x)))


def count_roots_halfopen(chain, lo, hi):
    """Distinct real roots of the chain's base polynomial in (lo, hi]."""
    return variations_at(chain, lo) - variations_at(chain, hi)


def polys_gcd(a, b):
    """A gcd of nonzero rational a and b, with coprime integer coefficients."""
    return Poly(roots._gcd(a.ints, b.ints))


def roots_of(p, **kw):
    return real_roots(p, **kw)


def as_values(found):
    return [r.lo if r.exact else (r.lo, r.hi) for r in found]


def test_simple_quadratic():
    found = roots_of(Poly((F(-1), F(0), F(1))))
    assert [r.lo for r in found] == [-1, 1]
    assert all(r.exact and r.multiplicity == 1 for r in found)


def test_quartic_with_mixed_rational_irrational_roots():
    # x^4 - 2x^3 - 3x^2 + 2x + 2 = (x^2 - 1)(x^2 - 2x - 2)
    p = Poly((F(2), F(2), F(-3), F(-2), F(1)))
    found = roots_of(p)
    assert len(found) == 4
    assert found[0].exact and found[0].lo == -1
    assert found[2].exact and found[2].lo == 1
    # irrational pair 1 -+ sqrt3
    import math

    assert abs(found[1].value() - (1 - math.sqrt(3))) < 1e-9
    assert abs(found[3].value() - (1 + math.sqrt(3))) < 1e-9
    assert not found[1].exact and not found[3].exact


def test_derivative_roots():
    p = Poly((F(0), F(-6), F(3)))  # 3x^2 - 6x
    assert [r.lo for r in roots_of(p)] == [0, 2]


def test_multiplicities():
    p = Poly.from_roots([F(1), F(1), F(1), F(-2), F(-2)])
    found = roots_of(p)
    assert [(r.lo, r.multiplicity) for r in found] == [(-2, 2), (1, 3)]


def test_no_real_roots():
    p = Poly((F(2), F(0), F(-2), F(0), F(1)))  # (x^2-1)^2 + 1
    assert roots_of(p) == []


def test_zero_polynomial_rejected():
    for f in (real_roots, isolate_squarefree, squarefree_decomposition):
        with pytest.raises(ValueError):
            f(Poly(()))


def test_constants_have_no_roots():
    for f in (real_roots, isolate_squarefree, squarefree_decomposition):
        assert f(Poly((F(-3),))) == []


def test_known_random_rational_roots_roundtrip():
    rng = random.Random(99)
    for _ in range(15):
        roots = sorted(
            {F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))}
        )
        p = Poly.from_roots(roots)
        found = roots_of(p)
        assert [r.lo for r in found] == roots
        assert all(r.exact for r in found)


def test_sturm_count_matches_found_roots():
    rng = random.Random(7)
    for _ in range(10):
        p = Poly([F(rng.randint(-9, 9)) for _ in range(rng.randint(3, 7))] + [F(1)])
        sq = squarefree_decomposition(p)
        base = Poly.one()
        for f, _ in sq:
            base = base * f
        chain = sturm_chain(base)
        lo, hi = F(-100), F(100)
        count = count_roots_halfopen(chain, lo, hi)
        assert count == len(real_roots(p))


def test_variation_count_interval_query():
    # roots of (x-1)(x-2)(x-3) counted in assorted half-open intervals
    p = Poly.from_roots([F(1), F(2), F(3)])
    chain = sturm_chain(p)
    assert count_roots_halfopen(chain, F(0), F(4)) == 3
    assert count_roots_halfopen(chain, F(1), F(2)) == 1  # (1, 2] holds only 2
    assert count_roots_halfopen(chain, F(3, 2), F(5, 2)) == 1
    assert variations_at(chain, F(0)) - variations_at(chain, F(4)) == 3


def _fraction_chain_variations(p, x):
    """V(x) on the classical Sturm chain, remainders in Fraction arithmetic."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if not rem:
            break
        chain.append(-rem)
    signs = [v > 0 for v in (q.eval(x) for q in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def test_sturm_chain_variations_match_the_fraction_chain():
    # sparse polynomials too: their remainders skip degrees, so the
    # pseudo-remainder scale |lc|^(deg a - deg b + 1) has odd exponents
    rng = random.Random(5)
    points = [F(k, 2) for k in range(-8, 9)]
    for _ in range(200):
        low = [F(rng.choice([0, 0, rng.randint(-5, 5)])) for _ in range(rng.randint(3, 7))]
        p = Poly(low + [F(rng.choice([1, -1, 2, -3]))])
        chain = sturm_chain(p)
        for x in points:
            assert variations_at(chain, x) == _fraction_chain_variations(p, x), (p, x)


def test_isolate_respects_width():
    p = Poly((F(-2), F(0), F(1)))  # sqrt2
    wide = isolate_squarefree(p, width=F(1, 8))
    assert all(r.hi - r.lo <= F(1, 8) for r in wide if not r.exact)
    tight = isolate_squarefree(p, width=F(1, 2**40))
    assert all(r.hi - r.lo <= F(1, 2**40) for r in tight if not r.exact)


def test_disjoint_isolating_intervals():
    # cluster of close roots
    p = Poly.from_roots([F(1), F(101, 100), F(102, 100)]) * Poly((F(-2), F(0), F(1)))
    found = roots_of(p)
    assert len(found) == 5
    for a, b in zip(found, found[1:]):
        assert a.hi < b.lo or (a.exact and b.exact and a.lo < b.lo)


def test_squarefree_decomposition():
    p = Poly.from_roots([F(1), F(1), F(2)])
    decomp = squarefree_decomposition(p)
    assert (Poly.from_roots([F(2)]), 1) in decomp
    assert (Poly.from_roots([F(1)]), 2) in decomp


# -- rational roots the isolation must recover exactly -----------------------------


def _linear_times_sqrt2(lead):
    return Poly((F(-1), F(lead))) * Poly((F(-2), F(0), F(1)))


def test_rational_root_with_large_denominator_is_exact():
    q = 2**30 + 1
    found = real_roots(_linear_times_sqrt2(q))
    assert [r.exact for r in found] == [False, True, False]
    assert found[1].lo == F(1, q)


def test_rational_root_settles_past_the_width():
    # lead * 2^-48 >= 1: the root is still not alone among the multiples of
    # 1/lead when the interval reaches the width, so refinement goes on
    q = 2**60 + 1
    found = real_roots(_linear_times_sqrt2(q))
    assert [r.exact for r in found] == [False, True, False]
    assert found[1].lo == F(1, q)
    assert all(r.hi - r.lo <= F(1, 2**48) for r in (found[0], found[2]))


# -- interval snapshot ---------------------------------------------------------------
#
# ``tests/data/roots_snapshot.json`` holds the exact (lo, hi, multiplicity) of
# real_roots on G' of the CLI snapshot's known-solvable quartics and on F_1 of
# criterion-11 completions.  It guards every emitted interval against
# unintended change; it is not an oracle.  Regenerate after an intended change
# of intervals with
#
#     PYTHONPATH=src python tests/test_roots.py

SNAPSHOT = Path(__file__).parent / "data" / "roots_snapshot.json"
SNAPSHOT_TRIPLES = 12


@functools.cache
def snapshot_polys() -> dict[str, Poly]:
    polys = {}
    for name, (p, s, _) in FAMILIES.items():
        c = QuarticCoeffs.of(*(F(v) for v in p.split(",")))
        for n in range(s, 34, s):
            out = decide(n, c)
            if isinstance(out, ClosedForm):
                polys[f"G' {name} n={n}"] = out.G.derivative()
    rng = random.Random(411)  # the triples of acceptance criterion 11
    for _ in range(SNAPSHOT_TRIPLES):
        a, b, c = (F(rng.randint(-24, 24), 8) for _ in range(3))
        # complete_coefficient picks s = n for these targets and n
        for target, ns in ((1, range(2, 21, 2)), (2, (3, 7, 11))):
            fixed = dict(zip([k for k in (1, 2, 3, 4) if k != target], (a, b, c)))
            for n in ns:
                key = f"F1 in c{target} n={n} fixed={a},{b},{c}"
                polys[key] = f1_polynomial(n, target, fixed)
    return polys


def snapshot_of(p: Poly) -> list[list[str]]:
    return [[str(r.lo), str(r.hi), str(r.multiplicity)] for r in real_roots(p)]


def test_intervals_match_the_snapshot():
    want = json.loads(SNAPSHOT.read_text())
    polys = snapshot_polys()
    assert sorted(polys) == sorted(want)
    for key, p in polys.items():
        assert snapshot_of(p) == want[key], key


# -- property test against sympy -------------------------------------------------------


def _is_square(d: int) -> bool:
    return d >= 0 and math.isqrt(d) ** 2 == d


nonzero = st.integers(-6, 6).filter(bool)
linear = st.tuples(st.integers(1, 9), st.integers(-9, 9)).map(
    lambda ab: Poly((F(-ab[1]), F(ab[0])))
)
quadratic = (
    st.tuples(nonzero, st.integers(-6, 6), nonzero)
    .filter(lambda abc: not _is_square(abc[1] ** 2 - 4 * abc[0] * abc[2]))
    .map(lambda abc: Poly((F(abc[2]), F(abc[1]), F(abc[0]))))
)


@st.composite
def factored(draw):
    """A product of rational linear factors and irreducible quadratics, some
    repeated, of degree 1..8."""
    p = Poly.one()
    while p.degree < 1 or (p.degree < 8 and draw(st.booleans())):
        f = draw(st.one_of(linear, quadratic))
        for _ in range(draw(st.integers(1, 3))):
            if p.degree + f.degree <= 8:
                p = p * f
    return p


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(factored())
def test_real_roots_agree_with_sympy(p):
    def sym(v):
        return sympy.Rational(v.numerator, v.denominator)

    sp = sympy.Poly([sym(c) for c in reversed(p.coeffs)], sympy.Symbol("x"))
    want = Counter(sp.real_roots())  # ascending, each root repeated by multiplicity
    found = real_roots(p)
    assert len(found) == len(want)
    for r, (root, mult) in zip(found, want.items()):
        assert r.multiplicity == mult
        assert r.exact == root.is_rational
        if r.exact:
            assert sym(r.lo) == root
        else:
            assert sp.count_roots(sym(r.lo), sym(r.hi)) == 1
            assert r.hi - r.lo <= F(1, 2**48)
    for a, b in zip(found, found[1:]):
        assert a.hi < b.lo
    _, want_sqf = sympy.Poly(sp, domain="QQ").sqf_list()
    assert sorted((f.coeffs, m) for f, m in squarefree_decomposition(p)) == sorted(
        (tuple(F(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())), m)
        for f, m in want_sqf
    )


# -- quadratic interval refinement against bisection ------------------------------------


def bisection_refine(p, lo, hi, width):
    """Refinement by bisection on the dyadic grid of (lo, hi), with signs
    from exact Fraction evaluation: the reference roots._refine must equal.

    The result is the first cell no wider than width, or the exact root
    once a midpoint hits it or the rational-root test (once, at the first
    level with lead * (hi - lo) < 1) finds it; past the width, bisection
    goes on only to settle that test.
    """
    P = Poly(p)
    lead = abs(p[-1])
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    s_lo = (P.eval(lo) > 0) - (P.eval(lo) < 0)
    tested, settled, j = False, None, 0
    while True:
        d = den << j
        if not tested and lead * (b - a) < d:
            tested = True
            cand = F(lead * a // d + 1, lead)
            if cand < F(b, d) and not P.eval(cand):
                return cand, cand
        if settled is None and (b - a) * width.denominator <= width.numerator * d:
            settled = F(a, d), F(b, d)
        if tested and settled:
            return settled
        mid = a + b
        a, b, j = 2 * a, 2 * b, j + 1
        v = P.eval(F(mid, den << j))
        if not v:
            return F(mid, den << j), F(mid, den << j)
        if (v > 0) == (s_lo > 0):
            a = mid
        else:
            b = mid


def refinements(p, width=roots.DEFAULT_WIDTH):
    """The arguments of every refinement that real_roots(p, width) runs."""
    seen = []
    refine = roots._refine

    def spy(*args):
        seen.append(args)
        return refine(*args)

    with mock.patch.object(roots, "_refine", spy):
        real_roots(p, width)
    return seen


def assert_refines_like_bisection(p, width=roots.DEFAULT_WIDTH):
    for args in refinements(p, width):
        assert roots._refine(*args) == bisection_refine(*args), args


GUESS = roots._float_root


def _overflow(*args):
    raise OverflowError


def wrong_guesses(width):
    """Replacements for roots._float_root: no guess (NaN, an infinity, an
    OverflowError) or one about five result cells off either side."""

    def off(k):
        return lambda p, lo, hi: GUESS(p, lo, hi) + k * float(min(width, hi - lo))

    return {
        "nan": lambda *a: math.nan,
        "+inf": lambda *a: math.inf,
        "-inf": lambda *a: -math.inf,
        "five cells left": off(-5),
        "five cells right": off(5),
        "overflow": _overflow,
    }


def assert_any_guess_refines_like_bisection(p, width=roots.DEFAULT_WIDTH):
    assert_refines_like_bisection(p, width)
    for wrong in wrong_guesses(width).values():
        with mock.patch.object(roots, "_float_root", wrong):
            assert_refines_like_bisection(p, width)


WIDTHS = (roots.DEFAULT_WIDTH, F(1, 8), F(1, 3), F(1, 10**20), F(5))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(factored(), st.sampled_from(WIDTHS))
def test_qir_equals_bisection(p, width):
    assert_any_guess_refines_like_bisection(p, width)


@pytest.mark.parametrize("lead", [2**30 + 1, 2**60 + 1])
def test_qir_equals_bisection_on_the_rational_root_regressions(lead):
    # 1/lead is found by the rational-root test; at 2^60 + 1 only past the width
    assert_any_guess_refines_like_bisection(_linear_times_sqrt2(lead))


@pytest.mark.parametrize("width", WIDTHS)
def test_qir_equals_bisection_on_large_leads_with_irrational_roots(width):
    # lead * width >= 1: the test level lies past the first level no wider
    # than width, and the result is still the cell at that first level
    for lead in (2**50 + 1, 3**40, 2**70 - 1):
        assert_any_guess_refines_like_bisection(Poly((F(-2), F(0), F(lead))), width)
        assert_any_guess_refines_like_bisection(Poly((F(-1), F(-1), F(lead), F(lead))), width)


@pytest.mark.parametrize("root", [F(3, 8), F(5, 64), F(-1, 2), F(1023, 1024), F(1, 2**40)])
def test_qir_finds_a_root_on_a_dyadic_grid_point(root):
    p = Poly.from_roots([root]) * Poly((F(-3), F(0), F(1)))  # and +-sqrt3
    ints = p.ints
    for guess in (GUESS, *wrong_guesses(roots.DEFAULT_WIDTH).values()):
        with mock.patch.object(roots, "_float_root", guess):
            for lo, hi in ((F(-1), F(1)), (F(-1), F(3, 2)), (root - F(1, 3), root + F(1, 5))):
                got = roots._refine(ints, lo, hi, roots.DEFAULT_WIDTH)
                assert got == bisection_refine(ints, lo, hi, roots.DEFAULT_WIDTH) == (root, root)
    assert_any_guess_refines_like_bisection(p)


def evaluations_in_refine(p):
    """The _value_dyadic calls that _refine makes for real_roots(p)."""
    count = [0]
    value, refine = roots._value_dyadic, roots._refine

    def counted(*args):
        count[0] += 1
        return value(*args)

    def spy(*args):
        with mock.patch.object(roots, "_value_dyadic", counted):
            return refine(*args)

    with mock.patch.object(roots, "_refine", spy):
        real_roots(p)
    return count[0]


def test_a_guess_on_coefficients_above_the_float_range_certifies():
    # float(3^700) overflows; the guess scales the coefficients by a power of two
    big = Poly((F(-(2 * 3**700 + 1)), F(0), F(3**700)))
    assert_any_guess_refines_like_bisection(big)
    guessed = evaluations_in_refine(big)
    with mock.patch.object(roots, "_float_root", lambda *a: math.nan):
        assert guessed < evaluations_in_refine(big)


def test_qir_on_a_start_narrower_than_the_width():
    sqrt2 = Poly((F(-2), F(0), F(1))).ints
    lo, hi = F(1414, 1000), F(1415, 1000)
    assert roots._refine(sqrt2, lo, hi, F(1, 100)) == (lo, hi)
    assert bisection_refine(sqrt2, lo, hi, F(1, 100)) == (lo, hi)
    # the rational-root test still needs a narrower cell when lead is large
    big = Poly((F(-2), F(0), F(2**60 + 1))).ints
    lo, hi = F(1, 2**31), F(1, 2**29)
    assert roots._refine(big, lo, hi, F(1)) == bisection_refine(big, lo, hi, F(1)) == (lo, hi)



# -- the root bound and the canonical cells -----------------------------------------------


def power_of_two(v):
    return v > 0 and all(u & (u - 1) == 0 for u in (v.numerator, v.denominator))


def assert_roots_inside_the_bound(p):
    r = roots._root_bound(p.ints)
    assert power_of_two(r)
    sp = sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)], sympy.Symbol("x"))
    R = sympy.Rational(r)
    assert sp.eval(R) != 0 and sp.eval(-R) != 0
    assert sp.count_roots(-R, R) == sp.count_roots(), (p, r)


@st.composite
def sparse(draw):
    """An integer polynomial of degree 1..12 with most coefficients zero and
    the rest of up to 70 bits."""
    deg = draw(st.integers(1, 12))
    big = st.integers(-(2**70), 2**70)
    low = [draw(st.one_of(st.just(0), st.just(0), big)) for _ in range(deg)]
    return Poly([F(c) for c in low] + [F(draw(big.filter(bool)))])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(factored(), sparse()))
def test_real_roots_lie_inside_the_root_bound(p):
    assert_roots_inside_the_bound(p)


def _x(k):
    return Poly.x() ** k


@pytest.mark.parametrize(
    "p",
    [
        Poly.x(),
        Poly((F(0), F(2**70))),  # x, scaled
        *(_x(d) - Poly.one() for d in (1, 2, 3, 8, 13)),  # +-1 on the bound's doorstep
        _linear_times_sqrt2(2**60 + 1),
        Poly((F(-2), F(0), F(2**60 + 1))),
        Poly((F(3), F(-5), F(0), F(-7))),  # negative lead
        -Poly.from_roots([F(1, 3), F(-9, 2), F(40)]),
        _x(6) + Poly((F(-(10**40)),)),  # the constant term dominates
        _x(5) + _x(1) + Poly((F(3**90),)),
        Poly.from_roots([F(2**k) for k in range(6)]),  # roots on powers of two
    ],
)
def test_root_bound_edge_cases(p):
    assert_roots_inside_the_bound(p)


def signs_dyadic(chain, k, e):
    """The signs of the chain's elements at k 2^e."""
    num, j = (k << e, 0) if e >= 0 else (k, -e)
    return [(v > 0) - (v < 0) for v in (roots._value_dyadic(q, num, j) for q in chain)]


def signs_at_infinity(chain, sign):
    """The signs of the chain's elements at sign * infinity: those of their
    leading terms."""
    return [(1 if q[-1] > 0 else -1) * sign ** (len(q) - 1) for q in chain]


def sturm_isolate(chain, width):
    """The isolation on the Sturm chain of a square-free polynomial that
    Descartes bisection replaced, the oracle real_roots must equal.

    It bisects [-r, 0] and [0, r] on the dyadic grid with exact counts:
    the cell [x, y] holds V(x) - V(y) roots in (x, y], and V(+-r) is
    V(+-infinity).  A split point where p vanishes is an exact root; a
    cell holding one root, with ends where p does not vanish, is refined;
    cells sharing an end are halved clear of it.
    """
    p = chain[0]
    r = roots._root_bound(p)
    while r < width:
        r *= 2
    t = r.numerator.bit_length() - r.denominator.bit_length()  # r = 2^t
    left, mid, right = (
        signs_at_infinity(chain, -1), signs_dyadic(chain, 0, 0), signs_at_infinity(chain, 1)
    )
    v0 = variations(mid)
    out = [] if mid[0] else [roots.IsolatedRoot(F(0), F(0))]
    # (k, e, V(x), V(y), sign p(x), sign p(y)) for the cell [x, y] = [k 2^e, (k+1) 2^e]
    stack = [
        (-1, t, variations(left), v0, left[0], mid[0]),
        (0, t, v0, variations(right), mid[0], right[0]),
    ]
    while stack:
        k, e, vx, vy, sx, sy = stack.pop()
        count = vx - vy - (not sy)  # in (x, y): (x, y] holds V(x) - V(y), y too if a root
        if not count:
            continue
        if count == 1 and sx and sy:
            lo, hi = roots._dyadic(k, e), roots._dyadic(k + 1, e)
            out.append(roots.IsolatedRoot(*roots._refine(p, lo, hi, width)))
            continue
        k, e = 2 * k, e - 1
        signs = signs_dyadic(chain, k + 1, e)
        vm, sm = variations(signs), signs[0]
        if not sm:
            out.append(roots.IsolatedRoot(roots._dyadic(k + 1, e), roots._dyadic(k + 1, e)))
        stack.append((k + 1, e, vm, vy, sm, sy))
        stack.append((k, e, vx, vm, sx, sm))
    out.sort(key=lambda r: (r.lo, r.hi))
    cells = [r for r in out if not r.exact]
    shared = {r.hi for r in cells} & {r.lo for r in cells}
    for i, r in enumerate(out):
        while r.lo in shared or r.hi in shared:
            r = out[i] = roots.IsolatedRoot(*roots._refine(p, r.lo, r.hi, (r.hi - r.lo) / 2))
    return out


def sturm_roots(p, width=roots.DEFAULT_WIDTH, isolate=sturm_isolate):
    """real_roots on Sturm chains: p's chain ends in gcd(p, p'); when that
    is not constant, the square-free part is isolated on its own chain and
    each root's multiplicity is read off Musser's factors."""
    chain = sturm_chain(p)
    g = chain[-1]
    if len(g) == 1:
        return isolate(chain, width)
    factors = roots._squarefree(chain[0], g)
    plain = isolate(roots._sturm(roots._exact_quotient(chain[0], g)), width)
    return [roots.IsolatedRoot(r.lo, r.hi, roots._multiplicity_of(r, factors)) for r in plain]


def cauchy_isolate(chain, width):
    """The descent before canonical cells: split the Cauchy interval (-B, B)
    at the first of _probes where p does not vanish, evaluating V at +-B
    and at every split point, and refine each one-root interval on its own
    grid.  The oracle every canonical cell must meet."""
    p = chain[0]
    b = 1 + F(max(abs(c) for c in p[:-1]), abs(p[-1]))
    out = []
    stack = [(-b, b, variations_at(chain, -b), variations_at(chain, b))]
    while stack:
        x, y, vx, vy = stack.pop()
        if vx - vy == 1:
            out.append(roots.IsolatedRoot(*roots._refine(p, x, y, width)))
        elif vx - vy > 1:
            m = next(m for m in roots._probes(x, y) if roots._sign(p, m))
            vm = variations_at(chain, m)
            stack += [(x, m, vx, vm), (m, y, vm, vy)]
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out


def cauchy_roots(p, width=roots.DEFAULT_WIDTH):
    return sturm_roots(p, width, cauchy_isolate)


def count_calls(names, fn, *args):
    """fn(*args), and the number of calls it made to each of the functions
    of roots named."""
    count = Counter()

    def counted(name, f):
        def wrapper(*a):
            count[name] += 1
            return f(*a)

        return wrapper

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(roots, name, counted(name, getattr(roots, name))))
        return fn(*args), count


# -- Descartes bisection against Sturm bisection -------------------------------------------


def assert_equals_sturm(p, width=roots.DEFAULT_WIDTH):
    assert real_roots(p, width) == sturm_roots(p, width), (p, width)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(factored(), sparse()), st.sampled_from(WIDTHS))
def test_descartes_equals_sturm(p, width):
    assert_equals_sturm(p, width)


def test_descartes_equals_sturm_on_the_snapshot():
    polys = snapshot_polys()
    assert len(polys) == 207
    for p in polys.values():
        assert_equals_sturm(p)


SQRT2 = Poly((F(-2), F(0), F(1)))
NEAR_SQRT2 = F(math.isqrt(2 << 160), 2**80)  # within 2^-80 of sqrt2
NEAR_CBRT2 = F(sympy.integer_nthroot(2 << 240, 3)[0], 2**80)

DESCARTES_EDGES = {
    "two cells about one grid point": Poly((F(2) - F(1, 2**120), F(-4), F(2))),
    "a root at 0 beside tiny ones": _x(1) * Poly((-F(1, 2**100), F(0), F(1))),
    "a complex pair near the axis": Poly((F(1, 2**100), F(0), F(1))),
    "multiple roots": (_x(2) - 2) ** 2 * (_x(1) - 1) ** 3,
    "double irrational roots": (_x(2) - 2) ** 2 * (_x(2) - 3),  # found below the width
    "a double root at a split point": Poly.from_roots([F(1, 2)] * 2) * Poly((F(-3), F(0), F(1))),
    # cells of sqrt2 with three sign variations, two of them the pair's,
    # down to about 2^-70: twenty levels below the width
    "a complex pair 2^-70 from sqrt2": SQRT2 * Poly((NEAR_SQRT2**2 + F(1, 2**140), -2 * NEAR_SQRT2, F(1))),
    "a complex pair 1/100 from sqrt2": SQRT2 * Poly((F(7, 5) ** 2 + F(1, 10**4), F(-14, 5), F(1))),
    # the only cell refined, and an exact root above it at a split point
    "a complex pair 2^-70 from the cube root of 2, and 2": (_x(3) - 2)
    * (_x(1) - 2)
    * Poly((NEAR_CBRT2**2 + F(1, 2**140), -2 * NEAR_CBRT2, F(1))),
    "lead 2^60 + 1 and a rational root": _linear_times_sqrt2(2**60 + 1),
    "lead 2^60 + 1": Poly((F(-2), F(0), F(2**60 + 1))),
    **{f"x^{d} - 1": _x(d) - 1 for d in range(1, 14)},
}


@pytest.mark.parametrize("name", DESCARTES_EDGES)
@pytest.mark.parametrize("width", WIDTHS)
def test_descartes_equals_sturm_edge_cases(name, width):
    assert_equals_sturm(DESCARTES_EDGES[name], width)


GCD = ("_check_squarefree", "_squarefree")


@pytest.mark.parametrize(
    "name",
    ["two cells about one grid point", "a root at 0 beside tiny ones", "a complex pair near the axis"]
    + [f"x^{d} - 1" for d in range(1, 14)],
)
def test_no_gcd_without_an_event(name):
    assert not count_calls(GCD, real_roots, DESCARTES_EDGES[name])[1]


def test_a_cell_below_the_width_with_two_variations_takes_one_gcd():
    found, count = count_calls(GCD, real_roots, DESCARTES_EDGES["a complex pair 2^-70 from sqrt2"])
    assert count == {"_check_squarefree": 1}  # constant: the descent goes on
    assert [r.multiplicity for r in found] == [1, 1]


@pytest.mark.parametrize(
    "name, multiplicities",
    [
        ("multiple roots", [2, 3, 2]),
        ("double irrational roots", [1, 2, 2, 1]),
        ("a double root at a split point", [1, 2, 1]),
    ],
)
def test_a_multiple_root_falls_back_to_the_squarefree_part(name, multiplicities):
    found, count = count_calls(GCD, real_roots, DESCARTES_EDGES[name])
    assert count == {"_check_squarefree": 1, "_squarefree": 1}
    assert [r.multiplicity for r in found] == multiplicities
    with pytest.raises(ValueError):
        isolate_squarefree(DESCARTES_EDGES[name])


@pytest.mark.parametrize(
    "name, width",
    [("a complex pair 2^-70 from sqrt2", roots.DEFAULT_WIDTH)]
    + [("a complex pair 2^-70 from the cube root of 2, and 2", w) for w in (roots.DEFAULT_WIDTH, F(1, 8))]
    + [("a complex pair 1/100 from sqrt2", w) for w in (F(5), F(1, 3), F(1, 8))],
)
def test_a_cell_below_the_width_climbs_to_the_sturm_cell(name, width):
    p = DESCARTES_EDGES[name]
    seen = []
    climb = roots._climb

    def spy(r, *args):
        seen.append((r, climb(r, *args)))
        return seen[-1][1]

    with mock.patch.object(roots, "_climb", spy):
        found = real_roots(p, width)
    [(low, up)] = [(r, c) for r, c in seen if r != c]
    assert 2 * (low.hi - low.lo) <= width < 2 * (up.hi - up.lo)
    assert up.lo <= low.lo < low.hi <= up.hi
    assert found == sturm_roots(p, width)


def closed_count(chain, lo, hi):
    """Distinct roots of the chain's polynomial in [lo, hi]."""
    return count_roots_halfopen(chain, lo, hi) + (roots._sign(chain[0], lo) == 0)


def parent(lo, hi):
    """The dyadic cell of twice the width that holds the cell [lo, hi]."""
    w = 2 * (hi - lo)
    lo = math.floor(lo / w) * w
    return lo, lo + w


def canonical_cell(chain, r, width):
    """The largest dyadic cell, no wider than width, that holds r's cell
    and no second root of the chain's polynomial."""
    lo, hi = r.lo, r.hi
    while 2 * (hi - lo) <= width and closed_count(chain, *parent(lo, hi)) == 1:
        lo, hi = parent(lo, hi)
    return lo, hi


def assert_canonical(p, width=roots.DEFAULT_WIDTH):
    found = real_roots(p, width)
    want = cauchy_roots(p, width)
    assert len(found) == len(want), p
    for r, w in zip(found, want):
        assert (r.exact, r.multiplicity) == (w.exact, w.multiplicity), p
        if r.exact:
            assert r.lo == w.lo
        else:
            assert max(r.lo, w.lo) < min(r.hi, w.hi), (p, r, w)  # the cells meet
    for a, b in zip(found, found[1:]):
        assert a.hi < b.lo, p
    sqf = Poly.one()
    for f, _ in squarefree_decomposition(p):
        sqf = sqf * f
    chain = sturm_chain(sqf)
    cells = {r: canonical_cell(chain, r, width) for r in found if not r.exact}
    shared = {hi for _, hi in cells.values()} & {lo for lo, _ in cells.values()}
    for r, cell in cells.items():
        w = r.hi - r.lo
        assert power_of_two(w) and w <= width and (r.lo / w).denominator == 1, (p, r)
        assert closed_count(chain, r.lo, r.hi) == 1, (p, r)
        # the canonical cell, or, when it shares an end with a neighbour's,
        # its largest subcell that keeps clear of that end
        assert not shared & {r.lo, r.hi}, (p, r)
        assert (r.lo, r.hi) == cell or shared & set(parent(r.lo, r.hi)), (p, r)
    bound = roots._root_bound
    for k in (1, 5):
        with mock.patch.object(roots, "_root_bound", lambda q: bound(q) * 2**k):
            assert real_roots(p, width) == found, (p, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(factored(), sparse()), st.sampled_from(WIDTHS))
def test_canonical_cells_meet_the_cauchy_descent(p, width):
    assert_canonical(p, width)


def test_canonical_cells_meet_the_cauchy_descent_on_the_snapshot():
    for p in snapshot_polys().values():
        assert_canonical(p)


@pytest.mark.parametrize("big", [10**6, 10**12, 2**200])
def test_canonical_cells_with_a_root_at_zero_under_a_large_cauchy_bound(big):
    # 0 is the first split point, and the Cauchy descent walks down towards
    # it in root-free steps from B, about big
    p = _x(1) * Poly((F(-2), F(0), F(1))) * (_x(4) + Poly((F(big),)))
    assert_canonical(p)
    assert [r.exact for r in real_roots(p)] == [False, True, False]


@pytest.mark.parametrize(
    "p",
    [
        Poly((F(-1, 2**99), F(0), F(1))),  # roots +-2^-49.5, below the width
        Poly((F(-3, 2**90), F(0), F(1))),
        Poly((F(-1), F(1), F(0), F(1024))),  # one real root, about 0.098, r = 1/4
        Poly.from_roots([F(1, 2), F(3, 4), F(-5, 8)]) * Poly((F(-3), F(0), F(1))),  # grid points
        Poly.from_roots([F(1, 2**49), F(3, 2**50)]) * Poly((F(-2), F(0), F(1))),
        # irrational roots 2^-60.5 either side of 1 and 1/2: their first
        # cells share the grid point, and both are halved until they part
        Poly((F(2) - F(1, 2**120), F(-4), F(2))),
        Poly((F(1, 4) - F(1, 2**121), F(-1), F(1))) * Poly((F(-3), F(0), F(1))),
        Poly((F(-1, 2**80), F(-1), F(2**81), F(2**81))),
    ],
)
@pytest.mark.parametrize("width", WIDTHS)
def test_canonical_cells_edge_cases(p, width):
    assert_canonical(p, width)


def test_descartes_work_on_a_completion():
    # F_1 in c1 at s = 20 (degree 19, 11 real roots): 38 cells and 19
    # Taylor shifts, where Sturm bisection evaluated its 20-element chain
    # at 19 points
    p = f1_polynomial(20, 1, {2: F(-5), 3: F(0), 4: F(4)})
    _, count = count_calls(("_descartes_bound", "_taylor_shift"), real_roots, p)
    assert count["_descartes_bound"] <= 38 and count["_taylor_shift"] <= 19, count


def test_refine_evaluations_on_a_completion():
    # F_1 in c1 at s = 20 has 11 real roots; QIR from level 0 made 168
    # evaluations, the cells certified around the float guesses make 34
    p = f1_polynomial(20, 1, {2: F(-5), 3: F(0), 4: F(4)})
    assert evaluations_in_refine(p) <= 34


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(snapshot_of(p))}" for k, p in snapshot_polys().items()]
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
