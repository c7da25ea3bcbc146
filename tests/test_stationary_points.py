"""bipartite.cuts against its oracle, the roots of real_roots(G') of odd
multiplicity but 0.

G' is isolated on its own here, as the program did before it took the cuts
from the composition: the answer must be the same list, cell for cell, with
the same multiplicities.
"""

import contextlib
import io
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
import mpmath
from chebyshev_oracle import outer_derivative

from bicheb import bipartite, elliptic, roots
from bicheb.bipartite import Branch, QuarticCoeffs, build_solution, compose_outer, conditions, cuts
from bicheb.cli import main
from bicheb.poly import Poly
from bicheb.roots import DEFAULT_WIDTH, real_roots, sign_at

FIXTURE = Path(__file__).parent / "data" / "golden_cli.json"

QUARTICS = {
    "WORKED": (-2, -3, 2, 2),
    "SYMMETRIC": (0, -5, 0, 4),
    "M_QUARTER": (0, F(3, 2), 0, F(1, 2)),
    "PLUS_ONE": (0, -3, 0, 1),
    "MINUS_FIVE": (0, -3, 0, -5),
}
# x^4 - 3x^2 - 5 under x -> 2^-40 x: the roots of G' lie about 2^-40 apart
TINY = (0, F(-3, 2**80), 0, F(-5, 2**160))


def stationary(u, m2, N):
    """real_roots(G'), every stationary point of G with its multiplicity."""
    return real_roots(compose_outer(u, m2, N, Branch.CIRCULAR)[0].derivative())


def oracle(u, m2, N):
    return [r for r in stationary(u, m2, N) if r.multiplicity % 2 and not (r.exact and r.lo == 0)]


def cells(roots):
    return [(r.lo, r.hi, r.multiplicity) for r in roots]


def circular(n, c):
    """(u, m^2, N) of the closed form decide(n, c) builds, None if it is not
    circular."""
    q = QuarticCoeffs.of(*c)
    s = next((s for s in range(2, n + 1) if n % s == 0 and conditions(s, q).met), None)
    if s is None:
        return None
    sol = build_solution(s, q)
    return (sol.u, sol.m2, n // s) if sol.branch is Branch.CIRCULAR else None


def image(c, lam, reflect):
    """x -> lam x (c_k -> lam^k c_k), then optionally (c1, c3) -> (-c1, -c3)."""
    out = [F(v) * lam ** (k + 1) for k, v in enumerate(c)]
    if reflect:
        out[0], out[2] = -out[0], -out[2]
    return tuple(out)


@pytest.fixture
def fast_only(monkeypatch):
    """Fail on the fallback, where cuts composes G itself."""

    def refuse(*args):
        raise AssertionError("cuts fell back to isolating G'")

    monkeypatch.setattr(bipartite, "compose_outer", refuse)


def test_every_circular_form_of_the_golden_cases(monkeypatch, fast_only):
    seen = []

    def record(u, m2, N):
        seen.append((u, m2, N))
        return cuts(u, m2, N)

    monkeypatch.setattr(elliptic, "cuts", record)
    for entry in json.loads(FIXTURE.read_text()):
        if entry["argv"][0] in ("decide", "integrate", "complete"):
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(entry["argv"]))
    assert len(seen) >= 30
    for form in seen:
        assert cells(cuts(*form)) == cells(oracle(*form))


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from(sorted(QUARTICS)),
    st.integers(2, 60),
    st.sampled_from([F(1), F(2), F(1, 2), F(3, 2), F(2, 3), F(3), F(1, 3), F(4, 3), F(5, 7)]),
    st.booleans(),
)
def test_matches_the_oracle_on_scaled_and_reflected_families(fast_only, name, n, lam, reflect):
    form = circular(n, image(QUARTICS[name], lam, reflect))
    assume(form is not None)
    assert cells(cuts(*form)) == cells(oracle(*form))


@pytest.mark.parametrize("c", [(0, 0, 0, -1), (0, 0, 0, -4)])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_a_root_of_u_prime_where_u_is_a_rational_y_k_adds_multiplicities(fast_only, n, c):
    # u = x^2 and y = 0 at even N: x = 0 is a simple root of u' and a
    # double root of u, so a triple root of G', and no cut
    form = circular(n, c)
    got = cuts(*form)
    assert cells(got) == cells(oracle(*form))
    assert F(0) not in {r.lo for r in got} | {r.hi for r in got}
    assert (F(0), F(0), 3) in cells(stationary(*form))


@pytest.mark.parametrize(
    "u, m2, N, want",
    [
        # y = 0: u = x (3x - 1)(x + 2) vanishes at 1/3 and -2
        (Poly.x() * Poly([-1, 3]) * Poly([2, 1]), F(1), 2, [F(-2), F(1, 3)]),
        # y = +-1: u = 9x^2 is 1 at +-1/3
        (Poly([0, 0, 9]), F(4), 3, [F(-1, 3), F(1, 3)]),
    ],
)
def test_an_off_grid_rational_crossing_comes_out_exact(fast_only, u, m2, N, want):
    got = cuts(u, m2, N)
    assert cells(got) == cells(oracle(u, m2, N))
    for x in want:
        assert (x, x, 1) in cells(got)


def test_exact_crossings_off_the_grid_with_a_lead_from_2_to_the_48(fast_only):
    # y = +-1 at m^2 = 4, N = 3: u = 2^100 x^2 meets y = 1 at +-2^-50, inside
    # the grid cells on either side of 0, which hold many k/lead, lead = 2^100
    u = Poly([0, 0, 2**100])
    want = [(F(-1, 2**50), F(-1, 2**50), 1), (F(1, 2**50), F(1, 2**50), 1)]
    assert cells(cuts(u, F(4), 3)) == cells(oracle(u, F(4), 3)) == want


@pytest.mark.parametrize("lam", [F(1), F(2), F(1, 3), F(3, 2)])
@pytest.mark.parametrize("n", [n for n in range(4, 61, 2) if n % 4 == 0 or n % 6 == 0])
def test_rational_crossings_on_the_symmetric_family(fast_only, n, lam):
    # m = 3/2 on SYMMETRIC: y = 0 at even N = n/2 and +-3/4 when 3 | N
    form = circular(n, image(QUARTICS["SYMMETRIC"], lam, False))
    assert any(y.exact for y in bipartite._outer_values(*form[1:]))
    assert cells(cuts(*form)) == cells(oracle(*form))


@pytest.fixture
def composed(monkeypatch):
    """The calls of the fallback, where cuts composes G itself."""
    calls, compose = [], bipartite.compose_outer
    monkeypatch.setattr(bipartite, "compose_outer", lambda *a: calls.append(a) or compose(*a))
    return calls


@pytest.mark.parametrize(
    "u, N, want",
    [
        # y = 0 at N = 2: x = 1 is a root of u' and a double root of
        # u = x (x - 1)^2, found twice; a triple root of G', and a cut
        (Poly.x() * Poly([-1, 1]) * Poly([-1, 1]), 2, [(F(1, 3), F(1, 3), 1), (F(1), F(1), 3)]),
        # N = 1: x = 1 is a double root of u' = 3 (x - 1)^2, and no cut
        (Poly([-1, 3, -3, 1]), 1, []),
    ],
)
def test_a_root_found_twice_or_of_even_multiplicity_falls_back(composed, u, N, want):
    assert cells(cuts(u, F(1), N)) == cells(oracle(u, F(1), N)) == want
    assert len(composed) == 1


# sqrt(2)/2 - 2^-200 < R < sqrt(2)/2, inside the cell of y_1 = sqrt(2)/2 at
# m^2 = 1, N = 4, a cell of relative width about 2^-152
R = F(math.isqrt(2**399), 2**200)
# about 2^-148 below sqrt(2)/2, outside that cell
R_OUT = R - F(1, 2**148)


@pytest.mark.parametrize(
    "u",
    [
        # x^3 + R_OUT = sqrt(2)/2 at x of about 2^-49.3: the grid cell
        # [0, 2^-48] ends at 0, a double root of G' and no cut
        Poly([R_OUT, 0, 0, 1]),
        # (x - 1)^2 + R_OUT = sqrt(2)/2 at 1 +- 2^-74: the grid cells on
        # either side of 1, a root of u', touch it and each other
        Poly([1 + R_OUT, -2, 1]),
    ],
    ids=["at 0", "at 1"],
)
def test_a_cell_next_to_a_root_of_g_prime_falls_back(composed, u):
    # real_roots(G') isolates such a root in a cell narrower than the grid
    got = cuts(u, F(1), 4)
    assert cells(got) == cells(oracle(u, F(1), 4))
    assert len(composed) == 1
    assert any(r.hi - r.lo < DEFAULT_WIDTH for r in got if not r.exact)


# 8 sqrt(2) - 2^-200 < R8 < 8 sqrt(2)
R8 = F(math.isqrt(128 * 4**200), 2**200)


@pytest.mark.parametrize(
    "u, m2, count",
    [
        # u(1/2) = R: the value of u at a grid point
        (Poly([R - F(1, 4), 0, 1]), F(1), 2),
        # u(1) = R at the rational root 1 of u'
        (Poly([1 + R, -2, 1]), F(1), 3),
        # u(sqrt 2) = R8 - 4 sqrt(2) lies about 2^-200 below y_1 = 4 sqrt(2)
        # at m^2 = 64: the enclosure of u at the irrational root sqrt 2 of u'
        # meets y_1's cell.  Without its u'' term the enclosure is u at the
        # cell's low end, about 2^-94 above y_1, and the two crossings about
        # 2^-101 on either side of sqrt 2 are missed
        (Poly([R8, -6, 0, 1]), F(64), 7),
    ],
    ids=["grid point", "rational branch end", "irrational branch end"],
)
def test_a_value_that_meets_an_enclosure_falls_back(composed, u, m2, count):
    got = cuts(u, m2, 4)
    assert cells(got) == cells(oracle(u, m2, 4))
    assert len(got) == count
    assert len(composed) == 1


def test_n_240(fast_only):
    form = circular(240, QUARTICS["MINUS_FIVE"])
    assert cells(cuts(*form)) == cells(oracle(*form))


@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("where", ["grid point", "branch end"])
def test_a_value_on_an_end_of_an_enclosure_is_decided(fast_only, where, end):
    """u meets an end of y_1's cell, a rational on one side of y_1 =
    sqrt(2)/2: at the grid point 1/2, or at the root 1 of u', a maximum
    at the low end and a minimum at the high one, so that u does not meet
    y_1 near it."""
    y = next(y for y in bipartite._outer_values(F(1), 4) if y.lo > 0)
    v, lead = getattr(y, end), -1 if end == "lo" else 1
    u = Poly([v - F(1, 4), 0, 1]) if where == "grid point" else Poly([v + lead, -2 * lead, lead])
    assert cells(cuts(u, F(1), 4)) == cells(oracle(u, F(1), 4))


@pytest.mark.parametrize("n", [480, 720])
def test_decide_above_the_compose_bound_needs_no_fallback(monkeypatch, fast_only, n):
    """x^4 - 3x^2 - 5 has u = x^2 - 3/2 and m^2 = 29/4, and its cuts are
    +-sqrt(3/2 + y_k) for every y_k > -3/2, N = n/2: each in the grid cell
    around mpmath's value."""
    monkeypatch.setattr(elliptic, "COMPOSE_MAX_N", n)
    seen = []
    monkeypatch.setattr(elliptic, "cuts", lambda *form: seen.append(cuts(*form)) or seen[-1])
    elliptic.decide(n, QuarticCoeffs.of(*QUARTICS["MINUS_FIVE"]))
    (got,) = seen
    N = n // 2
    with mpmath.workprec(300):
        m = mpmath.sqrt(mpmath.mpf(29) / 4)
        ys = [m * mpmath.cos(k * mpmath.pi / N) for k in range(1, N)]
        want = sorted(sign * mpmath.sqrt(y + 1.5) for y in ys if y > -1.5 for sign in (-1, 1))
        assert len(got) == len(want)
        for r, x in zip(got, want):
            assert r.hi - r.lo == DEFAULT_WIDTH and r.lo < exact(x) < r.hi


@pytest.mark.parametrize("n", [6, 8, 12])
def test_roots_2_to_the_minus_40_apart(fast_only, n):
    form = circular(n, TINY)
    assert cells(cuts(*form)) == cells(oracle(*form))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=5),
    st.fractions(F(1, 8), 4, max_denominator=9),
    st.integers(1, 6),
)
def test_any_inner_polynomial_matches_the_oracle(coeffs, m2, N):
    """The routine needs no identity: for any u, exact answers or the
    fallback give the odd roots of real_roots(G') but 0."""
    u = Poly(coeffs)
    assume(u.degree >= 2)
    assert cells(cuts(u, m2, N)) == cells(oracle(u, m2, N))


WRONG_GUESSES = {
    "five cells off": lambda real: lambda *a: real(*a) + 5 * 2.0**-48,
    "nan": lambda real: lambda *a: math.nan,
}


@pytest.mark.parametrize("wrong", sorted(WRONG_GUESSES))
def test_a_wrong_float_root_changes_nothing(monkeypatch, fast_only, wrong):
    # the guess of roots._refine and the one the sweep of cuts imports
    for module, name in ((roots, "_float_root"), (bipartite, "_newton_root")):
        monkeypatch.setattr(module, name, WRONG_GUESSES[wrong](getattr(module, name)))
    for n, c in [(33, QUARTICS["WORKED"]), (32, QUARTICS["SYMMETRIC"]), (24, QUARTICS["MINUS_FIVE"]),
                 (12, (0, 0, 0, -1)), (8, TINY)]:
        form = circular(n, c)
        assert cells(cuts(*form)) == cells(oracle(*form))


def test_crossings_guess_on_u_above_the_float_range(monkeypatch):
    # float(3^700) overflows; the guess scales u - y_k by a power of two, and
    # each crossing is certified at the guess's cell or a neighbour: at most
    # eight grid points with the branch ends, where exact bisection takes
    # about fifty per crossing
    u = Poly([-(2 * 3**700 + 1), 0, 3**700])
    y = next(y for y in bipartite._outer_values(F(1), 4) if not y.exact)  # -sqrt(2)/2
    ends = bipartite._branch_ends(u, F(1), real_roots(u.derivative()))
    points, value = [], bipartite._value_dyadic
    monkeypatch.setattr(bipartite, "_value_dyadic", lambda q, K, j: points.append(K) or value(q, K, j))
    got = bipartite._crossings(u, [y], ends)
    assert len(got) == 2 and len(set(points)) <= 8
    monkeypatch.setattr(bipartite, "_newton_root", lambda *a: math.nan)
    assert cells(bipartite._crossings(u, [y], ends)) == cells(got)


@pytest.mark.parametrize("m2, step", [(F(5), F(1, 8)), (F(3, 7), F(1, 24))])
@pytest.mark.parametrize("N", range(2, 17))
def test_w_has_the_signs_of_the_oracle(m2, step, N):
    """W = m^(N-1) U_(N-1)(y/m) has a positive lead and the roots y_k, so
    the cells of _outer_values give its sign off them, (-1)^(cells above),
    and 0 at an exact y_k: against T_N' / N at 41 points on either side of
    [-m, m]."""
    ys, want = bipartite._outer_values(m2, N), outer_derivative(m2, N)
    for x in (k * step for k in range(-20, 21)):
        on = any(y.lo <= x <= y.hi for y in ys)
        assert (0 if on else (-1) ** sum(x < y.lo for y in ys)) == sign_at(want, x)


def exact(v) -> F:
    """An mpmath number as the rational it is."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


def test_pi_is_enclosed():
    with mpmath.workprec(600):
        assert bipartite._PI <= exact(mpmath.pi * 2**256) < bipartite._PI + 1


@pytest.mark.parametrize("N", [*range(2, 34), 80, 240, 720])
@pytest.mark.parametrize(
    "m2", [F(1), F(5), F(3, 7), F(2, 3**90), F(10**60 + 1, 7)], ids=["1", "5", "3|7", "2|3^90", "big|7"]
)
def test_each_irrational_cell_holds_its_y_k(m2, N):
    """Every cell of _outer_values holds mpmath's 600-bit m cos(k pi/N), and
    W, from T_N' / N, has opposite exact signs at the ends of each
    irrational one: the cells are disjoint, so they separate W's N - 1
    roots.  The signs are checked at N <= 80 only: at N = 720 composing W
    by Horner and its 1,438 exact signs take minutes."""
    ys = bipartite._outer_values(m2, N)
    assert len(ys) == N - 1
    W = outer_derivative(m2, N) if N <= 80 else None
    with mpmath.workprec(600):
        m = mpmath.sqrt(mpmath.mpf(m2.numerator) / m2.denominator)
        for k, y in zip(range(N - 1, 0, -1), ys):
            want = exact(m * mpmath.cos(k * mpmath.pi / N))
            if y.exact:
                assert abs(want - y.lo) < F(1, 2**500) * max(1, abs(want))
                continue
            assert y.lo < want < y.hi
            assert (y.hi - y.lo) / abs(want) < F(1, 2**140)
            if W is not None:
                assert sign_at(W, y.lo) * sign_at(W, y.hi) == -1
