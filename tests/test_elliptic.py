import contextlib
import dataclasses
import io
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from chebyshev_oracle import compose_outer as horner_compose_outer

from bicheb import bipartite, elliptic
from bicheb.bipartite import COMPOSE_MAX_N, SCAN_MAX_N, QuarticCoeffs
from bicheb.cli import main
from bicheb.elliptic import (
    BRANCH_ARCCOS,
    BRANCH_ARCCOSH,
    BRANCH_ARCSINH,
    BRANCH_LOG,
    ClassNotCovered,
    ClosedForm,
    IntervalNotValid,
    Piece,
    Refusal,
    complete_coefficient,
    decide,
    numeric_check,
    render,
    render_refusal,
    sign_regions,
)
from bicheb.poly import Poly, horner
from bicheb.roots import IsolatedRoot, noroot_signs, real_roots
from bicheb.scalars import rational_sqrt

WORKED = QuarticCoeffs.of(-2, -3, 2, 2)
SYMMETRIC = QuarticCoeffs.of(0, -5, 0, 4)
HYPER = QuarticCoeffs.of(0, -2, 0, 2)
LOG = QuarticCoeffs.of(0, 2, 0, 1)
AUX_FAIL = QuarticCoeffs.of(0, -3, 1, 1)
GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"


# -- decisions ----------------------------------------------------------------


def test_decide_symmetric_quartic():
    cf = decide(2, SYMMETRIC)
    assert isinstance(cf, ClosedForm)
    assert cf.s == 2 and cf.branch == BRANCH_ARCCOS
    assert cf.m2 == F(9, 4)
    assert cf.G.scale(1 / rational_sqrt(cf.m2)) == Poly((F(-5, 3), F(0), F(2, 3)))


def test_decide_worked_circular():
    cf = decide(3, WORKED)
    assert cf.s == 3 and cf.d == 9 and cf.m2 == 1
    assert cf.G == Poly((F(3), F(0), F(-3), F(1))) and cf.convention == "g"
    assert not cf.residual()


def test_decide_hyperbolic_and_composition():
    cf = decide(2, HYPER)
    assert cf.branch == BRANCH_ARCSINH and cf.d == -4
    cf6 = decide(6, HYPER)
    u = Poly((F(-1), F(0), F(1)))
    assert cf6.G == (u * u * u).scale(4) + u.scale(3)
    assert not cf6.residual()


def test_decide_first_hit_refusal_even_outer():
    out = decide(4, HYPER)
    assert isinstance(out, Refusal)
    assert "even outer degree" in out.reason
    by_s = {dv.s: dv for dv in out.divisors}
    assert by_s[2].note == "rejected-even-outer-on-hyperbolic"
    # the scan is pinned to the first conditions-satisfying divisor even
    # though s = 4 would admit a circular solution; its diagnostics are
    # still reported
    assert by_s[4].f1 == 0 and by_s[4].aux == 0 and by_s[4].d == 4


def test_decide_logarithmic():
    cf = decide(2, LOG)
    assert cf.branch == BRANCH_LOG and cf.d == 0 and cf.m2 == 0
    assert cf.G == Poly((F(1), F(0), F(1)))


def test_decide_negative_control():
    out = decide(2, AUX_FAIL)
    assert isinstance(out, Refusal)
    dv = out.divisors[0]
    assert dv.f1 == 0 and dv.aux == 1


def test_decide_n1_has_no_divisors():
    out = decide(1, WORKED)
    assert isinstance(out, Refusal)


def test_decide_smallest_divisor_preferred():
    cf = decide(4, SYMMETRIC)
    assert cf.s == 2 and cf.N == 2 and cf.convention == "g-over-m"
    u = Poly((F(-5, 2), F(0), F(1)))
    assert cf.G == (u * u).scale(F(8, 9)) - Poly.one()


def test_decide_at_the_scan_bound_refuses():
    out = decide(SCAN_MAX_N, QuarticCoeffs.of(F(-3, 2), 2, F(1, 2), -3))
    assert isinstance(out, Refusal)
    assert out.reason == "no divisor s of n satisfies F_1 = 0 and aux = 0"


def test_decide_at_the_compose_bound_builds_the_form():
    cf = decide(COMPOSE_MAX_N, WORKED)
    assert isinstance(cf, ClosedForm) and (cf.s, cf.N, cf.convention) == (3, 80, "g-over-m")
    sol = cf.solution
    assert (cf.G, cf.convention) == horner_compose_outer(sol.u, sol.m2, cf.N, sol.branch)
    assert not cf.residual()


# -- validity intervals ---------------------------------------------------------


def test_validity_intervals_worked():
    gaps = sign_regions(WORKED.poly())
    assert [sign for _, _, sign in gaps] == [1, -1, 1, -1, 1]
    (lo1, hi1, _), (lo2, hi2, _) = gaps[1], gaps[3]
    assert lo1.exact and lo1.lo == -1
    assert abs(hi1.value() - (1 - math.sqrt(3))) < 1e-9
    assert lo2.exact and lo2.lo == 1
    assert abs(hi2.value() - (1 + math.sqrt(3))) < 1e-9


def test_validity_intervals_everywhere_positive():
    assert sign_regions(HYPER.poly()) == [(None, None, 1)]


def test_validity_intervals_log():
    assert sign_regions(LOG.poly()) == [(None, None, 1)]


def _isolated_degrees(monkeypatch) -> list[int]:
    """The degrees of the polynomials real_roots is called on from here on."""
    degrees = []

    def counting(q, *args):
        degrees.append(q.degree)
        return real_roots(q, *args)

    monkeypatch.setattr(elliptic, "real_roots", counting)
    monkeypatch.setattr(bipartite, "real_roots", counting)
    return degrees


@pytest.mark.parametrize(
    "n, c", [(4, (0, 1, 0, 0)), (10, (0, -5, 0, 4)), (33, (-2, -3, 2, 2)), (12, (0, 0, 0, -1))]
)
def test_circular_form_isolates_p_and_u_prime_never_g_prime(monkeypatch, n, c):
    degrees = _isolated_degrees(monkeypatch)
    cf = decide(n, QuarticCoeffs.of(*c))
    # p, then u' of degree s - 1; the solutions of u = y_k are certified on
    # u itself, at the rational y_k too (y_3 = 0 at n = 12, N = 6), so
    # neither u - y_k, G' (degree n - 1) nor W_(N-1) is isolated
    assert degrees == [4, cf.s - 1]
    assert max(degrees[1:]) < n - 1


@pytest.mark.parametrize("n, c", [(4, (0, 1, 0, 0)), (10, (0, -5, 0, 4)), (33, (-2, -3, 2, 2))])
def test_the_fallback_to_isolating_g_prime_gives_the_same_form(monkeypatch, n, c):
    want = render(decide(n, QuarticCoeffs.of(*c)))
    degrees = _isolated_degrees(monkeypatch)
    def undecided(m2, N):
        raise bipartite._Undecided

    monkeypatch.setattr(bipartite, "_outer_values", undecided)
    cf = decide(n, QuarticCoeffs.of(*c))
    assert render(cf) == want
    assert degrees == [4, cf.s - 1, n - 1]


# -- pieces and signs -------------------------------------------------------------


def _float_ends(piece):
    """The piece's endpoints as floats, infinite where it is unbounded."""
    lo = -math.inf if piece.lo is None else piece.lo.value()
    hi = math.inf if piece.hi is None else piece.hi.value()
    return lo, hi


def test_pieces_split_at_interior_stationary_points():
    cf = decide(3, WORKED)
    # g' = 3x(x-2): x = 2 lies inside (1, 1+sqrt3) and forces a sign flip;
    # x = 0 lies in a p>0 gap and is not a kink
    assert len(cf.pieces) == 3
    sigmas = [p.sigma for p in cf.pieces]
    assert sigmas[1] != sigmas[2]


def test_piece_sign_matches_derivative_everywhere():
    rng = random.Random(4)
    for cf in (decide(3, WORKED), decide(2, SYMMETRIC), decide(2, HYPER),
               decide(2, LOG), decide(6, HYPER), decide(4, SYMMETRIC)):
        pf = cf.c.poly().float_coeffs()
        for piece in cf.pieces:
            lo, hi = _float_ends(piece)
            lo = max(lo, -4.0)
            hi = min(hi, 4.0)
            if hi - lo < 1e-3:
                continue
            span = hi - lo
            h = 1e-6 * span
            for _ in range(25):
                x = rng.uniform(lo + 0.02 * span, hi - 0.02 * span)
                rad = cf.radicand_sign * horner(pf, x)
                if rad <= 1e-7:
                    continue
                got = (
                    cf.antiderivative(piece, x + h) - cf.antiderivative(piece, x - h)
                ) / (2 * h)
                want = x / math.sqrt(rad)
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want)), (cf.branch, x)


# -- numeric checks ----------------------------------------------------------------


def test_default_check_interval_is_none_off_the_central_window():
    # WORKED under x -> 16x: its pieces lie in (-16, -11.7), (16, 32) and (32, 43.7)
    out = decide(3, QuarticCoeffs.of(-2 * 16, -3 * 16**2, 2 * 16**3, 2 * 16**4))
    assert isinstance(out, ClosedForm) and len(out.pieces) == 3
    assert out.default_check_interval() is None


def test_default_check_interval_ties():
    # of two pieces of equal clipped width the first wins, and a piece
    # exactly 1e-6 wide is skipped
    cf = decide(3, WORKED)

    def root(v):
        return IsolatedRoot(F(v), F(v))

    def span(*pieces):
        return dataclasses.replace(cf, pieces=pieces).default_check_interval()

    left = Piece(None, root(-7), 1, "arccos")  # [-8, -7] after clipping
    right = Piece(root(2), root(3), 1, "arccos")
    assert span(left, right) == (-8 + 1 / 3, -7 - 1 / 3)
    assert span(right, left) == (2 + 1 / 3, 3 - 1 / 3)
    assert span(Piece(root(0), root(F(1, 10**6)), 1, "arccos")) is None
    assert span(Piece(root(0), root(F(2, 10**6)), 1, "arccos")) is not None


def test_numeric_check_worked():
    cf = decide(3, WORKED)
    assert numeric_check(cf, (-0.95, -0.75), 1e-10) <= 1e-8


def test_numeric_check_hyperbolic_and_log():
    assert numeric_check(decide(2, HYPER), (0.0, 1.0), 1e-10) <= 1e-8
    assert numeric_check(decide(2, LOG), (1.0, 2.0), 1e-12) <= 1e-10


def test_numeric_check_rejects_wrong_region():
    cf = decide(3, WORKED)
    with pytest.raises(IntervalNotValid):
        numeric_check(cf, (0.0, 0.5), 1e-8)  # p > 0 there
    with pytest.raises(IntervalNotValid):
        numeric_check(cf, (1.2, 2.5), 1e-8)  # spans the kink at x = 2


@pytest.mark.parametrize("interval", [(0.5, 0.5), (2.0, 1.0)])
def test_numeric_check_rejects_an_empty_interval(interval):
    with pytest.raises(IntervalNotValid, match="empty interval"):
        numeric_check(decide(2, LOG), interval)


def test_contains_strict_at_float_ties():
    piece = Piece(IsolatedRoot(F(1, 3), F(1, 2)), IsolatedRoot(F(2), F(7, 3)), 1, "arccos")
    assert not piece.contains_strict(0.5, 1.0)  # a == float(lo.hi)
    assert not piece.contains_strict(1.0, 2.0)  # b == float(hi.lo)
    assert piece.contains_strict(1.0, 1.0)
    assert piece.contains_strict(math.nextafter(0.5, 1), math.nextafter(2.0, 1))


def test_strictly_inside_at_a_shared_end():
    lo, hi = IsolatedRoot(F(0), F(1)), IsolatedRoot(F(5), F(6))
    assert not elliptic._strictly_inside(IsolatedRoot(F(1), F(2)), lo, hi)  # r.lo == lo.hi
    assert not elliptic._strictly_inside(IsolatedRoot(F(4), F(5)), lo, hi)  # r.hi == hi.lo
    assert elliptic._strictly_inside(IsolatedRoot(F(2), F(3)), lo, hi)


def test_divisor_consistency_modulo_sign_and_constant():
    # both s = 2 and s = 4 are admissible for n = 4 over (x^2-1)(x^2-4)
    cf2 = decide(4, SYMMETRIC)
    cf4 = elliptic._closed_form(4, 4, SYMMETRIC, ())
    assert cf2.s == 2 and cf4.s == 4
    assert not cf4.residual()
    p2 = cf2.piece_for(1.2, 1.5)
    p4 = cf4.piece_for(1.2, 1.5)
    x0 = 1.25
    xs = [1.3 + 0.05 * i for i in range(5)]
    d2 = [cf2.antiderivative(p2, x) - cf2.antiderivative(p2, x0) for x in xs]
    d4 = [cf4.antiderivative(p4, x) - cf4.antiderivative(p4, x0) for x in xs]
    flip = 1.0 if abs(d2[0] - d4[0]) < abs(d2[0] + d4[0]) else -1.0
    for a, b in zip(d2, d4):
        assert abs(a - flip * b) <= 1e-8


# -- rendering -----------------------------------------------------------------------


def test_render_deterministic():
    cf = decide(3, WORKED)
    assert render(cf, "text") == render(cf, "text")
    assert json.dumps(cf.as_dict(), indent=2) == json.dumps(cf.as_dict(), indent=2)
    text = render(cf, "text")
    assert "arccos" in text and "(1/3)" in text
    latex = render(cf, "latex")
    assert r"\arccos" in latex


def test_render_divides_by_a_fractional_m_in_parentheses():
    # m^2 = 1/16: the argument is (g)/(1/4) = 4g, never (g)/1/4 = g/4
    cf = decide(2, QuarticCoeffs.of(0, F(3, 2), 0, F(1, 2)))
    assert "arccosh((x^2 + (3/4))/(1/4))" in render(cf, "text")
    assert r"\frac{x^{2} + \frac{3}{4}}{1/4}" in render(cf, "latex")
    assert "/(3/2)) + C" in render(decide(2, SYMMETRIC), "text")


def test_render_latex_log_piece():
    latex = render(decide(2, LOG), "latex")
    assert r"\log\left(\left|x^{2} + 1\right|\right) + C" in latex


def test_render_json_schema():
    cf = decide(2, SYMMETRIC)
    payload = json.loads(json.dumps(cf.as_dict(), indent=2))
    assert payload["status"] == "decided-yes"
    assert set(payload) >= {"n", "s", "branch", "d", "m2", "G", "intervals",
                            "residual_zero", "numeric_error"}
    assert payload["d"] == "9" and payload["m2"] == "9/4"
    assert payload["G"]["convention"] == "g"
    assert payload["residual_zero"] is True
    assert all(set(iv) >= {"lo", "hi", "sigma"} for iv in payload["intervals"])


@pytest.mark.parametrize(
    "lo, hi, text",
    [
        # the cell of 1 - sqrt3: the float of its middle is -0.7320508075688767
        (F(-206053984011467, 2**48), F(-103026992005733, 2**47), "-0.73205080756887"),
        (F(-1, 2**48), F(0), "-0.00000000000000"),
        (1 - F(1, 2**48), F(1), "0.99999999999999"),  # an end on a decimal
        (F(1), F(2), "1"),
        (F(5, 4), F(3, 2), "1"),  # 1.2 .. 1.4 below 3/2
        (F(33, 32), F(17, 16), "1.0"),
        (F(-17, 16), F(-33, 32), "-1.0"),
    ],
)
def test_certified_digits(lo, hi, text):
    assert elliptic._certified_digits(lo, hi) == text
    assert certified_digits_by_search(lo, hi) == text


def certified_digits_by_search(lo, hi):
    """The digit-by-digit search, the reference for _certified_digits: one
    comparison of the truncations at a and just below b per digit."""
    sign, a, b = ("-", -hi, -lo) if hi <= 0 else ("", lo, hi)

    def agree(d):
        # floor(a 10^d) and ceil(b 10^d) - 1: the truncations at a and just below b
        scale = 10**d
        return a.numerator * scale // a.denominator == -(-b.numerator * scale // b.denominator) - 1

    d = 0
    while agree(d + 1):
        d += 1
    digits = str(a.numerator * 10**d // a.denominator).rjust(d + 1, "0")
    return f"{sign}{digits[:-d]}.{digits[-d:]}" if d else f"{sign}{digits}"


@st.composite
def dyadic_cells(draw):
    """A cell (k/2^e, (k+1)/2^e) no wider than 1, on either side of 0,
    often next to a short decimal, where truncations carry."""
    e = draw(st.integers(0, 64))
    if draw(st.booleans()):
        m, j = draw(st.integers(0, 10**6)), draw(st.integers(0, 20))
        k = max(m * 2**e // 10**j + draw(st.integers(-2, 1)), 0)
    else:
        k = draw(st.integers(0, 2**72))
    lo, hi = F(k, 2**e), F(k + 1, 2**e)
    return (-hi, -lo) if draw(st.booleans()) else (lo, hi)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(dyadic_cells())
def test_certified_digits_match_the_digit_search(cell):
    assert elliptic._certified_digits(*cell) == certified_digits_by_search(*cell)


@pytest.mark.parametrize("n", [3, 6, 33])
def test_printed_endpoints_are_certified_digits(n):
    # every point of the cell, the root among them, truncates to the printed
    # text, and to no longer one
    cf = decide(n, WORKED)
    ends = {e for piece in cf.pieces for e in (piece.lo, piece.hi) if e and not e.exact}
    assert ends
    for e in ends:
        text = elliptic._endpoint_str(e, True)
        d = len(text.split(".")[1])
        t, a, b = abs(F(text)), *sorted((abs(e.lo), abs(e.hi)))
        assert t <= a and b <= t + F(1, 10**d), (e, text)
        assert not (math.floor(a * 10 ** (d + 1)) == math.ceil(b * 10 ** (d + 1)) - 1)


def test_render_refusal_lists_divisors():
    out = decide(2, AUX_FAIL)
    txt = render_refusal(out)
    assert "aux=1" in txt
    payload = json.loads(json.dumps(out.as_dict(), indent=2))
    assert payload["status"] == "decided-no"
    assert payload["divisors"][0]["F1"] == "0"


# -- coefficient completion ------------------------------------------------------------


def test_complete_keeps_every_root_when_one_closed_form_is_above_the_bound():
    # every c1 re-decides at n = 242; c1 = 0 meets the conditions at s = 2
    res = complete_coefficient(242, {2: F(-3), 3: F(0), 4: F(-5)}, 1, force_s=22)
    assert len(res.entries) == 15
    (hit,) = [e for e in res.entries if e.root.exact]
    assert (hit.root.lo, hit.c, hit.outcome) == (0, QuarticCoeffs.of(0, -3, 0, -5), None)
    assert hit.note == (f"s=2 meets the conditions, but n must be at most {COMPOSE_MAX_N}, "
                        "the bound of the closed form, got 242")
    assert all(e.note.startswith("irrational root") for e in res.entries if e is not hit)
    with pytest.raises(elliptic.ComposeBoundExceeded, match="got 242"):
        decide(242, hit.c)


def test_complete_at_the_scan_bound_notes_the_compose_bound():
    fixed = {2: F(-5), 3: F(0), 4: F(4)}
    (entry,) = complete_coefficient(SCAN_MAX_N, fixed, 1, force_s=2).entries
    assert (entry.root.lo, entry.outcome) == (0, None)
    assert entry.note == (f"s=2 meets the conditions, but n must be at most {COMPOSE_MAX_N}, "
                          f"the bound of the closed form, got {SCAN_MAX_N}")
    with pytest.raises(ValueError, match=f"n must be at most {SCAN_MAX_N}, the bound of the divisor scan"):
        complete_coefficient(SCAN_MAX_N + 1, fixed, 1, force_s=2)


@pytest.mark.parametrize("n", [0, -4])
def test_n_below_one_is_refused_before_any_work(n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        decide(n, WORKED)
    with pytest.raises(ValueError, match="^n must be positive$"):
        complete_coefficient(n, {2: F(-5), 3: F(0), 4: F(4)}, 1)


def test_complete_even_class():
    r = complete_coefficient(2, {2: F(-5), 3: F(0), 4: F(4)}, 1)
    assert r.s == 2
    assert [e.root.lo for e in r.entries] == [0]
    assert r.entries[0].note == "decided-yes"


def test_complete_c2_class():
    r = complete_coefficient(3, {1: F(-2), 3: F(2), 4: F(2)}, 2)
    assert r.s == 3
    assert [e.root.lo for e in r.entries] == [-3]
    assert r.entries[0].note == "decided-yes"


def test_complete_negative_control():
    r = complete_coefficient(2, {2: F(-3), 3: F(1), 4: F(1)}, 1)
    assert [e.root.lo for e in r.entries] == [0]
    assert r.entries[0].note == "decided-no"
    assert isinstance(r.entries[0].outcome, Refusal)


def test_complete_class_not_covered():
    with pytest.raises(ClassNotCovered):
        complete_coefficient(9, {2: F(-1), 3: F(0), 4: F(1)}, 1)  # no even divisor
    with pytest.raises(ClassNotCovered):
        complete_coefficient(9, {1: F(0), 2: F(-1), 3: F(0)}, 4)  # none = 5 mod 8
    with pytest.raises(ClassNotCovered):
        complete_coefficient(6, {1: F(0), 2: F(-1), 4: F(1)}, 3)  # c3 never covered


def test_complete_forced_divisor():
    r = complete_coefficient(4, {2: F(-2), 3: F(0), 4: F(0)}, 1, force_s=2)
    assert r.s == 2 and [e.root.lo for e in r.entries] == [0]


def test_complete_c4_class():
    # n = 5: s = 5 is 5 mod 8, F_1 linear in c4
    r = complete_coefficient(5, {1: F(1), 2: F(-1), 3: F(0)}, 4)
    assert r.s == 5 and len(r.entries) == 1
    assert r.entries[0].root.exact


def test_complete_nonempty_spot_check():
    rng = random.Random(71)
    for n in (2, 6, 10):
        for _ in range(3):
            fixed = {
                k: F(rng.randint(-12, 12), rng.randint(1, 4)) for k in (2, 3, 4)
            }
            r = complete_coefficient(n, fixed, 1)
            assert len(r.entries) >= 1


# -- edge cases and randomized branch sweep ---------------------------------------


def test_log_branch_with_double_roots():
    # p = (x^2 - 1)^2: both roots double, g = x^2 - 1 changes sign inside (-1, 1)
    cf = decide(2, QuarticCoeffs.of(0, -2, 0, 1))
    assert cf.branch == BRANCH_LOG and cf.G == Poly((F(-1), F(0), F(1)))
    sigmas = {_float_ends(p): p.sigma for p in cf.pieces}
    assert sigmas[(-1.0, 1.0)] == -1
    assert sigmas[(1.0, math.inf)] == 1
    assert numeric_check(cf, (-0.5, 0.5), 1e-10) <= 1e-10


def test_hyperbolic_with_irrational_m():
    # x^4 - x^2 + 1: d = -3, m = sqrt(3)/2
    c = QuarticCoeffs.of(0, -1, 0, 1)
    cf = decide(2, c)
    assert cf.branch == BRANCH_ARCSINH and cf.m2 == F(3, 4)
    assert numeric_check(cf, (0.0, 1.5), 1e-10) <= 1e-8
    # the odd outer degree keeps G = g, rational although m is not
    assert cf.convention == "g"
    cf6 = decide(6, c)
    assert not cf6.residual()
    assert numeric_check(cf6, (-1.0, 1.0), 1e-10) <= 1e-8


def test_randomized_branch_sweep_s2():
    # the s = 2 solvable locus is c1 = c3 = 0; random (c2, c4) reach all
    # three branches, every decision re-verified numerically on one piece
    rng = random.Random(1234)
    seen = set()
    for _ in range(40):
        c2 = F(rng.randint(-8, 8), rng.randint(1, 3))
        c4 = F(rng.randint(-8, 8), rng.randint(1, 3))
        out = decide(2, QuarticCoeffs.of(0, c2, 0, c4))
        assert isinstance(out, ClosedForm)
        assert not out.residual()
        seen.add(out.branch)
        span = out.default_check_interval()
        if span is not None and span[1] - span[0] > 1e-3:
            assert numeric_check(out, span, 1e-9) <= 1e-7
    assert {BRANCH_ARCCOS, BRANCH_ARCSINH} <= seen


def test_randomized_branch_sweep_s3_family():
    rng = random.Random(4321)
    for _ in range(10):
        c1 = F(rng.randint(-6, 6), rng.randint(1, 3))
        c3 = F(rng.randint(-6, 6), rng.randint(1, 3))
        c = QuarticCoeffs(c1, -F(3, 4) * c1 * c1, c3, -c1 * c3 / 2)
        out = decide(3, c)
        assert isinstance(out, ClosedForm)
        assert not out.residual()
        span = out.default_check_interval()
        if span is not None and span[1] - span[0] > 1e-3:
            assert numeric_check(out, span, 1e-9) <= 1e-7


def test_higher_degree_compositions():
    # n = 6 over (x^2+1)^2: logarithmic with outer power 3
    cf6 = decide(6, QuarticCoeffs.of(0, 2, 0, 1))
    assert cf6.branch == BRANCH_LOG and cf6.G == Poly((F(1), F(0), F(1))) ** 3
    assert numeric_check(cf6, (1.0, 2.0), 1e-10) <= 1e-8

    # n = 9 over the worked quartic: T_3 of the cubic inner polynomial;
    # |g| = m preimages (u = +-1/2) refine the pieces inside each region
    cf9 = decide(9, WORKED)
    assert cf9.s == 3 and cf9.G.degree == 9 and not cf9.residual()
    assert len(cf9.pieces) == 9
    assert numeric_check(cf9, (-0.93, -0.82), 1e-10) <= 1e-8
    assert numeric_check(cf9, (1.6, 1.95), 1e-10) <= 1e-8

    # n = 10 hyperbolic: outer degree 5 is odd, single piece across the line
    cf10 = decide(10, HYPER)
    assert cf10.s == 2 and cf10.G.degree == 10 and not cf10.residual()
    assert numeric_check(cf10, (-2.0, 2.0), 1e-10) <= 1e-8


# -- exact piece signs and stable numerics at high degree ---------------------------


def _sgn(v):
    return (v > 0) - (v < 0)


def _sign_at(coeffs, x: F) -> int:
    """The exact sign at x of the polynomial with ascending rational
    coefficients: that of den^deg p(num/den), by integer Horner."""
    lcd = math.lcm(*(c.denominator for c in coeffs))
    acc, pw = 0, 1
    for c in reversed(coeffs):
        acc = acc * x.numerator + c.numerator * (lcd // c.denominator) * pw
        pw *= x.denominator
    return _sgn(acc)


def evaluated_piece_signs(cf) -> list[tuple[int, int]]:
    """(sigma, inner sign) of every piece, each from exact signs of x, G and
    G' at a rational point of that piece where none of them vanishes.

    n^2 x^2 (G^2 -+ M) = p G'^2 fixes the sign of d/dx f(G/m) on a piece:
    sigma is -sgn x sgn G' for arccos, sgn x sgn G' for arcsinh, and
    sgn x sgn G sgn G' for arccosh (inner sign sgn G) and log.
    """
    G = list(cf.G.coeffs)
    dG = [k * G[k] for k in range(1, len(G))]
    out = []
    for piece in cf.pieces:
        if piece.lo is None and piece.hi is None:
            a, b = F(-1), F(1)
        else:
            a = piece.hi.lo - 1 if piece.lo is None else piece.lo.hi
            b = piece.lo.hi + 1 if piece.hi is None else piece.hi.lo
        for x in (a + (b - a) * F(k, 17) for k in range(1, 17)):
            sx, sg, sdg = _sgn(x), _sign_at(G, x), _sign_at(dG, x)
            if sx and sg and sdg:
                break
        else:
            raise AssertionError(f"no probe point of {piece} avoids the roots")
        sigma = {"arccos": -sx * sdg, "arcsinh": sx * sdg}.get(piece.fn, sx * sg * sdg)
        out.append((sigma, sg if piece.fn == "arccosh" else 1))
    return out


def assert_piece_signs_are_evaluated_ones(cf):
    got = [(piece.sigma, piece.inner_sign) for piece in cf.pieces]
    assert got == evaluated_piece_signs(cf), (cf.n, cf.c)


@pytest.mark.parametrize("n", range(3, 46, 3))
def test_worked_piece_signs_follow_the_exact_rule(n):
    cf = decide(n, WORKED)
    assert_piece_signs_are_evaluated_ones(cf)
    for piece in cf.pieces:
        lo, hi = _float_ends(piece)
        lo, hi = max(lo, -8.0), min(hi, 8.0)
        third = (hi - lo) / 3
        assert numeric_check(cf, (lo + third, hi - third), 1e-12) <= 1e-10, (n, piece)


# (quartic, divisor s, outer degree n/s must be odd): the known-solvable
# families, one per branch function but arccosh
FAMILIES = {
    "WORKED": (WORKED, 3, False),
    "SYMMETRIC": (SYMMETRIC, 2, False),
    "HYPER": (HYPER, 2, True),
    "LOG": (LOG, 2, False),
}
LAMBDAS = [F(2), F(1, 2), F(3, 2), F(2, 3), F(3), F(1, 3), F(4, 3), F(3, 4)]


def image(c: QuarticCoeffs, lam: F, reflect: bool) -> QuarticCoeffs:
    """p(x) -> lam^4 p(x / lam) (c_k -> lam^k c_k), then optionally
    x -> -x ((c1, c3) -> (-c1, -c3))."""
    out = [v * lam ** (k + 1) for k, v in enumerate(c.as_tuple())]
    if reflect:
        out[0], out[2] = -out[0], -out[2]
    return QuarticCoeffs.of(*out)


@pytest.mark.parametrize(
    "name, n",
    [
        (name, n)
        for name, (_, s, odd_outer) in FAMILIES.items()
        for n in range(s, 61, s)
        if not odd_outer or (n // s) % 2 == 1
    ],
)
def test_piece_signs_equal_a_per_piece_evaluation(name, n):
    c = FAMILIES[name][0]
    lam, lam2 = LAMBDAS[n % 8], LAMBDAS[(n + 3) % 8]
    for q in (c, image(c, lam, False), image(c, lam2, True)):
        cf = decide(n, q)
        assert isinstance(cf, ClosedForm)
        assert_piece_signs_are_evaluated_ones(cf)


@pytest.mark.parametrize(
    "n, c",
    [
        # arccosh on both sides of p's double root at 0, and arccosh with
        # m = 1/4 where p > 0 everywhere
        (4, (0, 1, 0, 0)),
        (12, (0, 1, 0, 0)),
        (2, (0, F(3, 2), 0, F(1, 2))),
        (10, (0, F(3, 2), 0, F(1, 2))),
        # x^4 - 1: |g| = m at x = 0, a triple root of G' and no cut, since x
        # changes sign there too; a simple root at 0 where n/2 is odd
        (4, (0, 0, 0, -1)),
        (6, (0, 0, 0, -1)),
        (12, (0, 0, 0, -1)),
    ],
)
def test_piece_signs_at_arccosh_and_at_a_triple_root_at_zero(n, c):
    cf = decide(n, QuarticCoeffs.of(*c))
    assert_piece_signs_are_evaluated_ones(cf)


def test_piece_signs_of_every_golden_closed_form(monkeypatch):
    seen = []

    def record(*args):
        seen.append(closed_form(*args))
        return seen[-1]

    closed_form = elliptic._closed_form
    monkeypatch.setattr(elliptic, "_closed_form", record)
    for entry in json.loads(GOLDEN.read_text()):
        if entry["argv"][0] in ("decide", "integrate", "complete"):
            with contextlib.redirect_stdout(io.StringIO()):
                main(list(entry["argv"]))
    assert len(seen) >= 60
    assert {cf.pieces[0].fn for cf in seen if cf.pieces} == {"arccos", "arccosh", "arcsinh", "log"}
    for cf in seen:
        assert_piece_signs_are_evaluated_ones(cf)


def test_signs_are_evaluated_once_per_sign_region(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return noroot_signs(*args)

    monkeypatch.setattr(elliptic, "noroot_signs", counting)
    cf = decide(33, WORKED)
    # two regions where p < 0, cut into 33 pieces
    assert len(cf.pieces) == 33
    assert len(calls) == sum(sign < 0 for _, _, sign in sign_regions(WORKED.poly())) == 2


@pytest.mark.parametrize("emit", [render, ClosedForm.as_dict], ids=["render", "as_dict"])
def test_each_irrational_end_is_formatted_once(monkeypatch, emit):
    calls, digits = [], elliptic._certified_digits
    monkeypatch.setattr(
        elliptic, "_certified_digits", lambda lo, hi: calls.append((lo, hi)) or digits(lo, hi)
    )
    cf = decide(33, WORKED)
    ends = {(e.lo, e.hi) for piece in cf.pieces for e in (piece.lo, piece.hi) if e and not e.exact}
    emit(cf)
    assert sorted(calls) == sorted(ends) and len(ends) == 32
