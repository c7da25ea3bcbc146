import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from chebyshev_oracle import chebyshev_t
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicheb.bipartite import (
    Branch,
    QuarticCoeffs,
    coefficients_from_recurrence,
    compose_outer,
    conditions,
    identity_residual,
)
from bicheb.multipartite import (
    NoConsistentConstants,
    OutsideData,
    coefficients_general,
    _desc,
    _tc_from_sums,
    _tc_sums,
    integration_constant,
    solvability_residuals,
)
from bicheb.partitions import distinct_perms, partitions_bounded
from bicheb.poly import Poly

X = Poly.x()
WORKED = QuarticCoeffs.of(-2, -3, 2, 2)


def monic_random(rng, deg, span=4):
    return Poly(
        [F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(deg)] + [F(1)]
    )


def rand_quartic(rng):
    return QuarticCoeffs.of(
        *[F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(4)]
    )


# -- the weights of the recurrence ------------------------------------------------


def qcube(q: Poly) -> list[F]:
    """Descending coefficients td_0..td_{3 ell} of q^3 (td_0 = 1)."""
    if not q or q.leading() != 1:
        raise ValueError("q must be monic")
    return _desc(q**3)


def tc(i: int, j: int, p: Poly, q: Poly) -> F:
    """(i+j) * sum_{k=0}^{i} (4i + 2j - 3k) c_k d_{i-k}.

    c and d are the descending coefficients of p and q, taken as zero out
    of range; tc(0, j) = 2 j^2 always.
    """
    A, B = _tc_sums(_desc(p), _desc(q))
    return F(_tc_from_sums(A, B, i, j)) if i < len(A) else F(0)


# -- closed-form oracle ----------------------------------------------------------
#
# The same quantities as sums over the distinct permutations of bounded
# partitions.  Their cost grows exponentially in s, so they serve only as an
# independent check of the recurrence route.


def cleared_weight(s, p, q):
    """E_i^(j) = tc_ij - 2 s^2 td_i as a memoized function of (i, j)."""
    td = qcube(q)

    @lru_cache(maxsize=None)
    def cleared(i, j):
        return tc(i, j, p, q) - 2 * s * s * (td[i] if i < len(td) else 0)

    return cleared


def fj_closed_form(s, p, q, j):
    """F_j as a sum over permutations of partitions of s - j.

    Each sequence contributes the product of divided weights
    e_i^(j + prefix), the prefix summing the earlier parts; those indices
    stay strictly between -s and s.  F_s = 1.
    """
    cleared = cleared_weight(s, p, q)
    top = p.degree + q.degree
    total = F(0)
    for lam in partitions_bounded(s - j, top):
        for seq in distinct_perms(lam):
            prod = F(1)
            prefix = 0
            for part in seq:
                k = j + prefix
                prod *= cleared(part, k) / (2 * (s * s - k * k))
                prefix += part
            total += prod
    return total


def residuals_closed_form(s, p, q):
    """The 3 ell conditions as permutation sums.

    Entry j-1 sums, over the distinct permutations of partitions of s + j
    whose first part is at least j, the cleared weight E_{i_1}^(-j) times
    the divided weights at the shifted prefix indices.  Peeling off the
    first part leaves exactly F_{i_1 - j}.
    """
    cleared = cleared_weight(s, p, q)
    top = p.degree + q.degree
    out = []
    for j in range(1, 3 * q.degree + 1):
        total = F(0)
        for lam in partitions_bounded(s + j, top):
            for seq in distinct_perms(lam):
                if seq[0] < j:
                    continue
                prod = cleared(seq[0], -j)
                prefix = seq[0]
                for part in seq[1:]:
                    k = prefix - j
                    prod *= cleared(part, k) / (2 * (s * s - k * k))
                    prefix += part
                total += prod
        out.append(total)
    return out


# -- Fraction oracle ---------------------------------------------------------------
#
# The general recurrence on Fractions, each step built from tc: the
# reference for the fraction-free run.


def fraction_recurrence(s, p, q, pin_origin=None):
    """(a, neg_residuals, pinned, origin_residual) of the Fraction run."""
    cleared = cleared_weight(s, p, q)
    top = p.degree + q.degree
    if pin_origin is None:
        pin_origin = q.eval(F(0)) == 0
    a = [F(0)] * s + [F(1)]

    def step(j):
        return sum(
            (cleared(i, j) * a[i + j] for i in range(max(1, -j), min(top, s - j) + 1)),
            F(0),
        )

    origin = None
    for j in range(s - 1, -1, -1):
        acc = step(j)
        if pin_origin and j == 1:
            origin, a[1] = acc, F(0)
        else:
            a[j] = acc / (2 * (s * s - j * j))
    neg = [step(-j) for j in range(1, 3 * q.degree + 1)]
    return a, neg, pin_origin, origin


@st.composite
def rational_outside_data(draw, ell, q_vanishes_at_0):
    """(s, p, q): monic p of degree 2 ell + 2 and monic q of degree ell,
    coefficients with denominators 3, 5 and 7."""
    s = draw(st.integers(1, (8, 7, 6, 5)[ell]))
    value = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 3, 5, 7, 15, 21, 35)))

    def monic(deg):
        return Poly(draw(st.lists(value, min_size=deg, max_size=deg)) + [F(1)])

    q = X * monic(ell - 1) if q_vanishes_at_0 else monic(ell)
    return s, monic(2 * ell + 2), q


# (ell, q(0) = 0, pin_origin): q(0) = 0 both pinned (the default) and unpinned
ORACLE_CASES = [(ell, False, None) for ell in range(4)] + [
    (ell, True, pin) for ell in range(1, 4) for pin in (None, False)
]


@pytest.mark.parametrize("ell, q_vanishes_at_0, pin", ORACLE_CASES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_integer_recurrence_equals_the_fraction_oracle(ell, q_vanishes_at_0, pin, data):
    s, p, q = data.draw(rational_outside_data(ell, q_vanishes_at_0))
    sys_ = coefficients_general(s, p, q, pin_origin=pin)
    got = (sys_.a, sys_.neg_residuals, sys_.pinned_origin, sys_.origin_residual)
    assert got == fraction_recurrence(s, p, q, pin)


def test_integer_recurrence_reaches_index_minus_s():
    # 3 ell > s: the conditions at -s and below need no division by R_(-s) = 0
    p = Poly.from_roots([F(1), F(-1), F(1, 2), F(-1, 3), F(2), F(-2), F(3, 5), F(-3)])
    for s in (2, 3, 5, 8):
        for q in (Poly.from_roots([F(0), F(1, 7), F(-2, 3)]),
                  Poly.from_roots([F(5, 7), F(1, 7), F(-2, 3)])):
            for pin in (None, False):
                sys_ = coefficients_general(s, p, q, pin_origin=pin)
                got = (sys_.a, sys_.neg_residuals, sys_.pinned_origin, sys_.origin_residual)
                assert got == fraction_recurrence(s, p, q, pin), (s, q, pin)


# -- building blocks ----------------------------------------------------------


def test_qcube_values():
    assert qcube(X) == [F(1), F(0), F(0), F(0)]
    assert qcube(Poly((F(-1), F(1)))) == [F(1), F(-3), F(3), F(-1)]
    assert qcube(Poly((F(-1), F(0), F(1)))) == [F(1), F(0), F(-3), F(0), F(3), F(0), F(-1)]


def test_tc_values():
    p = WORKED.poly()
    assert tc(0, 5, p, X) == 50  # 2 j^2 for every (p, q)
    assert tc(0, -3, p, X) == 18
    p1 = Poly((F(7), F(3), F(2), F(5), F(1)))  # c1 = 5
    assert tc(1, 0, p1, X) == 5  # (i+j) (i+2j) c_i at q = x collapses to c1
    p0 = Poly((F(7), F(3), F(2), F(0), F(1)))
    assert tc(1, 1, p0, X) == 0


def test_tc_q_of_degree_two():
    # direct small expansion: i=1, j=0, q = x^2 + d1 x + d2
    q = Poly((F(5), F(3), F(1)))
    p = monic_random(random.Random(1), 6)
    c1 = p[5]
    d1 = F(3)
    # k=0 term: (4+0-0) c0 d1 = 4 d1 ; k=1 term: (4-3) c1 d0 = c1
    assert tc(1, 0, p, q) == 4 * d1 + c1


def test_degree_relation_enforced():
    with pytest.raises(ValueError):
        coefficients_general(3, Poly.from_roots([F(0), F(1), F(2)]), X)


# -- q = x specialization vs the quartic module --------------------------------


def test_worked_instance_specializes():
    sys_ = coefficients_general(3, WORKED.poly(), X)
    assert sys_.pinned_origin and sys_.origin_residual == 0
    assert sys_.a == [F(3), F(0), F(-3), F(1)]
    assert sys_.neg_residuals == [F(0), F(0), F(0)]
    assert sys_.solvable()


def test_aux_counterexample_specializes():
    c = QuarticCoeffs.of(0, -3, 1, 1)
    sys_ = coefficients_general(2, c.poly(), X)
    assert sys_.neg_residuals[0] == 2 * conditions(2, c).aux
    assert not sys_.solvable()


def test_random_specialization_cross_framework():
    rng = random.Random(41)
    for s in range(2, 7):
        for _ in range(5):
            c = rand_quartic(rng)
            a, f1 = coefficients_from_recurrence(s, c)
            sys_ = coefficients_general(s, c.poly(), X)
            assert sys_.pinned_origin
            assert sys_.a == a
            assert sys_.origin_residual == 2 * (s * s - 1) * f1
            assert sys_.neg_residuals[0] == 2 * conditions(s, c).aux
            assert sys_.neg_residuals[1] == 0 and sys_.neg_residuals[2] == 0


def test_unpinned_negative_residuals_track_f1():
    # without the origin pin, the second and third conditions are multiples
    # of a_1 = F_1: residual(-2) = -c3 F_1, residual(-3) = -2 c4 F_1
    rng = random.Random(43)
    for s in (2, 3, 4):
        for _ in range(4):
            c = rand_quartic(rng)
            sys_ = coefficients_general(s, c.poly(), X, pin_origin=False)
            f1 = conditions(s, c).f1
            assert sys_.a[1] == f1
            assert sys_.neg_residuals[1] == -c.c3 * f1
            assert sys_.neg_residuals[2] == -2 * c.c4 * f1


def test_s1_classical_case():
    # ell = 0: u = x + c1/2, no negative conditions
    p = Poly((F(5), F(3), F(1)))  # x^2 + 3x + 5
    sys_ = coefficients_general(1, p, Poly.one())
    assert sys_.a == [F(3, 2), F(1)]
    assert sys_.neg_residuals == []
    assert not sys_.pinned_origin


# -- closed-form route ----------------------------------------------------------


def test_fj_closed_form_matches_recurrence_randomized():
    rng = random.Random(47)
    for _ in range(12):
        ell = rng.randint(0, 2)
        s = rng.randint(1, 8 if ell < 2 else 4)
        q = monic_random(rng, ell)
        p = monic_random(rng, 2 * ell + 2)
        sys_ = coefficients_general(s, p, q, pin_origin=False)
        for j in range(s + 1):
            assert fj_closed_form(s, p, q, j) == sys_.a[j], (s, ell, j)


def test_fj_s_is_one():
    rng = random.Random(53)
    q = monic_random(rng, 1)
    p = monic_random(rng, 4)
    assert fj_closed_form(3, p, q, 3) == 1


def test_solvability_residuals_match_recurrence_route():
    # a third of the draws have q(0) = 0, where the pinned run's residuals
    # differ from these
    rng = random.Random(59)
    for n in range(12):
        ell = rng.randint(1, 2)
        s = rng.randint(2, 5 if ell == 1 else 4)
        q = X * monic_random(rng, ell - 1) if n % 3 == 0 else monic_random(rng, ell)
        p = monic_random(rng, 2 * ell + 2)
        lem = solvability_residuals(s, p, q)
        assert len(lem) == 3 * ell
        assert lem == residuals_closed_form(s, p, q), (s, ell)
        if q.eval(F(0)) != 0:
            assert lem == coefficients_general(s, p, q).neg_residuals


def test_solvability_residuals_solvable_instances():
    assert solvability_residuals(3, WORKED.poly(), X) == [F(0)] * 3
    c = QuarticCoeffs.of(0, -3, 1, 1)
    assert any(v != 0 for v in solvability_residuals(2, c.poly(), X))
    # c3 = c4 = 0 keeps every condition zero for q = x
    rng = random.Random(61)
    for s in (2, 3, 4):
        c = rand_quartic(rng)
        c = QuarticCoeffs(c.c1, c.c2, F(0), F(0))
        assert solvability_residuals(s, c.poly(), X) == [F(0)] * 3


# -- integration constant ----------------------------------------------------------
#
# The old route to m^2 matched the undivided identity at x = 0: the
# reference for the leading-coefficient route integration_constant takes.


def origin_m2(s, p, q, u):
    """m^2 from s^2 q^2 (u^2 - m^2) = p u'^2 at x = 0, or None.

    When q(0) != 0 that is u(0)^2 - p(0) u'(0)^2 / (s^2 q(0)^2).  When
    q(0) = 0 it takes the limit by L'Hopital, u'(0) / q(0) -> 2 a_2 / q'(0),
    which needs u'(0) = 0; None otherwise.
    """
    du = u.derivative()
    q0 = q.eval(F(0))
    if q0 != 0:
        return u.eval(F(0)) ** 2 - p.eval(F(0)) * du.eval(F(0)) ** 2 / (s * s * q0 * q0)
    if u[1] != 0:
        return None
    dq0 = q.derivative().eval(F(0))
    return u.eval(F(0)) ** 2 - p.eval(F(0)) * 4 * u[2] ** 2 / (s * s * dq0 * dq0)


HALVES = [F(k, 2) for k in range(-8, 9)]
# known-yes quartics (c1, c2, c3, c4) and the degrees s <= 8 their
# compositions reach; each is shifted to q = x - t
KNOWN_YES = [
    ((-2, -3, 2, 2), (3, 6)),  # circular
    ((0, -5, 0, 4), (2, 4, 6, 8)),  # circular
    ((0, -2, 0, 2), (2, 4, 6, 8)),  # hyperbolic
    ((0, 2, 0, 1), (2, 4, 6, 8)),  # logarithmic, d = 0
]


@st.composite
def outside_data_system(draw):
    """(s, p, q, known_yes): OutsideData with ell <= 2 and s <= 8, or a
    known-yes quartic shifted by a half-integer t (t = 0 gives q = x)."""
    if draw(st.booleans()):
        c, degrees = draw(st.sampled_from(KNOWN_YES))
        t = draw(st.just(F(0)) | st.sampled_from(HALVES))
        x_minus_t = Poly((-t, F(1)))
        p = QuarticCoeffs.of(*c).poly().compose(x_minus_t)
        return draw(st.sampled_from(degrees)), p, x_minus_t, True
    ell = draw(st.integers(0, 2))
    roots = draw(st.lists(st.sampled_from(HALVES), min_size=3 * ell + 2,
                          max_size=3 * ell + 2, unique=True))
    data = OutsideData(tuple(roots[: 2 * ell + 2]), tuple(roots[2 * ell + 2 :]))
    return draw(st.integers(1, 8)), data.p(), data.q(), False


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(outside_data_system())
@example((3, WORKED.poly(), X, True))
@example((8, QuarticCoeffs.of(0, -5, 0, 4).poly(), X, True))
def test_integration_constant_equals_the_origin_oracle(case):
    s, p, q, known_yes = case
    sys_ = coefficients_general(s, p, q)
    assert sys_.solvable() or not known_yes
    if sys_.solvable():
        assert integration_constant(s, p, q, sys_.u) == (F(0), origin_m2(s, p, q, sys_.u))
    else:
        # u misses the divided ODE, so W is no constant multiple of q^2
        with pytest.raises(NoConsistentConstants):
            integration_constant(s, p, q, sys_.u)


def test_integration_constant_with_x_squared_dividing_p():
    # 9 x^2 (T_3^2 - 1) = (x^4 - x^2) T_3'^2 holds with q = x although
    # T_3'(0) = -3: p(0) = p'(0) = 0 lets u'(0) be nonzero, where the
    # origin route has no limit
    p = Poly.from_roots([F(0), F(0), F(1), F(-1)])
    assert origin_m2(3, p, X, chebyshev_t(3)) is None
    assert integration_constant(3, p, X, chebyshev_t(3)) == (F(0), F(1))


def test_integration_constant_worked():
    sys_ = coefficients_general(3, WORKED.poly(), X)
    c, m2 = integration_constant(3, WORKED.poly(), X, sys_.u)
    assert c == 0 and m2 == 1


def test_integration_constant_negative_control():
    bad = QuarticCoeffs.of(-2, -3, 2, 5).poly()
    u = Poly((F(3), F(0), F(-3), F(1)))
    with pytest.raises(NoConsistentConstants):
        integration_constant(3, bad, X, u)


def test_integration_constant_classical():
    p = Poly((F(-1), F(0), F(1)))
    for s in (2, 3, 4, 5):
        c, m2 = integration_constant(s, p, Poly.one(), chebyshev_t(s))
        assert c == 0 and m2 == 1


def test_integration_constant_ell2():
    v = Poly((F(0), F(-3), F(0), F(1)))  # x^3 - 3x
    q = Poly((F(-1), F(0), F(1)))  # x^2 - 1
    p = v * v - Poly.one()
    c, m2 = integration_constant(3, p, q, v)
    assert c == 0 and m2 == 1


# -- ell = 2 instance and composition closure -----------------------------------


def test_ell2_conditions_and_closure():
    v = Poly((F(0), F(-3), F(0), F(1)))
    q = Poly((F(-1), F(0), F(1)))
    p = v * v - Poly.one()
    assert solvability_residuals(3, p, q) == [F(0)] * 6
    sys_ = coefficients_general(3, p, q)
    assert sys_.u == v and sys_.solvable()
    for N in range(2, 7):
        G, conv = compose_outer(v, F(1), N, Branch.CIRCULAR)
        assert not identity_residual(G, conv, p, 3 * N, F(1), Branch.CIRCULAR, q)
        assert solvability_residuals(3 * N, p, q) == [F(0)] * 6


def test_composition_closure_quartic_family():
    # inner x^2 - 5/2 with m = 3/2 over (x^2-1)(x^2-4), q = x
    u = Poly((F(-5, 2), F(0), F(1)))
    m2 = F(9, 4)
    p = QuarticCoeffs.of(0, -5, 0, 4).poly()
    assert solvability_residuals(2, p, X) == [F(0)] * 3
    for N in range(2, 13):
        G, conv = compose_outer(u, m2, N, Branch.CIRCULAR)
        assert not identity_residual(G, conv, p, 2 * N, m2, Branch.CIRCULAR, X)
        assert solvability_residuals(2 * N, p, X) == [F(0)] * 3


def test_compose_worked_inner_to_degree_six():
    # v = x^3 - 3x^2 + 3 with m = 1 over the worked quartic: T_2(v) is the
    # degree-6 polynomial sharing the outside data, q = x
    v = Poly((F(3), F(0), F(-3), F(1)))
    p = WORKED.poly()
    G, conv = compose_outer(v, F(1), 2, Branch.CIRCULAR)
    assert conv == "g-over-m" and G.degree == 6
    assert not identity_residual(G, conv, p, 6, F(1), Branch.CIRCULAR, X)
    assert solvability_residuals(6, p, X) == [F(0)] * 3
    sys6 = coefficients_general(6, p, X)
    assert sys6.solvable()
    # the recurrence solution is monic: u = T_2(v)/2, so the lines shrink to 1/2
    assert integration_constant(6, p, X, sys6.u) == (F(0), F(1, 4))
    assert sys6.u == G.scale(F(1, 2))


def test_compose_outer_values():
    u = Poly((F(-5, 2), F(0), F(1)))
    G, conv = compose_outer(u, F(9, 4), 2, Branch.CIRCULAR)
    assert conv == "g-over-m"
    assert G == (u * u).scale(F(8, 9)) - Poly.one()
    G1, conv1 = compose_outer(u, F(9, 4), 1, Branch.CIRCULAR)
    assert conv1 == "g" and G1 == u


# -- outside data ------------------------------------------------------------------


def test_outside_data_validation():
    data = OutsideData((F(1), F(-1), F(2), F(-2)), (F(0),))
    assert data.p() == QuarticCoeffs.of(0, -5, 0, 4).poly()
    assert data.q() == X
    with pytest.raises(ValueError):
        OutsideData((F(1), F(1), F(2), F(-2)), (F(0),))
    with pytest.raises(ValueError):
        OutsideData((F(1), F(-1), F(0), F(-2)), (F(0),))
    with pytest.raises(ValueError):
        OutsideData((F(1), F(-1)), (F(0),))


def test_outside_data_ell2_instance():
    # crossings of x^3 - 3x with y = +-1, exceptional points at +-1
    roots_plus = Poly((F(-1), F(-3), F(0), F(1)))  # v - 1
    roots_minus = Poly((F(1), F(-3), F(0), F(1)))  # v + 1
    alphas = []
    from bicheb.roots import real_roots

    for f in (roots_plus, roots_minus):
        alphas.extend(r.mid for r in real_roots(f, width=F(1, 2**40)))
    # use exact p, q instead (roots are irrational); the type checks live above
    assert len(alphas) == 6
