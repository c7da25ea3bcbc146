import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from chebyshev_oracle import chebyshev_t, compose_outer as horner_compose_outer
from chebyshev_oracle import identity_residual as poly_identity_residual
from test_golden import cases as golden_cases
from test_roots import count_roots_halfopen, polys_gcd

from bicheb.bipartite import (
    Branch,
    ConditionsNotMet,
    EvenOuterOnHyperbolic,
    InvalidBranchIndex,
    QuarticCoeffs,
    UNIT_AMPLITUDE,
    _recurrence,
    build_solution,
    coefficients_from_recurrence,
    compose_outer,
    conditions,
    continuation,
    f1_polynomial,
    identity_residual,
    solve_c1,
)
from bicheb.elliptic import ClosedForm, decide
from bicheb.multipartite import OutsideData, coefficients_general
from bicheb.poly import Poly
from bicheb.roots import IsolatedRoot, real_roots, sturm_chain

WORKED = QuarticCoeffs.of(-2, -3, 2, 2)  # x^4 - 2x^3 - 3x^2 + 2x + 2
SYMMETRIC = QuarticCoeffs.of(0, -5, 0, 4)  # (x^2-1)(x^2-4)
HYPER = QuarticCoeffs.of(0, -2, 0, 2)  # (x^2-1)^2 + 1
LOG = QuarticCoeffs.of(0, 2, 0, 1)  # (x^2+1)^2
AUX_FAIL = QuarticCoeffs.of(0, -3, 1, 1)


def rand_quartic(rng) -> QuarticCoeffs:
    return QuarticCoeffs.of(
        *[F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(4)]
    )


# -- recurrence -------------------------------------------------------------


def test_recurrence_worked_instance():
    a, f1 = coefficients_from_recurrence(3, WORKED)
    assert a == [F(3), F(0), F(-3), F(1)]
    assert f1 == 0


def test_recurrence_symmetric():
    a, f1 = coefficients_from_recurrence(2, SYMMETRIC)
    assert a == [F(-5, 2), F(0), F(1)]
    assert f1 == 0


def test_recurrence_f1_nonzero():
    _, f1 = coefficients_from_recurrence(2, QuarticCoeffs.of(1, 0, 0, 0))
    assert f1 == 1  # F_1 = c1 for s = 2


def test_recurrence_requires_s_at_least_two():
    with pytest.raises(ValueError):
        coefficients_from_recurrence(1, WORKED)


def _fraction_route(s, c):
    """(a, f1, aux, d) from the Fraction recurrence and the defining formulas."""
    a, f1 = _recurrence(s, c.as_tuple())
    aux = c.c3 * a[2] + 3 * c.c4 * (a[3] if s >= 3 else 0)
    d = s * s * a[0] ** 2 - 4 * c.c4 * a[2] ** 2
    return a, f1, aux, d


def test_integer_route_matches_fraction_recurrence():
    rng = random.Random(7)
    draws = []
    for i in range(18):
        c = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(4)]
        if i % 3 == 1:
            c[3] = F(0)  # only c4 = 0
        elif i % 3 == 2:
            c[2] = c[3] = F(0)  # c3 = c4 = 0
        draws.append(QuarticCoeffs.of(*c))
    cases = [(s, c) for k, c in enumerate(draws) for s in range(2 + k // 3 % 3, 41, 3)]
    # the edges of each step's cancellation: even quartics, where every odd
    # step's numerator is 0; only c4 != 0 with D > 1; every numerator negative
    edges = [QuarticCoeffs.of(0, F(rng.randint(-30, 30), rng.randint(1, 12)), 0,
                              F(rng.randint(-30, 30), rng.randint(1, 12))) for _ in range(3)]
    edges += [QuarticCoeffs.of(0, 0, 0, F(7, 12)), QuarticCoeffs.of(0, 0, 0, F(-5, 6))]
    edges += [QuarticCoeffs.of(*(F(-rng.randint(1, 30), rng.randint(1, 12)) for _ in range(4)))
              for _ in range(3)]
    cases += [(s, c) for c in edges for s in range(2, 41)]
    # every divisor of 720, the largest n of the refusal benchmark
    for c in (QuarticCoeffs.of(F(1, 3), F(-3, 2), 2, F(-1, 6)),
              QuarticCoeffs.of(F(-3, 2), 2, F(1, 2), -3)):
        cases += [(s, c) for s in range(2, 721) if 720 % s == 0]
    for s, c in cases:
        a, f1, aux, d = _fraction_route(s, c)
        cond = conditions(s, c)
        assert (cond.f1, cond.aux, cond.d) == (f1, aux, d), (s, c)
        assert list(cond.a) == a, (s, c)
    assert {s for s, _ in cases} >= set(range(2, 41)) | {120, 720}


def test_condition_coefficients_are_built_on_demand():
    cond = conditions(3, WORKED)
    assert "a" not in vars(cond) and "dens" not in vars(cond)
    assert cond.a == (F(3), F(0), F(-3), F(1))
    assert vars(cond)["a"] is cond.a
    # each step divides gcd(R_k, 2 (9 - k^2)) out of its numerator and factor,
    # and every a_k here is an integer, so every factor cancels to 1
    assert cond.nums == (3, 0, -3, 1)
    assert vars(cond)["dens"] == (1, 1, 1, 1)


def test_condition_factors_cancel():
    # losing the per-step cancellation leaves Q_1 at its full size: at the
    # refusal benchmark's largest divisor it keeps fewer than half the bits
    c, s = QuarticCoeffs.of(F(-3, 2), 2, F(1, 2), -3), 720
    full = math.prod(2 * 2 * (s * s - j * j) for j in range(1, s))  # D = 2
    assert math.prod(conditions(s, c).factors[1:]).bit_length() < full.bit_length() / 2


# -- auxiliary condition -----------------------------------------------------


def test_condition_aux_values():
    assert conditions(3, WORKED).aux == 0  # 2*(-3) + 3*2*1
    assert conditions(2, AUX_FAIL).aux == 1  # c3 * F_2
    rng = random.Random(3)
    for s in (2, 3, 4, 5):
        c = rand_quartic(rng)
        c = QuarticCoeffs(c.c1, c.c2, F(0), F(0))
        assert conditions(s, c).aux == 0  # both summands carry c3 or c4


def test_aux_x3_coefficient_oracle():
    # the undivided identity's x^3 coefficient is -4 a_2 (c3 a_2 + 3 c4 a_3)
    a, _ = coefficients_from_recurrence(2, AUX_FAIL)
    u = Poly(a)
    m2 = F(5, 4)  # value forced by the x^2 matching
    res = identity_residual(u, "g", AUX_FAIL.poly(), 2, m2, Branch.CIRCULAR)
    assert res[3] == -4 * a[2] * (AUX_FAIL.c3 * a[2] + 3 * AUX_FAIL.c4 * 0)


def test_laurent_residual_carries_both_conditions():
    # R = 2 s^2 u - (2 u'' p/x^2 + u' (p/x^2)') is the divided ODE's residual,
    # with the Laurent tail x^-3, x^-2, x^-1; x^3 R is a polynomial
    rng = random.Random(11)
    x = Poly.x()
    for s in (2, 3, 4, 5):
        for _ in range(4):
            c = rand_quartic(rng)
            a, f1 = coefficients_from_recurrence(s, c)
            aux = conditions(s, c).aux
            u, p = Poly(a), c.poly()
            du = u.derivative()
            x3R = (x * x * x * u).scale(2 * s * s) - (x * p * du.derivative()).scale(2)
            x3R = x3R - (x * p.derivative() - p.scale(2)) * du
            # x^-1 carries aux, x^1 carries F_1, every other power vanishes
            assert x3R == Poly((0, 0, -2 * aux, 0, -2 * (s * s - 1) * f1))


# -- discriminant ------------------------------------------------------------


def test_discriminant_values():
    assert conditions(3, WORKED).d == 9
    assert conditions(2, HYPER).d == -4
    assert conditions(2, LOG).d == 0


# -- construction ------------------------------------------------------------


def test_build_circular():
    sol = build_solution(3, WORKED)
    assert sol.u == Poly((F(3), F(0), F(-3), F(1)))
    assert sol.m2 == 1 and sol.branch is Branch.CIRCULAR
    assert not sol.residual()


def test_build_hyperbolic():
    sol = build_solution(2, HYPER)
    assert sol.u == Poly((F(-1), F(0), F(1)))
    assert sol.m2 == 1 and sol.branch is Branch.HYPERBOLIC
    assert not sol.residual()


def test_build_logarithmic():
    sol = build_solution(2, LOG)
    assert sol.u == Poly((F(1), F(0), F(1)))
    assert sol.m2 == 0 and sol.branch is Branch.LOGARITHMIC
    assert not sol.residual()


def test_build_rejects_failed_conditions():
    with pytest.raises(ConditionsNotMet) as exc:
        build_solution(2, AUX_FAIL)
    assert exc.value.f1 == 0 and exc.value.aux == 1
    with pytest.raises(ConditionsNotMet):
        build_solution(2, QuarticCoeffs.of(1, -3, 0, 0))


def test_build_unit_amplitude_surd():
    # d = 9 is a perfect square, so the printed values stay rational: for
    # SYMMETRIC lambda = 2/3 and u = (2x^2 - 5)/3, m = 1
    sol = build_solution(2, SYMMETRIC, UNIT_AMPLITUDE)
    shown = sol.as_dict()
    assert shown["a"] == ["-5/3", "0", "2/3"] and shown["m2"] == "1"
    assert shown["normalization"] == "unit-amplitude" and shown["residual_zero"]
    assert sol.u_text() == "(2/3)*x^2 - (5/3)"
    # |d| = 3 is not a square: hyperbolic x^4 - x^2 + 1, a_s = 2/sqrt(3)
    c = QuarticCoeffs.of(0, -1, 0, 1)
    assert conditions(2, c).d == -3
    sol2 = build_solution(2, c, UNIT_AMPLITUDE)
    shown = sol2.as_dict()
    assert shown["a"] == ["(0 + -1/3*sqrt(3))", "0", "(0 + 2/3*sqrt(3))"]
    assert shown["m2"] == "1" and shown["residual_zero"]
    assert sol2.u_text() == "(0 + 2/3*sqrt(3))*x^2 - (0 + 1/3*sqrt(3))"
    # the data underneath is the rational unit-leading solution
    lead = build_solution(2, c)
    assert sol2.a == lead.a and sol2.m2 == lead.m2 == F(3, 4)
    assert all(type(v) in (int, F) for v in sol2.a)
    with pytest.raises(ValueError):
        build_solution(2, LOG, UNIT_AMPLITUDE)


def test_scaling_covariance():
    base_sol = build_solution(3, WORKED)
    for lam in (F(2), F(1, 2), F(-3, 2)):
        c_hat = QuarticCoeffs(
            WORKED.c1 / lam,
            WORKED.c2 / lam**2,
            WORKED.c3 / lam**3,
            WORKED.c4 / lam**4,
        )
        sol = build_solution(3, c_hat)
        assert sol.d == base_sol.d * lam ** -6
        assert sol.m2 == base_sol.m2 * lam ** -6
        for k in range(4):
            assert sol.a[k] == base_sol.a[k] * lam ** (k - 3)


# -- composition -------------------------------------------------------------


def test_compose_even_outer_g_over_m():
    sol = build_solution(2, SYMMETRIC)
    G, conv = compose_outer(sol.u, sol.m2, 2, sol.branch)
    assert conv == "g-over-m"
    u = Poly((F(-5, 2), F(0), F(1)))
    assert G == (u * u).scale(F(8, 9)) - Poly.one()
    assert not identity_residual(G, conv, SYMMETRIC.poly(), 4, sol.m2, sol.branch)


def test_compose_identity_outer():
    sol = build_solution(3, WORKED)
    G, conv = compose_outer(sol.u, sol.m2, 1, sol.branch)
    assert conv == "g" and G == sol.u


def test_compose_hyperbolic_triple():
    sol = build_solution(2, HYPER)
    G, conv = compose_outer(sol.u, sol.m2, 3, sol.branch)
    u = sol.u
    assert conv == "g" and G == (u * u * u).scale(4) + u.scale(3)
    with pytest.raises(EvenOuterOnHyperbolic):
        compose_outer(sol.u, sol.m2, 2, sol.branch)


def test_compose_degree_multiplicative():
    cases = [
        (build_solution(2, SYMMETRIC), (1, 2, 3, 4)),
        (build_solution(3, WORKED), (1, 2, 3)),
        (build_solution(2, HYPER), (1, 3, 5)),
        (build_solution(2, LOG), (1, 2, 3)),
    ]
    for sol, outers in cases:
        for N in outers:
            G, _ = compose_outer(sol.u, sol.m2, N, sol.branch)
            assert G.degree == N * sol.s


def test_compose_logarithmic_power():
    sol = build_solution(2, LOG)
    G, conv = compose_outer(sol.u, sol.m2, 3, sol.branch)
    assert conv == "g" and G == sol.u ** 3
    assert not identity_residual(G, conv, LOG.poly(), 6, F(0), sol.branch)


# u = x, the worked quartic's u = x^3 - 3x + 3, and u with content 1/10
LADDER_INNERS = (Poly.x(), Poly((F(3), F(-3), F(0), F(1))), Poly((F(-3, 2), F(1, 2), F(3, 5))))


@pytest.mark.parametrize("u", LADDER_INNERS, ids=("x", "worked", "content"))
@pytest.mark.parametrize("m2", (F(1), F(25, 4), F(3, 7), F(2)))
def test_compose_outer_equals_the_horner_oracle(u, m2):
    for N in (*range(1, 61), 80, 120):
        branches = (Branch.CIRCULAR, Branch.HYPERBOLIC) if N % 2 else (Branch.CIRCULAR,)
        for branch in branches:
            assert compose_outer(u, m2, N, branch) == horner_compose_outer(u, m2, N, branch)


# -- identity verification ----------------------------------------------------


def test_classical_chebyshev_embedding():
    # n^2 (T_n^2 - 1) = (x^2 - 1) T_n'^2, checked directly at n = 2
    t2 = chebyshev_t(2)
    lhs = (t2 * t2 - Poly.one()).scale(4)
    rhs = Poly((F(-1), F(0), F(1))) * t2.derivative() * t2.derivative()
    assert lhs == rhs


def test_verify_worked_identity_and_perturbation():
    g = Poly((F(3), F(0), F(-3), F(1)))
    assert not identity_residual(g, "g", WORKED.poly(), 3, F(1), Branch.CIRCULAR)
    perturbed = QuarticCoeffs.of(-2, -3, 2, 5).poly()
    assert identity_residual(g, "g", perturbed, 3, F(1), Branch.CIRCULAR)


def test_no_m_fixes_aux_failure():
    # 4 x^2 (u^2 - m^2) != p u'^2 for every m: the bad x^3 coefficient is
    # m-independent
    a, _ = coefficients_from_recurrence(2, AUX_FAIL)
    u = Poly(a)
    for m2 in (F(0), F(1), F(5, 4), F(7)):
        res = identity_residual(u, "g", AUX_FAIL.poly(), 2, m2, Branch.CIRCULAR)
        assert res[3] == -4


# -- the packed residual against the Poly-arithmetic oracle -------------------

X = Poly.x()
BRANCHES = tuple(Branch)


def _flag(argv: list[str], name: str) -> list[F] | None:
    """The rational list after a CLI flag, given as "--name=v,..." or "--name v,..."."""
    for i, a in enumerate(argv):
        if a.startswith(name + "="):
            return [F(v) for v in a[len(name) + 1 :].split(",")]
        if a == name:
            return [F(v) for v in argv[i + 1].split(",")]
    return None


@cache
def golden_identities() -> list[tuple]:
    """identity_residual's arguments for every closed form the CLI snapshot
    decides: the composed check at n and the inner check at s, over the
    circular, hyperbolic and logarithmic branches and both conventions."""
    out = []
    for argv in golden_cases():
        if argv[0] in ("decide", "integrate"):
            c = QuarticCoeffs.from_list(_flag(argv, "--p"))
            cf = decide(int(argv[argv.index("--n") + 1]), c)
            if isinstance(cf, ClosedForm):
                sol = cf.solution
                out.append((cf.G, cf.convention, c.poly(), cf.n, sol.m2, sol.branch, X))
                out.append((sol.u, "g", c.poly(), sol.s, sol.m2, sol.branch, X))
    return out


@cache
def golden_systems() -> list[tuple]:
    """(u, p, s, q) of every solvable multipartite system in the CLI snapshot."""
    out = []
    for argv in golden_cases():
        if argv[0] == "multi":
            s = int(argv[argv.index("--s") + 1])
            if "--p-roots" in argv:
                data = OutsideData(tuple(_flag(argv, "--p-roots")), tuple(_flag(argv, "--q-roots")))
                p, q = data.p(), data.q()
            else:
                p, q = (Poly(_flag(argv, f)[::-1]) for f in ("--p-coeffs", "--q-coeffs"))
            sys_ = coefficients_general(s, p, q)
            if sys_.solvable():
                out.append((sys_.u, p, s, q))
    return out


def both_routes(*args) -> Poly:
    got = identity_residual(*args)
    assert got == poly_identity_residual(*args)
    return got


def test_golden_identities_hold_on_both_routes():
    cases = golden_identities()
    assert {case[1] for case in cases} == {"g", "g-over-m"}
    assert {case[5] for case in cases} == set(BRANCHES)
    for case in cases:
        assert not both_routes(*case)


def test_perturbed_golden_identities_give_the_oracle_residual():
    # +-1 on a single coefficient of G (the constant, the middle, the top)
    # and of -G, whose lead is negative; a few land on another solution,
    # such as G = 1/2 at M = 1/4
    residuals = [
        both_routes(H + Poly([0] * k + [e]), *rest)
        for G, *rest in golden_identities()
        for H in (G, -G)
        for k in sorted({0, H.degree // 2, H.degree})
        for e in (1, -1)
    ]
    assert sum(map(bool, residuals)) > 0.95 * len(residuals)


def test_multipartite_golden_systems_at_m2_zero():
    # residual(m^2 = 0) = s^2 q^2 u^2 - p u'^2 = s^2 m^2 q^2 is nonzero
    systems = golden_systems()
    assert len(systems) >= 3
    for u, p, s, q in systems:
        W = both_routes(u, "g", p, s, 0, Branch.CIRCULAR, q)
        assert W == (q * q).scale(W.leading())
        assert not both_routes(u, "g", p, s, W.leading() / (s * s), Branch.CIRCULAR, q)


def test_residual_with_zero_g_and_non_unit_contents():
    p, q = Poly((F(2, 3), F(-1), F(0), F(5, 7), F(3, 5))), Poly((F(-1, 2), F(1, 3)))
    for args in (
        (Poly.zero(), "g", WORKED.poly(), 3, F(0), Branch.CIRCULAR),
        (Poly.zero(), "g", p, 5, F(7, 4), Branch.HYPERBOLIC, q),
        (Poly.zero(), "g-over-m", p, 2, F(0), Branch.CIRCULAR, q),
        (Poly((F(3, 4), F(0), F(-5, 6))), "g", p, 3, F(9, 8), Branch.CIRCULAR, q),
        (Poly((F(3, 4), F(0), F(-5, 6))), "g-over-m", p.scale(-6), 4, F(1), Branch.LOGARITHMIC, q),
    ):
        both_routes(*args)
    assert not both_routes(Poly.zero(), "g", p, 5, F(0), Branch.HYPERBOLIC, q)


def test_random_residuals_equal_the_oracle():
    rng = random.Random(20)

    def rand_poly(deg, span):
        return Poly([F(rng.randint(-span, span), rng.randint(1, 9)) for _ in range(deg + 1)])

    for _ in range(200):
        G = rand_poly(rng.randint(-1, 12), rng.choice((1, 10, 10**6)))
        p = rand_poly(rng.randint(0, 6), 9)
        q = rand_poly(rng.randint(0, 2), 9)
        m2 = F(rng.randint(-9, 9), rng.randint(1, 9))
        conv = rng.choice(("g", "g-over-m"))
        both_routes(G, conv, p, rng.randint(1, 40), m2, rng.choice(BRANCHES), q)


@pytest.mark.parametrize("d", (2**15 - 1 - 100**2, 2**16 - 1 - 100**2))
def test_top_slot_at_the_bound(d):
    # G = x, p = -d x^4, n = 100, M = 0: T = (100^2 + d) x^4 = the coefficient
    # bound, just under 2^(w-1) at d = 2^15 - 1 - 100^2 (w = 16); at
    # 2^16 - 1 it needs a third byte
    top = 100**2 + d
    G, p = Poly.x(), Poly((0, 0, 0, 0, -d))
    assert both_routes(G, "g", p, 100, F(0), Branch.CIRCULAR) == Poly((0, 0, 0, 0, top))
    # a negative lead at the bound: G = 0, n = 1, M = top gives -top x^2
    assert both_routes(Poly.zero(), "g", p, 1, F(top), Branch.CIRCULAR) == Poly((0, 0, -top))


# -- shape classification ------------------------------------------------------
#
# The paper's graph-shape definition of a bipartite polynomial, checked
# exactly: an oracle for what the construction emits.


@dataclass(frozen=True)
class ShapeResult:
    """Outcome of the graph-shape classification."""

    bipartite: bool
    exceptional_at: F | None = None
    above: bool | None = None
    reason: str | None = None

    def __bool__(self):
        return self.bipartite


def classify_shape(G: Poly, convention: str, m2) -> ShapeResult:
    """Decide whether G has the bipartite graph shape for lines y = +-m.

    Needs deg(G) - 1 distinct real simple critical points, exactly one of
    them off the lines (|value| > m), located at x = 0; every other
    critical value must sit exactly on a line.  All checks are exact.
    """
    if G.degree < 1:
        raise ValueError("classification needs a nonconstant polynomial")
    M = F(m2) if convention == "g" else F(1)
    n = G.degree
    dG = G.derivative()
    crits = real_roots(dG)
    if any(r.multiplicity > 1 for r in crits):
        return ShapeResult(False, reason="degenerate critical point")
    if len(crits) != n - 1:
        return ShapeResult(
            False, reason=f"only {len(crits)} of {n - 1} critical points are real"
        )
    h = G * G - Poly((M,))
    # G' has n - 1 simple roots, so it is square-free and so is w
    w = polys_gcd(dG, h)
    chain = sturm_chain(w) if w.degree > 0 else None
    off_line = [r for r in crits if not _vanishes_on(w, chain, r)]
    if len(off_line) != 1:
        return ShapeResult(
            False,
            reason=(
                "no exceptional extremum"
                if not off_line
                else f"{len(off_line)} extrema lie off the lines"
            ),
        )
    exc = off_line[0]
    at_zero = exc.exact and exc.lo == 0
    if not at_zero:
        return ShapeResult(False, reason="exceptional extremum not at the origin")
    h0 = h.eval(F(0))
    if h0 <= 0:
        return ShapeResult(False, reason="extremum at the origin is not outside the lines")
    return ShapeResult(True, exceptional_at=F(0), above=G.eval(F(0)) > 0)


def _vanishes_on(w: Poly, chain, r: IsolatedRoot) -> bool:
    """Does w (with Sturm chain `chain`, None when w is constant) vanish at
    the root of G' isolated by r?

    w divides the square-free G', so the isolating endpoints are never
    roots of w.
    """
    if chain is None:
        return False
    if r.exact:
        return w.eval(r.lo) == 0
    return count_roots_halfopen(chain, r.lo, r.hi) > 0




def test_classify_bipartite_worked():
    out = classify_shape(Poly((F(3), F(0), F(-3), F(1))), "g", F(1))
    assert out.bipartite and out.exceptional_at == 0 and out.above


def test_classify_rejects_plain_chebyshev():
    out = classify_shape(chebyshev_t(3), "g", F(1))
    assert not out.bipartite and "no exceptional" in out.reason


def test_classify_rejects_degenerate():
    out = classify_shape(Poly((F(0), F(0), F(0), F(1))), "g", F(1))
    assert not out.bipartite and "degenerate" in out.reason


def test_classify_shape_contract_for_built_solutions():
    # d > 0, four distinct real roots of p, s >= 3
    cases = [(3, WORKED), (4, SYMMETRIC)]
    for s, c in cases:
        sol = build_solution(s, c)
        assert sol.d > 0
        out = classify_shape(sol.u, "g", sol.m2)
        assert out.bipartite and out.exceptional_at == 0


def test_classify_below_exceptional():
    # u = x^2 - 5/2 with m = 3/2: single extremum below the lower line
    out = classify_shape(Poly((F(-5, 2), F(0), F(1))), "g", F(9, 4))
    assert out.bipartite and out.above is False


# -- solve_c1 -------------------------------------------------------------------


def test_solve_c1_known_cases():
    roots = solve_c1(3, F(-3), 0, 0)
    assert [r.lo for r in roots] == [-2, 2] and all(r.exact for r in roots)
    roots2 = solve_c1(2, F(7), F(-1), F(5))
    assert [r.lo for r in roots2] == [0]
    assert solve_c1(3, F(3), 0, 0) == []


def test_solve_c1_count_for_negative_c2():
    # for c3 = c4 = 0 and c2 < 0 there are s-1 distinct real roots
    for s in (2, 3, 4, 5, 6):
        assert len(solve_c1(s, F(-2), 0, 0)) == s - 1


# -- F_1 as a polynomial in one coefficient --------------------------------------

coefficient = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 5, 7, 12)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 30), st.integers(1, 4), st.lists(coefficient, min_size=4, max_size=4))
def test_f1_polynomial_evaluates_to_the_conditions_value(s, target, c):
    fixed = {p: v for p, v in enumerate(c, 1) if p != target}
    f1 = f1_polynomial(s, target, fixed)
    assert f1.eval(c[target - 1]) == conditions(s, QuarticCoeffs.of(*c)).f1


def test_f1_polynomial_negative_leading_coefficient():
    # the c2^2 c1 monomial of F_1 at s = 6 leads, with the sign of c1
    fixed = {1: F(-1, 3), 3: F(2, 5), 4: F(7)}
    f1 = f1_polynomial(6, 2, fixed)
    assert f1.degree == 2 and f1.leading() < 0
    for v in (F(0), F(1), F(-2), F(3, 7)):
        assert f1.eval(v) == conditions(6, QuarticCoeffs.of(F(-1, 3), v, F(2, 5), F(7))).f1


def test_f1_polynomial_zero_bound():
    # with c1 = c3 = c4 = 0, F_1 at odd weight s - 1 has no monomial in c2:
    # the bound is 0 and F_1 is the zero polynomial; at s = 5 only (2, 2) is left
    assert f1_polynomial(4, 2, {1: F(0), 3: F(0), 4: F(0)}) == Poly.zero()
    assert f1_polynomial(5, 2, {1: F(0), 3: F(0), 4: F(0)}) == Poly((0, 0, F(5, 16)))


# -- hyperbolic impossibility for odd s ------------------------------------------


def s3_family(c1: F, c3: F) -> QuarticCoeffs:
    """Exact solution locus for s = 3: F_1 = 0 and aux = 0 by construction."""
    return QuarticCoeffs(c1, -F(3, 4) * c1 * c1, c3, -c1 * c3 / 2)


def test_s3_family_is_valid_locus():
    rng = random.Random(23)
    for _ in range(25):
        c1 = F(rng.randint(-9, 9), rng.randint(1, 4))
        c3 = F(rng.randint(-9, 9), rng.randint(1, 4))
        c = s3_family(c1, c3)
        assert conditions(3, c).f1 == 0 and conditions(3, c).aux == 0
        d = conditions(3, c).d
        assert d == F(9, 16) * (c1**3 + 2 * c3) ** 2
        assert d >= 0  # hyperbolic branch unreachable for odd s
        if d != 0:
            sol = build_solution(3, c)
            assert sol.branch is Branch.CIRCULAR


def test_odd_s_nonexistence_composed_degree_nine():
    rng = random.Random(29)
    found = 0
    for _ in range(30):
        c1 = F(rng.randint(-6, 6), rng.randint(1, 3))
        c3 = F(rng.randint(-6, 6), rng.randint(1, 3))
        if (c1**3 + 2 * c3) == 0:
            continue
        c = s3_family(c1, c3)
        # the same quartic admits the degree-9 composed solution, still circular;
        # re-monicizing g = m T_3(u/m) (leading 4/m^2) scales the lines by
        # m^2/4, so d_9 = 81 (m^3/4)^2 = d_3^3 / 144
        assert conditions(9, c).f1 == 0 and conditions(9, c).aux == 0
        d3 = conditions(3, c).d
        d9 = conditions(9, c).d
        assert d9 == d3**3 / 144 and d9 > 0
        sol9 = build_solution(9, c)
        assert sol9.branch is Branch.CIRCULAR and not sol9.residual()
        found += 1
        if found >= 5:
            break
    assert found >= 5


def test_logarithmic_boundary_of_s3_family():
    c = s3_family(F(-2), F(4))  # c1^3 + 2 c3 = 0
    assert conditions(3, c).d == 0
    sol = build_solution(3, c)
    assert sol.branch is Branch.LOGARITHMIC and not sol.residual()


# -- continuation -----------------------------------------------------------------


def test_continuation_constant_path_s2():
    r = continuation(2, F(-2), F(0), F(1, 100), 1)
    assert r.reached and r.c1_exact == 0 and r.f1_exact_zero
    assert r.solution is not None
    assert r.solution.u == Poly((F(-1), F(0), F(1)))
    assert r.solution.m2 == F(99, 100)


def test_continuation_s3_worked_path():
    r = continuation(3, F(-3), F(2), F(2), 1)
    assert r.reached and r.c1_exact == -2
    assert r.solution is not None and r.solution.u == Poly((F(3), F(0), F(-3), F(1)))


def test_continuation_s3_other_branch_aux_fails():
    r = continuation(3, F(-3), F(2), F(2), 2)
    assert r.reached and r.c1_exact == 2
    assert r.solution is None and r.aux_at_target == 12


def test_continuation_identity_path_s4():
    for k in (1, 2, 3):
        r = continuation(4, F(-2), F(0), F(0), k)
        assert r.reached and r.tau_star == 1.0
        assert r.f1_residual < 1e-10
    assert continuation(4, F(-2), F(0), F(0), 2).c1_exact == 0


@pytest.mark.parametrize("c2, message, tau_star", [
    (-2, "root collision at tau = 0.416046", 0.408233642578125),
    (-3, "step size underflow during Newton correction", 0.75),
])
def test_continuation_stops_short(c2, message, tau_star):
    r = continuation(4, F(c2), F(-8), F(-8), 1)
    assert (r.message, r.tau_star, r.reached) == (message, tau_star, False)
    assert r.c1_exact is None and not r.f1_exact_zero and r.solution is None


def test_continuation_bad_branch_index():
    with pytest.raises(InvalidBranchIndex):
        continuation(4, F(-2), F(0), F(0), 4)
    with pytest.raises(InvalidBranchIndex):
        continuation(4, F(-2), F(0), F(0), 0)


def test_continuation_certified_numeric_bound():
    for k in (1, 2, 3):
        r = continuation(4, F(-2), F(1, 100), F(1, 100), k)
        assert r.reached
        assert r.f1_exact_zero or (r.reached and r.ode_polypart_residual_bound(-2.0, 2.0) <= 1e-9)
