"""Cross-check emitted antiderivatives against an independent CAS.

For each branch and piece, the rendered formula is differentiated
symbolically and compared with the integrand at high precision; the
difference must vanish to 50 digits.  The unit-amplitude coefficients
that ``construct`` prints, square roots included, are parsed back and
must satisfy the defining identity exactly.  Skipped when sympy is
absent (it is an oracle, not a dependency).
"""

import contextlib
import io
import json
from fractions import Fraction as F

import pytest

sp = pytest.importorskip("sympy")

from bicheb.bipartite import QuarticCoeffs
from bicheb.cli import main
from bicheb.elliptic import decide

X = sp.Symbol("x", real=True)


def antiderivative_expr(cf, piece):
    p = sum(sp.Rational(str(v)) * X**k for k, v in enumerate(cf.c.poly().coeffs))
    G = sum(sp.Rational(str(v)) * X**k for k, v in enumerate(cf.G.coeffs))
    m2 = sp.Rational(str(cf.m2))
    y = G / sp.sqrt(m2) if (cf.convention == "g" and cf.branch != "Logarithmic") else G
    fn = {"arccos": sp.acos, "arccosh": sp.acosh, "arcsinh": sp.asinh}.get(piece.fn)
    if piece.fn == "log":
        A = sp.Rational(piece.sigma, cf.n) * sp.log(sp.Abs(G))
    else:
        A = sp.Rational(piece.sigma, cf.n) * fn(piece.inner_sign * y)
    integrand = X / sp.sqrt(-p if cf.radicand_sign < 0 else p)
    return A, integrand


CASES = [
    (3, (-2, -3, 2, 2), 0, ["-95/100", "-85/100", "-75/100"]),
    (3, (-2, -3, 2, 2), 1, ["11/10", "3/2", "19/10"]),
    (3, (-2, -3, 2, 2), 2, ["21/10", "5/2", "27/10"]),
    (2, (0, -2, 0, 2), 0, ["-2", "-1/2", "1/2", "3"]),
    (6, (0, -2, 0, 2), 0, ["-2", "-1/2", "1/2", "3"]),
    (2, (0, 2, 0, 1), 0, ["-2", "1/2", "3"]),
    (2, (0, -1, 0, 1), 0, ["-2", "1/2", "3"]),
    (4, (0, -5, 0, 4), 1, ["11/10", "3/2", "155/100"]),
    (2, (0, -2, 0, 1), 1, ["-1/2", "1/4", "3/4"]),
    (9, (-2, -3, 2, 2), 1, ["-93/100", "-87/100", "-82/100"]),
    # arccosh: p = x^2 (x^2 + 1) split at its double root, and p > 0 everywhere
    (4, (0, 1, 0, 0), 0, ["-3", "-1", "-1/10"]),
    (4, (0, 1, 0, 0), 1, ["1/10", "1", "3"]),
    (6, (0, F(3, 2), 0, F(1, 2)), 0, ["-2", "-1/2", "1/3", "2"]),
]


@pytest.mark.parametrize("n,c,piece_idx,samples", CASES)
def test_symbolic_derivative_matches_integrand(n, c, piece_idx, samples):
    cf = decide(n, QuarticCoeffs.of(*c))
    piece = cf.pieces[piece_idx]
    A, integrand = antiderivative_expr(cf, piece)
    dA = sp.diff(A, X)
    for xv in samples:
        diff = sp.Abs((dA - integrand).subs(X, sp.Rational(xv))).evalf(60)
        assert diff < sp.Float("1e-50"), (n, c, piece_idx, xv, diff)


# (s, c2, c3, c4, branch, |d| a rational square)
UNIT_AMPLITUDE_CASES = [
    (2, "-1", "0", "1", "hyperbolic", False),
    (2, "-3", "0", "1", "circular", False),
    (2, "-5", "0", "4", "circular", True),
    (2, "-2", "0", "2", "hyperbolic", True),
    (3, "-3", "2", "2", "circular", True),
    (6, "-8", "0", "-4", "circular", False),
    (6, "-3", "0", "3", "hyperbolic", False),  # |d| = 243/256
]


@pytest.mark.parametrize("s,c2,c3,c4,branch,square", UNIT_AMPLITUDE_CASES)
def test_unit_amplitude_output_satisfies_identity(s, c2, c3, c4, branch, square):
    argv = ["construct", "--s", str(s), f"--c2={c2}", f"--c3={c3}", f"--c4={c4}",
            "--normalize", "unit-m", "--json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    sols = json.loads(buf.getvalue())["solutions"]
    assert sols
    for sol in sols:
        assert sol["branch"] == branch and sol["m2"] == "1"
        assert any("sqrt" in a for a in sol["a"]) != square
        u = sum(sp.sympify(a) * X**k for k, a in enumerate(sol["a"]))
        p = X**4 + sum(sp.Rational(v) * X ** (3 - i) for i, v in enumerate(sol["c"]))
        sign = 1 if branch == "hyperbolic" else -1
        assert sp.expand(s**2 * X**2 * (u**2 + sign) - p * sp.diff(u, X) ** 2) == 0
