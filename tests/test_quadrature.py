import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from bicheb.poly import Poly
from bicheb.quadrature import (
    Integrand,
    RegionViolation,
    _gk15,
    integrate_adaptive,
)

ROOT = Path(__file__).resolve().parent.parent
# x^4 - 2x^3 - 3x^2 + 2x + 2, roots -1, 1 - sqrt3, 1 and 1 + sqrt3
WORKED = Poly((2, 2, -3, -2, 1))


def test_linear_sanity():
    # p constant 1: integrand reduces to x
    f = Integrand(Poly.one().float_coeffs())
    value, err = integrate_adaptive(f, 0.0, 1.0, 1e-12)
    assert abs(value - 0.5) <= 1e-12


def test_rational_log_case():
    # x/(x^2+1) over [1, 2] = (1/2) log(5/2)
    def f(x):
        return x / (x * x + 1)

    value, _ = integrate_adaptive(f, 1.0, 2.0, 1e-12)
    assert abs(value - 0.5 * math.log(2.5)) <= 1e-10


def test_interval_additivity():
    p = Poly((2, 2, -3, -2, 1)).float_coeffs()
    f = Integrand(p, -1)  # x/sqrt(-p) on a p<0 stretch
    a, b = -0.95, -0.75
    rng = random.Random(17)
    total, _ = integrate_adaptive(f, a, b, 1e-12)
    for _ in range(5):
        c = rng.uniform(a + 1e-3, b - 1e-3)
        left, _ = integrate_adaptive(f, a, c, 1e-12)
        right, _ = integrate_adaptive(f, c, b, 1e-12)
        assert abs(total - (left + right)) <= 1e-10


def test_linearity():
    def f(x):
        return x * x

    def g(x):
        return math.sin(x)

    v1, _ = integrate_adaptive(lambda x: 2 * f(x) + 3 * g(x), 0.0, 1.0, 1e-12)
    vf, _ = integrate_adaptive(f, 0.0, 1.0, 1e-12)
    vg, _ = integrate_adaptive(g, 0.0, 1.0, 1e-12)
    assert abs(v1 - (2 * vf + 3 * vg)) <= 1e-10


def test_region_violation():
    p = Poly((2, 2, -3, -2, 1)).float_coeffs()
    f = Integrand(p, 1)  # wrong sign on (-1, 1-sqrt3)
    with pytest.raises(RegionViolation):
        integrate_adaptive(f, -0.95, -0.75, 1e-10)
    with pytest.raises(RegionViolation):  # p(1) = 0: a root is not inside
        Integrand(p, -1)(1.0)


def test_empty_interval():
    assert integrate_adaptive(lambda x: x, 2.0, 2.0, 1e-12) == (0.0, 0.0)


@pytest.mark.parametrize("k", range(23))
def test_gk15_is_exact_to_its_degree(k):
    # K15 integrates degree <= 22 exactly and G7 degree <= 13, which pins
    # every node and weight of the tables
    value, err = _gk15(lambda x: x**k, -1.0, 1.0)
    exact = 2 / (k + 1) if k % 2 == 0 else 0.0
    assert abs(value - exact) <= 1e-15
    if k <= 13:
        assert err <= 1e-15
    elif k % 2 == 0:
        assert err > 1e-6


def test_no_endpoint_is_evaluated():
    a, b = 0.3, 1.7

    def f(x):
        if x in (a, b):
            raise AssertionError(f"evaluated at the endpoint {x}")
        return x * x

    value, _ = integrate_adaptive(f, a, b, 1e-12)
    assert abs(value - (b**3 - a**3) / 3) <= 1e-14


@functools.cache
def _reference(a, b, sign):
    with mpmath.workdps(40):
        return mpmath.quad(
            lambda x: x / mpmath.sqrt(sign * mpmath.polyval(WORKED.float_coeffs()[::-1], x)),
            [mpmath.mpf(a), mpmath.mpf(b)],
        )


TOLS = (1e-8, 1e-10, 1e-12)


# (a, b, sign of p there)
@pytest.mark.parametrize("a, b, sign", [
    (-0.95, -0.75, -1), (1.1, 1.9, -1), (-0.7, 0.9, 1), (-3, -1.5, 1), (2.8, 6, 1),
])
@pytest.mark.parametrize("tol", TOLS)
def test_interior_intervals_against_mpmath(a, b, sign, tol):
    value, err = integrate_adaptive(Integrand(WORKED.float_coeffs(), sign), a, b, tol)
    true_error = float(abs(value - _reference(a, b, sign)))
    assert true_error <= 1e-14
    assert err >= true_error


# float evaluation of p next to its root limits these; the estimate need
# not cover the true error there
@pytest.mark.parametrize("a, b", [(1.0000001, 1.9), (1 + 1e-12, 1.9), (2.05, 2.7320508)])
@pytest.mark.parametrize("tol", TOLS)
def test_near_root_intervals_against_mpmath(a, b, tol):
    value, _ = integrate_adaptive(Integrand(WORKED.float_coeffs(), -1), a, b, tol)
    assert float(abs(value - _reference(a, b, -1))) <= 1e-11


def test_import_loads_no_scipy():
    code = "import sys, bicheb; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_scipy_in_the_source_or_the_dependencies():
    files = [ROOT / "pyproject.toml", *sorted((ROOT / "src").rglob("*.py"))]
    assert [f.name for f in files if "scipy" in f.read_text()] == []
