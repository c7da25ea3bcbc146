import math
import random

import pytest

from bicheb.poly import Poly
from bicheb.quadrature import (
    Integrand,
    RegionViolation,
    integrate_adaptive,
)


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


def test_empty_interval():
    assert integrate_adaptive(lambda x: x, 2.0, 2.0, 1e-12) == (0.0, 0.0)
