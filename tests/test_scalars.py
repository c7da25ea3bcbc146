import sys
from fractions import Fraction as F

import pytest

from bicheb.scalars import (
    MAX_DIGITS,
    NumberTooLong,
    is_square,
    parse_rational,
    rational_sqrt,
    reconstruct_rational,
    simplest_in_interval,
)


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational("0.01") == F(1, 100)
    assert parse_rational("1e-3") == F(1, 1000)
    assert parse_rational(" 5/10 ") == F(1, 2)
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        parse_rational(" 1/0 ")
    for text in ("abc", "nan", "inf", "1/2/3"):
        with pytest.raises(ValueError, match=rf"^'{text}' is not a rational number"):
            parse_rational(text)


def test_parse_rational_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    try:
        # under the interpreter's default, and lifted as the CLI runs a command
        for interpreter_limit in (4300, 0):
            sys.set_int_max_str_digits(interpreter_limit)
            for text in ("7" * (MAX_DIGITS + 1), "-1/" + "3" * (MAX_DIGITS + 1),
                         "0." + "5" * (MAX_DIGITS + 1), "1" + "_1" * MAX_DIGITS):
                with pytest.raises(ValueError) as info:
                    parse_rational(text)
                assert str(info.value) == (
                    f"{text[:20] + '...'!r} has a run of {MAX_DIGITS + 1} digits; "
                    f"numbers are limited to {MAX_DIGITS} digits")
            assert parse_rational("7" * MAX_DIGITS) == int("7" * MAX_DIGITS)
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_rational_bounds_the_decimal_exponent():
    assert parse_rational(f"1e{MAX_DIGITS}") == 10**MAX_DIGITS
    assert parse_rational(f"-2.5E-{MAX_DIGITS}") == F(-5, 2 * 10**MAX_DIGITS)
    for text in (f"1e{MAX_DIGITS + 1}", f"1e-{MAX_DIGITS + 1}", f" 0.5E+{MAX_DIGITS + 1} "):
        with pytest.raises(NumberTooLong) as info:
            parse_rational(text)
        assert str(info.value) == (
            f"{text.strip()!r} has a decimal exponent past {MAX_DIGITS}; "
            f"exponents are limited to {MAX_DIGITS} in absolute value")


def test_is_square_and_sqrt():
    assert is_square(F(9, 4))
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert not is_square(F(2))
    assert not is_square(F(-4))
    with pytest.raises(ValueError):
        rational_sqrt(F(2))


def test_simplest_in_interval():
    assert simplest_in_interval(F(-1, 2), F(1, 3)) == 0
    assert simplest_in_interval(F(3, 10), F(34, 100)) == F(1, 3)
    assert simplest_in_interval(F(5, 2), F(7, 2)) == 3
    assert simplest_in_interval(F(2), F(3)) == F(5, 2)
    assert simplest_in_interval(F(-34, 100), F(-3, 10)) == F(-1, 3)
    v = simplest_in_interval(F(141, 100), F(142, 100))
    assert F(141, 100) < v < F(142, 100)
    assert v == F(99, 70) or v.denominator <= 70


def test_reconstruct_rational():
    assert reconstruct_rational(0.25) == F(1, 4)
    assert reconstruct_rational(float(F(-2))) == F(-2)
    assert reconstruct_rational(2.0000000000000004) == F(2)
    # irrational targets produce either nothing or a candidate that callers
    # must reject by exact evaluation
    cand = reconstruct_rational(2.8284271247461903)
    assert cand is None or cand != F(2828427, 1000000)
