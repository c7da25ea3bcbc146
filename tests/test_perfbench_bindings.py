"""The benchmark's tracer binds bicheb functions by name.

``perfbench/tracer.py`` wraps every ``(module, name)`` in its ``SPANNED``
and ``COUNTED`` lists and the ``Poly`` methods in ``POLY_METHODS``; a
deletion or rename in ``src/bicheb`` would make ``perfbench/run.py
--trace 1`` fail with a KeyError or AttributeError.  These tests catch
that in the main suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

from bicheb.poly import Poly

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_functions_resolve(tracer):
    for module, name in tracer.SPANNED + tracer.COUNTED:
        mod = importlib.import_module(f"bicheb.{module}")
        assert callable(getattr(mod, name, None)), f"bicheb.{module}.{name}"


def test_traced_poly_methods_exist(tracer):
    for name in tracer.POLY_METHODS:
        assert name in Poly.__dict__, f"Poly.{name}"
