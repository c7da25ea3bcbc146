"""The benchmark binds bicheb functions and reads bicheb records by name.

``perfbench/tracer.py`` wraps every ``(module, name)`` in its ``SPANNED``
and ``COUNTED`` lists and the ``Poly`` methods in ``POLY_METHODS``; a
deletion or rename in ``src/bicheb`` would make ``perfbench/run.py
--trace 1`` fail with a KeyError or AttributeError.  ``perfbench/checker.py``
reads the fields of ``decide``'s outcomes, and a missing one fails every
check of a workload.  These tests catch both in the main suite.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from bicheb.bipartite import QuarticCoeffs
from bicheb.elliptic import decide
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


def test_checked_record_fields():
    yes = decide(3, QuarticCoeffs.of(-2, -3, 2, 2))
    assert yes.decided is True
    assert decide(2, QuarticCoeffs.of(0, -3, 1, 1)).decided is False
    with pytest.raises(dataclasses.FrozenInstanceError):
        yes.pieces = ()
    names = {f.name for f in dataclasses.fields(yes)}
    assert names >= {"pieces", "G", "m2", "convention", "branch"}
    assert yes.pieces
    for piece in yes.pieces:
        names = {f.name for f in dataclasses.fields(piece)}
        assert names >= {"lo", "hi", "sigma", "fn", "inner_sign"}
