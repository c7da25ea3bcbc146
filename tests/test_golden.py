"""Behaviour snapshot of the CLI: exact stdout and exit code per argv.

The fixture ``tests/data/golden_cli.json`` holds, for each argv below, the
output the code emitted when the snapshot was taken.  It guards against
unintended change; it is not an oracle.

Regenerate after an intended change of output with

    PYTHONPATH=src python tests/test_golden.py

which prints the argv of every entry whose output changed.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from bicheb import bipartite, roots
from bicheb.cli import main

FIXTURE = Path(__file__).parent / "data" / "golden_cli.json"

# (coefficients, divisor s, outer degree n/s must be odd): the known-solvable
# quartics of the suite, at every n <= 33 their divisor admits
FAMILIES = {
    "WORKED": ("-2,-3,2,2", 3, False),
    "SYMMETRIC": ("0,-5,0,4", 2, False),
    "HYPER": ("0,-2,0,2", 2, True),
    "LOG": ("0,2,0,1", 2, False),
}


def cases() -> list[list[str]]:
    out = []
    for p, s, odd_outer in FAMILIES.values():
        for n in range(s, 34, s):
            if not odd_outer or (n // s) % 2 == 1:
                out.append(["decide", "--n", str(n), f"--p={p}", "--json"])
    # refusals: aux fails at s = 2; HYPER at n = 4 has an even outer degree
    for n, p in ((2, "0,-3,1,1"), (4, "0,-3,1,1"), (6, "0,-3,1,1"), (4, "0,-2,0,2")):
        out.append(["decide", "--n", str(n), f"--p={p}"])
        out.append(["decide", "--n", str(n), f"--p={p}", "--json"])
    # refusals at highly composite n with long coefficients: denominators 2
    # and 3 in the quartic, and a zero c3
    for n, p, fmt in ((120, "1/3,-3/2,2,-1/6", []), (120, "1/2,-3,0,-1", ["--json"]),
                      (360, "1/3,-3/2,2,-1/6", ["--json"]),
                      (360, "1/2,-3,0,-1", ["--json"]),
                      (360, "-3/2,2,1/2,-3", ["--json"]), (720, "-3/2,2,1/2,-3", ["--json"]),
                      (720, "1/2,-3,0,-1", [])):
        out.append(["decide", "--n", str(n), f"--p={p}", *fmt])
    # arccosh where p > 0 with a double root at 0, and a non-square m^2 under
    # the "g" convention, as text and latex
    out += [
        ["decide", "--n", "4", "--p=0,1,0,0"],
        ["decide", "--n", "4", "--p=0,1,0,0", "--json"],
        ["integrate", "--n", "4", "--p=0,1,0,0", "--format", "latex"],
        ["integrate", "--n", "2", "--p=0,-3,0,1"],
        ["integrate", "--n", "2", "--p=0,-3,0,1", "--format", "latex"],
        # m = 1/4: the text divides by (1/4)
        ["decide", "--n", "2", "--p=0,3/2,0,1/2"],
    ]
    out += [
        ["decide", "--n", "6", "--p=-2,-3,2,2", "--verbose"],
        ["construct", "--s", "3", "--c2=-3", "--c3", "2", "--c4", "2", "--json"],
        ["construct", "--s", "3", "--c2=-3", "--c3", "2", "--c4", "2",
         "--normalize", "unit-m", "--json"],
        ["construct", "--s", "2", "--c2=-1", "--c3", "0", "--c4", "1",
         "--normalize", "unit-m", "--json"],
        # unit-amplitude as text: hyperbolic d = -3, circular d = 5
        ["construct", "--s", "2", "--c2=-1", "--c3", "0", "--c4", "1",
         "--normalize", "unit-m"],
        ["construct", "--s", "2", "--c2=-3", "--c3", "0", "--c4", "1",
         "--normalize", "unit-m"],
        ["complete", "--n", "3", "--fix", "c1=-2,c3=2,c4=2", "--solve", "c2"],
        ["multi", "--s", "2", "--p-roots", "1,-1,2,-2", "--q-roots", "0"],
        # ell = 2 solvable; q(0) = 0 where the pinned and unpinned residuals
        # differ; a generic refusal
        ["multi", "--s", "3", "--p-coeffs", "1,0,-6,0,9,0,-1", "--q-coeffs", "1,0,-1",
         "--json"],
        ["multi", "--s", "4", "--p-roots", "1,-1,2,-3", "--q-roots", "0"],
        ["multi", "--s", "4", "--p-roots", "1,-1,2,-3", "--q-roots", "1/2", "--json"],
        # denominators 3, 5 and 7 in the roots and in the coefficients; ell = 3
        # solvable (u = x^4 - 2x^2, q = u'/4, q(0) = 0) and refused with
        # 3 ell > s, where the conditions reach index -s
        ["multi", "--s", "6", "--p-roots", "1/3,-2/5,3/7,-1", "--q-roots", "2/7"],
        ["multi", "--s", "5", "--p-coeffs", "1,1/3,-2/7,5/3,-1/7", "--q-coeffs", "1,2/7",
         "--json"],
        ["multi", "--s", "4", "--p-coeffs", "1,0,-4,0,4,0,0,0,-1", "--q-coeffs", "1,0,-1,0",
         "--json"],
        ["multi", "--s", "5", "--p-roots", "1,-1,1/2,-1/3,2,-2,3/5,-3",
         "--q-roots", "0,1/7,-2/3"],
        ["perturb", "--s", "4", "--c2=-2", "--target-c3", "0.01",
         "--target-c4", "0.01", "--branch", "2"],
        ["fk", "--s", "6", "--json"],
        ["fk", "--s", "30"],
        ["fk", "--s", "17", "--json"],
        ["fk", "--s", "12", "--eval=1/3,-3/2,2,-1/6", "--json"],
        # F_1 as a polynomial in one coefficient: c1 at even s, c4 and c3
        # with a denominator, construct and the tracker's start roots
        ["complete", "--n", "20", "--fix", "c2=-5,c3=0,c4=4", "--solve", "c1"],
        ["complete", "--n", "20", "--fix", "c2=-5,c3=0,c4=4", "--solve", "c1", "--json"],
        ["complete", "--n", "13", "--fix", "c1=1,c2=-3,c3=1/2", "--solve", "c4", "--json"],
        ["complete", "--n", "6", "--fix", "c1=1,c2=-3,c4=1/2", "--solve", "c3",
         "--force-s", "6", "--json"],
        ["construct", "--s", "6", "--c2=-2", "--c3", "0", "--c4", "0", "--json"],
        ["perturb", "--s", "5", "--c2=-2", "--target-c3", "0.01", "--target-c4", "0.02",
         "--branch", "3", "--json"],
        # s = 1 has no conditions to run: F_0 = 0 and F_1 = 1 come from the table
        ["fk", "--s", "1", "--eval=1,2,3,4"],
        ["fk", "--s", "2", "--eval=0,-5,0,4"],
    ]
    return out


def run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def load() -> dict:
    entries = json.loads(FIXTURE.read_text())
    return {" ".join(e["argv"]): e for e in entries}


def test_fixture_covers_every_case():
    assert sorted(load()) == sorted(" ".join(a) for a in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_matches_snapshot(argv):
    want = load()[" ".join(argv)]
    got = run(argv)
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]


@pytest.mark.parametrize(
    "argv", [a for a in cases() if a[0] in ("decide", "complete")], ids=" ".join
)
def test_cli_output_without_a_float_guess_matches_snapshot(monkeypatch, argv):
    # roots._refine then runs QIR from level 0, and the sweep of cuts bisects exactly
    monkeypatch.setattr(roots, "_float_root", lambda *a: math.nan)
    monkeypatch.setattr(bipartite, "_newton_root", lambda *a: math.nan)
    want = load()[" ".join(argv)]
    got = run(argv)
    assert got["exit"] == want["exit"]
    assert got["stdout"] == want["stdout"]


if __name__ == "__main__":
    before = load() if FIXTURE.exists() else {}
    entries = [run(a) for a in cases()]
    for e in entries:
        if before.get(" ".join(e["argv"])) != e:
            print("changed:", " ".join(e["argv"]))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(entries, indent=1) + "\n")
